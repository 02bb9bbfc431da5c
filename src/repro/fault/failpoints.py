"""Failpoints: seeded fault injection against the campaign harness itself.

The paper's method assumes the *kernel* under test is hostile; this
module assumes the *host* is.  A failpoint is a named site inside the
execution stack — executor runs and snapshot recycling, log
appends/flushes/replaces, the relay codecs — where a configured fault
fires:

- ``raise``        — raise :class:`ChaosError` at the site (an abrupt
  host failure: the campaign is interrupted exactly there);
- ``kill``         — ``os._exit`` the process, but only when it is a
  worker process (in the campaign parent the action degrades to ``raise``
  so a chaos run never takes the test harness itself down);
- ``delay``        — sleep a few milliseconds, perturbing thread and
  worker interleavings;
- ``short-write``  — *cooperative*: the site is told to write only a
  prefix of its payload and then crash, modelling power loss mid-append.

Sites are compiled into the hot paths as cheap no-ops and armed through
the ``REPRO_FAILPOINTS`` environment variable (inherited by forked
workers), either per site (``testlog.append=raise:0.1``) or in *chaos
mode* (``chaos:<seed>[:<rate>]``), where a seeded RNG arms every site
probabilistically.  The randomized soak tests drive campaigns under
many chaos seeds and assert the durability invariant the whole
execution stack claims: *interrupted anywhere + resumed from the
streaming log == uninterrupted*.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass

#: Environment variable holding the armed failpoint rules.
ENV_VAR = "REPRO_FAILPOINTS"

#: Probability per hit that an armed chaos-mode site fires.
DEFAULT_CHAOS_RATE = 0.05

#: The injection sites wired through the execution stack, with the
#: actions each may fire.  ``kill`` only appears on sites that execute
#: inside worker processes; ``short-write`` only on sites that own a file
#: write and cooperate with the injected truncation.
SITES: dict[str, tuple[str, ...]] = {
    "executor.run": ("raise", "delay", "kill"),
    "executor.recycle": ("raise", "delay"),
    "testlog.append": ("raise", "delay", "short-write"),
    "testlog.flush": ("raise", "delay"),
    "testlog.replace": ("raise", "delay"),
    "wire.encode": ("raise", "delay", "kill"),
    "wire.decode": ("raise", "delay"),
}

#: Exit status used by the ``kill`` action (distinct from the worker
#: agent's ``REPRO_KILL_SPEC`` status 17, so a post-mortem can tell an
#: injected harness kill from an injected test kill).
KILL_STATUS = 23


class ChaosError(RuntimeError):
    """An injected host fault (the failpoint analogue of a crash).

    Deliberately *not* a subclass of any domain error: nothing in the
    stack catches it on purpose, so a fired ``raise`` failpoint
    interrupts the campaign exactly where it hit — which is the point.
    """


@dataclass(frozen=True)
class Rule:
    """One armed failpoint site: what fires, and when.

    ``action`` is a concrete action name, or ``"*"`` for chaos mode
    (drawn per fire from the site's allowed actions).  ``probability``
    is the chance per hit; ``at_hit`` instead fires exactly once, on
    the Nth hit (1-based) — the deterministic form unit tests use.
    """

    action: str
    probability: float = 1.0
    at_hit: int | None = None


def _site_rng(seed: int, site: str) -> random.Random:
    """Deterministic per-(seed, site) RNG, stable across processes.

    Python's string ``hash`` is salted per process, so the stream is
    derived from a digest instead — the same seed must replay the same
    fault schedule in the parent and in every forked worker.
    """
    digest = hashlib.sha256(f"{seed}:{site}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class Failpoints:
    """An armed set of failpoint rules (see the module docstring)."""

    def __init__(self, rules: dict[str, Rule], seed: int = 0) -> None:
        unknown = sorted(set(rules) - set(SITES))
        if unknown:
            raise ValueError(
                f"unknown failpoint site(s) {unknown}; known: {sorted(SITES)}"
            )
        for site, rule in rules.items():
            if rule.action != "*" and rule.action not in SITES[site]:
                raise ValueError(
                    f"action {rule.action!r} not allowed at {site!r} "
                    f"(allowed: {SITES[site]})"
                )
        self.rules = dict(rules)
        self.seed = seed
        self._hits = {site: 0 for site in rules}
        self._rng = {site: _site_rng(seed, site) for site in rules}

    @classmethod
    def chaos(cls, seed: int, rate: float = DEFAULT_CHAOS_RATE) -> "Failpoints":
        """Arm every site probabilistically from one seed."""
        return cls(
            {site: Rule(action="*", probability=rate) for site in SITES},
            seed=seed,
        )

    @classmethod
    def parse(cls, text: str) -> "Failpoints":
        """Parse the ``REPRO_FAILPOINTS`` grammar.

        Either ``chaos:<seed>[:<rate>]``, or a comma-separated list of
        ``site=action`` clauses where ``action`` may carry ``:<prob>``
        (probabilistic) or ``@<n>`` (fire once, on the nth hit):
        ``testlog.append=short-write@3,executor.run=raise:0.1``.
        """
        text = text.strip()
        if text.startswith("chaos:"):
            parts = text.split(":")
            seed = int(parts[1])
            rate = float(parts[2]) if len(parts) > 2 else DEFAULT_CHAOS_RATE
            return cls.chaos(seed, rate)
        rules: dict[str, Rule] = {}
        for clause in filter(None, (c.strip() for c in text.split(","))):
            site, _, spec = clause.partition("=")
            if not spec:
                raise ValueError(
                    f"failpoint clause {clause!r} is not site=action"
                )
            action, probability, at_hit = spec, 1.0, None
            if "@" in spec:
                action, _, nth = spec.partition("@")
                at_hit = int(nth)
            elif ":" in spec:
                action, _, prob = spec.partition(":")
                probability = float(prob)
            rules[site] = Rule(
                action=action, probability=probability, at_hit=at_hit
            )
        return cls(rules)

    def fire(self, site: str) -> str | None:
        """One hit on a site; fault the process if the site is armed.

        ``raise`` raises, ``kill`` exits a worker process (degrading to
        ``raise`` elsewhere), ``delay`` sleeps and returns None.  The
        cooperative ``short-write`` action is returned to the caller,
        which owns the write being truncated.  Unarmed or non-firing
        hits return None.
        """
        rule = self.rules.get(site)
        if rule is None:
            return None
        self._hits[site] += 1
        rng = self._rng[site]
        if rule.at_hit is not None:
            if self._hits[site] != rule.at_hit:
                return None
        elif rule.probability < 1.0 and rng.random() >= rule.probability:
            return None
        action = rule.action
        if action == "*":
            action = rng.choice(SITES[site])
        if action == "kill" and not _WORKER_PROCESS:
            action = "raise"
        if action == "delay":
            time.sleep(rng.uniform(0.001, 0.02))
            return None
        if action == "kill":
            os._exit(KILL_STATUS)
        if action == "raise":
            raise ChaosError(f"failpoint {site!r} fired (injected host fault)")
        return action

    def hits(self, site: str) -> int:
        """How many times a site has been hit (fired or not)."""
        return self._hits.get(site, 0)


#: True in worker processes (set by the worker entry point); arms
#: the ``kill`` action — the campaign parent never kills itself.
_WORKER_PROCESS = False


def mark_worker_process() -> None:
    """Flag this process as a worker (arms the ``kill`` action)."""
    global _WORKER_PROCESS
    _WORKER_PROCESS = True


#: (env value, parsed Failpoints) cache so the per-hit cost of an
#: unarmed site is one environment lookup.
_PARSED: tuple[str | None, Failpoints | None] = (None, None)


def active() -> Failpoints | None:
    """The armed failpoints of this process, from ``REPRO_FAILPOINTS``.

    Reparsed only when the variable changes; hit counters and RNG
    streams persist across calls while it stays the same.
    """
    global _PARSED
    raw = os.environ.get(ENV_VAR) or None
    if raw != _PARSED[0]:
        _PARSED = (raw, Failpoints.parse(raw) if raw else None)
    return _PARSED[1]


def fire(site: str) -> str | None:
    """Hit one site if armed; a no-op when ``REPRO_FAILPOINTS`` is unset."""
    failpoints = active()
    return failpoints.fire(site) if failpoints is not None else None
