"""The campaign configuration that travels to fabric workers.

Local loopback workers are forked and receive the campaign's
:class:`~repro.fault.wire.SuiteRecipe` when they are spawned; across
hosts pickle is neither safe nor portable, so remote agents get a JSON
description instead and both sides rebuild the recipe from shared code:
the default API model and dictionaries (process-wide singletons), a
strategy reconstructed *by name* from
:data:`repro.fault.combinator.STRATEGIES`, and the campaign's execution
knobs.  ``total`` rides along so a worker's regenerated spec table is
verified against the coordinator's before any index is trusted —
exactly the :func:`~repro.fault.wire.build_spec_table` contract.

A campaign with a custom model, dictionary set or strategy cannot be
described this way: it runs only on loopback workers (``strategy`` is
None in its description, and a remote agent refuses it with
:class:`FabricError`).  A custom testbed factory is rejected for every
fabric campaign; run those serially.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.fault import wire
from repro.fault.campaign import (
    Campaign,
    _default_dictionaries,
    _default_model,
)
from repro.fault.combinator import strategy_from_dict, strategy_to_dict


class FabricError(Exception):
    """A fabric configuration or protocol contract violation."""


#: Protocol revision spoken by coordinator and workers; a mismatch in
#: the hello/welcome exchange is a hard error on both sides.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class FabricConfig:
    """JSON-able description of one fabric campaign's worker side."""

    kernel_version: str
    frames: int
    #: Registry form of the strategy; None when the suite cannot travel
    #: (see :meth:`from_campaign`).
    strategy: dict | None
    functions: tuple[str, ...] | None
    total: int
    warm_boot: bool
    delta_reset: bool
    journal_budget: int | None
    verify_reset: bool
    compiled_plan: bool
    batch_hypercalls: bool
    verify_plan: bool
    profile: bool
    timeout_s: float | None

    @classmethod
    def from_campaign(
        cls,
        campaign: Campaign,
        timeout_s: float | None = None,
        portable: bool = True,
    ) -> "FabricConfig":
        """Describe a campaign for the wire.

        With ``portable`` (the default) a campaign a remote agent could
        not rebuild raises :class:`FabricError`; with ``portable=False``
        it is described without its suite (``strategy`` None), for
        loopback workers that are handed the recipe at spawn.  A custom
        testbed factory is rejected either way.
        """
        if campaign.system_factory is not None:
            raise FabricError(
                "fabric campaigns support only the default testbed "
                "(factories do not cross process boundaries)"
            )
        strategy: dict | None = None
        if campaign.model is not _default_model():
            reason = (
                "fabric campaigns require the default API model "
                "(a custom model cannot be reconstructed on a remote host)"
            )
        elif campaign.dictionaries is not _default_dictionaries():
            reason = (
                "fabric campaigns require the default dictionary set "
                "(custom dictionaries cannot be reconstructed on a remote host)"
            )
        else:
            try:
                strategy, reason = strategy_to_dict(campaign.strategy), ""
            except ValueError as exc:
                reason = str(exc)
        if reason and portable:
            raise FabricError(reason)
        return cls(
            kernel_version=campaign.kernel_version,
            frames=campaign.frames,
            strategy=strategy,
            functions=campaign.functions,
            total=campaign.total_tests(),
            warm_boot=campaign.warm_boot,
            delta_reset=campaign.delta_reset,
            journal_budget=campaign.journal_budget,
            verify_reset=campaign.verify_reset,
            compiled_plan=campaign.compiled_plan,
            batch_hypercalls=campaign.batch_hypercalls,
            verify_plan=campaign.verify_plan,
            profile=campaign.profile,
            timeout_s=timeout_s,
        )

    def to_dict(self) -> dict:
        """The JSON form carried in the welcome frame."""
        data = dataclasses.asdict(self)
        if self.functions is not None:
            data["functions"] = list(self.functions)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FabricConfig":
        """Rebuild from a welcome frame; :class:`FabricError` on junk."""
        try:
            values = {field.name: data[field.name] for field in dataclasses.fields(cls)}
            if values["strategy"] is not None:
                values["strategy"] = dict(values["strategy"])
            if values["functions"] is not None:
                values["functions"] = tuple(values["functions"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FabricError(f"malformed fabric config: {exc!r}") from exc
        return cls(**values)

    def recipe(self) -> wire.SuiteRecipe:
        """The suite recipe a worker regenerates its spec table from.

        Model and dictionaries are the process-wide default singletons,
        so the worker-side suite memo hits across leases and reconnects;
        the strategy comes back through the combinator registry
        (:class:`FabricError` for an unknown name, or for a campaign
        described without its suite).
        """
        if self.strategy is None:
            raise FabricError(
                "this campaign has a custom model, dictionary set or "
                "strategy; only loopback workers spawned by its "
                "coordinator can run it"
            )
        try:
            strategy = strategy_from_dict(self.strategy)
        except (ValueError, TypeError) as exc:
            raise FabricError(str(exc)) from exc
        return wire.SuiteRecipe(
            model=_default_model(),
            dictionaries=_default_dictionaries(),
            strategy=strategy,
            functions=self.functions,
            total=self.total,
        )
