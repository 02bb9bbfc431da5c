"""Compiled suite execution plans.

A campaign re-derives the same facts for every test it runs: the spec's
resolved argument tuple, its dictionary labels, the C argument
conversion the kernel will apply, the statically decidable dispatch
prechecks (unknown hypercall, arity mismatch), and the static half of
the :class:`~repro.fault.testlog.TestRecord` it will emit.  All of that
is pure in the campaign configuration — the spec, the test-partition
layout and the kernel version — so a :class:`CompiledPlan` computes it
once per suite and the executor's planned paths consume it per test.

The plan also carries the *batch structure*: maximal runs of
consecutive same-function specs (suites are generated per hypercall, so
in practice one group per suite).  The executor pushes a whole group
through a single armed simulator loop — snapshot resolved once, delta
journal armed once, reverted per test — instead of paying the per-test
bring-up bookkeeping for each spec individually.

Compilation is an optimisation, never a semantic fork: a
:class:`PlanEntry`'s converted arguments and precheck replicate exactly
what :meth:`~repro.xm.kernel.Kernel.hypercall` would compute from the
raw call, and the ``--verify-plan`` audit
(:meth:`~repro.fault.executor.TestExecutor.run` vs the planned path)
asserts record-for-record identity between the two.
"""

from __future__ import annotations

import copy
from typing import Iterable, Sequence

from repro.fault.mutant import TestCallSpec, TestPartitionLayout
from repro.xm import rc
from repro.xm.api import hypercall_by_name
from repro.xtypes import default_registry

#: Major frames per test run ("a selected number of cyclic schedules").
DEFAULT_FRAMES = 2
#: Default cap on board-memory bytes a single delta reset may revert; a
#: test that dirties more falls back to a full snapshot restore.
DEFAULT_JOURNAL_BUDGET = 1 << 20


class PlanEntry:
    """Everything about one spec that is knowable before execution.

    Slotted and flat: campaigns hold one per test, and the executor's
    hot loop reads these fields per invocation.

    ``precheck_rc`` is the return code the kernel's dispatch prechecks
    would produce without ever reaching a service (``None`` when the
    call dispatches): ``XM_UNKNOWN_HYPERCALL`` for a function outside
    the hypercall table, ``XM_INVALID_PARAM`` for an arity mismatch.
    The privilege check is *not* precomputed — it depends on the live
    caller — so ``system_only`` travels for the kernel to test against
    ``caller.is_system`` at dispatch time, exactly where the unplanned
    path tests it.
    """

    __slots__ = (
        "spec",
        "test_id",
        "function",
        "category",
        "arg_labels",
        "resolved",
        "converted",
        "precheck_rc",
        "system_only",
        "record_base",
    )

    def __init__(
        self,
        spec: TestCallSpec,
        layout: TestPartitionLayout,
        registry,  # noqa: ANN001 - xtypes.TypeRegistry
    ) -> None:
        self.spec = spec
        self.test_id = spec.test_id
        self.function = spec.function
        self.category = spec.category
        self.arg_labels = spec.arg_labels()
        self.resolved = spec.resolve_args(layout)
        try:
            hdef = hypercall_by_name(spec.function)
        except KeyError:
            self.precheck_rc: int | None = rc.XM_UNKNOWN_HYPERCALL
            self.converted: list[int] = []
            self.system_only = False
        else:
            self.system_only = hdef.system_only
            if len(self.resolved) != hdef.arity:
                self.precheck_rc = rc.XM_INVALID_PARAM
                self.converted = []
            else:
                self.precheck_rc = None
                # Replicates Kernel.hypercall's conversion exactly: the
                # registry is version-independent and the arguments are
                # fixed by the spec, so the converted list the kernel
                # would build per dispatch is a plan-time constant.
                converters = [
                    None
                    if param.is_pointer or param.type_name not in registry
                    else registry.descriptor(param.type_name).convert
                    for param in hdef.params
                ]
                self.converted = [
                    int(value) & 0xFFFFFFFF if convert is None else convert(int(value))
                    for convert, value in zip(converters, self.resolved)
                ]
        #: Static TestRecord fields; the executor adds the observed half.
        self.record_base = {
            "test_id": self.test_id,
            "function": self.function,
            "category": self.category,
            "arg_labels": self.arg_labels,
            "resolved_args": self.resolved,
        }


class CompiledPlan:
    """A suite compiled for execution: entries, index and batch groups."""

    __slots__ = ("kernel_version", "frames", "layout", "entries", "by_id", "groups")

    def __init__(
        self,
        specs: Iterable[TestCallSpec],
        layout: TestPartitionLayout,
        kernel_version: str,
        frames: int,
    ) -> None:
        self.kernel_version = kernel_version
        self.frames = frames
        self.layout = layout
        registry = default_registry()
        self.entries = [PlanEntry(spec, layout, registry) for spec in specs]
        self.by_id = {entry.test_id: entry for entry in self.entries}
        self.groups = group_consecutive(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def retarget(self, kernel_version: str, frames: int) -> "CompiledPlan":
        """This plan for another kernel version and frame count.

        A :class:`PlanEntry` depends only on its spec, the layout and
        the version-independent type registry, so the new plan shares
        this one's ``entries``, ``by_id`` and ``groups`` and compiles
        nothing.
        """
        plan = copy.copy(self)
        plan.kernel_version = kernel_version
        plan.frames = frames
        return plan

    def entry_for(self, spec: TestCallSpec) -> PlanEntry | None:
        """The compiled entry for ``spec``, or None if outside the plan."""
        entry = self.by_id.get(spec.test_id)
        if entry is not None and entry.spec == spec:
            return entry
        return None


def group_consecutive(entries: Sequence[PlanEntry]) -> list[list[PlanEntry]]:
    """Maximal runs of consecutive same-function entries, order preserved.

    Batching never reorders: a batched campaign executes specs in the
    exact sequence a per-spec campaign would, so the record stream (and
    everything downstream — logs, resume, clustering) is unchanged.
    """
    groups: list[list[PlanEntry]] = []
    current: list[PlanEntry] = []
    for entry in entries:
        if current and current[-1].function != entry.function:
            groups.append(current)
            current = []
        current.append(entry)
    if current:
        groups.append(current)
    return groups
