"""The state-aware oracle: §V's full logic model.

The static :class:`~repro.fault.oracle.ReferenceOracle` assumes a quiet
system, which is exactly the limitation §V describes: "the output of a
particular test call is context-dependent, heavily affected by the
state of the system when the test call is invoked … an automated oracle
… is only possible if it considers the state of the separation kernel
at that moment."

This module implements that proposal:

- the executor snapshots a small *state vector* at every invocation
  (:func:`capture_state`, stored on the
  :class:`~repro.fault.testlog.Invocation`);
- :class:`StatefulOracle` refines the static expectations of the
  state-dependent services (`XM_hm_seek`, `XM_trace_seek`,
  `XM_read_sampling_message`, `XM_hm_read`) using that snapshot;
- :func:`classify_stateful` evaluates each invocation against its own
  expectation.

The stress bench shows the payoff: the Pass→Silent divergences the
static oracle reports under HM-log pressure disappear — they were
oracle artefacts, not kernel defects.
"""

from __future__ import annotations

from repro.fault.classify import Classification, FailureKind, Severity, classify
from repro.fault.mutant import TestCallSpec
from repro.fault.oracle import Expectation, OracleContext, ReferenceOracle
from repro.fault.testlog import Invocation, TestRecord, shared_state
from repro.xm import rc
from repro.xm.vulns import VULNERABLE_VERSION


#: str(stream_id) memo — capture_state runs once per invocation and the
#: handful of stream ids repeat for the life of the process.
_STREAM_KEYS: dict[int, str] = {}


def capture_state(kernel) -> dict:  # noqa: ANN001
    """Snapshot the state the contracts of stateful services depend on.

    Equal snapshots return the same shared, read-only dict (see
    :func:`~repro.fault.testlog.shared_state`): the lookup key is built
    from the scalars read here, so a repeated state allocates nothing.
    """
    tm_chan = kernel.ipc.channels.get("CH_TM_AOCS")
    hm = kernel.hm
    hm_len = len(hm.records)
    hm_cursor = hm.read_cursor
    trace_lens = []
    trace_cursors = []
    keys = _STREAM_KEYS
    for stream_id, stream in kernel.tracemgr.streams.items():
        key = keys.get(stream_id)
        if key is None:
            key = keys[stream_id] = str(stream_id)
        trace_lens.append((key, len(stream.events)))
        trace_cursors.append((key, stream.cursor))
    return shared_state((
        hm_len,
        hm_cursor,
        hm_len - hm_cursor,
        tuple(trace_lens),
        tuple(trace_cursors),
        int(tm_chan is not None and tm_chan.message is not None),
    ))


class StatefulOracle(ReferenceOracle):
    """Expectations refined by a per-invocation state snapshot."""

    def expect_in_state(self, spec: TestCallSpec, state: dict | None) -> Expectation:
        """State-aware expectation; falls back to the static rule."""
        static = self.expect(spec)
        if not state:
            return static
        refiner = getattr(self, f"_s_{spec.function}", None)
        if refiner is None:
            return static
        return refiner(spec, state, static)

    # -- refinements ---------------------------------------------------------

    @staticmethod
    def _seek_valid(offset: int, whence: int, length: int, cursor: int) -> bool:
        if whence == 0:
            target = offset
        elif whence == 1:
            target = cursor + offset
        elif whence == 2:
            target = length + offset
        else:
            return False
        return 0 <= target <= length

    def _s_XM_hm_seek(self, spec, state, static) -> Expectation:  # noqa: ANN001
        offset = self._arg(spec, "offset").value or 0
        whence = self._arg(spec, "whence").value or 0
        if self._seek_valid(offset, whence, state["hm_len"], state["hm_cursor"]):
            return Expectation(allowed=frozenset({rc.XM_OK}), note="in range (state)")
        return Expectation(
            allowed=frozenset({rc.XM_INVALID_PARAM}),
            invalid_params=("offset",) if whence in (0, 1, 2) else ("whence",),
            note="out of range (state)",
        )

    def _s_XM_trace_seek(self, spec, state, static) -> Expectation:  # noqa: ANN001
        if static.invalid_params and "streamId" in static.invalid_params:
            return static
        stream_id = self._arg(spec, "streamId").value or 0
        offset = self._arg(spec, "offset").value or 0
        whence = self._arg(spec, "whence").value or 0
        length = state["trace_lens"].get(str(stream_id), 0)
        cursor = state["trace_cursors"].get(str(stream_id), 0)
        if self._seek_valid(offset, whence, length, cursor):
            return Expectation(allowed=frozenset({rc.XM_OK}), note="in range (state)")
        return Expectation(
            allowed=frozenset({rc.XM_INVALID_PARAM}),
            invalid_params=("offset",) if whence in (0, 1, 2) else ("whence",),
            note="out of range (state)",
        )

    def _s_XM_read_sampling_message(self, spec, state, static) -> Expectation:  # noqa: ANN001
        if not static.rc_acceptable(rc.XM_NO_ACTION):
            return static
        # With the channel state known, the empty/full ambiguity is gone.
        if state["tm_message"]:
            allowed = frozenset(code for code in static.allowed if code != rc.XM_NO_ACTION)
            return Expectation(
                allowed=allowed,
                allow_nonneg=static.allow_nonneg,
                invalid_params=static.invalid_params,
                note="message present (state)",
            )
        if static.invalid_params:
            # Empty channel: NO_ACTION precedes the parameter checks.
            return Expectation(
                allowed=frozenset({rc.XM_NO_ACTION}),
                invalid_params=static.invalid_params,
                note="empty channel (state)",
            )
        return static


def classify_stateful(
    record: TestRecord,
    spec: TestCallSpec,
    oracle: StatefulOracle,
) -> Classification:
    """Classify each invocation against its own state's expectation."""
    severities = list(Severity)
    worst: Classification | None = None
    invocations = record.invocations or [Invocation(returned=False, note="not invoked")]
    for invocation in invocations:
        expectation = oracle.expect_in_state(spec, getattr(invocation, "state", None))
        single = TestRecord(
            test_id=record.test_id,
            function=record.function,
            category=record.category,
            arg_labels=record.arg_labels,
            resolved_args=record.resolved_args,
            invocations=[invocation] if record.invocations else [],
            sim_crashed=record.sim_crashed,
            sim_hung=record.sim_hung,
            kernel_halted=record.kernel_halted,
            halt_reason=record.halt_reason,
            resets=record.resets,
            hm_events=record.hm_events,
            overruns=record.overruns,
        )
        classification = classify(single, expectation)
        if worst is None or severities.index(classification.severity) < severities.index(
            worst.severity
        ):
            worst = classification
    assert worst is not None
    return worst


def stateful_stress_comparison(
    state,  # noqa: ANN001 - PhantomState
    functions: tuple[str, ...],
    kernel_version: str = VULNERABLE_VERSION,
    context: OracleContext | None = None,
):
    """Re-run the stress comparison with the state-aware oracle.

    Returns ``(static_sensitivities, stateful_sensitivities)`` so the
    caller can see how many divergences the full logic model resolves.
    """
    from repro.fault.campaign import Campaign
    from repro.fault.stress import StressExecutor

    campaign = Campaign(functions=functions, kernel_version=kernel_version)
    nominal = campaign.run()
    executor = StressExecutor(state, kernel_version=kernel_version)
    stressed = [executor.run(spec) for spec in campaign.iter_specs()]

    static_oracle = ReferenceOracle(kernel_version, context or campaign.oracle_context)
    stateful = StatefulOracle(kernel_version, context or campaign.oracle_context)
    spec_index = {spec.test_id: spec for spec in campaign.iter_specs()}
    nominal_cls = {
        record.test_id: classification
        for record, _expectation, classification in nominal.classified
    }

    static_div = []
    stateful_div = []
    for record in stressed:
        spec = spec_index[record.test_id]
        baseline = nominal_cls[record.test_id]
        static_cls = classify(record, static_oracle.expect(spec))
        stateful_cls = classify_stateful(record, spec, stateful)
        if (static_cls.severity, static_cls.kind) != (baseline.severity, baseline.kind):
            static_div.append((record.test_id, static_cls))
        if stateful_cls.is_failure and stateful_cls.kind in (
            FailureKind.WRONG_SUCCESS,
            FailureKind.WRONG_ERROR,
        ):
            stateful_div.append((record.test_id, stateful_cls))
    return static_div, stateful_div
