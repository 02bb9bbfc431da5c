"""State-based stress testing (§V).

The paper cites evidence that "robustness results are different when the
system under test is subjected to different states and different stress
conditions" and proposes phantom parameters to set a stressful state
before invoking the test calls.  This module applies that idea to the
*parameterised* campaign: every test runs twice, once on the quiet
testbed and once with a phantom state applied first, and the per-test
classifications are diffed.

A classification that changes under stress is a *state-sensitive
outcome*: a latent failure only reachable in the stressed state.  Both
runs are judged by the same state-aware oracle, so a return code that
changes only because the state changed is not one.  With the HM log
pre-filled, for instance, ``XM_hm_seek`` offsets that are out of range
on the quiet testbed succeed, and the oracle expects them to (the
quiet-system rules alone would report six Pass→Silent divergences):
that is §V's argument that a full logic model must track system state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fault.campaign import Campaign, CampaignResult
from repro.fault.classify import SEVERITY_RANK, Classification
from repro.fault.executor import CampaignPayload, TestExecutor
from repro.fault.phantom import PhantomState, _apply_state
from repro.fault.testlog import CampaignLog


@dataclass
class StressPayload(CampaignPayload):
    """Campaign placeholder that sets a phantom state before the calls.

    The state is applied once per boot epoch, just before the first
    armed invocation — i.e. inside the test window, after the shared
    settle frame, so stressed runs stay on the standard timeline.
    """

    state: PhantomState = PhantomState.NOMINAL

    def apply_state(self, ctx, xm) -> None:  # noqa: ANN001 - slot signature
        """Drive the kernel into the phantom state."""
        _apply_state(self.state, ctx, xm)


class StressExecutor(TestExecutor):
    """A test executor that applies a phantom state before the call.

    Everything else — settle protocol, warm-boot snapshots, record
    building — is inherited; only the packed placeholder differs.
    """

    def __init__(self, state: PhantomState, **kw: object) -> None:
        super().__init__(**kw)  # type: ignore[arg-type]
        self.state = state

    def _snapshot_key(self) -> tuple:
        # The unarmed payload (with its state field) is *inside* the
        # snapshot, so stressed snapshots must not alias nominal ones.
        return (*super()._snapshot_key(), "stress", self.state.value)

    def _make_payload(self) -> StressPayload:
        return StressPayload(layout=self.layout, state=self.state)


@dataclass(frozen=True)
class StateSensitivity:
    """One test whose classification changed under stress."""

    test_id: str
    function: str
    nominal: Classification
    stressed: Classification

    @property
    def got_worse(self) -> bool:
        """Whether stress surfaced a (more severe) failure."""
        return SEVERITY_RANK[self.stressed.severity] < SEVERITY_RANK[self.nominal.severity]


@dataclass
class StressComparison:
    """Nominal-vs-stressed campaign diff."""

    state: PhantomState
    nominal: CampaignResult
    stressed_log: CampaignLog
    sensitivities: list[StateSensitivity] = field(default_factory=list)

    @property
    def stable_tests(self) -> int:
        """Tests whose classification did not change."""
        return self.nominal.total_tests - len(self.sensitivities)

    def newly_failing(self) -> list[StateSensitivity]:
        """Sensitivities where the stressed run is strictly worse."""
        return [s for s in self.sensitivities if s.got_worse]


def run_stress_comparison(
    state: PhantomState,
    functions: tuple[str, ...] | None = None,
    kernel_version: str | None = None,
) -> StressComparison:
    """Run a scoped campaign nominally and under one phantom state."""
    kw = {} if kernel_version is None else {"kernel_version": kernel_version}
    campaign = Campaign(functions=functions, **kw)  # type: ignore[arg-type]
    nominal = campaign.run()

    executor = StressExecutor(
        state, kernel_version=campaign.kernel_version, frames=campaign.frames
    )
    # The campaign's own analysis judges the stressed records: a
    # divergence is a verdict that changed, not a return code.
    stressed = campaign.analyse(
        CampaignLog([executor.run(spec) for spec in campaign.iter_specs()])
    )
    nominal_cls = {
        record.test_id: classification
        for record, _expectation, classification in nominal.classified
    }
    sensitivities: list[StateSensitivity] = []
    for record, _expectation, stressed_cls in stressed.classified:
        baseline = nominal_cls[record.test_id]
        if (stressed_cls.severity, stressed_cls.kind) != (
            baseline.severity,
            baseline.kind,
        ):
            sensitivities.append(
                StateSensitivity(
                    test_id=record.test_id,
                    function=record.function,
                    nominal=baseline,
                    stressed=stressed_cls,
                )
            )
    return StressComparison(
        state=state,
        nominal=nominal,
        stressed_log=stressed.log,
        sensitivities=sensitivities,
    )
