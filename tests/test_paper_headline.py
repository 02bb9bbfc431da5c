"""The paper's headline result, asserted through the one oracle.

One full Table III campaign per kernel version (§IV): on 3.4.0 the
severity histogram and the nine findings of Table III; on the revised
3.4.1 kernel a clean campaign.  Every verdict is the state-aware
oracle's, and on these quiet-testbed runs each equals the verdict of
the documented rules alone (``state=None``).
"""

from collections import Counter

import pytest

from repro.fault.campaign import Campaign
from repro.fault.classify import classify
from repro.fault.oracle import ReferenceOracle
from repro.xm.vulns import FIXED_VERSION, VULNERABLE_VERSION

HISTOGRAM = {
    VULNERABLE_VERSION: {
        "Pass": 2826, "Catastrophic": 3, "Restart": 3, "Abort": 24, "Silent": 8,
    },
    FIXED_VERSION: {"Pass": 2864},
}
FINDINGS = {
    VULNERABLE_VERSION: {
        f"XM-{call}-{n}" for call in ("RS", "ST", "MC") for n in (1, 2, 3)
    },
    FIXED_VERSION: set(),
}


@pytest.fixture(scope="module", params=[VULNERABLE_VERSION, FIXED_VERSION])
def table3(request):
    campaign = Campaign.paper_campaign(kernel_version=request.param)
    return campaign, campaign.run()


def test_severity_histogram(table3):
    campaign, result = table3
    severities = Counter(c.severity.value for _r, _e, c in result.classified)
    assert severities == HISTOGRAM[campaign.kernel_version]


def test_issues_are_the_papers_findings(table3):
    campaign, result = table3
    idents = [issue.matched_vulnerability for issue in result.issues]
    assert len(idents) == len(FINDINGS[campaign.kernel_version])
    assert set(idents) == FINDINGS[campaign.kernel_version]


def test_every_verdict_equals_its_quiet_testbed_verdict(table3):
    campaign, result = table3
    oracle = ReferenceOracle(campaign.kernel_version, campaign.oracle_context)
    specs = {spec.test_id: spec for spec in campaign.iter_specs()}
    differ = [
        record.test_id
        for record, _expectation, verdict in result.classified
        if classify(record, oracle.expect(specs[record.test_id])) != verdict
    ]
    assert differ == []
