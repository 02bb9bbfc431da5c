"""Campaign results warehouse: queryable store over campaign logs.

Campaign execution produces streaming JSONL logs and a static report;
this package is the serving surface on top of them — a SQLite-backed,
append-only warehouse (:mod:`repro.results.warehouse`) with
cross-campaign diffing, per-spec drift audits and flaky-spec scoring
(:mod:`repro.results.queries`) and an HTML/JSON dashboard export
(:mod:`repro.results.dashboard`).  The ``repro-campaign results``
subcommands front all of it.
"""

from repro._lazy import lazy_exports

#: Public name -> ``submodule.attribute`` (or ``submodule``), imported on
#: first access.
_EXPORTS = {
    "CampaignDiff": "queries.CampaignDiff",
    "CampaignInfo": "warehouse.CampaignInfo",
    "DriftEntry": "queries.DriftEntry",
    "IngestReport": "warehouse.IngestReport",
    "ResultsWarehouse": "warehouse.ResultsWarehouse",
    "VerdictChange": "queries.VerdictChange",
    "diff_campaigns": "queries.diff_campaigns",
    "drift_audit": "queries.drift_audit",
    "flaky_specs": "queries.flaky_specs",
    "verdict_of": "schema.verdict_of",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
