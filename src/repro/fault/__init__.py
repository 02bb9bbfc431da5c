"""The data-type fault model robustness-testing toolset.

This package is the paper's contribution: a black-box fault-injection
framework for separation kernels that derives test cases from the data
types of hypercall parameters (Ballista lineage).

Pipeline (Figs. 1, 4 and 5 of the paper):

1. :mod:`~repro.fault.dictionaries` + :mod:`~repro.fault.apimodel` —
   the Data Type XML and API Header XML inputs (round-tripped by
   :mod:`~repro.fault.xmlio`).
2. :mod:`~repro.fault.matrix` — the ``test_value_matrix`` of values per
   parameter.
3. :mod:`~repro.fault.combinator` — dataset generation (Eq. 1 cartesian
   product, plus pairwise/random ablation strategies).
4. :mod:`~repro.fault.mutant` — one mutant source (C text + executable
   spec) per dataset.
5. :mod:`~repro.fault.executor` / :mod:`~repro.fault.campaign` — packing
   the test partition, running the TSP system on the simulator, logging.
6. :mod:`~repro.fault.oracle`, :mod:`~repro.fault.classify`,
   :mod:`~repro.fault.issues` — log analysis: expected-behaviour oracle,
   CRASH-scale classification, issue clustering.
7. :mod:`~repro.fault.report` — Tables I-III, Fig. 8 and the issue list.
"""

from repro._lazy import lazy_exports

#: Public name -> ``submodule.attribute`` (or ``submodule``), imported on
#: first access.
_EXPORTS = {
    "DictionarySet": "dictionaries.DictionarySet",
    "Symbol": "dictionaries.Symbol",
    "TestValue": "dictionaries.TestValue",
    "TypeDictionary": "dictionaries.TypeDictionary",
    "builtin_dictionaries": "dictionaries.builtin_dictionaries",
    "ApiFunction": "apimodel.ApiFunction",
    "ApiParameter": "apimodel.ApiParameter",
    "api_model_from_table": "apimodel.api_model_from_table",
    "TestValueMatrix": "matrix.TestValueMatrix",
    "build_matrix": "matrix.build_matrix",
    "CartesianStrategy": "combinator.CartesianStrategy",
    "OneFactorStrategy": "combinator.OneFactorStrategy",
    "PairwiseStrategy": "combinator.PairwiseStrategy",
    "RandomSampleStrategy": "combinator.RandomSampleStrategy",
    "combinations_total": "combinator.combinations_total",
    "MutantSource": "mutant.MutantSource",
    "TestCallSpec": "mutant.TestCallSpec",
    "generate_mutants": "mutant.generate_mutants",
    "CampaignLog": "testlog.CampaignLog",
    "TestRecord": "testlog.TestRecord",
    "Expectation": "oracle.Expectation",
    "OracleContext": "oracle.OracleContext",
    "ReferenceOracle": "oracle.ReferenceOracle",
    "Classification": "classify.Classification",
    "FailureKind": "classify.FailureKind",
    "Severity": "classify.Severity",
    "classify": "classify.classify",
    "Issue": "issues.Issue",
    "cluster_issues": "issues.cluster_issues",
    "ExecutionResult": "executor.ExecutionResult",
    "TestExecutor": "executor.TestExecutor",
    "Campaign": "campaign.Campaign",
    "CampaignResult": "campaign.CampaignResult",
    "TruthBase": "truthbase.TruthBase",
    "build_truthbase": "truthbase.build_truthbase",
    "compare_to_truthbase": "truthbase.compare_to_truthbase",
    "extend_dictionaries": "feedback.extend_dictionaries",
    "offending_values": "feedback.offending_values",
    "regression_dictionaries": "feedback.regression_dictionaries",
    "value_effectiveness": "feedback.value_effectiveness",
    "StressComparison": "stress.StressComparison",
    "StressExecutor": "stress.StressExecutor",
    "run_stress_comparison": "stress.run_stress_comparison",
    "replay_known_vulnerabilities": "regression.replay",
    "vulnerability_specs": "regression.vulnerability_specs",
    "PhantomCampaign": "phantom.PhantomCampaign",
    "PhantomState": "phantom.PhantomState",
    "build_dossier": "dossier.build_dossier",
    "write_dossier": "dossier.write_dossier",
    "report": "report",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
