"""Start-up budget: each entry path imports only the code it runs.

Package ``__init__``s resolve their public names on first access, and
the analysis, results and CLI paths never load the simulator, the
executor, the fabric or NumPy.  Each check runs in a fresh interpreter
and compares module sets, not timings, so it holds on any host.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.fault.campaign import Campaign

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules only the execution paths may load (a name covers its
#: submodules too).
EXECUTION_ONLY = (
    "numpy",
    "repro.fault.executor",
    "repro.xm.kernel",
    "repro.tsim.simulator",
    "repro.testbed.builder",
    "repro.fabric",
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; its last line of stdout."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def modules_after(code: str) -> set[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    probe = textwrap.dedent(code) + (
        "\nimport json as _json, sys as _sys\n"
        "print(_json.dumps(sorted(_sys.modules)))\n"
    )
    return set(json.loads(run_fresh(probe)))


def execution_only(modules: set[str]) -> list[str]:
    """The members of ``modules`` that belong to the execution paths."""
    return sorted(
        name
        for name in modules
        if any(name == top or name.startswith(top + ".") for top in EXECUTION_ONLY)
    )


def test_replay_path_stays_off_the_simulator(tmp_path):
    log_path = tmp_path / "run.jsonl"
    Campaign(functions=("XM_reset_system", "XM_set_timer")).run(log_path=log_path)
    loaded = modules_after(
        f"""
        from repro.fault import report
        from repro.fault.campaign import Campaign
        from repro.fault.testlog import CampaignLog
        from repro.results import ResultsWarehouse, diff_campaigns

        log = CampaignLog.load({str(log_path)!r})
        result = Campaign().analyse(log)
        assert result.issue_count() > 0
        assert "Raised Issues" in report.full_report(result)
        warehouse = ResultsWarehouse({str(tmp_path / "wh.sqlite")!r})
        warehouse.ingest(log, campaign_id="a")
        warehouse.ingest(log, campaign_id="b")
        assert not diff_campaigns(warehouse, "a", "b").changed
        warehouse.close()
        """
    )
    assert "repro.fault.report" in loaded
    assert execution_only(loaded) == []


def test_cli_import_stays_off_the_simulator():
    loaded = modules_after("import repro.cli")
    assert "repro.cli" in loaded
    assert execution_only(loaded) == []


def test_no_module_under_repro_imports_numpy():
    loaded = modules_after(
        """
        import importlib
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        """
    )
    assert "repro.fault.executor" in loaded  # the walk did import everything
    assert "numpy" not in loaded


def test_every_public_name_resolves():
    missing = run_fresh(
        """
        import importlib
        import json
        import pkgutil

        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.ispkg:
                continue
            package = importlib.import_module(info.name)
            for name in package.__all__:
                try:
                    getattr(package, name)
                except AttributeError:
                    missing.append(f"{info.name}.{name}")
                if name not in dir(package):
                    missing.append(f"{info.name}.{name} (dir)")
        print(json.dumps(missing))
        """
    )
    assert json.loads(missing) == []
