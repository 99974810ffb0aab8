"""The benchmark tracer's hooks still resolve.

``perfbench/tracer.py`` wraps private functions of ``reassign`` by name, and
a hook that no longer resolves leaves its per-layer metrics null.  This runs
every sweep shape, at jobs 1 and 2, and the other CLI commands under the
tracer and asks that no layer went unmeasured.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import reassign.cli
from reassign import verifier

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for jobs in (1, 2):
            for prop in verifier.CHECKS:
                for tag in ("ttc", "csd"):
                    verifier.CHECKS[prop](tag, 3, jobs=jobs)
        problem = str(ROOT / "problems" / "intro.json")
        argvs = (
            ["repro", "all", "--format", "json"],
            ["run", problem, "--mechanism", "ttc", "--certify", "cee", "--certify", "eap",
             "--certify", "pareto", "--format", "json"],
            ["partition", "--sizes", "3,3,2", "--format", "json"],
        )
        for argv in argvs:  # repro exits 1: the intro example has documented deviations
            with redirect_stdout(io.StringIO()):
                reassign.cli.main(argv)
    finally:
        tracer.uninstall()
    assert tracer.missing == {}
    # every hooked layer was entered, so its metrics are real readings
    layers = {layer for layer, *_ in tracer_module.HOOKS} - {"verifier.fanout.pool", "mechanisms"}
    assert {layer for layer in layers if not tracer.calls[layer]} == set()
    assert tracer.calls["mechanisms.ttc"] and tracer.calls["mechanisms.csd"]
    # every sweep runs in one process, so no pool is handed a chunk
    assert tracer.counts["verifier.fanout.chunks"] == 0


@pytest.mark.parametrize("jobs", (1, 2))
def test_scan_counters_are_filed_under_the_outcome_scan(jobs):
    # the tracer files a ranged scan's counters under the name of
    # _run_ranged's first argument, so that must be _outcome_scan itself,
    # for any jobs
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        report = verifier.check_pareto("ttc", 3, jobs=jobs)
    finally:
        tracer.uninstall()
    assert tracer.missing == {}
    assert {key for key in tracer.counts if key.endswith(".profiles")} == {
        "verifier.scan.outcome.profiles",
        "verifier.scan.profiles",
    }
    assert tracer.counts["verifier.scan.outcome.profiles"] == report.checked == 6**3
    assert tracer.counts["verifier.fanout.chunks"] == 0
