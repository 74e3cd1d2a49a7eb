"""Self-check of the benchmark's layer hooks, at minimal workload sizes.

Run from the repository root:

  python3 -m pytest -q perfbench/test_layers.py

Each workload runs one trial traced. Every hook that ``predictions.json``
ties to a workload must be called there, the solver layers must stay silent
on ``mc2_fast``, and tracing must not change a byte of the CSVs. A function
that a later change moves or renames makes these tests fail instead of
leaving a wrapper silently stale.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import Tracer, layer_metrics  # noqa: E402

# one trial each; the mc3 master seed draws a trial whose two instances
# finish in about a second, unlike trial 0 of the reference seed
MINIMAL = {
    "mc2_polyblock": {"n_trials": 1},
    "mc2_fast": {"n_trials": 1},
    "mc3_polyblock": {"n_trials": 1, "seed": 3},
}
PREDICTIONS = json.loads((run.HERE / "predictions.json").read_text())["predictions"]
BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced():
    cli = run.import_cli()
    tracers = {}
    for workload, changes in MINIMAL.items():
        cfg = run.scenario(workload, **changes)
        work = run.RUNS / "selfcheck" / workload
        config = run.write_config(cfg, work / "config.yaml")
        gap_tol = json.loads(run.reference_path(workload).read_text())["gap_tol_db"]
        sha = {}
        for label in ("plain", "traced"):
            tracer = Tracer()
            with tracer if label == "traced" else contextlib.nullcontext():
                _, error = run.simulate(cli, config, work / label)
            assert error is None, f"{workload}: {error}"
            summary = run.summarize(work / label)
            assert not run.gate(summary, run.attempted_instances(cfg), gap_tol, None)
            sha[label] = summary["csv_sha256"]
        assert sha["plain"] == sha["traced"], f"{workload}: tracing changed the CSVs"
        tracers[workload] = tracer
    return tracers


def test_every_hook_binds(traced):
    for workload, tracer in traced.items():
        assert tracer.unbound == [], f"{workload}: stale hooks {tracer.unbound}"


@pytest.mark.parametrize(
    "row", PREDICTIONS, ids=[row["metrics"][0] for row in PREDICTIONS]
)
def test_hooks_called_on_their_workloads(traced, row):
    for workload in row["on"]:
        for hook in row["hooks"]:
            assert traced[workload].calls(hook) > 0, f"{hook} never called on {workload}"


def test_solver_layers_silent_on_mc2_fast(traced):
    metrics = layer_metrics(traced["mc2_fast"])
    busy = {k: v for k, (v, _) in metrics.items()
            if k.startswith(("lp.", "polyblock.")) and v != 0}
    assert busy == {}


def test_declared_metrics_reported_and_predicted(traced):
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    predicted = {name for row in PREDICTIONS for name in row["metrics"]}
    # run.run_traced adds the figures that need the untraced call or the CSVs
    reported = set(layer_metrics(traced["mc2_fast"])) | {
        "harness.csv_bytes", "trace.simulate_s", "trace.overhead_s"}
    assert declared == predicted == reported
