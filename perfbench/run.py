"""Benchmark of `nomavq simulate`: wall time, set-up, memory and quality.

Run from the repository root:

  python3 perfbench/run.py --workload mc2_polyblock --seed 7 --seconds 25 --trace 0
  python3 perfbench/run.py --workload mc3_polyblock --seed 7 --trace 1
  python3 perfbench/run.py --workload mc2_fast --write-reference

``simulate`` runs in this process through ``nomavq.cli.main``, from one
thread. Each workload is ``BASE`` (the default scenario) with its overrides.
The timed calls repeat the workload's reference instances (master seed
``REF_SEED``) for about ``--seconds`` and report the median call, so
that a figure moves with the code and not with the draw: polyblock's cost per
instance is heavy-tailed (see ``perfbench/predictions.json``). Every timed
call must reproduce the committed reference in ``perfbench/reference``.
``--seed`` draws the held-out instances: one more ``simulate`` call at that
master seed, held to the invariant part of the gate (every instance solved or
excluded, certificate gap within tolerance, no errors).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
reference instances once untraced and once under ``layers.Tracer``, requires
byte-identical CSVs from both, and reports the per-layer metrics. The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
REFERENCE = HERE / "reference"

REF_SEED = 20260825
SETUP_REPEATS = 7
PSNR_TOL_DB = 1e-3

BASE = {
    "n_zones": 2,
    "ues": [
        {"id": 1, "distance_m": 3.8, "stream": "Foreman", "complexity": "Low"},
        {"id": 2, "distance_m": 3.2, "stream": "Ice", "complexity": "Low"},
        {"id": 3, "distance_m": 2.6, "stream": "Crew", "complexity": "Low"},
        {"id": 4, "distance_m": 1.6, "stream": "Football", "complexity": "High"},
        {"id": 5, "distance_m": 1.1, "stream": "Mobile", "complexity": "High"},
        {"id": 6, "distance_m": 0.7, "stream": "Soccer", "complexity": "High"},
    ],
    "snr_db": [10, 15, 20, 25, 30],
    "bandwidth_hz": 140000.0,
    "power_budget_w": 1.0,
    "path_loss_exp": 2.0,
    "p_rtp": 0.05,
    "gops_per_trial": 1,
    "grouping": "WLBH",
    "epsilon": 1.0e-3,
    "delta": 1.0e-6,
    "n_blocks": 100,
    "mgs_weights": [4, 3, 2, 3, 4],
    "n_enh_layers": 3,
    "seed": REF_SEED,
}

# name -> (overrides of BASE, trials drawn at --seed for the held-out check).
# Three-user polyblock instances drawn at an arbitrary seed can run for
# minutes each, so mc3_polyblock has no held-out call.
WORKLOADS = {
    "mc2_polyblock": ({"solvers": ["polyblock"], "n_trials": 4}, 1),
    "mc2_fast": ({"solvers": ["greedy", "oma", "noma-mt"], "n_trials": 30}, 10),
    "mc3_polyblock": ({"solvers": ["polyblock"], "n_zones": 3, "grouping": "ByIndex",
                       "snr_db": [30], "n_trials": 2}, 0),
}

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import nomavq
nomavq.load_config(sys.argv[2]).load_streams()
print(time.perf_counter() - t0)
"""


def import_cli():
    """Import ``nomavq.cli`` from this checkout's ``src``, or exit with an error."""
    if not (SRC / "nomavq" / "__init__.py").is_file():
        sys.exit(f"error: no nomavq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nomavq.cli

    if Path(nomavq.cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: imported nomavq from {nomavq.cli.__file__}, not {SRC}")
    return nomavq.cli


def scenario(workload: str, **changes) -> dict:
    return {**BASE, **WORKLOADS[workload][0], **changes}


def attempted_instances(cfg: dict) -> int:
    groups = len(cfg["ues"]) // cfg["n_zones"]
    return (cfg["n_trials"] * cfg["gops_per_trial"] * groups
            * len(cfg["snr_db"]) * len(cfg["solvers"]))


def write_config(cfg: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return path


def simulate(cli, config: Path, out: Path):
    """Time one ``nomavq simulate`` call; returns (seconds, error or None).

    The clock runs from config load until every CSV is written. Anything
    other than exit code 0 is an error: the call lost all its instances.
    """
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("*.csv"):
        stale.unlink()
    sink = io.StringIO()
    argv = ["simulate", "--config", str(config), "--out", str(out)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        error = None if code == 0 else f"exit code {code}: {sink.getvalue().strip()}"
    except Exception as e:  # the benchmark must report a crashed run, not die
        error = f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, error


def _group_key(scheme: str, snr: str) -> str:
    return f"{scheme}@{float(snr)!r}"


def summarize(out: Path) -> dict:
    """Counts, PSNR sums and certificate gaps read back from the CSVs."""
    groups, gaps = {}, []

    def entry(key):
        return groups.setdefault(key, {"records": 0, "excluded": 0, "psnr_sum": 0.0})

    with open(out / "trials.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["ue_slot"] != "0":
                continue  # one row per UE; the record fields repeat
            e = entry(_group_key(row["scheme"], row["snr_db"]))
            e["records"] += 1
            e["psnr_sum"] += float(row["avg_psnr_db"])
            if row["scheme"] == "polyblock":
                gaps.append(float(row["bound_gap_db"]))
    with open(out / "exclusions.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            entry(_group_key(row["scheme"], row["snr_db"]))["excluded"] += 1
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "groups": groups,
        "gaps": gaps,
        "trials_sha256": hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest(),
        "csv_sha256": digest.hexdigest(),
        "csv_bytes": sum(p.stat().st_size for p in out.glob("*.csv")),
    }


def gate(summary: dict, attempted: int, gap_tol_db: float, ref: dict | None) -> list:
    """Failures of one simulate call's outputs; empty when they pass.

    The invariant part holds at any seed; ``ref`` adds the exact counts and
    the per-(scheme, SNR) mean PSNR of the reference instances.
    """
    groups = summary["groups"]
    problems = []
    done = sum(g["records"] + g["excluded"] for g in groups.values())
    if done != attempted:
        problems.append(f"{done} instances solved or excluded, {attempted} attempted")
    worst = max(summary["gaps"], default=0.0)
    if worst > gap_tol_db:
        problems.append(f"bound_gap_db {worst!r} above gap_tol_db {gap_tol_db!r}")
    if ref is None:
        return problems
    if sorted(groups) != sorted(ref["groups"]):
        problems.append(f"(scheme, snr) keys {sorted(groups)} != {sorted(ref['groups'])}")
        return problems
    for key, want in ref["groups"].items():
        got = groups[key]
        for field in ("records", "excluded"):
            if got[field] != want[field]:
                problems.append(f"{key}: {field} {got[field]} != {want[field]}")
        if want["records"] and got["records"]:
            mean = got["psnr_sum"] / got["records"]
            if abs(mean - want["mean_avg_psnr_db"]) > PSNR_TOL_DB:
                problems.append(
                    f"{key}: mean avg_psnr_db {mean!r} != {want['mean_avg_psnr_db']!r}"
                )
    return problems


def mean_psnr(summary: dict) -> float:
    groups = summary["groups"].values()
    n = sum(g["records"] for g in groups)
    return sum(g["psnr_sum"] for g in groups) / n if n else 0.0


def reference_path(workload: str) -> Path:
    return REFERENCE / f"{workload}.json"


def write_reference(cli, workload: str) -> None:
    cfg = scenario(workload)
    work = RUNS / workload
    _, error = simulate(cli, write_config(cfg, work / "reference.yaml"), work / "out")
    if error:
        sys.exit(f"error: {error}")
    summary = summarize(work / "out")
    from nomavq.polyblock import SolverConfig

    ref = {
        "workload": workload,
        "seed": cfg["seed"],
        "attempted": attempted_instances(cfg),
        "gap_tol_db": SolverConfig().gap_tol_db,
        "trials_sha256": summary["trials_sha256"],
        "groups": {
            key: {"records": g["records"], "excluded": g["excluded"],
                  "mean_avg_psnr_db": g["psnr_sum"] / g["records"] if g["records"] else None}
            for key, g in sorted(summary["groups"].items())
        },
    }
    problems = gate(summary, ref["attempted"], ref["gap_tol_db"], None)
    if problems:
        sys.exit("error: " + "; ".join(problems))
    REFERENCE.mkdir(exist_ok=True)
    reference_path(workload).write_text(json.dumps(ref, indent=1) + "\n")
    print(f"reference written to {reference_path(workload)}")


def measure_setup(config: Path) -> float:
    """Median time, in fresh interpreters, to import and load the scenario."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class Tally:
    """Instances attempted and failed over the calls of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lost = 0
        self.problems = []

    def call(self, cli, config: Path, out: Path, n: int, gap_tol: float, ref, label: str,
             same_as: dict | None = None):
        """One simulate call and its gate; returns (seconds, summary or None).

        ``same_as`` is the summary of an earlier call on the same config,
        whose CSV bytes this call must reproduce.
        """
        self.attempted += n
        seconds, error = simulate(cli, config, out)
        if error:
            self.failed += n
            self.lost += n
            self.problems.append(f"{label}: {error}")
            return seconds, None
        summary = summarize(out)
        problems = gate(summary, n, gap_tol, ref)
        if same_as is not None and summary["csv_sha256"] != same_as["csv_sha256"]:
            problems.append("CSV bytes differ from the first call's")
        if problems:
            self.failed += n
            self.problems.extend(f"{label}: {p}" for p in problems)
        return seconds, summary


def run_end_to_end(cli, workload, seed, seconds, ref, tally) -> dict:
    work = RUNS / workload
    cfg = scenario(workload)
    config = write_config(cfg, work / "reference.yaml")
    n = attempted_instances(cfg)
    setup_s = measure_setup(config)

    durations, first = [], None
    start = time.perf_counter()
    # stop when one more call would overrun the budget by over half a call
    while not durations or time.perf_counter() - start + durations[-1] / 2 < seconds:
        dt, summary = tally.call(cli, config, work / "out", n, ref["gap_tol_db"], ref,
                                 f"timed call {len(durations) + 1}", first)
        if summary is None:
            break
        durations.append(dt)
        first = first or summary

    heldout_trials = WORKLOADS[workload][1]
    if heldout_trials:
        held = scenario(workload, seed=seed, n_trials=heldout_trials)
        tally.call(cli, write_config(held, work / "heldout.yaml"), work / "heldout",
                   attempted_instances(held), ref["gap_tol_db"], None,
                   f"held-out seed {seed}")

    print("timed calls (s): " + " ".join(f"{d:.3f}" for d in durations), file=sys.stderr)
    solved = sum(g["records"] for g in first["groups"].values()) if first else 0
    if first:
        same = first["trials_sha256"] == ref["trials_sha256"]
        print(f"trials.csv sha256 {first['trials_sha256']} "
              f"{'equals' if same else 'differs from'} the reference", file=sys.stderr)
    return {
        "simulate_s": (statistics.median(durations or [dt]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mean_psnr_db": (mean_psnr(first) if first else 0.0, "dB"),
        "solved_frac": (solved / n, "1"),
        "completed_frac": (1.0 - tally.lost / tally.attempted, "1"),
    }


def run_traced(cli, workload, ref, tally) -> dict:
    from layers import Tracer, layer_metrics

    work = RUNS / workload
    cfg = scenario(workload)
    config = write_config(cfg, work / "reference.yaml")
    n = attempted_instances(cfg)
    plain_s, plain = tally.call(cli, config, work / "out", n, ref["gap_tol_db"], ref,
                                "untraced call")
    with Tracer() as tracer:
        traced_s, traced = tally.call(cli, config, work / "traced", n,
                                      ref["gap_tol_db"], ref, "traced call", plain)
    if tracer.unbound:
        print("stale hooks (attribute gone): " + ", ".join(tracer.unbound),
              file=sys.stderr)
    with open(work / "spans.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "start_s", "end_s", "parent", "instance"])
        w.writerows(tracer.spans)
    metrics = layer_metrics(tracer)
    metrics["harness.csv_bytes"] = (traced["csv_bytes"] if traced else 0, "bytes")
    metrics["trace.simulate_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REF_SEED,
                    help="master seed of the held-out instances")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="time budget of the repeated timed calls")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the reference outputs of the workload and exit")
    args = ap.parse_args(argv)

    cli = import_cli()
    if args.write_reference:
        write_reference(cli, args.workload)
        return 0
    try:
        ref = json.loads(reference_path(args.workload).read_text())
    except OSError as e:
        sys.exit(f"error: no reference for {args.workload}: {e}")

    import numpy

    print(f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} workload={args.workload} seed={args.seed}",
          file=sys.stderr)
    tally = Tally()
    if args.trace:
        metrics = run_traced(cli, args.workload, ref, tally)
    else:
        metrics = run_end_to_end(cli, args.workload, args.seed, args.seconds, ref, tally)
    for problem in tally.problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
