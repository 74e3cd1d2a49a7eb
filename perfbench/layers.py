"""Spans and counters around the public functions of each nomavq layer.

Every nomavq module imports its callees by name (``from .lp import
solve_lp``), so a hook rebinds the attribute where the call looks it up,
e.g. ``nomavq.polyblock.solve_lp``. A span hook records
``[name, start, end, parent span, instance id]``; spans stay in memory until
the run ends. Hot leaf calls are only counted. An attribute that no longer
exists is listed in ``Tracer.unbound`` instead of failing the run, so a
refactor shows up as a stale hook (see ``test_layers.py``), not a crash.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

import numpy as np


def _prune_sizes(tracer, args, out):
    n_in, n_out = len(args[0].vertices), len(out.vertices)
    tracer.counts["polyblock.vertices_in"] += n_in
    tracer.counts["polyblock.vertices_pruned"] += n_in - n_out
    tracer.maxima["polyblock.vertices_max"] = max(
        tracer.maxima["polyblock.vertices_max"], n_in
    )


def _polyblock_result(tracer, args, out):
    tracer.counts["polyblock.outer_iters"] += out.iterations
    tracer.maxima["polyblock.gap_db_max"] = max(
        tracer.maxima["polyblock.gap_db_max"], out.bound_gap_db
    )


def _greedy_result(tracer, args, out):
    tracer.counts["greedy.phase1_evals"] += out.phase1_evals
    tracer.counts["greedy.phase2_evals"] += out.phase2_evals
    tracer.counts["greedy.blocks_used"] += out.blocks_used
    tracer.counts["greedy.blocks_total"] += out.blocks_total


def _scenario_result(tracer, args, out):
    tracer.counts["harness.instances"] += len(out.records) + len(out.exclusions)


# (module, attribute, hook kind, name, result observer)
#   span:     timed span
#   instance: timed span that opens a new instance id
#   count:    call counted, not timed
#   yields:   generator whose yielded items are counted
HOOKS = (
    ("nomavq.harness", "run_scenario", "span", "harness.run_scenario",
     _scenario_result),
    ("nomavq.harness", "_run_scheme", "instance", "harness.instance", None),
    ("nomavq.harness", "sample_channel", "span", "channel.draw_group", None),
    ("nomavq.harness", "group_users", "span", "channel.draw_group", None),
    ("nomavq.harness", "bounds_from_quality", "span", "phy.bounds", None),
    ("nomavq.harness", "build_feasible_set", "span", "phy.bounds", None),
    ("nomavq.harness", "solve_polyblock", "span", "polyblock.solve",
     _polyblock_result),
    ("nomavq.harness", "solve_greedy", "span", "greedy.solve", _greedy_result),
    ("nomavq.harness", "solve_oma_simple", "span", "baselines.oma", None),
    ("nomavq.harness", "solve_noma_mt", "span", "baselines.noma_mt", None),
    ("nomavq.harness", "snap_rate", "span", "harness.snap_rate", None),
    ("nomavq.harness", "psnr_of_rate", "span", "harness.psnr_of_rate", None),
    ("nomavq.harness", "write_trial_csv", "span", "harness.csv_write", None),
    ("nomavq.harness", "write_exclusions_csv", "span", "harness.csv_write", None),
    ("nomavq.harness", "write_aggregates", "span", "harness.csv_write", None),
    ("nomavq.polyblock", "check_feasible", "span", "phy.check_feasible", None),
    ("nomavq.polyblock", "project", "span", "polyblock.project", None),
    ("nomavq.polyblock", "prune_vertices", "span", "polyblock.prune",
     _prune_sizes),
    ("nomavq.polyblock", "solve_lp", "span", "lp.solve", None),
    # phy.check_feasible imports solve_lp from nomavq.lp at call time
    ("nomavq.lp", "solve_lp", "span", "lp.solve", None),
    ("nomavq.polyblock", "psnr_of_rate", "count", "quality.psnr_of_rate", None),
    ("nomavq.greedy", "bounds_from_quality", "span", "phy.bounds", None),
    ("nomavq.greedy", "own_sinrs", "count", "greedy.own_sinrs", None),
    ("nomavq.greedy", "psnr_of_rate", "count", "quality.psnr_of_rate", None),
    ("nomavq.baselines", "bounds_from_quality", "span", "phy.bounds", None),
    ("nomavq.baselines", "psnr_of_rate", "count", "quality.psnr_of_rate", None),
    ("nomavq.baselines", "_simplex_grid", "yields", "baselines.oma_grid_points",
     None),
)


class Tracer:
    """Installs the hooks for the duration of a ``with`` block."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self.unbound = []
        self._stack = []
        self._instance = -1
        self._saved = []

    def __enter__(self):
        for module, attr, kind, name, observe in HOOKS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.unbound.append(f"{module}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, kind, name, observe))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, kind, name, observe):
        counts = self.counts
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "yields":
            @functools.wraps(fn)
            def counted_items(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] += 1
                    yield item
            return counted_items

        spans, stack = self.spans, self._stack
        opens_instance = kind == "instance"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if opens_instance:
                self._instance += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._instance]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, out)
            return out
        return spanned

    def calls(self, name: str) -> int:
        """Calls recorded under ``name``, as spans or as counted calls."""
        return sum(1 for s in self.spans if s[0] == name) + self.counts[name]


def _span_table(spans):
    """Per span name: (calls, total seconds, self seconds, durations)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, total, self_s, durs = table.get(name, (0, 0.0, 0.0, []))
        durs.append(end - start)
        table[name] = (calls + 1, total + end - start, self_s + end - start - child[i],
                       durs)
    return table


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``, summed over the run."""
    table = _span_table(tracer.spans)
    counts, maxima = tracer.counts, tracer.maxima

    def calls(name):
        return table.get(name, (0, 0.0, 0.0, []))[0]

    def total(name):
        return table.get(name, (0, 0.0, 0.0, []))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    solve_ms = np.asarray(table.get("polyblock.solve", (0, 0, 0, []))[3]) * 1e3
    p50, p90 = np.percentile(solve_ms, [50, 90]) if solve_ms.size else (0.0, 0.0)
    project_idx = {i for i, s in enumerate(tracer.spans) if s[0] == "polyblock.project"}
    lp_in_project = sum(
        1 for s in tracer.spans if s[0] == "lp.solve" and s[3] in project_idx
    )
    solve_s = total("polyblock.solve")
    return {
        "polyblock.solve_calls": (calls("polyblock.solve"), "count"),
        "polyblock.solve_s": (solve_s, "s"),
        "polyblock.solve_ms_p50": (float(p50), "ms"),
        "polyblock.solve_ms_p90": (float(p90), "ms"),
        "polyblock.outer_iters": (counts["polyblock.outer_iters"], "count"),
        "polyblock.project_calls": (calls("polyblock.project"), "count"),
        "polyblock.project_self_s": (
            table.get("polyblock.project", (0, 0.0, 0.0, []))[2], "s"),
        "polyblock.project_share": (ratio(total("polyblock.project"), solve_s), "1"),
        "polyblock.prune_calls": (calls("polyblock.prune"), "count"),
        "polyblock.prune_s": (total("polyblock.prune"), "s"),
        "polyblock.prune_share": (ratio(total("polyblock.prune"), solve_s), "1"),
        "polyblock.vertices_in": (counts["polyblock.vertices_in"], "count"),
        "polyblock.vertices_pruned": (counts["polyblock.vertices_pruned"], "count"),
        "polyblock.vertices_max": (maxima["polyblock.vertices_max"], "count"),
        "polyblock.gap_db_max": (float(maxima["polyblock.gap_db_max"]), "dB"),
        "lp.solve_calls": (calls("lp.solve"), "count"),
        "lp.solve_s": (total("lp.solve"), "s"),
        "lp.solves_per_projection": (
            ratio(lp_in_project, calls("polyblock.project")), "count"),
        "phy.check_feasible_s": (total("phy.check_feasible"), "s"),
        "phy.bounds_s": (total("phy.bounds"), "s"),
        "greedy.solve_s": (total("greedy.solve"), "s"),
        "greedy.phase1_evals": (counts["greedy.phase1_evals"], "count"),
        "greedy.phase2_evals": (counts["greedy.phase2_evals"], "count"),
        "greedy.own_sinrs_calls": (counts["greedy.own_sinrs"], "count"),
        "greedy.blocks_used_ratio": (
            ratio(counts["greedy.blocks_used"], counts["greedy.blocks_total"]), "1"),
        "baselines.oma_s": (total("baselines.oma"), "s"),
        "baselines.oma_grid_points": (counts["baselines.oma_grid_points"], "count"),
        "baselines.noma_mt_s": (total("baselines.noma_mt"), "s"),
        "quality.psnr_of_rate_calls": (
            counts["quality.psnr_of_rate"] + calls("harness.psnr_of_rate"), "count"),
        "channel.draw_group_s": (total("channel.draw_group"), "s"),
        "harness.instances": (counts["harness.instances"], "count"),
        "harness.scenario_self_s": (
            table.get("harness.run_scenario", (0, 0.0, 0.0, []))[2], "s"),
        "harness.snap_psnr_s": (
            total("harness.snap_rate") + total("harness.psnr_of_rate"), "s"),
        "harness.csv_write_s": (total("harness.csv_write"), "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.unbound_hooks": (len(tracer.unbound), "count"),
    }
