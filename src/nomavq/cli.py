"""Command-line front end for the solver library and simulation harness.

Subcommands:
  solve             one channel instance, prints the allocation and PSNR
  simulate          full Monte Carlo scenario, CSV output
  grouping-compare  rerun the scenario under each grouping strategy
  fit-rd            fit rate-quality parameters to an R-D points file
  validate          parse and check a scenario config

Exit codes: 0 success, 2 configuration error, 3 infeasible single-instance
solve.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from . import harness
from .channel import GroupingStrategy
from .errors import ConfigurationError, Infeasible, InfeasibleRate, NomavqError
from .polyblock import write_trace_csv
from .quality import RdPoint, dump_rd_fixtures, fit_rd_params

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _add_common(p):
    p.add_argument("--config", required=True, help="scenario config file (YAML)")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument(
        "--solver",
        choices=list(harness.SCHEMES) + ["all"],
        default=None,
        help="restrict to one scheme (default: the config's list)",
    )
    p.add_argument("--epsilon", type=float, default=None,
                   help="override solver termination tolerance")
    p.add_argument("--blocks", type=int, default=None, metavar="L",
                   help="override greedy power-block count")
    p.add_argument("--out", default=None, metavar="DIR", help="output directory")


def _load(args) -> harness.ScenarioConfig:
    """The config, with the flags put under their keys before validation so
    that they pass the same checks as the file."""
    raw = harness.read_config(args.config)
    flags = {
        "seed": args.seed,
        "epsilon": args.epsilon,
        "n_blocks": args.blocks,
        "out_dir": args.out,
        "solvers": None if args.solver in (None, "all") else [args.solver],
    }
    if isinstance(raw, dict):
        raw.update((k, v) for k, v in flags.items() if v is not None)
    return harness.config_from_dict(raw)


def _cmd_solve(args) -> int:
    cfg = _load(args)
    cfg = dataclasses.replace(
        cfg, n_trials=1, gops_per_trial=1, snr_db=cfg.snr_db[:1]
    )
    trace = [] if args.trace else None
    result = harness.run_scenario(cfg, trace_sink=trace)
    if not result.records:
        for *_, reason in result.exclusions:
            print(f"infeasible: {reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    for r in sorted(result.records, key=harness._record_sort_key):
        print(f"scheme={r.scheme} group={r.group} snr_db={r.snr_db:g}")
        for slot in range(len(r.ue_ids)):
            print(
                f"  ue={r.ue_ids[slot]} stream={r.streams[slot]}"
                f" coeff={r.alloc_coeff[slot]:.4f}"
                f" sinr={r.sinrs[slot]:.4f} psnr_db={r.psnr_db[slot]:.3f}"
            )
        print(
            f"  avg_psnr_db={r.avg_psnr_db:.3f}"
            f" bound_gap_db={r.bound_gap_db:.4f} iterations={r.iterations}"
        )
    if args.trace:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        path = cfg.out_dir / "solver_trace.csv"
        write_trace_csv(trace, path)
        print(f"trace written to {path}")
    if result.exclusions:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _write_all(result, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    harness.write_trial_csv(result, out_dir / "trials.csv")
    harness.write_exclusions_csv(result, out_dir / "exclusions.csv")
    harness.write_aggregates(harness.aggregate(result), out_dir)


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    result = harness.run_scenario(cfg)
    _write_all(result, cfg.out_dir)
    print(f"{len(result.records)} records, {len(result.exclusions)} excluded"
          f" -> {cfg.out_dir}")
    return EXIT_OK


def _cmd_grouping_compare(args) -> int:
    cfg = _load(args)
    records, exclusions = [], []
    for strategy in (
        GroupingStrategy.WLBH, GroupingStrategy.WRBR, GroupingStrategy.WHBL
    ):
        res = harness.run_scenario(dataclasses.replace(cfg, grouping=strategy))
        records.extend(res.records)
        exclusions.extend(res.exclusions)
    combined = harness.ScenarioResult(records, exclusions, cfg)
    tables = harness.aggregate(combined)
    paths = harness.write_aggregates(
        {k: tables[k] for k in ("grouping_psnr", "mean_psnr")}, cfg.out_dir
    )
    print(f"grouping comparison -> {paths['grouping_psnr']}")
    return EXIT_OK


def _cmd_fit_rd(args) -> int:
    points = []
    try:
        with open(args.points, newline="") as fh:
            for row in csv.DictReader(fh):
                if "psnr_db" in row and row["psnr_db"]:
                    points.append(RdPoint.from_psnr(
                        float(row["rate_bps"]), float(row["psnr_db"])
                    ))
                else:
                    points.append(RdPoint(float(row["rate_bps"]), float(row["mse"])))
    except (OSError, KeyError, TypeError, ValueError) as e:
        print(f"cannot read points file: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        params = fit_rd_params(
            points, (args.q_min, args.q_max),
            stream_id=args.stream, complexity=args.complexity,
        )
    except ValueError as e:  # a bad quality band or repeated rates
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    print(
        f"stream={params.stream_id or '-'} alpha={params.alpha:.6g}"
        f" beta={params.beta:.6g} theta={params.theta:.6g}"
        f" band=[{params.q_min_db:g}, {params.q_max_db:g}] dB"
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        dump_rd_fixtures(
            {params.stream_id or "fitted": params}, out,
            provenance=f"fitted from {args.points}",
        )
        print(f"fixture written to {out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = harness.load_config(args.config)
    cfg.load_streams()  # stream references must resolve
    n = len(cfg.ues)
    print(
        f"config ok: {n} UEs in {cfg.n_zones} zones, "
        f"{len(cfg.snr_db)} SNR points, schemes {list(cfg.solvers)}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nomavq",
        description="quality-driven power allocation for multi-user "
                    "superposed video downlink",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one channel instance")
    _add_common(p)
    p.add_argument("--trace", action="store_true",
                   help="write the solver iteration trace CSV")
    p.set_defaults(func=_cmd_solve)

    for name, func, help_text in (
        ("simulate", _cmd_simulate, "run the full Monte Carlo scenario"),
        ("grouping-compare", _cmd_grouping_compare,
         "compare stream-to-zone grouping strategies"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("fit-rd", help="fit rate-quality curve parameters")
    p.add_argument("--points", required=True,
                   help="CSV with rate_bps and psnr_db (or mse) columns")
    p.add_argument("--q-min", type=float, required=True, dest="q_min")
    p.add_argument("--q-max", type=float, required=True, dest="q_max")
    p.add_argument("--stream", default="")
    p.add_argument("--complexity", choices=["Low", "High"], default="Low")
    p.add_argument("--out", default=None, help="write a fixture CSV here")
    p.set_defaults(func=_cmd_fit_rd)

    p = sub.add_parser("validate", help="check a scenario config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (Infeasible, InfeasibleRate) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NomavqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
