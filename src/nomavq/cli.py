"""Command-line front end for the solver library and simulation harness.

Subcommands:
  solve             every group of trial 0 at the first snr_db point under
                    every configured scheme, prints the allocations and PSNR
  simulate          full Monte Carlo scenario, CSV output
  grouping-compare  rerun the scenario under each grouping strategy
  fit-rd            fit rate-quality parameters to an R-D points file
  validate          parse and check a scenario config

Exit codes: 0 success, 1 solver failure (an iteration cap or a numerical
domain error), 2 configuration error, 3 infeasible single-instance solve.
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
from .quality import COMPLEXITIES, RdPoint, dump_rd_fixtures, fit_rd_params

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _add_common(p):
    p.add_argument("--config", required=True, help="scenario config file (YAML)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="output directory (default: the config's out_dir)")


def _read(args):
    """The parsed config file, with ``--out`` put under ``out_dir``."""
    raw = harness.read_config(args.config)
    if args.out is not None and isinstance(raw, dict):
        raw["out_dir"] = args.out
    return raw


def _make_out_dir(cfg) -> None:
    """Make the output directory, so that an unusable path is refused
    before the run, not after it."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigurationError(f"cannot write to {cfg.out_dir}: {e}") from e


def _cmd_solve(args) -> int:
    cfg = harness.config_from_dict(_read(args))
    cfg = dataclasses.replace(
        cfg, n_trials=1, gops_per_trial=1, snr_db=cfg.snr_db[:1]
    )
    if args.trace:
        _make_out_dir(cfg)
    trace = [] if args.trace else None
    result = harness.run_scenario(cfg, trace_sink=trace)
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
        path = harness.write_trace_csv(trace, cfg.out_dir / "solver_trace.csv")
        print(f"trace written to {path}")
    # a solver failure's reason starts with its class, as run_scenario words it
    failures = tuple(f"{e.__name__}: " for e in harness.SOLVER_FAILURES)
    kinds = []
    for _, _, group, scheme, snr, reason in result.exclusions:
        kinds.append("error" if reason.startswith(failures) else "infeasible")
        print(f"{kinds[-1]}: scheme={scheme} group={group} snr_db={snr:g}: {reason}",
              file=sys.stderr)
    if "error" in kinds:
        return EXIT_ERROR
    return EXIT_INFEASIBLE if kinds else EXIT_OK


def _write_all(result, out_dir: Path) -> None:
    harness.write_trial_csv(result, out_dir / "trials.csv")
    harness.write_exclusions_csv(result, out_dir / "exclusions.csv")
    harness.write_aggregates(harness.aggregate(result), out_dir)


def _cmd_simulate(args) -> int:
    cfg = harness.config_from_dict(_read(args))
    _make_out_dir(cfg)
    result = harness.run_scenario(cfg)
    _write_all(result, cfg.out_dir)
    print(f"{len(result.records)} records, {len(result.exclusions)} excluded"
          f" -> {cfg.out_dir}")
    return EXIT_OK


def _cmd_grouping_compare(args) -> int:
    cfg = harness.config_from_dict(_read(args))
    # every variant passes the construction checks before any of them runs
    variants = [
        dataclasses.replace(cfg, grouping=strategy)
        for strategy in (
            GroupingStrategy.WLBH, GroupingStrategy.WRBR, GroupingStrategy.WHBL
        )
    ]
    _make_out_dir(cfg)
    runs = [harness.aggregate(harness.run_scenario(v)) for v in variants]
    # each run counts only its own exclusions; the first three columns hold
    # the grouping, and each run's rows are already sorted past them
    tables = {
        name: sorted((row for t in runs for row in t[name]),
                     key=lambda row: row[:3])
        for name in ("grouping_psnr", "mean_psnr")
    }
    paths = harness.write_aggregates(tables, cfg.out_dir)
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
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            dump_rd_fixtures(
                {params.stream_id or "fitted": params}, out,
                provenance=f"fitted from {args.points}",
            )
        except OSError as e:
            raise ConfigurationError(f"cannot write fixture: {e}") from e
        print(f"fixture written to {out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = harness.load_config(args.config)
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

    p = sub.add_parser("solve", help="solve every group of trial 0 at the"
                       " first snr_db point under every configured scheme")
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
    p.add_argument("--complexity", choices=COMPLEXITIES, default="Low")
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
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
