"""Scenario ingestion and Monte Carlo simulation loop.

A scenario describes a cell (UE placements, zones, per-group bandwidth and
power budget), an SNR sweep, the streams the UEs request, and which
allocation schemes to run. Each trial draws fresh Rayleigh fading per GOP,
forms NOMA groups, runs every selected scheme, snaps the continuous optimal
rates down onto each stream's discrete layered-coding rate set, and records
per-UE outcomes. Everything is keyed off one master seed: identical config
plus seed produces byte-identical CSV output.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .baselines import solve_noma_mt, solve_oma_simple
from .channel import (
    ChannelState,
    GroupingStrategy,
    QualityReq,
    UserEquipment,
    group_users,
    partition_zones,
    sample_channel,
)
from .errors import ConfigurationError, Infeasible, InfeasibleRate, NonConvergence
from .greedy import GreedyConfig, solve_greedy
from .phy import AmcParams, bounds_from_quality, build_feasible_set
from .polyblock import SolverConfig, solve_polyblock
from .quality import (DEFAULT_FIXTURE_PATH, RdParams, load_rd_fixtures,
                      psnr_of_rate)

SCHEMES = ("polyblock", "greedy", "noma-mt", "oma")

# per-enhancement-layer split of the quality-scalable rate increments
DEFAULT_MGS_WEIGHTS = (4, 3, 2, 3, 4)
DEFAULT_ENH_LAYERS = 3


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (normally parsed from a YAML file)."""

    ues: tuple  # UserEquipment, zone unset
    n_zones: int
    snr_db: tuple
    bandwidth_hz: float
    power_budget_w: float
    path_loss_exp: float
    p_rtp: float
    gops_per_trial: int
    grouping: GroupingStrategy
    solvers: tuple
    solver_cfg: SolverConfig
    greedy_cfg: GreedyConfig
    amc: AmcParams
    fixture_path: Path | None
    n_trials: int
    seed: int
    out_dir: Path
    mgs_weights: tuple = DEFAULT_MGS_WEIGHTS
    n_enh_layers: int = DEFAULT_ENH_LAYERS

    def noise_var(self, snr_db: float) -> float:
        # scenario SNR definition: 10 log10(P / sigma^2) with P the group budget
        return self.power_budget_w / 10.0 ** (snr_db / 10.0)

    def load_streams(self) -> dict:
        path = self.fixture_path or DEFAULT_FIXTURE_PATH
        try:
            table = load_rd_fixtures(path, p_rtp=self.p_rtp)
        except (OSError, ValueError) as e:  # unreadable or malformed file
            raise ConfigurationError(f"bad R-D fixture file: {e}") from e
        for u in self.ues:
            if u.requested_stream not in table:
                raise ConfigurationError(
                    f"UE {u.id} requests unknown stream {u.requested_stream!r}"
                )
        return table


def _cast(x, cast):
    """``cast(x)``, refusing to truncate a non-integral value to an int."""
    v = cast(x)
    if cast is int and v != float(x):
        raise ValueError(x)
    return v


def _number(d, key, cast=float, default=None, allow_zero=False):
    """Read a finite positive number (nonnegative with ``allow_zero``) from
    the config. A missing key takes ``default``; without one it is required.
    """
    if key not in d and default is not None:
        return default
    try:
        v = _cast(d[key], cast)
    except KeyError:
        raise ConfigurationError(f"missing config key: {key}")
    except (TypeError, ValueError, OverflowError):
        kind = "whole number" if cast is int else "number"
        raise ConfigurationError(f"config key {key} is not a {kind}: {d[key]!r}")
    if not np.isfinite(v) or v < 0 or (v == 0 and not allow_zero):
        kind = "nonnegative" if allow_zero else "positive"
        raise ConfigurationError(f"config key {key} must be finite and {kind}, got {v}")
    return v


def _set_numbers(d, fields, cast=float) -> dict:
    """``{field: number}`` over the ``key: field`` pairs of ``fields`` that
    ``d`` sets. A key the file leaves out is not passed on, so it takes the
    default of the type that owns the field."""
    return {field: _number(d, key, cast) for key, field in fields.items() if key in d}


def _numbers(d, key, cast, default):
    """Read a nonempty list of finite numbers from the config."""
    v = d.get(key, default)
    try:
        vals = tuple(_cast(x, cast) for x in v) if isinstance(v, (list, tuple)) else ()
    except (TypeError, ValueError, OverflowError):
        vals = ()
    if not vals or not np.all(np.isfinite(vals)):
        kind = "whole number" if cast is int else "number"
        raise ConfigurationError(f"config key {key} must be a nonempty {kind} list: {v!r}")
    return vals


# every key a scenario file may set, at the top level and in a UE entry
CONFIG_KEYS = frozenset({
    "ues", "n_zones", "snr_db", "bandwidth_hz", "power_budget_w",
    "path_loss_exp", "p_rtp", "gops_per_trial", "grouping", "solvers",
    "epsilon", "delta", "n_blocks", "amc_c1", "amc_c2", "mgs_weights",
    "n_enh_layers", "fixture_path", "n_trials", "seed", "out_dir",
})
UE_KEYS = frozenset({"id", "distance_m", "stream", "quality_req", "complexity"})


def _known_keys(d, keys):
    """Refuse a key that nothing reads, so that a misspelt one is not ignored."""
    for key in d:
        if key not in keys:
            raise ConfigurationError(f"unknown config key {key!r}")


def _ue(k, u, path_loss_exp) -> UserEquipment:
    """UE entry ``k`` (counted from 1), its numbers read like top-level keys.

    Every error names the entry and, once it has been read, the UE id.
    """
    where = f"UE entry {k}"
    if not isinstance(u, dict):
        raise ConfigurationError(f"{where} must be a mapping: {u!r}")
    try:
        ue_id = _number(u, "id", int, allow_zero=True)
        where += f" (id {ue_id})"
        _known_keys(u, UE_KEYS)
        ue = UserEquipment(
            id=ue_id,
            distance_m=_number(u, "distance_m"),
            requested_stream=str(u["stream"]),
            **({"quality_req": QualityReq(u["quality_req"])}
               if "quality_req" in u else {}),
        )
        # channel_gain divides by sqrt(1 + d^eta), which must stay finite
        try:
            finite = np.isfinite(1.0 + ue.distance_m ** path_loss_exp)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigurationError(
                f"path loss at distance_m {ue.distance_m} overflows")
    except KeyError as e:
        raise ConfigurationError(f"{where}: missing config key: {e.args[0]}")
    except (ConfigurationError, ValueError) as e:
        raise ConfigurationError(f"{where}: {e}")
    return ue


def _path(d, key, default):
    """Read a file or directory path from the config."""
    v = d.get(key, default)
    if v is not None and not isinstance(v, (str, os.PathLike)):
        raise ConfigurationError(f"config key {key} must be a path: {v!r}")
    return v


def config_from_dict(d: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from parsed YAML."""
    if not isinstance(d, dict):
        raise ConfigurationError("config root must be a mapping")
    _known_keys(d, CONFIG_KEYS)
    if not isinstance(d.get("ues"), list) or not d["ues"]:
        raise ConfigurationError(
            f"config key ues must be a nonempty list of UE entries: {d.get('ues')!r}")
    path_loss_exp = _number(d, "path_loss_exp", default=2.0)
    ues = tuple(_ue(k, u, path_loss_exp) for k, u in enumerate(d["ues"], 1))
    if len({u.id for u in ues}) != len(ues):
        raise ConfigurationError("UE ids must be unique")

    n_zones = _number(d, "n_zones", int)
    if len(ues) % n_zones != 0:
        raise ConfigurationError("UE count must be a multiple of n_zones")
    zone_size = len(ues) // n_zones
    snr_db = _numbers(d, "snr_db", float, [15.0])
    if len(set(snr_db)) != len(snr_db):
        raise ConfigurationError(f"config key snr_db repeats a value: {list(snr_db)}")

    try:
        grouping = GroupingStrategy(d.get("grouping", "ByIndex"))
    except ValueError:
        raise ConfigurationError(f"unknown grouping strategy: {d.get('grouping')!r}")
    solvers = d.get("solvers", list(SCHEMES))
    if not isinstance(solvers, (list, tuple)) or not solvers:
        raise ConfigurationError(f"config key solvers must be a nonempty list: {solvers!r}")
    for s in solvers:
        if s not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {s!r}; choose from {SCHEMES}")
    if len(set(solvers)) != len(solvers):
        raise ConfigurationError(f"config key solvers repeats a scheme: {solvers}")
    solvers = tuple(solvers)
    if "noma-mt" in solvers and n_zones != 2:
        raise ConfigurationError("the noma-mt reference scheme needs exactly 2 zones")

    try:
        solver_cfg = SolverConfig(
            **_set_numbers(d, {"epsilon": "epsilon", "delta": "delta"}))
        greedy_cfg = GreedyConfig(**_set_numbers(d, {"n_blocks": "n_blocks"}, int))
        amc = AmcParams(**_set_numbers(d, {"amc_c1": "c1", "amc_c2": "c2"}))
    except ValueError as e:
        raise ConfigurationError(str(e))

    p_rtp = _number(d, "p_rtp", default=0.05, allow_zero=True)
    if not p_rtp < 1:
        raise ConfigurationError("p_rtp must be in [0, 1)")
    mgs = _numbers(d, "mgs_weights", int, DEFAULT_MGS_WEIGHTS)
    if any(w <= 0 for w in mgs):
        raise ConfigurationError("mgs_weights must be positive")

    fixture_path = _path(d, "fixture_path", None)
    cfg = ScenarioConfig(
        ues=ues,
        n_zones=n_zones,
        snr_db=snr_db,
        bandwidth_hz=_number(d, "bandwidth_hz"),
        power_budget_w=_number(d, "power_budget_w"),
        path_loss_exp=path_loss_exp,
        p_rtp=p_rtp,
        gops_per_trial=_number(d, "gops_per_trial", int, default=1),
        grouping=grouping,
        solvers=solvers,
        solver_cfg=solver_cfg,
        greedy_cfg=greedy_cfg,
        amc=amc,
        fixture_path=None if fixture_path in (None, "") else Path(fixture_path),
        n_trials=_number(d, "n_trials", int, default=200),
        seed=_number(d, "seed", int, default=0, allow_zero=True),
        out_dir=Path(_path(d, "out_dir", "results")),
        mgs_weights=mgs,
        n_enh_layers=_number(
            d, "n_enh_layers", int, default=DEFAULT_ENH_LAYERS, allow_zero=True
        ),
    )
    for snr in snr_db:
        try:
            noise = cfg.noise_var(snr)
        except (OverflowError, ZeroDivisionError):
            noise = 0.0
        if not 0 < noise < np.inf:
            raise ConfigurationError(
                f"config key snr_db value {snr} gives no finite positive noise power")

    # a stream's complexity is its fixture row's; a UE entry may restate it
    table = cfg.load_streams()
    for k, (u, ue) in enumerate(zip(d["ues"], ues), 1):
        fixture = table[ue.requested_stream].complexity
        if "complexity" in u and u["complexity"] != fixture:
            raise ConfigurationError(
                f"UE entry {k} (id {ue.id}): complexity {u['complexity']} differs"
                f" from stream {ue.requested_stream!r}'s fixture complexity {fixture}")
    if grouping in (GroupingStrategy.WLBH, GroupingStrategy.WHBL):
        # group_users maps whole zones to one complexity class
        n_low = sum(table[u.requested_stream].complexity == "Low" for u in ues)
        if n_low % zone_size != 0:
            raise ConfigurationError(
                f"{grouping.value} needs a number of Low-complexity UEs that is a"
                f" multiple of the zone size {zone_size}, got {n_low}")
    return cfg


def read_config(path):
    """The parsed YAML of a config file, before validation."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except OSError as e:
        raise ConfigurationError(f"cannot read config: {e}")
    except yaml.YAMLError as e:
        raise ConfigurationError(f"config is not valid YAML: {e}")


def load_config(path) -> ScenarioConfig:
    return config_from_dict(read_config(path))


# ---------------------------------------------------------------------------
# discrete layered-coding rate set and rate snapping
# ---------------------------------------------------------------------------


def discrete_rate_set(
    params: RdParams,
    mgs_weights=DEFAULT_MGS_WEIGHTS,
    n_enh_layers: int = DEFAULT_ENH_LAYERS,
) -> np.ndarray:
    """Achievable on-the-wire rates of the layered encoding, sorted ascending.

    The span between the base-layer rate and the full rate is split into
    equal enhancement layers, each subdivided into quality-scalable
    increments proportional to ``mgs_weights``. The set has
    1 + n_enh_layers * len(mgs_weights) points; the first is rate(q_min) and
    the last telescopes to rate(q_max) exactly.
    """
    r_lo, r_hi = params.rate_min, params.rate_max
    if n_enh_layers == 0:
        return np.array([r_lo])
    w = np.asarray(mgs_weights, dtype=float)
    step_fracs = np.tile(w / w.sum() / n_enh_layers, n_enh_layers)
    rates = r_lo + np.concatenate([[0.0], np.cumsum(step_fracs)]) * (r_hi - r_lo)
    rates[-1] = r_hi
    return rates


def snap_rate(rate_bps: float, rate_set: np.ndarray) -> float:
    """Largest achievable rate not exceeding ``rate_bps`` (floor semantics).

    Rates below the base layer clamp to it; the caller is responsible for
    only snapping rates that met the minimum quality up to solver tolerance.
    """
    idx = int(np.searchsorted(rate_set, rate_bps * (1.0 + 1e-12), side="right")) - 1
    return float(rate_set[max(idx, 0)])


# ---------------------------------------------------------------------------
# the simulation loop
# ---------------------------------------------------------------------------


@dataclass
class TrialRecord:
    """Outcome of one scheme on one (trial, GOP, group) instance."""

    trial: int
    gop: int
    group: int
    scheme: str
    snr_db: float
    grouping: str
    ue_ids: tuple  # weakest channel first
    streams: tuple
    sinrs: tuple
    rates_bps: tuple  # continuous rates from the scheme's allocation
    snapped_rates_bps: tuple
    psnr_db: tuple  # per UE, at the snapped rate
    alloc_coeff: tuple  # power fractions (bandwidth fractions for oma)
    avg_psnr_db: float  # mean of psnr_db
    avg_psnr_cont_db: float  # mean per-UE PSNR before rate snapping
    iterations: int
    bound_gap_db: float


@dataclass
class ScenarioResult:
    records: list
    exclusions: list  # (trial, gop, group, scheme, snr_db, reason)
    config: ScenarioConfig

    def exclusion_counts(self) -> dict:
        counts = {}
        for _, _, _, scheme, snr_db, _ in self.exclusions:
            counts[(snr_db, scheme)] = counts.get((snr_db, scheme), 0) + 1
        return counts


def _run_scheme(scheme, ch, streams, bounds, cfg):
    """Run one allocation scheme on one instance; returns its Allocation."""
    amc, b = cfg.amc, cfg.bandwidth_hz
    if scheme == "polyblock":
        fset = build_feasible_set(ch, bounds)
        return solve_polyblock(fset, streams, amc, b, cfg.solver_cfg)
    if scheme == "greedy":
        return solve_greedy(ch, streams, amc, b, cfg.greedy_cfg, bounds)
    if scheme == "noma-mt":
        return solve_noma_mt(ch, streams, amc, b, bounds)
    if scheme == "oma":
        return solve_oma_simple(ch, streams, amc, b)
    raise ConfigurationError(f"unknown scheme {scheme!r}")


def _instance_seed(cfg, trial, gop, salt):
    return np.random.SeedSequence((cfg.seed, trial, gop, salt))


def run_scenario(cfg: ScenarioConfig, trace_sink: list | None = None) -> ScenarioResult:
    """Execute the Monte Carlo loop and return all trial records.

    Fading is drawn per (trial, GOP) and shared across the SNR sweep, so
    per-SNR aggregates are paired comparisons. Infeasible instances, and
    instances whose solver hits an iteration cap (reason prefixed
    ``NonConvergence: ``), are recorded in ``exclusions`` and skipped, never
    fatal. ``trace_sink`` collects every polyblock iteration trace.
    """
    table = cfg.load_streams()
    zoned = partition_zones(list(cfg.ues), cfg.n_zones)
    rate_sets = {
        sid: discrete_rate_set(p, cfg.mgs_weights, cfg.n_enh_layers)
        for sid, p in table.items()
    }

    records, exclusions = [], []
    for trial in range(cfg.n_trials):
        for gop in range(cfg.gops_per_trial):
            rng = np.random.default_rng(_instance_seed(cfg, trial, gop, 0))
            fading = {
                u.id: abs(sample_channel(u, rng, cfg.path_loss_exp)) ** 2
                for u in sorted(zoned, key=lambda u: u.id)
            }
            group_seed = int(
                _instance_seed(cfg, trial, gop, 1).generate_state(1)[0]
            )
            groups = group_users(zoned, table, cfg.grouping, seed=group_seed)
            for g_idx, group in enumerate(groups):
                # SIC ordering follows the realized gains, not the zones
                members = sorted(group, key=lambda u: fading[u.id])
                gains = np.array([fading[u.id] for u in members])
                streams = [table[u.requested_stream] for u in members]
                bounds = bounds_from_quality(streams, cfg.amc, cfg.bandwidth_hz)
                for snr in cfg.snr_db:
                    ch = ChannelState(
                        gains_sq=gains,
                        noise_var=cfg.noise_var(snr),
                        power_budget_w=cfg.power_budget_w,
                    )
                    for scheme in cfg.solvers:
                        try:
                            res = _run_scheme(scheme, ch, streams, bounds, cfg)
                        except (Infeasible, InfeasibleRate) as e:
                            exclusions.append(
                                (trial, gop, g_idx, scheme, snr, str(e))
                            )
                            continue
                        except NonConvergence as e:
                            exclusions.append((
                                trial, gop, g_idx, scheme, snr,
                                f"NonConvergence: {e}",
                            ))
                            continue
                        if trace_sink is not None and scheme == "polyblock":
                            trace_sink.extend(res.trace)
                        snapped = [
                            snap_rate(float(r), rate_sets[s.stream_id])
                            for r, s in zip(res.rates_bps, streams)
                        ]
                        psnrs = [
                            psnr_of_rate(s, r) for s, r in zip(streams, snapped)
                        ]
                        records.append(TrialRecord(
                            trial=trial,
                            gop=gop,
                            group=g_idx,
                            scheme=scheme,
                            snr_db=snr,
                            grouping=cfg.grouping.value,
                            ue_ids=tuple(u.id for u in members),
                            streams=tuple(s.stream_id for s in streams),
                            sinrs=tuple(float(x) for x in res.sinrs),
                            rates_bps=tuple(float(r) for r in res.rates_bps),
                            snapped_rates_bps=tuple(snapped),
                            psnr_db=tuple(psnrs),
                            alloc_coeff=tuple(float(x) for x in res.shares),
                            avg_psnr_db=float(np.mean(psnrs)),
                            avg_psnr_cont_db=float(np.mean(res.per_user_psnr_db)),
                            iterations=int(res.iterations),
                            bound_gap_db=float(res.bound_gap_db),
                        ))
    return ScenarioResult(records=records, exclusions=exclusions, config=cfg)


# ---------------------------------------------------------------------------
# CSV emission and aggregation
# ---------------------------------------------------------------------------

_TRIAL_COLUMNS = [
    "trial", "gop", "group", "scheme", "snr_db", "grouping", "ue_slot",
    "ue_id", "stream", "sinr", "rate_bps", "snapped_rate_bps", "psnr_db",
    "alloc_coeff", "avg_psnr_db", "avg_psnr_cont_db", "iterations",
    "bound_gap_db", "wall_time_s",
]


def _record_sort_key(r: TrialRecord):
    return (r.trial, r.gop, r.group, r.scheme, r.snr_db)


def write_trial_csv(result: ScenarioResult, path):
    """One row per (record, UE slot), order-normalized for reproducibility.

    The ``wall_time_s`` column is kept empty: timing would break the
    byte-identical-output guarantee.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_TRIAL_COLUMNS)
        for r in sorted(result.records, key=_record_sort_key):
            for slot in range(len(r.ue_ids)):
                w.writerow([
                    r.trial, r.gop, r.group, r.scheme, repr(r.snr_db),
                    r.grouping, slot, r.ue_ids[slot], r.streams[slot],
                    repr(r.sinrs[slot]), repr(r.rates_bps[slot]),
                    repr(r.snapped_rates_bps[slot]), repr(r.psnr_db[slot]),
                    repr(r.alloc_coeff[slot]), repr(r.avg_psnr_db),
                    repr(r.avg_psnr_cont_db), r.iterations,
                    repr(r.bound_gap_db), "",
                ])


def write_exclusions_csv(result: ScenarioResult, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial", "gop", "group", "scheme", "snr_db", "reason"])
        for row in sorted(result.exclusions):
            w.writerow(row)


def aggregate(result: ScenarioResult) -> dict:
    """Summaries keyed the way the comparison tables are usually read.

    Returns three row lists:
      mean_psnr:  (snr_db, scheme, grouping) -> mean average PSNR + counts;
                  a pair whose instances were all excluded keeps its row,
                  with no mean (None) and 0 records
      weak_coeff: (snr_db, group, scheme) -> mean allocation share of the
                  weakest-channel UE
      grouping_psnr: (grouping, snr_db, stream) -> mean per-UE PSNR

    ``result`` is one run, so every row carries the run's grouping; runs
    under other groupings are aggregated one by one and their rows merged.
    """
    excl = result.exclusion_counts()
    grouping = result.config.grouping.value

    def mean_over(keyfunc, valfunc):
        acc = {}
        for r in result.records:
            acc.setdefault(keyfunc(r), []).append(valfunc(r))
        return acc

    psnr = mean_over(lambda r: (r.snr_db, r.scheme), lambda r: r.avg_psnr_db)
    mean_psnr = []
    for snr, scheme in sorted(psnr.keys() | excl.keys()):
        v = psnr.get((snr, scheme), [])
        mean_psnr.append((snr, scheme, grouping, float(np.mean(v)) if v else None,
                          len(v), excl.get((snr, scheme), 0)))
    weak_coeff = [
        (snr, group, scheme, float(np.mean(v)), len(v))
        for (snr, group, scheme), v in sorted(mean_over(
            lambda r: (r.snr_db, r.group, r.scheme),
            lambda r: r.alloc_coeff[0],
        ).items())
    ]
    per_stream = {}
    for r in result.records:
        for sid, q in zip(r.streams, r.psnr_db):
            per_stream.setdefault((r.grouping, r.snr_db, r.scheme, sid), []).append(q)
    grouping_psnr = [
        (grouping, snr, scheme, sid, float(np.mean(v)), len(v))
        for (grouping, snr, scheme, sid), v in sorted(per_stream.items())
    ]
    return {
        "mean_psnr": mean_psnr,
        "weak_coeff": weak_coeff,
        "grouping_psnr": grouping_psnr,
    }


_AGG_HEADERS = {
    "mean_psnr": ["snr_db", "scheme", "grouping", "mean_avg_psnr_db",
                  "n_records", "n_excluded"],
    "weak_coeff": ["snr_db", "group", "scheme", "mean_weak_coeff", "n_records"],
    "grouping_psnr": ["grouping", "snr_db", "scheme", "stream",
                      "mean_psnr_db", "n_records"],
}


def write_aggregates(tables: dict, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, rows in tables.items():
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_AGG_HEADERS[name])
            for row in rows:
                w.writerow([repr(x) if isinstance(x, float) else x for x in row])
        paths[name] = path
    return paths
