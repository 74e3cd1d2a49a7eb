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
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .baselines import solve_noma_mt, solve_oma_simple
from .channel import (
    ChannelState,
    Complexity,
    GroupingStrategy,
    QualityReq,
    UserEquipment,
    group_users,
    partition_zones,
    sample_channel,
)
from .errors import ConfigurationError, Infeasible, InfeasibleRate, NonConvergence
from .greedy import GreedyConfig, solve_greedy
from .phy import AmcParams, amc_rate, bounds_from_quality, build_feasible_set
from .polyblock import SolverConfig, solve_polyblock
from .quality import RdParams, load_rd_fixtures, psnr_of_rate

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
    gop_size: int
    frame_rate: float
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

    @property
    def ues_per_zone(self) -> int:
        return len(self.ues) // self.n_zones

    def gop_duration_s(self) -> float:
        return self.gop_size / self.frame_rate

    def noise_var(self, snr_db: float) -> float:
        # scenario SNR definition: 10 log10(P / sigma^2) with P the group budget
        return self.power_budget_w / 10.0 ** (snr_db / 10.0)

    def load_streams(self) -> dict:
        path = self.fixture_path
        table = (
            load_rd_fixtures(p_rtp=self.p_rtp)
            if path is None
            else load_rd_fixtures(path, p_rtp=self.p_rtp)
        )
        for u in self.ues:
            if u.requested_stream not in table:
                raise ConfigurationError(
                    f"UE {u.id} requests unknown stream {u.requested_stream!r}"
                )
        return table


def _number(d, key, cast=float, default=None, allow_zero=False):
    """Read a positive number (nonnegative with ``allow_zero``) from the config.

    A missing key takes ``default``; without one the key is required.
    """
    if key not in d and default is not None:
        return default
    try:
        v = cast(d[key])
    except KeyError:
        raise ConfigurationError(f"missing config key: {key}")
    except (TypeError, ValueError):
        raise ConfigurationError(f"config key {key} is not a number: {d[key]!r}")
    if v < 0 or (v == 0 and not allow_zero):
        kind = "nonnegative" if allow_zero else "positive"
        raise ConfigurationError(f"config key {key} must be {kind}, got {v}")
    return v


def config_from_dict(d: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from parsed YAML."""
    if not isinstance(d, dict):
        raise ConfigurationError("config root must be a mapping")
    try:
        ues = tuple(
            UserEquipment(
                id=int(u["id"]),
                distance_m=float(u["distance_m"]),
                requested_stream=str(u["stream"]),
                quality_req=QualityReq(u.get("quality_req", "QualitySensitive")),
                content_complexity=Complexity(u.get("complexity", "Low")),
            )
            for u in d["ues"]
        )
    except KeyError as e:
        raise ConfigurationError(f"UE entry missing field {e}")
    except ValueError as e:
        raise ConfigurationError(f"bad UE entry: {e}")
    if len({u.id for u in ues}) != len(ues):
        raise ConfigurationError("UE ids must be unique")

    n_zones = _number(d, "n_zones", int)
    if len(ues) % n_zones != 0:
        raise ConfigurationError("UE count must be a multiple of n_zones")
    snr_db = tuple(float(s) for s in d.get("snr_db", [15.0]))
    if not snr_db:
        raise ConfigurationError("snr_db must be nonempty")

    try:
        grouping = GroupingStrategy(d.get("grouping", "ByIndex"))
    except ValueError:
        raise ConfigurationError(f"unknown grouping strategy: {d.get('grouping')!r}")
    solvers = tuple(d.get("solvers", list(SCHEMES)))
    for s in solvers:
        if s not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {s!r}; choose from {SCHEMES}")
    if "noma-mt" in solvers and n_zones != 2:
        raise ConfigurationError("the noma-mt reference scheme needs exactly 2 zones")

    try:
        solver_cfg = SolverConfig(
            epsilon=float(d.get("epsilon", 1e-3)),
            delta=float(d.get("delta", 1e-6)),
        )
        greedy_cfg = GreedyConfig(n_blocks=int(d.get("n_blocks", 100)))
        amc = AmcParams(
            c1=float(d.get("amc_c1", 0.905)), c2=float(d.get("amc_c2", 1.34))
        )
    except ValueError as e:
        raise ConfigurationError(str(e))

    p_rtp = float(d.get("p_rtp", 0.05))
    if not 0 <= p_rtp < 1:
        raise ConfigurationError("p_rtp must be in [0, 1)")
    mgs = tuple(int(w) for w in d.get("mgs_weights", DEFAULT_MGS_WEIGHTS))
    if any(w <= 0 for w in mgs):
        raise ConfigurationError("mgs_weights must be positive")

    fixture_path = d.get("fixture_path")
    return ScenarioConfig(
        ues=ues,
        n_zones=n_zones,
        snr_db=snr_db,
        bandwidth_hz=_number(d, "bandwidth_hz"),
        power_budget_w=_number(d, "power_budget_w"),
        path_loss_exp=_number(d, "path_loss_exp", default=2.0),
        p_rtp=p_rtp,
        gop_size=int(d.get("gop_size", 8)),
        frame_rate=float(d.get("frame_rate", 30.0)),
        gops_per_trial=_number(d, "gops_per_trial", int, default=1),
        grouping=grouping,
        solvers=solvers,
        solver_cfg=solver_cfg,
        greedy_cfg=greedy_cfg,
        amc=amc,
        fixture_path=None if fixture_path in (None, "") else Path(fixture_path),
        n_trials=_number(d, "n_trials", int, default=200),
        seed=_number(d, "seed", int, default=0, allow_zero=True),
        out_dir=Path(d.get("out_dir", "results")),
        mgs_weights=mgs,
        n_enh_layers=_number(
            d, "n_enh_layers", int, default=DEFAULT_ENH_LAYERS, allow_zero=True
        ),
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigurationError(f"cannot read config: {e}")
    except yaml.YAMLError as e:
        raise ConfigurationError(f"config is not valid YAML: {e}")
    return config_from_dict(raw)


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
    wall_time_s: float


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


def _power_shares(p):
    # allocation coefficients as shares of the power actually spent: the
    # absolute level scales with the noise floor once UEs saturate, so
    # budget-relative fractions would vanish at high SNR
    total = float(np.sum(p))
    return p / total if total > 0 else p


def _run_scheme(scheme, ch, streams, cfg, trace_sink=None):
    """Run one allocation scheme; returns (sinrs, rates, coeffs, iters, gap)."""
    amc, b = cfg.amc, cfg.bandwidth_hz
    if scheme == "polyblock":
        bounds = bounds_from_quality(streams, amc, b)
        fset = build_feasible_set(ch, bounds)
        res = solve_polyblock(
            fset, streams, amc, b, cfg.solver_cfg, keep_trace=trace_sink is not None
        )
        if trace_sink is not None:
            trace_sink.extend(res.trace)
        gam = np.minimum(res.sinrs, bounds.gamma_max)
        return gam, amc_rate(b, gam, amc), _power_shares(res.power), \
            res.iterations, res.bound_gap_db
    if scheme == "greedy":
        res = solve_greedy(ch, streams, amc, b, cfg.greedy_cfg)
        bounds = bounds_from_quality(streams, amc, b)
        gam = np.minimum(res.sinrs, bounds.gamma_max)
        return gam, amc_rate(b, gam, amc), _power_shares(res.power), \
            res.blocks_used, 0.0
    if scheme == "noma-mt":
        res = solve_noma_mt(ch, streams, amc, b)
        return res.sinrs, amc_rate(b, res.sinrs, amc), \
            _power_shares(res.power), 0, 0.0
    if scheme == "oma":
        res = solve_oma_simple(ch, streams, amc, b)
        rates = res.bandwidth_frac * amc_rate(b, res.sinrs, amc)
        return res.sinrs, rates, res.bandwidth_frac, 0, 0.0
    raise ConfigurationError(f"unknown scheme {scheme!r}")


def _instance_seed(cfg, trial, gop, salt):
    return np.random.SeedSequence((cfg.seed, trial, gop, salt))


def run_scenario(
    cfg: ScenarioConfig,
    solvers=None,
    snr_db=None,
    grouping: GroupingStrategy | None = None,
    trace_sink: list | None = None,
) -> ScenarioResult:
    """Execute the Monte Carlo loop and return all trial records.

    ``solvers``, ``snr_db`` and ``grouping`` override the config when given
    (the sweep and comparison commands reuse one config this way). Fading is
    drawn per (trial, GOP) and shared across the SNR sweep, so per-SNR
    aggregates are paired comparisons. Infeasible instances, and instances
    whose solver hits an iteration cap (reason prefixed ``NonConvergence: ``),
    are recorded in ``exclusions`` and skipped, never fatal.
    """
    solvers = tuple(solvers) if solvers is not None else cfg.solvers
    snrs = tuple(snr_db) if snr_db is not None else cfg.snr_db
    strategy = grouping if grouping is not None else cfg.grouping
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
            groups = group_users(zoned, strategy, seed=group_seed)
            for g_idx, group in enumerate(groups):
                # SIC ordering follows the realized gains, not the zones
                members = sorted(group, key=lambda u: fading[u.id])
                gains = np.array([fading[u.id] for u in members])
                streams = [table[u.requested_stream] for u in members]
                for snr in snrs:
                    ch = ChannelState(
                        gains_sq=gains,
                        noise_var=cfg.noise_var(snr),
                        bandwidth_hz=cfg.bandwidth_hz,
                        power_budget_w=cfg.power_budget_w,
                        path_loss_exp=cfg.path_loss_exp,
                    )
                    for scheme in solvers:
                        t0 = time.perf_counter()
                        try:
                            gam, rates, coeffs, iters, gap = _run_scheme(
                                scheme, ch, streams, cfg, trace_sink
                            )
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
                        wall = time.perf_counter() - t0
                        snapped = [
                            snap_rate(float(r), rate_sets[s.stream_id])
                            for r, s in zip(rates, streams)
                        ]
                        psnrs = [
                            psnr_of_rate(s, r) for s, r in zip(streams, snapped)
                        ]
                        cont = [
                            psnr_of_rate(s, float(r))
                            for s, r in zip(streams, rates)
                        ]
                        records.append(TrialRecord(
                            trial=trial,
                            gop=gop,
                            group=g_idx,
                            scheme=scheme,
                            snr_db=snr,
                            grouping=strategy.value,
                            ue_ids=tuple(u.id for u in members),
                            streams=tuple(s.stream_id for s in streams),
                            sinrs=tuple(float(x) for x in gam),
                            rates_bps=tuple(float(r) for r in rates),
                            snapped_rates_bps=tuple(snapped),
                            psnr_db=tuple(psnrs),
                            alloc_coeff=tuple(float(x) for x in coeffs),
                            avg_psnr_db=float(np.mean(psnrs)),
                            avg_psnr_cont_db=float(np.mean(cont)),
                            iterations=int(iters),
                            bound_gap_db=float(gap),
                            wall_time_s=wall,
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

    Wall times vary between runs, so they are rounded away to keep the
    byte-identical-output guarantee meaningful for everything that matters.
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
      mean_psnr:  (snr_db, scheme, grouping) -> mean average PSNR + counts
      weak_coeff: (snr_db, group, scheme) -> mean allocation share of the
                  weakest-channel UE
      grouping_psnr: (grouping, snr_db, stream) -> mean per-UE PSNR
    """
    if not result.records:
        raise ValueError("no records to aggregate")
    excl = result.exclusion_counts()

    def mean_over(keyfunc, valfunc):
        acc = {}
        for r in result.records:
            acc.setdefault(keyfunc(r), []).append(valfunc(r))
        return acc

    mean_psnr = [
        (snr, scheme, grouping, float(np.mean(v)), len(v),
         excl.get((snr, scheme), 0))
        for (snr, scheme, grouping), v in sorted(mean_over(
            lambda r: (r.snr_db, r.scheme, r.grouping),
            lambda r: r.avg_psnr_db,
        ).items())
    ]
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
