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
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .baselines import solve_noma_mt, solve_oma_simple
from .channel import (
    ChannelState,
    GroupingStrategy,
    UserEquipment,
    group_users,
    partition_zones,
    sample_channel,
)
from .errors import (NONNEGATIVE, NOT_NUMBER, NOT_WHOLE, POSITIVE, WRONG_TYPE,
                     ConfigurationError, Infeasible, InfeasibleRate, NonConvergence,
                     Rule, check_fields, finite_float, instance_of, path, tuple_of, whole)
from .greedy import GreedyConfig, solve_greedy
from .phy import bounds_from_quality, build_feasible_set
from .polyblock import SolverConfig, solve_polyblock
from .quality import (DEFAULT_FIXTURE_PATH, RdParams, load_rd_fixtures,
                      psnr_of_rate)

SCHEMES = ("polyblock", "greedy", "noma-mt", "oma")
# solver failures: an instance that raises one is excluded, its reason
# prefixed with the error's class
SOLVER_FAILURES = (NonConvergence, ValueError)

# per-enhancement-layer split of the quality-scalable rate increments
DEFAULT_MGS_WEIGHTS = (4, 3, 2, 3, 4)
DEFAULT_ENH_LAYERS = 3


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario; a field's default is that of a key the file leaves
    out. Every field and every rule that spans fields is checked on
    construction, so a config derived with ``dataclasses.replace`` is checked
    like a parsed one, and the stream table is read then, once, into ``streams``."""

    ues: tuple  # UserEquipment, zone unset
    n_zones: int
    bandwidth_hz: float
    power_budget_w: float
    snr_db: tuple = (15.0,)
    path_loss_exp: float = 2.0
    p_rtp: float = 0.05
    gops_per_trial: int = 1
    grouping: GroupingStrategy = GroupingStrategy.BY_INDEX
    solvers: tuple = SCHEMES
    solver_cfg: SolverConfig = SolverConfig()
    greedy_cfg: GreedyConfig = GreedyConfig()
    fixture_path: Path = DEFAULT_FIXTURE_PATH
    n_trials: int = 200
    seed: int = 0
    out_dir: Path = Path("results")
    mgs_weights: tuple = DEFAULT_MGS_WEIGHTS
    n_enh_layers: int = DEFAULT_ENH_LAYERS
    streams: dict = field(init=False, repr=False, compare=False)  # id -> RdParams

    # each field's rule, which coerces its value or refuses it; a top-level
    # key of the scenario file sets the field of its name or a sub-config's
    FIELDS = {
        "ues": Rule(tuple_of(instance_of(UserEquipment)),
                    "config key {key} must be a nonempty list of UE entries: {value!r}"),
        "n_zones": Rule(whole, NOT_WHOLE, POSITIVE),
        "bandwidth_hz": Rule(float, NOT_NUMBER, POSITIVE),
        "power_budget_w": Rule(float, NOT_NUMBER, POSITIVE),
        "snr_db": Rule(tuple_of(finite_float),
                       "config key {key} must be a nonempty number list: {value!r}"),
        "path_loss_exp": Rule(float, NOT_NUMBER, POSITIVE),
        "p_rtp": Rule(float, NOT_NUMBER, NONNEGATIVE),
        "gops_per_trial": Rule(whole, NOT_WHOLE, POSITIVE),
        "grouping": Rule(GroupingStrategy, "unknown grouping strategy: {value!r}"),
        "solvers": Rule(tuple_of(), "config key {key} must be a nonempty list: {value!r}"),
        "solver_cfg": Rule(instance_of(SolverConfig), WRONG_TYPE),
        "greedy_cfg": Rule(instance_of(GreedyConfig), WRONG_TYPE),
        "fixture_path": Rule(path, "config key {key} must be a path: {value!r}"),
        "n_trials": Rule(whole, NOT_WHOLE, POSITIVE),
        "seed": Rule(whole, NOT_WHOLE, NONNEGATIVE),
        "out_dir": Rule(path, "config key {key} must be a path: {value!r}"),
        "mgs_weights": Rule(tuple_of(whole), "config key {key} must be a nonempty"
                            " whole number list: {value!r}"),
        "n_enh_layers": Rule(whole, NOT_WHOLE, NONNEGATIVE),
    }

    def __post_init__(self):
        check_fields(self)
        if not self.p_rtp < 1:
            raise ConfigurationError("p_rtp must be in [0, 1)")
        if any(w <= 0 for w in self.mgs_weights):
            raise ConfigurationError("mgs_weights must be positive")

        if len({u.id for u in self.ues}) != len(self.ues):
            raise ConfigurationError("UE ids must be unique")
        if len(self.ues) % self.n_zones != 0:
            raise ConfigurationError("UE count must be a multiple of n_zones")
        for k, u in enumerate(self.ues, 1):
            # channel_gain divides by sqrt(1 + d^eta), which must stay finite
            try:
                finite = np.isfinite(1.0 + u.distance_m ** self.path_loss_exp)
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigurationError(f"UE entry {k} (id {u.id}): path loss"
                                         f" at distance_m {u.distance_m} overflows")

        for s in self.solvers:
            if s not in SCHEMES:
                raise ConfigurationError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        if len(set(self.solvers)) != len(self.solvers):
            raise ConfigurationError(
                f"config key solvers repeats a scheme: {list(self.solvers)}")
        if "noma-mt" in self.solvers and self.n_zones != 2:
            raise ConfigurationError(
                "the noma-mt reference scheme needs exactly 2 zones")

        if len(set(self.snr_db)) != len(self.snr_db):
            raise ConfigurationError(
                f"config key snr_db repeats a value: {list(self.snr_db)}")
        for snr in self.snr_db:
            try:
                noise = self.noise_var(snr)
            except (OverflowError, ZeroDivisionError):
                noise = 0.0
            if not 0 < noise < np.inf:
                raise ConfigurationError(f"config key snr_db value {snr} gives"
                                         " no finite positive noise power")

        try:
            table = load_rd_fixtures(self.fixture_path, p_rtp=self.p_rtp)
        except (OSError, ValueError) as e:  # unreadable or malformed file
            raise ConfigurationError(f"bad R-D fixture file: {e}") from e
        object.__setattr__(self, "streams", table)
        for u in self.ues:
            if u.requested_stream not in table:
                raise ConfigurationError(
                    f"UE {u.id} requests unknown stream {u.requested_stream!r}")
        try:
            requested = [table[u.requested_stream] for u in self.ues]
            bounds = bounds_from_quality(requested, self.bandwidth_hz)
            finite = np.all(np.isfinite(bounds.gamma_max))
        except (OverflowError, ValueError):  # overflow, or gamma_min == gamma_max
            finite = False
        if not finite:
            raise ConfigurationError(
                f"bandwidth_hz {self.bandwidth_hz} gives a requested stream an"
                " empty or overflowing SINR band")
        if self.grouping in (GroupingStrategy.WLBH, GroupingStrategy.WHBL):
            # group_users maps whole zones to one complexity class
            zone_size = len(self.ues) // self.n_zones
            n_low = sum(table[u.requested_stream].complexity == "Low" for u in self.ues)
            if n_low % zone_size != 0:
                raise ConfigurationError(
                    f"{self.grouping.value} needs a number of Low-complexity UEs"
                    f" that is a multiple of the zone size {zone_size}, got {n_low}")

    def noise_var(self, snr_db: float) -> float:
        # scenario SNR definition: 10 log10(P / sigma^2) with P the group budget
        return self.power_budget_w / 10.0 ** (snr_db / 10.0)

    def load_streams(self) -> dict:
        """The stream table read on construction, ``streams``. Kept only for
        the set-up timing of ``perfbench/run.py``, until a benchmark-only
        change (see ROADMAP.md) has that script read ``streams``."""
        return self.streams


def _keys(cls) -> dict:
    """``{scenario-file key: field name}`` over the fields of ``cls.FIELDS``."""
    return {rule.key or name: name for name, rule in cls.FIELDS.items()}


# the sub-configs whose fields are set by top-level keys of a scenario file
SUBCONFIGS = {"solver_cfg": SolverConfig, "greedy_cfg": GreedyConfig}
# every key a scenario file may set, at the top level and in a UE entry: a
# UE's zone is assigned, and its complexity key only restates the fixture's
CONFIG_KEYS = frozenset(ScenarioConfig.FIELDS.keys() - SUBCONFIGS.keys()).union(
    *map(_keys, SUBCONFIGS.values()))
UE_KEYS = frozenset(_keys(UserEquipment).keys() - {"zone"} | {"complexity"})


def _set_fields(cls, d) -> dict:
    """``{field: value}`` over the fields of ``cls`` whose key ``d`` sets. A
    path key set to null is left out, and a field without a default is
    required."""
    required = {f.name for f in fields(cls) if f.init and f.default is MISSING}
    kw = {}
    for key, name in _keys(cls).items():
        if key in d and not (d[key] is None and cls.FIELDS[name].cast is path):
            kw[name] = d[key]
        elif name in required:
            raise ConfigurationError(f"missing config key: {key}")
    return kw


def _known_keys(d, keys):
    """Refuse a key that nothing reads, so that a misspelt one is not ignored."""
    for key in d:
        if key not in keys:
            raise ConfigurationError(f"unknown config key {key!r}")


def _ue(k, u) -> UserEquipment:
    """UE entry ``k`` (counted from 1), its numbers read like top-level keys.

    Every error names the entry and, once it has been read, the UE id.
    """
    where = f"UE entry {k}"
    if not isinstance(u, dict):
        raise ConfigurationError(f"{where} must be a mapping: {u!r}")
    try:
        where += f" (id {UserEquipment.FIELDS['id'].check('id', u['id'])})"
        _known_keys(u, UE_KEYS)
        return UserEquipment(**_set_fields(UserEquipment, u))
    except KeyError as e:
        raise ConfigurationError(f"{where}: missing config key: {e.args[0]}")
    except ConfigurationError as e:
        raise ConfigurationError(f"{where}: {e}")


def config_from_dict(d: dict) -> ScenarioConfig:
    """The ScenarioConfig of parsed YAML. Each key the file sets goes to the
    field it names, or to its sub-config's, and the configs check it; a key
    left out, or a path key set to null, takes the field's default."""
    if not isinstance(d, dict):
        raise ConfigurationError("config root must be a mapping")
    _known_keys(d, CONFIG_KEYS)
    if not isinstance(d.get("ues"), list) or not d["ues"]:
        raise ConfigurationError(
            f"config key ues must be a nonempty list of UE entries: {d.get('ues')!r}")
    kw = _set_fields(ScenarioConfig, d)
    kw["ues"] = tuple(_ue(k, u) for k, u in enumerate(d["ues"], 1))
    kw.update({name: sub(**_set_fields(sub, d)) for name, sub in SUBCONFIGS.items()})

    cfg = ScenarioConfig(**kw)
    # a stream's complexity is its fixture row's; a UE entry may restate it
    for k, (u, ue) in enumerate(zip(d["ues"], cfg.ues), 1):
        fixture = cfg.streams[ue.requested_stream].complexity
        if "complexity" in u and u["complexity"] != fixture:
            raise ConfigurationError(
                f"UE entry {k} (id {ue.id}): complexity {u['complexity']} differs"
                f" from stream {ue.requested_stream!r}'s fixture complexity {fixture}")
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


def _run_scheme(scheme, ch, streams, bounds, cfg):
    """Run one allocation scheme on one instance; returns its Allocation."""
    b = cfg.bandwidth_hz
    if scheme == "polyblock":
        fset = build_feasible_set(ch, bounds)
        return solve_polyblock(fset, streams, b, cfg.solver_cfg)
    if scheme == "greedy":
        return solve_greedy(ch, streams, b, cfg.greedy_cfg, bounds)
    if scheme == "noma-mt":
        return solve_noma_mt(ch, streams, b, bounds)
    return solve_oma_simple(ch, streams, b)  # "oma", the last of SCHEMES


def _instance_seed(cfg, trial, gop, salt):
    return np.random.SeedSequence((cfg.seed, trial, gop, salt))


def run_scenario(cfg: ScenarioConfig, trace_sink: list | None = None) -> ScenarioResult:
    """Execute the Monte Carlo loop and return all trial records.

    Fading is drawn per (trial, GOP) and shared across the SNR sweep, so
    per-SNR aggregates are paired comparisons. Infeasible instances, and
    instances whose solver hits an iteration cap or a domain error (reason
    prefixed with the error's class, e.g. ``NonConvergence: ``), are recorded
    in ``exclusions`` and skipped, never fatal. ``trace_sink`` collects one
    row per polyblock iteration: the (trial, gop, group, snr_db) key of the
    instance's record, then the solver's trace row.
    """
    table = cfg.streams
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
                bounds = bounds_from_quality(streams, cfg.bandwidth_hz)
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
                        except SOLVER_FAILURES as e:
                            exclusions.append((
                                trial, gop, g_idx, scheme, snr,
                                f"{type(e).__name__}: {e}",
                            ))
                            continue
                        if trace_sink is not None and scheme == "polyblock":
                            trace_sink.extend(
                                (trial, gop, g_idx, snr, *row) for row in res.trace
                            )
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

def _write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows`` to the CSV file ``path``, creating
    its directory, and return the path. ``csv.writer`` writes a float, numpy
    floats included, with every digit of its ``repr``, and None as an empty
    field."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


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
    return _write_csv(path, _TRIAL_COLUMNS, (
        [r.trial, r.gop, r.group, r.scheme, r.snr_db, r.grouping, slot,
         r.ue_ids[slot], r.streams[slot], r.sinrs[slot], r.rates_bps[slot],
         r.snapped_rates_bps[slot], r.psnr_db[slot], r.alloc_coeff[slot],
         r.avg_psnr_db, r.avg_psnr_cont_db, r.iterations, r.bound_gap_db, ""]
        for r in sorted(result.records, key=_record_sort_key)
        for slot in range(len(r.ue_ids))
    ))


def write_exclusions_csv(result: ScenarioResult, path):
    return _write_csv(path, ["trial", "gop", "group", "scheme", "snr_db", "reason"],
                      sorted(result.exclusions))


def write_trace_csv(trace, path):
    """The rows of ``run_scenario``'s ``trace_sink``: one per polyblock
    iteration, keyed by the (trial, gop, group, snr_db) of its record, for
    convergence plots."""
    return _write_csv(path, ["trial", "gop", "group", "snr_db", "iteration",
                             "n_vertices", "upper_bound_db", "incumbent_db",
                             "gap_db"], trace)


def _grouped_means(pairs) -> dict:
    """``{key: (mean, count)}`` of the values of ``(key, value)`` pairs."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: (float(np.mean(v)), len(v)) for key, v in groups.items()}


def aggregate(result: ScenarioResult) -> dict:
    """Summaries keyed the way the comparison tables are usually read.

    Returns three row lists:
      mean_psnr:  (snr_db, scheme, grouping) -> mean average PSNR + counts;
                  a pair whose instances were all excluded keeps its row,
                  with no mean (None) and 0 records
      weak_coeff: (snr_db, group, scheme) -> mean allocation share of the
                  weakest-channel UE
      grouping_psnr: (grouping, snr_db, scheme, stream) -> mean per-UE PSNR

    ``result`` is one run, so every row carries the run's grouping; runs
    under other groupings are aggregated one by one and their rows merged.
    """
    grouping = result.config.grouping.value
    records = result.records
    excluded = {}
    for _, _, _, scheme, snr, _ in result.exclusions:
        excluded[snr, scheme] = excluded.get((snr, scheme), 0) + 1
    psnr = _grouped_means(((r.snr_db, r.scheme), r.avg_psnr_db) for r in records)
    weak = _grouped_means(
        ((r.snr_db, r.group, r.scheme), r.alloc_coeff[0]) for r in records)
    per_stream = _grouped_means(
        ((r.snr_db, r.scheme, sid), q)
        for r in records for sid, q in zip(r.streams, r.psnr_db))
    return {
        "mean_psnr": [
            (snr, scheme, grouping, *psnr.get((snr, scheme), (None, 0)),
             excluded.get((snr, scheme), 0))
            for snr, scheme in sorted(psnr.keys() | excluded.keys())
        ],
        "weak_coeff": [(*key, *mean_n) for key, mean_n in sorted(weak.items())],
        "grouping_psnr": [
            (grouping, *key, *mean_n) for key, mean_n in sorted(per_stream.items())
        ],
    }


_AGG_HEADERS = {
    "mean_psnr": ["snr_db", "scheme", "grouping", "mean_avg_psnr_db",
                  "n_records", "n_excluded"],
    "weak_coeff": ["snr_db", "group", "scheme", "mean_weak_coeff", "n_records"],
    "grouping_psnr": ["grouping", "snr_db", "scheme", "stream",
                      "mean_psnr_db", "n_records"],
}


def write_aggregates(tables: dict, out_dir):
    """Write each table of ``aggregate`` to ``<name>.csv`` in ``out_dir``;
    returns ``{name: path}``."""
    return {name: _write_csv(Path(out_dir) / f"{name}.csv", _AGG_HEADERS[name], rows)
            for name, rows in tables.items()}
