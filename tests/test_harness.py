import copy
import csv
import dataclasses
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import yaml

from nomavq import (
    ConfigurationError,
    GreedyConfig,
    GroupingStrategy,
    NonConvergence,
    ScenarioConfig,
    UserEquipment,
    config_from_dict,
    discrete_rate_set,
    load_config,
    run_scenario,
    snap_rate,
)
from nomavq import harness, polyblock
from nomavq.cli import EXIT_CONFIG, EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main
from nomavq.harness import aggregate, read_config, write_trial_csv
from nomavq.polyblock import SolverConfig
from nomavq.quality import (DEFAULT_FIXTURE_PATH, dump_rd_fixtures, load_rd_fixtures,
                            psnr_of_rate)

from conftest import B_HZ


def _cfg_dict(**over):
    d = {
        "ues": [
            {"id": 1, "distance_m": 3.0, "stream": "Foreman",
             "complexity": "Low"},
            {"id": 2, "distance_m": 1.0, "stream": "Soccer",
             "complexity": "High"},
        ],
        "n_zones": 2,
        "snr_db": [20.0],
        "bandwidth_hz": B_HZ,
        "power_budget_w": 1.0,
        "grouping": "WLBH",
        "solvers": ["greedy", "oma"],
        "n_trials": 3,
        "seed": 11,
    }
    d.update(over)
    return d


def _write_cfg(tmp_path, **over):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(_cfg_dict(**over)))
    return path


def test_config_parses_and_derives(tmp_path):
    cfg = load_config(_write_cfg(tmp_path))
    assert cfg.noise_var(20.0) == pytest.approx(0.01)
    assert cfg.noise_var(0.0) == pytest.approx(1.0)
    assert {"Foreman", "Soccer"} <= set(cfg.streams)


# each case keeps the id the suite has always printed for it, so deleting one
# renames no other
BROKEN_CONFIGS = {
    "broken0": {"bandwidth_hz": None},
    "broken1": {"bandwidth_hz": -5.0},
    "broken2": {"n_zones": 3},  # 2 UEs cannot split into 3 zones
    "broken3": {"snr_db": []},
    "broken4": {"grouping": "NoSuchStrategy"},
    "broken5": {"solvers": ["magic"]},
    "broken6": {"p_rtp": 1.5},
    "broken7": {"ues": [{"id": 1, "distance_m": 1.0, "stream": "Foreman"},
             {"id": 1, "distance_m": 2.0, "stream": "Soccer"}]},
    "broken8": {"ues": [{"id": 1, "stream": "Foreman"},
             {"id": 2, "distance_m": 2.0, "stream": "Soccer"}]},
    "broken9": {"gops_per_trial": 0},  # would silently simulate nothing
    "broken10": {"n_enh_layers": -1},
    "broken11": {"path_loss_exp": -2},
    "broken12": {"seed": -5},  # SeedSequence would reject it only mid-run
    "broken13": {"mgs_weights": []},  # the rate set would collapse to the full rate
    "broken14": {"mgs_weights": ["thick", "thin"]},
    "broken15": {"snr_db": 20.0},  # a scalar, not a list
    "broken16": {"snr_db": "20"},  # a string would iterate as two SNR points
    "broken17": {"snr_db": [20.0, "loud"]},
    "broken18": {"snr_db": [float("nan")]},  # every UE would be reported at q_max
    "broken19": {"bandwidth_hz": float("inf")},
    "broken20": {"epsilon": float("nan")},  # polyblock could never certify a vertex
    "broken21": {"delta": float("nan")},  # a radial projection could never stop
    "broken22": {"n_blocks": None},
    "broken23": {"p_rtp": "low"},
    # integer keys must not be truncated
    "broken24": {"n_trials": 2.5},
    "broken25": {"n_blocks": 99.9},
    "broken26": {"n_zones": 2.5},
    "broken27": {"mgs_weights": [2.5, 1.9]},
    # every run would be empty, doubled, or read one character at a time
    "broken28": {"solvers": []},
    "broken29": {"solvers": ["oma", "oma"]},
    "broken30": {"snr_db": [15, 15]},
    "broken31": {"solvers": "oma"},
    # UE entries and paths: NaN gains, a crash in channel_gain, a truncated
    # id, or a raw TypeError
    "broken32": {"ues": [{"id": 1, "distance_m": float("nan"), "stream": "Foreman"},
             {"id": 2, "distance_m": 1.0, "stream": "Soccer"}]},
    "broken33": {"ues": [{"id": 1, "distance_m": float("inf"), "stream": "Foreman"},
             {"id": 2, "distance_m": 1.0, "stream": "Soccer"}]},
    "broken34": {"ues": [{"id": 1, "distance_m": 1e200, "stream": "Foreman"},
             {"id": 2, "distance_m": 1.0, "stream": "Soccer"}]},
    "broken35": {"ues": [{"id": 1.5, "distance_m": 3.0, "stream": "Foreman"},
             {"id": 2, "distance_m": 1.0, "stream": "Soccer"}]},
    "broken36": {"ues": 5},
    "broken37": {"ues": [5]},
    "broken38": {"fixture_path": 5},
    "broken39": {"out_dir": 5},
    # misspelt keys, at the top level and in a UE entry, would be ignored
    "broken40": {"n_trial": 3},
    "broken41": {"solver": ["greedy"]},
    "broken42": {"ues": [{"id": 1, "distance_m": 3.0, "distnce_m": 2.0, "stream": "Foreman"},
             {"id": 2, "distance_m": 1.0, "stream": "Soccer"}]},
    # WLBH maps whole zones to one complexity: 3 Low streams cannot fill
    # zones of 2
    "broken43": {"ues": [{"id": k, "distance_m": float(k), "stream": stream} for k, stream
             in enumerate(("Foreman", "Ice", "Crew", "Football"), 1)]},
    # a negative tolerance, no power blocks
    "broken44": {"epsilon": -1.0},
    "broken45": {"n_blocks": 0},
    # the noise power 10^(-SNR/10) overflows, or underflows to zero
    "broken46": {"snr_db": [4000]},
    "broken47": {"snr_db": [-4000]},
    # a stream's SINR band overflows, or collapses to gamma_min == gamma_max
    "broken48": {"bandwidth_hz": 1.0e-3},
    "broken49": {"bandwidth_hz": 1.0e300},
    # no power to allocate, or an unbounded budget
    "broken50": {"power_budget_w": 0.0},
    "broken51": {"power_budget_w": float("inf")},
    # an empty path would name the working directory
    "broken52": {"fixture_path": ""},
    "broken53": {"out_dir": ""},
}


@pytest.mark.parametrize("broken", BROKEN_CONFIGS.values(), ids=BROKEN_CONFIGS.keys())
def test_config_validation_errors(broken):
    with pytest.raises(ConfigurationError):
        config_from_dict(_cfg_dict(**broken))


def _ue4_requests_ice(cfg):
    return {"ues": tuple(dataclasses.replace(u, requested_stream="Ice")
                         if u.id == 4 else u for u in cfg.ues)}


@pytest.mark.parametrize("changes, message", [
    (lambda cfg: {"snr_db": (4000.0,)},
     "config key snr_db value 4000.0 gives no finite positive noise power"),
    (lambda cfg: {"solvers": ("noma-mt",), "n_zones": 3,
                  "grouping": GroupingStrategy.BY_INDEX},
     "the noma-mt reference scheme needs exactly 2 zones"),
    (_ue4_requests_ice,
     "WLBH needs a number of Low-complexity UEs that is a multiple of the"
     " zone size 3, got 4"),
    # the per-key ranges the parser once checked alone
    (lambda cfg: {"n_trials": -1},
     "config key n_trials must be finite and positive, got -1"),
    (lambda cfg: {"mgs_weights": (0, 0)}, "mgs_weights must be positive"),
    (lambda cfg: {"gops_per_trial": 0},
     "config key gops_per_trial must be finite and positive, got 0"),
    (lambda cfg: {"n_enh_layers": -2},
     "config key n_enh_layers must be finite and nonnegative, got -2"),
    (lambda cfg: {"seed": -5},
     "config key seed must be finite and nonnegative, got -5"),
    (lambda cfg: {"n_zones": 0},
     "config key n_zones must be finite and positive, got 0"),
    # the types and integrality the parser once checked alone
    (lambda cfg: {"ues": ()},
     "config key ues must be a nonempty list of UE entries: ()"),
    (lambda cfg: {"n_trials": 2.5}, "config key n_trials is not a whole number: 2.5"),
    (lambda cfg: {"seed": 1.5}, "config key seed is not a whole number: 1.5"),
    (lambda cfg: {"n_enh_layers": 1.5},
     "config key n_enh_layers is not a whole number: 1.5"),
    (lambda cfg: {"mgs_weights": (1.5, 2)},
     "config key mgs_weights must be a nonempty whole number list: (1.5, 2)"),
    (lambda cfg: {"snr_db": ("a",)},
     "config key snr_db must be a nonempty number list: ('a',)"),
    (lambda cfg: {"bandwidth_hz": "wide"},
     "config key bandwidth_hz is not a number: 'wide'"),
    (lambda cfg: {"solvers": "greedy"},
     "config key solvers must be a nonempty list: 'greedy'"),
    (lambda cfg: {"grouping": "Nearest"}, "unknown grouping strategy: 'Nearest'"),
    (lambda cfg: {"out_dir": None}, "config key out_dir must be a path: None"),
    (lambda cfg: {"solver_cfg": None}, "solver_cfg has the wrong type: None"),
], ids=["snr-overflow", "noma-mt-3-zones", "wlbh-4-low-in-zones-of-3",
        "n-trials-negative", "mgs-weights-zero", "gops-per-trial-zero",
        "n-enh-layers-negative", "seed-negative", "n-zones-zero", "ues-empty",
        "n-trials-fractional", "seed-fractional", "n-enh-layers-fractional",
        "mgs-weights-fractional", "snr-db-string", "bandwidth-string",
        "solvers-string", "grouping-unknown", "out-dir-none", "solver-cfg-none"])
def test_derived_config_is_checked_at_replace(changes, message):
    # a config derived with dataclasses.replace fails where a parsed one would
    cfg = load_config("configs/default.yaml")
    with pytest.raises(ConfigurationError) as err:
        dataclasses.replace(cfg, **changes(cfg))
    assert str(err.value) == message


@pytest.mark.parametrize("key, value", [
    ("grouping", "WHBL"),
    ("n_zones", 2.0),
    ("n_trials", 2.0),
    ("bandwidth_hz", "1.5e5"),
    ("snr_db", [20]),
    ("mgs_weights", [4.0, 3]),
    ("solvers", ["oma", "greedy"]),
    ("out_dir", "elsewhere"),
], ids=["grouping-string", "n-zones-float", "n-trials-float", "bandwidth-string",
        "snr-db-ints", "mgs-weights-floats", "solvers-list", "out-dir-string"])
def test_derived_config_is_coerced_like_the_parsed_one(key, value):
    # a value that replace passes in is stored as the parser stores it
    base = config_from_dict(_cfg_dict())
    parsed = config_from_dict(_cfg_dict(**{key: value}))
    derived = dataclasses.replace(base, **{key: value})
    assert repr(derived) == repr(parsed)  # 2 and 2.0 differ in repr only
    assert derived == parsed


@pytest.mark.parametrize("key, value, file_value", [
    ("snr_db", (20,), [20]),
    ("grouping", "WHBL", "WHBL"),
    ("n_trials", 2.0, 2),
], ids=["snr-db-ints", "grouping-string", "n-trials-float"])
def test_derived_config_writes_the_parsed_config_csv(tmp_path, key, value,
                                                     file_value):
    # trials.csv prints each SNR point with repr, so an int SNR point would
    # print as 20 where the file's prints as 20.0
    derived = dataclasses.replace(_tiny_scenario(n_trials=2), **{key: value})
    parsed = _tiny_scenario(**{"n_trials": 2, key: file_value})
    paths = tmp_path / "derived.csv", tmp_path / "parsed.csv"
    for cfg, path in zip((derived, parsed), paths):
        write_trial_csv(run_scenario(cfg), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_text().count("\n") > 1


# a valid value, other than the base scenario's, for every key a scenario
# file may set at the top level and in a UE entry; the test sets
# fixture_path to a second copy of its fixture, which has rows at p_rtp 0.1
_KEY_EDITS = {
    "ues": [{"id": k, "distance_m": float(k), "stream": "Foreman"}
            for k in range(1, 5)],
    "n_zones": 1, "snr_db": [25.0], "bandwidth_hz": 1.5e5, "power_budget_w": 2.0,
    "path_loss_exp": 3.0, "p_rtp": 0.1, "gops_per_trial": 2, "grouping": "WRBR",
    "solvers": ["greedy"], "epsilon": 2e-3, "delta": 2e-6, "n_blocks": 50,
    "mgs_weights": [1, 1], "n_enh_layers": 2,
    "fixture_path": None, "n_trials": 5, "seed": 7, "out_dir": "elsewhere",
}
_UE_KEY_EDITS = {"id": 9, "distance_m": 4.0, "stream": "Ice",
                 "quality_req": "LatencySensitive", "complexity": "Low"}


def _changed_fields(a, b):
    """The init fields in which the configs ``a`` and ``b`` differ, dotted
    through the sub-configs and, when both hold as many, the UEs."""
    changed = []
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if not f.init or repr(va) == repr(vb):
            continue
        if f.name in harness.SUBCONFIGS:
            changed += [f"{f.name}.{g}" for g in _changed_fields(va, vb)]
        elif f.name == "ues" and len(va) == len(vb):
            changed += sorted({f"ues.{g}" for ua, ub in zip(va, vb)
                               for g in _changed_fields(ua, ub)})
        else:
            changed.append(f.name)
    return changed


def test_every_config_key_reaches_one_field_and_every_field_one_key(tmp_path):
    # a field or key added later without a rule or a route fails here
    types = (ScenarioConfig, SolverConfig, GreedyConfig, UserEquipment)
    for cls in types:
        assert set(cls.FIELDS) == {f.name for f in dataclasses.fields(cls) if f.init}
    assert set(_KEY_EDITS) == harness.CONFIG_KEYS
    assert set(_UE_KEY_EDITS) == harness.UE_KEYS

    lines = DEFAULT_FIXTURE_PATH.read_text().splitlines()
    fixtures = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in fixtures:
        path.write_text("\n".join(
            lines + [row.replace(",0.05,", ",0.1,", 1) for row in lines[1:]]) + "\n")
    raw = _cfg_dict(grouping="ByIndex", fixture_path=str(fixtures[0]))
    for u in raw["ues"]:
        del u["complexity"]
    base = config_from_dict(raw)
    reached = {}
    for key, value in {**_KEY_EDITS, "fixture_path": str(fixtures[1])}.items():
        reached[key] = _changed_fields(base, config_from_dict({**raw, key: value}))
    for key, value in _UE_KEY_EDITS.items():
        edited = copy.deepcopy(raw)
        edited["ues"][0][key] = value
        reached[f"ues.{key}"] = _changed_fields(base, config_from_dict(edited))
    # a UE entry's complexity only restates its stream's fixture row
    assert reached.pop("ues.complexity") == []
    assert all(len(fields) == 1 for fields in reached.values()), reached
    # every init field is reached, the sub-configs' through their own, but
    # the UE's zone, which partition_zones assigns
    want = [f.name for f in dataclasses.fields(ScenarioConfig)
            if f.init and f.name not in harness.SUBCONFIGS]
    want += [f"{name}.{f.name}" for name, sub in harness.SUBCONFIGS.items()
             for f in dataclasses.fields(sub)]
    want += [f"ues.{f.name}" for f in dataclasses.fields(UserEquipment)
             if f.name != "zone"]
    assert sorted(fields[0] for fields in reached.values()) == sorted(want)


def test_config_defaults_live_on_the_config_type():
    # a file that sets only the required keys gets ScenarioConfig's defaults
    required = {"n_zones": 2, "bandwidth_hz": B_HZ, "power_budget_w": 1.0}
    entries = [{"id": 1, "distance_m": 3.0, "stream": "Foreman"},
               {"id": 2, "distance_m": 1.0, "stream": "Soccer"}]
    ues = tuple(UserEquipment(id=u["id"], distance_m=u["distance_m"],
                              requested_stream=u["stream"]) for u in entries)
    assert ScenarioConfig(ues=ues, **required) == config_from_dict(
        {"ues": entries, **required})


def test_config_and_run_read_the_fixture_once(monkeypatch):
    # the stream table checked on construction is the one that runs
    reads = []
    load = harness.load_rd_fixtures

    def counting(*args, **kwargs):
        reads.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(harness, "load_rd_fixtures", counting)
    raw = read_config("configs/default.yaml")
    raw.update(n_trials=1, solvers=["greedy"])
    assert run_scenario(config_from_dict(raw)).records
    assert len(reads) == 1


def test_null_path_keys_take_their_defaults(tmp_path, monkeypatch, capsys):
    cfg_path = _write_cfg(tmp_path, n_trials=1, fixture_path=None, out_dir=None)
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_OK
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (tmp_path / "results" / "trials.csv").read_text().count("\n") > 1


def _default_with_ue(k, **fields):
    raw = read_config("configs/default.yaml")
    raw["ues"][k - 1].update(fields)
    return raw


@pytest.mark.parametrize("k, fields, message", [
    (3, {"distance_m": float("nan")},
     "UE entry 3 (id 3): config key distance_m must be finite and positive, got nan"),
    (2, {"distnce_m": 3.0}, "UE entry 2 (id 2): unknown config key 'distnce_m'"),
    (1, {"id": 1.5}, "UE entry 1: config key id is not a whole number: 1.5"),
    (4, {"distance_m": 1e200},
     "UE entry 4 (id 4): path loss at distance_m 1e+200 overflows"),
    (5, {"complexity": "Medium"},
     "UE entry 5 (id 5): complexity Medium differs from stream 'Mobile''s"
     " fixture complexity High"),
], ids=["nan-distance", "misspelt-key", "fractional-id", "path-loss-overflow",
        "unknown-complexity"])
def test_ue_entry_errors_name_the_entry_and_id(k, fields, message):
    with pytest.raises(ConfigurationError) as err:
        config_from_dict(_default_with_ue(k, **fields))
    assert str(err.value) == message


def test_config_accepts_base_layer_only_and_seed_zero():
    cfg = config_from_dict(_cfg_dict(n_enh_layers=0, seed=0))
    assert (cfg.n_enh_layers, cfg.seed) == (0, 0)


def test_config_accepts_integral_floats_for_integer_keys():
    cfg = config_from_dict(_cfg_dict(n_trials=2.0, mgs_weights=[4.0, 3]))
    assert (cfg.n_trials, cfg.mgs_weights) == (2, (4, 3))
    assert type(cfg.n_trials) is int


# ids as for BROKEN_CONFIGS
NAN_CONSTRUCTORS = {
    "<lambda>0": lambda: SolverConfig(epsilon=float("nan")),
    "<lambda>1": lambda: SolverConfig(delta=float("nan")),
    "<lambda>2": lambda: GreedyConfig(n_blocks=float("nan")),
}


@pytest.mark.parametrize("build", NAN_CONSTRUCTORS.values(), ids=NAN_CONSTRUCTORS.keys())
def test_constructors_reject_nan(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: GreedyConfig(n_blocks=2.5), "config key n_blocks is not a whole number: 2.5"),
    (lambda: GreedyConfig(n_blocks=0),
     "config key n_blocks must be finite and positive, got 0"),
    (lambda: SolverConfig(epsilon=float("inf")),
     "config key epsilon must be finite and positive, got inf"),
    (lambda: UserEquipment(id=1, distance_m=float("nan"), requested_stream="Ice"),
     "config key distance_m must be finite and positive, got nan"),
    (lambda: UserEquipment(id=-1, distance_m=1.0, requested_stream="Ice"),
     "config key id must be finite and nonnegative, got -1"),
    (lambda: UserEquipment(id=1, distance_m=1.0, requested_stream="Ice",
                           quality_req="Urgent"),
     "'Urgent' is not a valid QualityReq"),
], ids=["n-blocks-fractional", "n-blocks-zero", "epsilon-inf", "distance-nan",
        "id-negative", "quality-req-unknown"])
def test_sub_config_constructors_check_their_fields(build, message):
    with pytest.raises(ConfigurationError) as err:
        build()
    assert str(err.value) == message


def test_solver_config_is_frozen():
    cfg = config_from_dict(_cfg_dict())
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.solver_cfg.epsilon = float("nan")


def test_config_unknown_stream_detected():
    with pytest.raises(ConfigurationError, match="unknown stream 'NoSuchClip'"):
        config_from_dict(_cfg_dict(
            ues=[{"id": 1, "distance_m": 3.0, "stream": "NoSuchClip"},
                 {"id": 2, "distance_m": 1.0, "stream": "Soccer"}],
        ))


def test_config_rejects_broken_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("ues: [unclosed\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_discrete_rate_set_shape_and_endpoints():
    table = load_rd_fixtures()
    for params in table.values():
        rates = discrete_rate_set(params)
        assert len(rates) == 1 + 3 * 5
        assert rates[0] == params.rate_min
        assert rates[-1] == params.rate_max
        assert np.all(np.diff(rates) > 0)
    base_only = discrete_rate_set(table["Foreman"], n_enh_layers=0)
    assert np.array_equal(base_only, [table["Foreman"].rate_min])


def test_snap_rate_floor_semantics():
    rs = np.array([100.0, 200.0, 300.0])
    assert snap_rate(250.0, rs) == 200.0
    assert snap_rate(200.0, rs) == 200.0  # achievable points are fixed points
    assert snap_rate(199.999999999999, rs) == 200.0  # tolerance absorbs fp dust
    assert snap_rate(50.0, rs) == 100.0  # below base clamps to base
    assert snap_rate(1e9, rs) == 300.0


def _tiny_scenario(**over):
    return config_from_dict(_cfg_dict(**over))


def test_run_scenario_record_consistency():
    cfg = _tiny_scenario(solvers=["polyblock", "greedy", "oma"])
    result = run_scenario(cfg)
    assert result.records
    table = cfg.streams
    for r in result.records:
        n = len(r.ue_ids)
        assert len(r.sinrs) == len(r.rates_bps) == len(r.psnr_db) == n
        assert r.avg_psnr_db == pytest.approx(float(np.mean(r.psnr_db)), abs=1e-12)
        decoded = [psnr_of_rate(table[sid], rate)
                   for sid, rate in zip(r.streams, r.rates_bps)]
        assert r.avg_psnr_cont_db == float(np.mean(decoded))
        # snapping only moves rates down, never above the continuous rate
        for cont, snap, sid in zip(r.rates_bps, r.snapped_rates_bps, r.streams):
            assert snap <= cont * (1.0 + 1e-9) + 1e-6
            assert snap >= table[sid].rate_min
        assert r.avg_psnr_db <= r.avg_psnr_cont_db + 1e-9
        coeffs = np.array(r.alloc_coeff)
        assert np.all(coeffs >= -1e-12) and np.all(coeffs <= 1.0 + 1e-12)
        assert coeffs.sum() == pytest.approx(1.0, abs=1e-9)
        if r.scheme == "polyblock":
            assert r.bound_gap_db <= cfg.solver_cfg.gap_tol_db + 1e-12


def test_run_scenario_csv_byte_identical(tmp_path):
    cfg = _tiny_scenario()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trial_csv(run_scenario(cfg), p1)
    write_trial_csv(run_scenario(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().count("\n") > 1


@pytest.mark.parametrize("error, prefix", [
    (NonConvergence("Dinkelbach projection hit the iteration cap"),
     "NonConvergence: "),
    (ValueError("projection needs a strictly positive vertex"), "ValueError: "),
], ids=["NonConvergence", "ValueError"])
def test_run_scenario_survives_solver_nonconvergence(monkeypatch, error, prefix):
    # one trial of the default scenario at SNRs where every polyblock instance
    # is feasible, so every instance reaches a radial projection; each one
    # fails (no convergence, or a domain error), and every polyblock instance
    # must be excluded with the error's class and message as its reason
    cfg = dataclasses.replace(
        load_config("configs/default.yaml"), n_trials=1,
        snr_db=(20.0, 25.0, 30.0), solvers=("polyblock", "greedy", "oma"),
    )
    reference = run_scenario(dataclasses.replace(cfg, solvers=("greedy", "oma")))

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(polyblock, "project", fail)
    capped = run_scenario(cfg)

    assert not [r for r in capped.records if r.scheme == "polyblock"]
    reasons = [e[5] for e in capped.exclusions if e[3] == "polyblock"]
    # one per group
    assert len(reasons) == len(cfg.ues) // cfg.n_zones * len(cfg.snr_db)
    assert set(reasons) == {f"{prefix}{error}"}

    def others(result):
        return (
            [r for r in result.records if r.scheme != "polyblock"],
            [e for e in result.exclusions if e[3] != "polyblock"],
        )

    assert others(capped) == others(reference)
    assert reference.records


def test_run_scenario_survives_both_iteration_caps(monkeypatch):
    # at this draw and a cap of 40, one three-user group stops inside a
    # radial projection and the other in the outer polyblock loop
    raw = read_config("configs/default.yaml")
    raw.update(n_trials=1, snr_db=[30], n_zones=3, grouping="ByIndex",
               solvers=["polyblock"])
    cfg = config_from_dict(raw)
    assert cfg.seed == 20260825
    monkeypatch.setattr(polyblock, "MAX_ITERATIONS", 40)
    result = run_scenario(cfg)
    assert not result.records
    assert sorted(e[5] for e in result.exclusions) == [
        "NonConvergence: Dinkelbach projection hit the iteration cap",
        "NonConvergence: polyblock solver hit the iteration cap",
    ]


def test_run_scenario_seed_changes_outcomes():
    a = run_scenario(_tiny_scenario())
    b = run_scenario(_tiny_scenario(seed=12))
    sa = [r.sinrs for r in a.records]
    sb = [r.sinrs for r in b.records]
    assert sa != sb


def _in_process_schemes(monkeypatch):
    """The schemes ``run_scenario`` calls in this process, in call order; a
    forked worker's calls stay in the worker."""
    calls = []
    inner = harness._run_scheme

    def counted(scheme, *args):
        calls.append(scheme)
        return inner(scheme, *args)

    monkeypatch.setattr(harness, "_run_scheme", counted)
    return calls


def test_run_scenario_same_bytes_on_one_and_two_cpus(tmp_path, monkeypatch):
    # the default scenario at 3 trials under all four schemes; 10 dB gives
    # exclusions. The units run in this process at 1 CPU and on a pool of
    # two forked workers at 2, and every output keeps its bytes
    raw = read_config("configs/default.yaml")
    raw["n_trials"] = 3
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    cfg = config_from_dict(raw)
    assert sorted(cfg.solvers) == sorted(harness.SCHEMES) and 10.0 in cfg.snr_db
    calls = _in_process_schemes(monkeypatch)
    outputs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
        calls.clear()
        out = tmp_path / f"cpus{cpus}"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        trace = []
        run_scenario(cfg, trace_sink=trace)
        assert multiprocessing.active_children() == []
        outputs[cpus] = {p.name: p.read_bytes() for p in out.glob("*.csv")}, trace
        assert bool(calls) == (cpus == 1)
    csvs, trace = outputs[1]
    assert sorted(csvs) == ["exclusions.csv", "grouping_psnr.csv", "mean_psnr.csv",
                            "trials.csv", "weak_coeff.csv"]
    assert csvs["exclusions.csv"].count(b"\n") > 1 and trace
    assert outputs[2] == outputs[1]


def _polyblock_two_trials():
    return dataclasses.replace(
        load_config("configs/default.yaml"), n_trials=2,
        snr_db=(20.0, 25.0), solvers=("polyblock",))


def test_worker_error_ends_the_run_as_the_serial_run_does(monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(polyblock, "project", fail)
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
        with pytest.raises(RuntimeError, match="injected fault"):
            run_scenario(_polyblock_two_trials())
        assert multiprocessing.active_children() == []


def test_worker_exclusions_match_the_serial_run(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise NonConvergence("Dinkelbach projection hit the iteration cap")

    monkeypatch.setattr(polyblock, "project", fail)
    written = {}
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
        path = harness.write_exclusions_csv(run_scenario(_polyblock_two_trials()),
                                            tmp_path / f"cpus{cpus}.csv")
        written[cpus] = path.read_bytes()
        assert multiprocessing.active_children() == []
    assert written[2] == written[1]
    # every instance is excluded: 2 trials, 3 groups, 2 SNR points
    assert written[1].count(b"\n") == 1 + 2 * 3 * 2
    assert b"NonConvergence: " in written[1]


def test_a_dead_worker_ends_the_run(monkeypatch):
    # a worker that dies (killed, say, when memory runs out) ends the run
    # with an error instead of leaving its unit unfinished forever
    parent = os.getpid()

    def die(*args, **kwargs):
        assert os.getpid() != parent, "the units ran in this process"
        os._exit(3)

    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    monkeypatch.setattr(polyblock, "project", die)
    with pytest.raises(BrokenProcessPool):
        run_scenario(_polyblock_two_trials())
    assert multiprocessing.active_children() == []


def test_run_scenario_beside_another_thread_runs_in_process(monkeypatch):
    # a forked child would inherit the locks other threads hold, so with
    # another thread running the units stay in this process
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    calls = _in_process_schemes(monkeypatch)
    cfg = _tiny_scenario()
    results = []
    worker = threading.Thread(target=lambda: results.append(run_scenario(cfg)))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and results
    assert calls
    calls.clear()
    assert run_scenario(cfg).records == results[0].records and not calls


def test_import_leaves_multiprocessing_unloaded():
    # the pool's modules load only when a run makes one, so importing the
    # package and loading a config never pays for them
    code = ("import sys, nomavq; nomavq.load_config('configs/default.yaml');"
            " print('multiprocessing' in sys.modules)")
    src = Path(harness.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
                          cwd=src.parent)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_aggregate_tables():
    result = run_scenario(_tiny_scenario())
    tables = aggregate(result)
    assert set(tables) == {"mean_psnr", "weak_coeff", "grouping_psnr"}
    for snr, scheme, grouping, mean, n, excl in tables["mean_psnr"]:
        assert scheme in ("greedy", "oma") and grouping == "WLBH"
        assert n + excl == result.config.n_trials
        assert 20.0 <= mean <= 60.0
    for snr, group, scheme, coeff, n in tables["weak_coeff"]:
        assert 0.0 <= coeff <= 1.0


def test_write_aggregates_writes_each_float_repr(tmp_path):
    # a Python float and a numpy float alike keep every digit of their repr,
    # None is an empty field and -0.0 keeps its sign; the directory is made
    row = (0.1 + 0.2, "greedy", "WLBH", np.float64(0.1) + np.float64(0.2), None, -0.0)
    out = tmp_path / "aggregates"
    path = harness.write_aggregates({"mean_psnr": [row]}, out)["mean_psnr"]
    assert path == out / "mean_psnr.csv"
    assert path.read_text().splitlines() == [
        "snr_db,scheme,grouping,mean_avg_psnr_db,n_records,n_excluded",
        "0.30000000000000004,greedy,WLBH,0.30000000000000004,,-0.0",
    ]


def test_cli_validate_ok_and_config_error(tmp_path, capsys):
    good = _write_cfg(tmp_path)
    assert main(["validate", "--config", str(good)]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out
    bad = tmp_path / "broken.yaml"
    for broken in ({"snr_db": []}, {"snr_db": 20.0}, {"p_rtp": "low"},
                   {"mgs_weights": ["thick"]}, {"solvers": []},
                   {"solvers": ["oma", "oma"]}, {"snr_db": [15, 15]},
                   {"solvers": "oma"}):
        bad.write_text(yaml.safe_dump(_cfg_dict(**broken)))
        assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG, broken
        assert "config error" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "missing.yaml")]) \
        == EXIT_CONFIG


def _omit_complexity(raw):
    # the default file leaves every complexity to the fixture; one short run
    assert not any("complexity" in u for u in raw["ues"])
    raw.update(n_trials=1, solvers=["greedy"])


@pytest.mark.parametrize("edit, named", [
    (lambda raw: raw.update(n_trial=3), "'n_trial'"),
    # the AMC fit is a constant of nomavq.phy, not a key
    (lambda raw: raw.update(amc_c1=0.905), "unknown config key 'amc_c1'"),
    (lambda raw: raw.update(amc_c2=1.34), "unknown config key 'amc_c2'"),
    (lambda raw: raw["ues"][3].update(stream="Ice"), "WLBH"),
    (_omit_complexity, None),
    (lambda raw: raw.update(grouping="ByIndex")
     or raw["ues"][5].update(complexity="Low"),
     "UE entry 6 (id 6): complexity Low differs from stream"
     " 'Soccer''s fixture complexity High"),
    (lambda raw: raw.update(snr_db=[4000]), "snr_db value 4000.0 "),
    (lambda raw: raw.update(snr_db=[-4000]), "snr_db value -4000.0 "),
    (lambda raw: raw.update(bandwidth_hz=1.0e300),
     "bandwidth_hz 1e+300 gives a requested stream an empty or overflowing"
     " SINR band"),
], ids=["misspelt-key", "amc-c1", "amc-c2", "wlbh-complexity-counts", "complexity-omitted",
        "complexity-mislabelled", "snr-overflow", "snr-underflow", "sinr-band"])
def test_cli_validate_rejects_what_simulate_rejects(tmp_path, capsys, edit, named):
    # a misspelt or retired key, 4 Low streams in zones of 3, a UE complexity that
    # differs from its stream's fixture row, an SNR point without a finite
    # positive noise power, or a bandwidth that leaves a stream no SINR band
    # fails both commands alike; without complexity labels (named None) both
    # pass
    raw = read_config("configs/default.yaml")
    edit(raw)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    for command in (["validate"], ["simulate", "--out", str(tmp_path / "out")]):
        code = main([*command, "--config", str(path)])
        err = capsys.readouterr().err
        if named is None:
            assert (code, err) == (EXIT_OK, "")
        else:
            assert code == EXIT_CONFIG
            assert err.startswith("config error: ") and named in err
    assert (tmp_path / "out").exists() == (named is None)


@pytest.mark.parametrize("grouping", ["WLBH", "WHBL", "WRBR", "ByIndex"])
def test_complexity_labels_do_not_change_trials(tmp_path, grouping):
    # each stream's complexity comes from its fixture row, so restating it
    # in every UE entry leaves the run as it was
    table = load_rd_fixtures()
    raw = read_config("configs/default.yaml")
    raw.update(n_trials=3, grouping=grouping, solvers=["greedy", "oma"])
    for labelled in (False, True):
        if labelled:
            for u in raw["ues"]:
                u["complexity"] = table[u["stream"]].complexity
        path = tmp_path / f"labelled-{labelled}.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / str(labelled))]) == EXIT_OK
    trials = [(tmp_path / str(labelled) / "trials.csv").read_bytes()
              for labelled in (False, True)]
    assert trials[0] == trials[1] and trials[0].count(b"\n") > 1


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("Foreman,Low,0.05,3.0,", "Foreman,Low,0.05,low,", 1),
    lambda text: text.replace("theta", "gain", 1),  # wrong columns
    lambda text: text + "Extra,Low,0.05,nan,1.0,1.0,30.0,40.0,\n",
    lambda text: text + "Extra,Low,0.05,1.0,1.0,nan,30.0,40.0,\n",
    lambda text: text + "Extra,Low,0.05,1.0,1.0,1.0,30.0,inf,\n",
    lambda text: text + "Extra,Low,nan,1.0,1.0,1.0,30.0,40.0,\n",
    lambda text: text + "Extra,Low,0.05,1.0\n",  # short row
    lambda text: text + "Extra,Low,0.05,1.0,1.0,1.0,30.0,40.0,,surplus\n",
    None,  # no file at fixture_path
    lambda text: text + text.splitlines()[1] + "\n",  # a stream twice
    lambda text: text.replace("Foreman,Low,", "Foreman,Medium,", 1),
], ids=["non-numeric", "columns", "nan-alpha", "nan-theta", "inf-q-max",
        "nan-p-rtp", "short-row", "long-row", "missing", "repeated-row",
        "medium-complexity"])
def test_cli_malformed_fixture_file_is_a_config_error(tmp_path, capsys, edit):
    fixture = tmp_path / "rd.csv"
    if edit is not None:
        dump_rd_fixtures(load_rd_fixtures(), fixture)
        fixture.write_text(edit(fixture.read_text()))
    cfg_path = _write_cfg(tmp_path, fixture_path=str(fixture))
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, options", [
    ("solve", {"--config", "--out", "--trace"}),
    ("simulate", {"--config", "--out"}),
    ("grouping-compare", {"--config", "--out"}),
], ids=["solve", "simulate", "grouping-compare"])
def test_cli_run_commands_take_only_config_and_out(capsys, command, options):
    # every other run value is a config key, set only in the file
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == EXIT_OK
    assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == {"--help", *options}


def test_cli_simulate_writes_outputs(tmp_path):
    cfg_path = _write_cfg(tmp_path, n_trials=2)
    out = tmp_path / "results"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(out)]) == EXIT_OK
    for name in ("trials.csv", "exclusions.csv", "mean_psnr.csv",
                 "weak_coeff.csv", "grouping_psnr.csv"):
        assert (out / name).exists()


def test_cli_solve_and_trace(tmp_path, capsys):
    # each trace row carries the key of its instance's record, and each
    # instance's iterations run from 1 to the record's count
    raw = read_config("configs/default.yaml")
    raw.update(n_trials=1, gops_per_trial=1, snr_db=[20], solvers=["polyblock"])
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "results"
    code = main(["solve", "--config", str(cfg_path), "--trace",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "avg_psnr_db=" in capsys.readouterr().out
    header = (out / "solver_trace.csv").read_text().splitlines()[0]
    assert header == ("trial,gop,group,snr_db,iteration,n_vertices,"
                      "upper_bound_db,incumbent_db,gap_db")
    iterations = {}
    for row in _csv_rows(out / "solver_trace.csv"):
        key = (int(row["trial"]), int(row["gop"]), int(row["group"]),
               float(row["snr_db"]))
        iterations.setdefault(key, []).append(int(row["iteration"]))
    records = run_scenario(config_from_dict(raw)).records
    assert len(records) == 3  # one per group of the default scenario
    assert iterations == {(r.trial, r.gop, r.group, r.snr_db):
                          list(range(1, r.iterations + 1)) for r in records}


def test_cli_solve_runs_the_config_schemes(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, solvers=["greedy"])
    code = main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "results")])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "scheme=greedy" in captured
    assert "scheme=oma" not in captured


def test_cli_solve_names_each_exclusion_and_exits_1_on_a_solver_failure(
        tmp_path, capsys, monkeypatch):
    # a solver failure exits 1, not 3, and is never called infeasible; each
    # exclusion names its scheme and group, also when other schemes solve
    raw = read_config("configs/default.yaml")
    raw.update(snr_db=[20], solvers=["polyblock", "greedy"])
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))

    def fail(*args, **kwargs):
        raise NonConvergence("Dinkelbach projection hit the iteration cap")

    monkeypatch.setattr(polyblock, "project", fail)
    code = main(["solve", "--config", str(cfg_path)])
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert out.count("scheme=greedy") == 3 and "scheme=polyblock" not in out
    assert "infeasible" not in err
    assert err.splitlines() == [
        f"error: scheme=polyblock group={g} snr_db=20: NonConvergence:"
        " Dinkelbach projection hit the iteration cap" for g in range(3)]

    raw.update(snr_db=[0], solvers=["greedy"])
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 3
    for g, line in enumerate(lines):
        assert line.startswith(f"infeasible: scheme=greedy group={g} snr_db=0: ")


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_cli_all_excluded_run_keeps_exclusion_counts(tmp_path):
    raw = read_config("configs/default.yaml")
    raw.update(n_trials=1, snr_db=[0], solvers=["greedy", "oma", "noma-mt"])
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    for command in ("simulate", "grouping-compare"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        assert _csv_rows(out / "grouping_psnr.csv") == []
        rows = _csv_rows(out / "mean_psnr.csv")
        groupings = 1 if command == "simulate" else 3
        assert len(rows) == 3 * groupings  # one per (scheme, grouping)
        for row in rows:
            # 3 groups in one trial, all excluded
            assert (row["mean_avg_psnr_db"], row["n_records"],
                    row["n_excluded"]) == ("", "0", "3")
    assert _csv_rows(tmp_path / "simulate" / "trials.csv") == []
    assert len(_csv_rows(tmp_path / "simulate" / "exclusions.csv")) == 9


def test_cli_grouping_compare(tmp_path):
    # every grouping's rows equal those of its own simulate run, exclusion
    # counts included
    cfg_path = _write_cfg(tmp_path, n_trials=20, snr_db=[10.0, 20.0])
    assert main(["grouping-compare", "--config", str(cfg_path),
                 "--out", str(tmp_path / "compare")]) == EXIT_OK
    want = {"mean_psnr": [], "grouping_psnr": []}
    for strategy in ("WLBH", "WRBR", "WHBL"):
        cfg_path = _write_cfg(tmp_path, n_trials=20, snr_db=[10.0, 20.0],
                              grouping=strategy)
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / strategy)]) == EXIT_OK
        for name in want:
            want[name] += _csv_rows(tmp_path / strategy / f"{name}.csv")
    merged = _csv_rows(tmp_path / "compare" / "mean_psnr.csv")
    assert merged == sorted(want["mean_psnr"], key=lambda row: (
        float(row["snr_db"]), row["scheme"], row["grouping"]))
    assert any(int(row["n_excluded"]) > 0 for row in merged)
    assert _csv_rows(tmp_path / "compare" / "grouping_psnr.csv") == sorted(
        want["grouping_psnr"], key=lambda row: (
            row["grouping"], float(row["snr_db"]), row["scheme"], row["stream"]))


def test_cli_grouping_compare_checks_every_grouping_first(tmp_path, capsys,
                                                         monkeypatch):
    # 4 Low UEs in zones of 3 are fine under ByIndex, not under WLBH/WHBL
    raw = read_config("configs/default.yaml")
    raw["grouping"] = "ByIndex"
    raw["ues"][3].update(stream="Ice")
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(harness, "run_scenario",
                        lambda cfg: pytest.fail("a scenario ran"))
    out = tmp_path / "compare"
    assert main(["grouping-compare", "--config", str(path),
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: WLBH needs a number of Low-complexity UEs that is a"
        " multiple of the zone size 3, got 4\n")
    assert not out.exists()


def test_cli_fit_rd_round_trip(tmp_path, capsys):
    table = load_rd_fixtures()
    src = table["Ice"]
    points = tmp_path / "points.csv"
    rates = np.linspace(src.rate_min, src.rate_max, 12)
    rows = ["rate_bps,psnr_db"]
    rows += [f"{float(r)!r},{psnr_of_rate(src, float(r))!r}" for r in rates]
    points.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fitted.csv"
    code = main(["fit-rd", "--points", str(points),
                 "--q-min", str(src.q_min_db), "--q-max", str(src.q_max_db),
                 "--stream", "Refit", "--out", str(out)])
    assert code == EXIT_OK
    assert "alpha=" in capsys.readouterr().out
    refit = load_rd_fixtures(out)["Refit"]
    assert refit.alpha == pytest.approx(src.alpha, rel=1e-6)
    assert refit.theta == pytest.approx(src.theta, rel=1e-6)
    assert main(["fit-rd", "--points", str(tmp_path / "nope.csv"),
                 "--q-min", "30", "--q-max", "40"]) == EXIT_CONFIG


@pytest.mark.parametrize("q_min, q_max, extra_row", [
    ("40", "30", None),
    ("nan", "40", None),
    ("30", "inf", None),
    ("30", "40", "repeat"),  # a rate that is already in the file
    ("30", "40", "nan,35.0"),
    ("30", "40", "2e5,-inf"),
])
def test_cli_fit_rd_bad_input_is_a_config_error(tmp_path, capsys, q_min, q_max,
                                                 extra_row):
    src = load_rd_fixtures()["Ice"]
    rows = [f"{r!r},{psnr_of_rate(src, r)!r}"
            for r in map(float, np.linspace(src.rate_min, src.rate_max, 8))]
    if extra_row:
        rows.append(rows[0] if extra_row == "repeat" else extra_row)
    points = tmp_path / "points.csv"
    points.write_text("rate_bps,psnr_db\n" + "\n".join(rows) + "\n")
    assert main(["fit-rd", "--points", str(points),
                 "--q-min", q_min, "--q-max", q_max]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cannot read points file: " if extra_row not in (None, "repeat")
                          else "config error: ")
