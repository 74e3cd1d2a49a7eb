import dataclasses

import numpy as np
import pytest
import yaml

from nomavq import (
    AmcParams,
    ConfigurationError,
    config_from_dict,
    discrete_rate_set,
    load_config,
    run_scenario,
    snap_rate,
)
from nomavq.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from nomavq.harness import aggregate, read_config, write_trial_csv
from nomavq.polyblock import SolverConfig
from nomavq.quality import load_rd_fixtures, psnr_of_rate

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
    assert cfg.ues_per_zone == 1
    assert cfg.noise_var(20.0) == pytest.approx(0.01)
    assert cfg.noise_var(0.0) == pytest.approx(1.0)
    table = cfg.load_streams()
    assert {"Foreman", "Soccer"} <= set(table)


@pytest.mark.parametrize("broken", [
    {"bandwidth_hz": None},
    {"bandwidth_hz": -5.0},
    {"n_zones": 3},  # 2 UEs cannot split into 3 zones
    {"snr_db": []},
    {"grouping": "NoSuchStrategy"},
    {"solvers": ["magic"]},
    {"p_rtp": 1.5},
    {"ues": [{"id": 1, "distance_m": 1.0, "stream": "Foreman"},
             {"id": 1, "distance_m": 2.0, "stream": "Soccer"}]},
    {"ues": [{"id": 1, "stream": "Foreman"},
             {"id": 2, "distance_m": 2.0, "stream": "Soccer"}]},
    {"gops_per_trial": 0},  # would silently simulate nothing
    {"n_enh_layers": -1},
    {"path_loss_exp": -2},
    {"seed": -5},  # SeedSequence would reject it only mid-run
    {"mgs_weights": []},  # the rate set would collapse to the full rate
    {"mgs_weights": ["thick", "thin"]},
    {"snr_db": 20.0},  # a scalar, not a list
    {"snr_db": "20"},  # a string would iterate as two SNR points
    {"snr_db": [20.0, "loud"]},
    {"snr_db": [float("nan")]},  # every UE would be reported at q_max
    {"bandwidth_hz": float("inf")},
    {"epsilon": float("nan")},  # polyblock could never certify a vertex
    {"amc_c2": float("nan")},
    {"n_blocks": None},
    {"p_rtp": "low"},
    # integer keys must not be truncated
    {"n_trials": 2.5},
    {"n_blocks": 99.9},
    {"n_zones": 2.5},
    {"mgs_weights": [2.5, 1.9]},
    # every run would be empty, doubled, or read one character at a time
    {"solvers": []},
    {"solvers": ["oma", "oma"]},
    {"snr_db": [15, 15]},
    {"solvers": "oma"},
])
def test_config_validation_errors(broken):
    with pytest.raises(ConfigurationError):
        config_from_dict(_cfg_dict(**broken))


def test_config_accepts_base_layer_only_and_seed_zero():
    cfg = config_from_dict(_cfg_dict(n_enh_layers=0, seed=0))
    assert (cfg.n_enh_layers, cfg.seed) == (0, 0)


def test_config_accepts_integral_floats_for_integer_keys():
    cfg = config_from_dict(_cfg_dict(n_trials=2.0, mgs_weights=[4.0, 3]))
    assert (cfg.n_trials, cfg.mgs_weights) == (2, (4, 3))
    assert type(cfg.n_trials) is int


@pytest.mark.parametrize("build", [
    lambda: SolverConfig(epsilon=float("nan")),
    lambda: SolverConfig(delta=float("nan")),
    lambda: AmcParams(c2=float("nan")),
])
def test_constructors_reject_nan(build):
    with pytest.raises(ValueError):
        build()


def test_config_unknown_stream_detected():
    cfg = config_from_dict(_cfg_dict(
        ues=[{"id": 1, "distance_m": 3.0, "stream": "NoSuchClip"},
             {"id": 2, "distance_m": 1.0, "stream": "Soccer"}],
    ))
    with pytest.raises(ConfigurationError):
        cfg.load_streams()


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
    table = cfg.load_streams()
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


def test_run_scenario_survives_solver_nonconvergence():
    # one trial of the default scenario at SNRs where every polyblock instance
    # is feasible; a single Dinkelbach step from lam = 0 can never certify the
    # projection, so every polyblock instance must hit the cap
    cfg = dataclasses.replace(
        load_config("configs/default.yaml"), n_trials=1,
        snr_db=(20.0, 25.0, 30.0), solvers=("polyblock", "greedy", "oma"),
    )
    capped = run_scenario(dataclasses.replace(
        cfg, solver_cfg=SolverConfig(max_iterations=1)))
    reference = run_scenario(dataclasses.replace(cfg, solvers=("greedy", "oma")))

    assert not [r for r in capped.records if r.scheme == "polyblock"]
    reasons = [e[5] for e in capped.exclusions if e[3] == "polyblock"]
    assert len(reasons) == cfg.ues_per_zone * len(cfg.snr_db)  # one per group
    assert all(r.startswith("NonConvergence: ") for r in reasons)

    def others(result):
        return (
            [r for r in result.records if r.scheme != "polyblock"],
            [e for e in result.exclusions if e[3] != "polyblock"],
        )

    assert others(capped) == others(reference)
    assert reference.records


def test_run_scenario_seed_changes_outcomes():
    a = run_scenario(_tiny_scenario())
    b = run_scenario(_tiny_scenario(seed=12))
    sa = [r.sinrs for r in a.records]
    sb = [r.sinrs for r in b.records]
    assert sa != sb


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


@pytest.mark.parametrize("flag", [
    ["--epsilon", "nan"], ["--epsilon", "-1"], ["--blocks", "0"], ["--seed", "-1"],
])
def test_cli_overrides_pass_the_config_checks(tmp_path, capsys, flag):
    code = main(["solve", "--config", str(_write_cfg(tmp_path)), *flag])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_simulate_writes_outputs(tmp_path):
    cfg_path = _write_cfg(tmp_path, n_trials=2)
    out = tmp_path / "results"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(out)]) == EXIT_OK
    for name in ("trials.csv", "exclusions.csv", "mean_psnr.csv",
                 "weak_coeff.csv", "grouping_psnr.csv"):
        assert (out / name).exists()


def test_cli_solve_and_trace(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, solvers=["polyblock"], seed=3)
    out = tmp_path / "results"
    code = main(["solve", "--config", str(cfg_path), "--trace",
                 "--out", str(out)])
    captured = capsys.readouterr().out
    assert code in (EXIT_OK, EXIT_INFEASIBLE)
    if code == EXIT_OK:
        assert "avg_psnr_db=" in captured
        assert (out / "solver_trace.csv").exists()


def test_cli_solver_and_blocks_overrides(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, solvers=["polyblock", "greedy", "oma"])
    out = tmp_path / "results"
    code = main(["solve", "--config", str(cfg_path), "--solver", "greedy",
                 "--blocks", "50", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code in (EXIT_OK, EXIT_INFEASIBLE)
    if code == EXIT_OK:
        assert "scheme=greedy" in captured
        assert "scheme=polyblock" not in captured


def test_cli_all_excluded_run_writes_header_only_aggregates(tmp_path):
    raw = read_config("configs/default.yaml")
    raw.update(n_trials=1, snr_db=[0], solvers=["greedy", "oma", "noma-mt"])
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    for command in ("simulate", "grouping-compare"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        for name in ("mean_psnr", "grouping_psnr"):
            assert len((out / f"{name}.csv").read_text().splitlines()) == 1
    lines = {name: (tmp_path / "simulate" / name).read_text().splitlines()
             for name in ("trials.csv", "exclusions.csv")}
    assert len(lines["trials.csv"]) == 1 and len(lines["exclusions.csv"]) > 1


def test_cli_grouping_compare(tmp_path):
    cfg_path = _write_cfg(tmp_path, n_trials=2, snr_db=[15.0, 25.0])
    out = tmp_path / "results"
    assert main(["grouping-compare", "--config", str(cfg_path),
                 "--out", str(out)]) == EXIT_OK
    text = (out / "grouping_psnr.csv").read_text()
    for strategy in ("WLBH", "WRBR", "WHBL"):
        assert strategy in text


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
