import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomavq import (
    FitRejected,
    InfeasibleRate,
    InsufficientData,
    RdParams,
    RdPoint,
    fit_rd_params,
    load_rd_fixtures,
    psnr_of_rate,
    rate_of_psnr,
)
from nomavq.quality import (
    PEAK_SQ,
    dump_rd_fixtures,
    end_to_end_distortion,
    psnr_from_mse,
)

REF = RdParams(alpha=3.0, beta=6770.388457026085, theta=1551089.3836871097,
               q_min_db=32.0, q_max_db=40.0, stream_id="Foreman")


def test_psnr_from_mse_peak():
    assert psnr_from_mse(PEAK_SQ) == pytest.approx(0.0)
    assert psnr_from_mse(1.0) == pytest.approx(10 * math.log10(PEAK_SQ))
    with pytest.raises(ValueError):
        psnr_from_mse(0.0)


def test_end_to_end_distortion_is_additive():
    assert end_to_end_distortion(10.0, 2.5) == 12.5
    assert end_to_end_distortion(10.0, 0.0) == 10.0
    with pytest.raises(ValueError):
        end_to_end_distortion(0.0, 1.0)
    with pytest.raises(ValueError):
        end_to_end_distortion(1.0, -1.0)


def test_rate_of_psnr_matches_direct_formula():
    q = 35.0
    mse = PEAK_SQ * 10.0 ** (-q / 10.0)
    expect = REF.theta / (mse + REF.alpha) + REF.beta
    assert rate_of_psnr(REF, q) == pytest.approx(expect, rel=1e-12)


def test_rate_of_psnr_rejects_out_of_band():
    with pytest.raises(ValueError):
        rate_of_psnr(REF, 31.0)
    with pytest.raises(ValueError):
        rate_of_psnr(REF, 41.0)


def test_round_trip_on_grid_all_fixtures():
    # inverse accuracy everywhere on the quality band, every shipped stream
    for params in load_rd_fixtures().values():
        grid = np.linspace(params.q_min_db, params.q_max_db, 100)
        back = np.array([
            psnr_of_rate(params, float(rate_of_psnr(params, q))) for q in grid
        ])
        assert np.max(np.abs(back - grid)) < 1e-9


def test_psnr_of_rate_saturates_above_band():
    assert psnr_of_rate(REF, REF.rate_max * 10.0) == REF.q_max_db
    assert psnr_of_rate(REF, REF.rate_max) == pytest.approx(REF.q_max_db)


def test_psnr_of_rate_rejects_below_band():
    with pytest.raises(InfeasibleRate):
        psnr_of_rate(REF, REF.rate_min * 0.5)


def test_rate_band_endpoints_consistent():
    assert REF.rate_min == rate_of_psnr(REF, REF.q_min_db)
    assert REF.rate_max == rate_of_psnr(REF, REF.q_max_db)
    assert REF.rate_min < REF.rate_max


@given(st.floats(min_value=32.0, max_value=40.0),
       st.floats(min_value=32.0, max_value=40.0))
@settings(max_examples=200, deadline=None)
def test_rate_of_psnr_strictly_increasing(q1, q2):
    if q1 == q2:
        return
    lo, hi = sorted((q1, q2))
    assert rate_of_psnr(REF, lo) < rate_of_psnr(REF, hi)


def test_band_rates_cached_bitwise_per_instance():
    for p in [REF, *load_rd_fixtures().values()]:
        assert p.rate_min == rate_of_psnr(p, p.q_min_db)
        assert p.rate_max == rate_of_psnr(p, p.q_max_db)
        # cached: a second read returns the stored object
        assert p.rate_max is p.rate_max
    wider = dataclasses.replace(REF, q_max_db=41.0)
    assert wider.rate_min == REF.rate_min
    assert wider.rate_max == rate_of_psnr(wider, 41.0) > REF.rate_max
    # equality and hashing depend on the fields alone, not on the cache
    fresh = RdParams(alpha=REF.alpha, beta=REF.beta, theta=REF.theta,
                     q_min_db=REF.q_min_db, q_max_db=REF.q_max_db,
                     stream_id=REF.stream_id)
    assert "rate_max" not in vars(fresh)
    assert fresh == REF and hash(fresh) == hash(REF)
    assert wider != REF


def test_rdparams_validation():
    with pytest.raises(ValueError):
        RdParams(alpha=1.0, beta=0.0, theta=1.0, q_min_db=40.0, q_max_db=32.0)
    with pytest.raises(ValueError):
        RdParams(alpha=1.0, beta=0.0, theta=-1.0, q_min_db=32.0, q_max_db=40.0)
    with pytest.raises(ValueError):
        # alpha so negative the model diverges inside the band
        RdParams(alpha=-100.0, beta=0.0, theta=1.0, q_min_db=32.0, q_max_db=40.0)


def test_rdpoint_validation():
    with pytest.raises(ValueError):
        RdPoint(rate_bps=-1.0, mse=1.0)
    with pytest.raises(ValueError):
        RdPoint(rate_bps=1.0, mse=0.0)
    for rate, mse in ((float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("inf"))):
        with pytest.raises(ValueError):
            RdPoint(rate_bps=rate, mse=mse)
    p = RdPoint.from_psnr(1e5, 35.0)
    assert psnr_from_mse(p.mse) == pytest.approx(35.0)


def test_fit_recovers_exact_curve():
    qs = np.linspace(32.0, 40.0, 12)
    pts = [RdPoint.from_psnr(rate_of_psnr(REF, q), q) for q in qs]
    fit = fit_rd_params(pts, (32.0, 40.0), stream_id="x")
    grid = np.linspace(32.0, 40.0, 50)
    err = np.abs(rate_of_psnr(fit, grid) - rate_of_psnr(REF, grid))
    assert np.max(err / rate_of_psnr(REF, grid)) < 1e-4


def test_fit_tolerates_noise():
    rng = np.random.default_rng(5)
    qs = np.linspace(32.0, 40.0, 20)
    pts = [
        RdPoint.from_psnr(rate_of_psnr(REF, q) * (1 + 0.01 * rng.standard_normal()), q)
        for q in qs
    ]
    fit = fit_rd_params(pts, (32.0, 40.0))
    grid = np.linspace(32.0, 40.0, 50)
    rel = np.abs(rate_of_psnr(fit, grid) - rate_of_psnr(REF, grid)) / rate_of_psnr(REF, grid)
    assert np.max(rel) < 0.05


def test_fit_needs_six_points():
    qs = np.linspace(32.0, 40.0, 5)
    pts = [RdPoint.from_psnr(rate_of_psnr(REF, q), q) for q in qs]
    with pytest.raises(InsufficientData):
        fit_rd_params(pts, (32.0, 40.0))


def test_fit_rejects_decreasing_data():
    # rate falling as quality rises cannot produce a valid increasing curve
    qs = np.linspace(32.0, 40.0, 10)
    pts = [RdPoint.from_psnr(2e5 - 1e4 * i, q) for i, q in enumerate(qs)]
    with pytest.raises((FitRejected, ValueError)):
        fit_rd_params(pts, (32.0, 40.0))


def test_fixture_table_shape(streams_table):
    assert len(streams_table) == 6
    lows = [s for s in streams_table.values() if s.complexity == "Low"]
    highs = [s for s in streams_table.values() if s.complexity == "High"]
    assert len(lows) == 3 and len(highs) == 3
    # high-complexity content needs markedly more rate at comparable quality
    for h in highs:
        for lo in lows:
            assert h.rate_min > 1.8 * lo.rate_min


def test_fixture_round_trip(tmp_path, streams_table):
    out = tmp_path / "rd.csv"
    dump_rd_fixtures(streams_table, out, provenance="test")
    back = load_rd_fixtures(out)
    assert set(back) == set(streams_table)
    for sid in streams_table:
        a, b = streams_table[sid], back[sid]
        assert (a.alpha, a.beta, a.theta) == (b.alpha, b.beta, b.theta)
        assert (a.q_min_db, a.q_max_db, a.complexity) == (b.q_min_db, b.q_max_db, b.complexity)
        assert a == b
        assert (a.rate_min, a.rate_max) == (b.rate_min, b.rate_max)


def test_fixture_missing_loss_rate_raises(tmp_path, streams_table):
    out = tmp_path / "rd.csv"
    dump_rd_fixtures(streams_table, out, p_rtp=0.05)
    with pytest.raises(ValueError):
        load_rd_fixtures(out, p_rtp=0.10)
