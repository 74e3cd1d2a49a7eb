"""Rate <-> PSNR model for encoded scalable video streams.

The rate needed to reach a PSNR of ``q`` dB is modelled as

    F(q) = theta / (255^2 * 10^(-q/10) + alpha) + beta     [bits/s]

with per-stream parameters (alpha, beta, theta) obtained by curve fitting
over empirical R-D points. The model is strictly increasing on the stream's
quality band [q_min, q_max], so it has a closed-form inverse.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FitRejected, InfeasibleRate, InsufficientData

PEAK_SQ = 255.0**2
PEAK_DB = 20.0 * math.log10(255.0)

DEFAULT_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "rd_params.csv"
# RTP packet loss rate of the scenario, which selects the fixture rows
DEFAULT_P_RTP = 0.05

# how far (dB) a PSNR may sit outside its stream's band in ``rate_of_psnr``
BAND_TOL_DB = 1e-9

# content complexity labels of a stream; WLBH and WHBL group streams by them
COMPLEXITIES = ("Low", "High")


def _mse_of_psnr(q_db: float):
    return PEAK_SQ * 10.0 ** (-q_db / 10.0)


@dataclass(frozen=True)
class RdParams:
    """Fitted rate-quality curve of one encoded stream.

    ``q_min_db`` is the PSNR of decoding the base layer only and
    ``q_max_db`` the PSNR of decoding all layers; rates include the
    erasure-protection parity overhead (on-the-wire rates).
    """

    alpha: float
    beta: float
    theta: float
    q_min_db: float
    q_max_db: float
    stream_id: str = ""
    complexity: str = "Low"  # one of COMPLEXITIES

    def __post_init__(self):
        values = (self.alpha, self.beta, self.theta, self.q_min_db, self.q_max_db)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"R-D parameters must be finite, got {values}")
        if self.complexity not in COMPLEXITIES:
            raise ValueError(f"complexity must be one of {COMPLEXITIES}, "
                             f"got {self.complexity!r}")
        if not self.q_min_db < self.q_max_db:
            raise ValueError("q_min_db must be below q_max_db")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        # denominator must stay positive across the whole band
        if _mse_of_psnr(self.q_max_db) + self.alpha <= 0:
            raise ValueError("alpha too negative: rate model diverges on band")

    # band-edge rates, computed on first use; cached_property stores them in
    # the instance __dict__, so equality and hashing still see fields only
    @cached_property
    def rate_min(self) -> float:
        return rate_of_psnr(self, self.q_min_db)

    @cached_property
    def rate_max(self) -> float:
        return rate_of_psnr(self, self.q_max_db)


@dataclass(frozen=True)
class RdPoint:
    """One empirical (rate, distortion) measurement."""

    rate_bps: float
    mse: float

    def __post_init__(self):
        if not 0 < self.rate_bps < math.inf:  # also rejects NaN
            raise ValueError("rate_bps must be positive and finite")
        if not 0 < self.mse < math.inf:
            raise ValueError("mse must be positive and finite")

    @classmethod
    def from_psnr(cls, rate_bps: float, psnr_db: float) -> "RdPoint":
        return cls(rate_bps, _mse_of_psnr(psnr_db))


def rate_of_psnr(params: RdParams, q_db: float):
    """Rate (bits/s) needed to reach ``q_db`` on this stream.

    ``q_db`` must lie on [q_min_db, q_max_db], up to ``BAND_TOL_DB``;
    callers clamp explicitly. Accepts scalars or arrays.
    """
    q = np.asarray(q_db, dtype=float)
    if (np.any(q < params.q_min_db - BAND_TOL_DB)
            or np.any(q > params.q_max_db + BAND_TOL_DB)):
        raise ValueError(
            f"PSNR {q_db} outside band [{params.q_min_db}, {params.q_max_db}]"
        )
    rate = params.theta / (PEAK_SQ * 10.0 ** (-q / 10.0) + params.alpha) + params.beta
    return float(rate) if np.isscalar(q_db) else rate


def psnr_of_rate(params: RdParams, rate_bps: float) -> float:
    """Decoded PSNR at a given on-the-wire rate.

    Rates above the band saturate at q_max (extra rate cannot improve
    quality beyond all layers); rates below the band raise InfeasibleRate.
    """
    r_lo = params.rate_min
    r_hi = params.rate_max
    # tolerate tiny numerical undershoot at the band edge
    if rate_bps < r_lo * (1.0 - 1e-12) - 1e-9:
        raise InfeasibleRate(
            f"rate {rate_bps:.3f} below feasible band [{r_lo:.3f}, {r_hi:.3f}]"
        )
    if rate_bps >= r_hi:
        return params.q_max_db
    rate_bps = max(rate_bps, r_lo)
    inner = params.theta / (rate_bps - params.beta) - params.alpha
    return -10.0 * math.log10(inner) + PEAK_DB


def _fit_theta_beta(x: np.ndarray, rates: np.ndarray):
    # linear least squares: rate ~= theta * x + beta
    a = np.column_stack([x, np.ones_like(x)])
    (theta, beta), res, _, _ = np.linalg.lstsq(a, rates, rcond=None)
    pred = theta * x + beta
    return theta, beta, float(np.sum((pred - rates) ** 2))


def fit_rd_params(
    points: list[RdPoint],
    q_bounds: tuple[float, float],
    stream_id: str = "",
    complexity: str = "Low",
) -> RdParams:
    """Fit (alpha, beta, theta) to empirical R-D points by least squares.

    For each candidate alpha the model is linear in x = 1/(mse + alpha),
    so (theta, beta) come from a linear solve; alpha is chosen by nested
    grid refinement on the residual. Deterministic given inputs.
    """
    q_min, q_max = q_bounds
    if not (math.isfinite(q_min) and math.isfinite(q_max) and q_min < q_max):
        raise ValueError(f"quality band [{q_min}, {q_max}] dB must be finite "
                         "with q_min below q_max")
    if len(points) < 6:
        raise InsufficientData(f"need at least 6 R-D points, got {len(points)}")
    rates = np.array([p.rate_bps for p in points], dtype=float)
    mses = np.array([p.mse for p in points], dtype=float)
    if len(np.unique(rates)) != len(rates):
        raise ValueError("R-D points must have distinct rates")

    mse_floor = min(mses.min(), _mse_of_psnr(q_max))
    # alpha must keep mse + alpha > 0 everywhere on the band
    lo, hi = -0.95 * mse_floor, 10.0 * mses.max()
    best = None
    for _ in range(8):  # nested refinement: each pass shrinks the bracket ~10x
        grid = np.linspace(lo, hi, 81)
        scores = []
        for alpha in grid:
            theta, beta, sse = _fit_theta_beta(1.0 / (mses + alpha), rates)
            scores.append((sse, alpha, theta, beta))
        scores.sort(key=lambda s: (s[0], s[1]))
        sse, alpha, theta, beta = scores[0]
        best = (alpha, beta, theta)
        step = grid[1] - grid[0]
        lo = max(-0.95 * mse_floor, alpha - 2 * step)
        hi = alpha + 2 * step

    alpha, beta, theta = best
    if theta <= 0:
        raise FitRejected("fitted theta is nonpositive")
    params = RdParams(
        alpha=alpha, beta=beta, theta=theta, q_min_db=q_min, q_max_db=q_max,
        stream_id=stream_id, complexity=complexity,
    )
    # curve must be increasing with rate - beta > 0 on the whole band
    grid_q = np.linspace(q_min, q_max, 64)
    grid_r = rate_of_psnr(params, grid_q)
    if np.any(np.diff(grid_r) <= 0) or np.any(grid_r - beta <= 0):
        raise FitRejected("fitted curve not strictly increasing on quality band")
    return params


# ---------------------------------------------------------------------------
# Fixture file: one record per (stream, p_rtp). Field order:
#   stream_id, complexity, p_rtp, alpha, beta, theta, q_min_db, q_max_db, provenance
# ---------------------------------------------------------------------------

_FIXTURE_FIELDS = [
    "stream_id", "complexity", "p_rtp", "alpha", "beta", "theta",
    "q_min_db", "q_max_db", "provenance",
]


def load_rd_fixtures(path=DEFAULT_FIXTURE_PATH, p_rtp: float = DEFAULT_P_RTP):
    """Read the shipped R-D parameter table, keyed by stream id.

    Each stream may have one row per ``p_rtp``; a repeat is a ValueError.
    """
    table = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _FIXTURE_FIELDS:
            raise ValueError(f"unexpected fixture columns: {reader.fieldnames}")
        for row in reader:
            # csv.DictReader fills a short row with None and keys a long
            # row's extra fields under None
            if None in row or None in row.values():
                raise ValueError(f"fixture line {reader.line_num}: expected "
                                 f"{len(_FIXTURE_FIELDS)} fields")
            row_p_rtp = float(row["p_rtp"])
            if not math.isfinite(row_p_rtp):
                raise ValueError(f"fixture line {reader.line_num}: p_rtp {row_p_rtp}")
            if abs(row_p_rtp - p_rtp) > 1e-12:
                continue
            if row["stream_id"] in table:
                raise ValueError(f"fixture line {reader.line_num}: repeats stream "
                                 f"{row['stream_id']!r} at p_rtp {row_p_rtp}")
            table[row["stream_id"]] = RdParams(
                alpha=float(row["alpha"]),
                beta=float(row["beta"]),
                theta=float(row["theta"]),
                q_min_db=float(row["q_min_db"]),
                q_max_db=float(row["q_max_db"]),
                stream_id=row["stream_id"],
                complexity=row["complexity"],
            )
    if not table:
        raise ValueError(f"no fixture records for p_rtp={p_rtp} in {path}")
    return table


def dump_rd_fixtures(table, path, p_rtp: float = DEFAULT_P_RTP, provenance: str = ""):
    """Write an R-D parameter table in the fixture format (round-trips bit-exactly)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FIXTURE_FIELDS)
        writer.writeheader()
        for sid in sorted(table):
            p = table[sid]
            writer.writerow({
                "stream_id": sid,
                "complexity": p.complexity,
                "p_rtp": repr(float(p_rtp)),
                "alpha": repr(float(p.alpha)),
                "beta": repr(float(p.beta)),
                "theta": repr(float(p.theta)),
                "q_min_db": repr(float(p.q_min_db)),
                "q_max_db": repr(float(p.q_max_db)),
                "provenance": provenance,
            })
