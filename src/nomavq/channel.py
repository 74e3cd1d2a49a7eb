"""UE placement, Rayleigh fading, zone partitioning, NOMA grouping and SIC SINR.

Within one NOMA group the UEs are indexed weakest channel first:
|h_1|^2 <= ... <= |h_N|^2. With successive interference cancellation, UE n
decodes the signals of UEs 1..n-1 before its own and treats UEs n+1..N as
noise: its own SINR is ``sinr_step``, which ``sinrs_below`` applies to
Python floats, strongest UE first; ``own_sinrs`` returns its SINRs as an
array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (NONNEGATIVE, NOT_NUMBER, NOT_WHOLE, POSITIVE,
                     ConfigurationError, Rule, check_fields, whole)


class QualityReq(Enum):
    LATENCY_SENSITIVE = "LatencySensitive"
    QUALITY_SENSITIVE = "QualitySensitive"


class GroupingStrategy(Enum):
    WLBH = "WLBH"  # weak UEs get Low-complexity streams, better UEs High
    WHBL = "WHBL"  # the inverse
    WRBR = "WRBR"  # seeded random stream assignment
    BY_INDEX = "ByIndex"  # keep each UE's own requested stream


# a UE counts as "edge" when its distance is within this fraction of a
# zone boundary radius (the boundary itself is not specified upstream)
EDGE_TOLERANCE = 0.05
# eta of the path loss 1 / (1 + d^eta) of the scenario
DEFAULT_PATH_LOSS_EXP = 2.0


@dataclass(frozen=True)
class UserEquipment:
    id: int
    distance_m: float
    requested_stream: str
    quality_req: QualityReq = QualityReq.QUALITY_SENSITIVE

    # each field's rule; a UE entry of the scenario file sets every field,
    # requested_stream by its key ``stream``
    FIELDS = {
        "id": Rule(whole, NOT_WHOLE, NONNEGATIVE),
        "distance_m": Rule(float, NOT_NUMBER, POSITIVE),
        "requested_stream": Rule(str, "config key {key} is not a string: {value!r}",
                                 key="stream"),
        "quality_req": Rule(QualityReq, "{value!r} is not a valid QualityReq"),
    }

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ChannelState:
    """Per-group channel realization, ordered weakest-first for SIC."""

    gains_sq: np.ndarray  # |h_n|^2, nondecreasing
    noise_var: float  # sigma^2 [W]
    power_budget_w: float

    def __post_init__(self):
        g = np.asarray(self.gains_sq, dtype=float)
        object.__setattr__(self, "gains_sq", g)
        if not np.all((g > 0) & (g < np.inf)):
            raise ValueError("channel gains must be finite and strictly positive")
        if np.any(np.diff(g) < 0):
            raise ValueError("gains_sq must be nondecreasing (SIC ordering)")
        if not (0 < self.noise_var < np.inf and 0 < self.power_budget_w < np.inf):
            raise ValueError("noise_var and power_budget_w must be finite and positive")

    @property
    def n_users(self) -> int:
        return len(self.gains_sq)


def channel_gain(g: complex, distance_m: float, path_loss_exp: float) -> complex:
    """Fading coefficient attenuated by distance: h = g / sqrt(1 + d^eta)."""
    return g / np.sqrt(1.0 + distance_m**path_loss_exp)


def sample_channel(ue: UserEquipment, rng,
                   path_loss_exp: float = DEFAULT_PATH_LOSS_EXP) -> complex:
    """Draw one Rayleigh-faded channel gain for a UE.

    ``rng`` is a ``numpy.random.Generator`` (or an int seed). The small-scale
    coefficient g is circularly symmetric complex Gaussian with unit variance.
    """
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    re, im = rng.standard_normal(2) * np.sqrt(0.5)
    return channel_gain(complex(re, im), ue.distance_m, path_loss_exp)


def partition_zones(ues: list[UserEquipment], n_zones: int) -> list[list[UserEquipment]]:
    """Split UEs into zones by connection quality (distance, under equal fading stats).

    Zone n has uniformly better connection quality than zone n-1 (zone 1 holds
    the farthest UEs). A latency-sensitive UE sitting within EDGE_TOLERANCE of
    a zone boundary is moved to the lower-index zone (fewer SIC stages), by
    swapping with the boundary UE across the border so zones stay equal-sized.
    Returns the zones, farthest first, each its UEs farthest first.
    """
    if len(ues) % n_zones != 0:
        raise ConfigurationError(
            f"{len(ues)} UEs cannot be split into {n_zones} equal zones"
        )
    per_zone = len(ues) // n_zones
    order = sorted(ues, key=lambda u: (-u.distance_m, u.id))
    for z in range(1, n_zones):
        cut = z * per_zone
        inner = order[cut]       # weakest member of the better zone z+1
        outer = order[cut - 1]   # strongest member of zone z
        boundary = 0.5 * (inner.distance_m + outer.distance_m)
        edge = abs(inner.distance_m - boundary) <= EDGE_TOLERANCE * boundary
        if edge and inner.quality_req is QualityReq.LATENCY_SENSITIVE:
            order[cut - 1], order[cut] = inner, outer
    return [order[cut:cut + per_zone] for cut in range(0, len(order), per_zone)]


def check_zone_fill(ues, streams: dict, strategy: GroupingStrategy, zone_size: int):
    """Refuse a WLBH or WHBL grouping whose count of UEs requesting a
    Low-complexity stream does not fill whole zones: these strategies map
    whole zones to one complexity class."""
    if strategy in (GroupingStrategy.WLBH, GroupingStrategy.WHBL):
        n_low = sum(streams[u.requested_stream].complexity == "Low" for u in ues)
        if n_low % zone_size != 0:
            raise ConfigurationError(
                f"{strategy.value} needs a number of Low-complexity UEs"
                f" that is a multiple of the zone size {zone_size}, got {n_low}")


def _assign_streams(flat, strategy, streams, seed):
    """Re-map requested streams across UEs per the grouping strategy."""
    if strategy is GroupingStrategy.BY_INDEX:
        return flat
    sids = [u.requested_stream for u in flat]
    if strategy is GroupingStrategy.WRBR:
        ordered = [sids[i] for i in np.random.default_rng(seed).permutation(len(sids))]
    else:
        # WLBH: low-complexity streams to low-index (weaker) zones; WHBL
        # inverse. flat runs farthest-first, i.e. weakest zone first
        first = "Low" if strategy is GroupingStrategy.WLBH else "High"
        ordered = sorted(sids, key=lambda s: (streams[s].complexity != first, s))
    return [replace(u, requested_stream=s) for u, s in zip(flat, ordered)]


def group_users(
    zones: list[list[UserEquipment]],
    streams: dict,
    strategy: GroupingStrategy = GroupingStrategy.BY_INDEX,
    seed: int | None = 0,
) -> list[list[UserEquipment]]:
    """Form NOMA groups: one UE per zone, ordered weakest zone first.

    ``zones`` is the output of partition_zones and ``streams`` maps each
    stream id to its ``RdParams``, whose ``complexity`` WLBH/WHBL read.
    Groups pair rank-matched UEs across zones (the k-th farthest of each
    zone). WLBH/WHBL first re-map which streams the UEs request, and WRBR
    shuffles them with a generator seeded by ``seed``.
    """
    per_zone = len(zones[0])
    flat = [u for zone in zones for u in zone]
    check_zone_fill(flat, streams, strategy, per_zone)
    flat = _assign_streams(flat, strategy, streams, seed)
    return [flat[k::per_zone] for k in range(per_zone)]


def sinr_step(g, p, tail, noise):
    """One UE's own SINR behind ``tail``, the stronger UEs' total power."""
    return g * p / (g * tail + noise)


def own_sinrs(ch: ChannelState, p: np.ndarray) -> np.ndarray:
    """Each UE's SINR for its own stream at the power vector ``p``, of
    shape (N,): ``sinrs_below`` over every UE, as an array."""
    power = np.asarray(p, dtype=float).tolist()
    if len(power) != ch.n_users:
        raise ValueError(f"need one power per UE, got {len(power)} for {ch.n_users}")
    sinrs, _ = sinrs_below(ch.gains_sq.tolist(), power, ch.noise_var, ch.n_users - 1, 0.0)
    return np.array(sinrs)


def sinrs_below(gains, power, noise, k, tail):
    """Own SINRs of UEs k, k-1, ..., 0 of the power list ``power``, and the
    interference each sees, given ``tail``, the power of the UEs stronger
    than k, all Python floats. The interference is summed from the
    strongest UE down."""
    sinrs, tails = [0.0] * (k + 1), [0.0] * (k + 1)
    for j in range(k, -1, -1):
        sinrs[j] = sinr_step(gains[j], power[j], tail, noise)
        tails[j] = tail
        tail += power[j]
    return sinrs, tails
