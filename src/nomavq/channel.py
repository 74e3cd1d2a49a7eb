"""UE placement, Rayleigh fading, zone partitioning, NOMA grouping and SIC SINR.

Within one NOMA group the UEs are indexed weakest channel first:
|h_1|^2 <= ... <= |h_N|^2. With successive interference cancellation, UE n
decodes the signals of UEs 1..n-1 before its own and treats UEs n+1..N as
noise.
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


@dataclass(frozen=True)
class UserEquipment:
    id: int
    distance_m: float
    requested_stream: str
    quality_req: QualityReq = QualityReq.QUALITY_SENSITIVE
    zone: int = 0  # assigned by partition_zones, 1-based

    # each field's rule; a UE entry of the scenario file sets every field
    # but zone, requested_stream by its key ``stream``
    FIELDS = {
        "id": Rule(whole, NOT_WHOLE, NONNEGATIVE),
        "distance_m": Rule(float, NOT_NUMBER, POSITIVE),
        "requested_stream": Rule(str, "config key {key} is not a string: {value!r}",
                                 key="stream"),
        "quality_req": Rule(QualityReq, "{value!r} is not a valid QualityReq"),
        "zone": Rule(whole, NOT_WHOLE, NONNEGATIVE),
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
        if np.any(g <= 0):
            raise ValueError("channel gains must be strictly positive")
        if np.any(np.diff(g) < 0):
            raise ValueError("gains_sq must be nondecreasing (SIC ordering)")
        if self.noise_var <= 0 or self.power_budget_w <= 0:
            raise ValueError("noise_var and power_budget_w must be positive")

    @property
    def n_users(self) -> int:
        return len(self.gains_sq)


def channel_gain(g: complex, distance_m: float, path_loss_exp: float) -> complex:
    """Fading coefficient attenuated by distance: h = g / sqrt(1 + d^eta)."""
    return g / np.sqrt(1.0 + distance_m**path_loss_exp)


def sample_channel(ue: UserEquipment, rng, path_loss_exp: float = 2.0) -> complex:
    """Draw one Rayleigh-faded channel gain for a UE.

    ``rng`` is a ``numpy.random.Generator`` (or an int seed). The small-scale
    coefficient g is circularly symmetric complex Gaussian with unit variance.
    """
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    re, im = rng.standard_normal(2) * np.sqrt(0.5)
    return channel_gain(complex(re, im), ue.distance_m, path_loss_exp)


def partition_zones(ues: list[UserEquipment], n_zones: int) -> list[UserEquipment]:
    """Assign UEs to zones by connection quality (distance, under equal fading stats).

    Zone n has uniformly better connection quality than zone n-1 (zone 1 holds
    the farthest UEs). A latency-sensitive UE sitting within EDGE_TOLERANCE of
    a zone boundary is moved to the lower-index zone (fewer SIC stages), by
    swapping with the boundary UE across the border so zones stay equal-sized.
    Returns new UE objects with ``zone`` set, sorted farthest-first.
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
    return [
        replace(u, zone=1 + i // per_zone) for i, u in enumerate(order)
    ]


def _assign_streams(zoned, strategy, streams, rng):
    """Re-map requested streams across UEs per the grouping strategy."""
    if strategy is GroupingStrategy.BY_INDEX:
        return zoned
    sids = [u.requested_stream for u in zoned]
    if strategy is GroupingStrategy.WRBR:
        ordered = [sids[i] for i in rng.permutation(len(sids))]
    else:
        # WLBH: low-complexity streams to low-index (weaker) zones; WHBL
        # inverse. zoned is sorted farthest-first, i.e. weakest zone first
        first = "Low" if strategy is GroupingStrategy.WLBH else "High"
        ordered = sorted(sids, key=lambda s: (streams[s].complexity != first, s))
    return [replace(u, requested_stream=s) for u, s in zip(zoned, ordered)]


def group_users(
    zoned: list[UserEquipment],
    streams: dict,
    strategy: GroupingStrategy = GroupingStrategy.BY_INDEX,
    seed: int | None = 0,
) -> list[list[UserEquipment]]:
    """Form NOMA groups: one UE per zone, ordered weakest zone first.

    ``zoned`` is the output of partition_zones and ``streams`` maps each
    stream id to its ``RdParams``, whose ``complexity`` WLBH/WHBL read.
    Groups pair rank-matched UEs across zones (the k-th farthest of each
    zone). WLBH/WHBL first re-map which streams the UEs request; they require
    that the count of Low-complexity streams fills whole zones.
    """
    zones = {}
    for u in zoned:
        zones.setdefault(u.zone, []).append(u)
    sizes = {len(v) for v in zones.values()}
    if len(sizes) != 1:
        raise ConfigurationError("zones are not equally sized")
    per_zone = sizes.pop()
    n_zones = len(zones)

    if strategy in (GroupingStrategy.WLBH, GroupingStrategy.WHBL):
        n_low = sum(streams[u.requested_stream].complexity == "Low" for u in zoned)
        if n_low % per_zone != 0:
            raise ConfigurationError(
                "WLBH/WHBL need stream complexity counts matching zone sizes"
            )

    rng = np.random.default_rng(seed)
    flat = [u for z in sorted(zones) for u in sorted(zones[z], key=lambda u: -u.distance_m)]
    flat = _assign_streams(flat, strategy, streams, rng)
    groups = []
    for k in range(per_zone):
        groups.append([flat[z * per_zone + k] for z in range(n_zones)])
    return groups


def own_sinrs(ch: ChannelState, p: np.ndarray) -> np.ndarray:
    """Each UE's SINR for its own stream (gamma_n in closed form).

    ``p`` is one power vector of shape (N,) or a stack of shape (..., N);
    every stacked vector gives the same SINRs, bit for bit, as its own call.
    """
    p = np.asarray(p, dtype=float)
    # interference from stronger UEs: suffix sums, accumulated from UE N down
    suffix = np.cumsum(p[..., ::-1], axis=-1)[..., ::-1]
    tail = np.concatenate([suffix[..., 1:], np.zeros(p.shape[:-1] + (1,))], axis=-1)
    return ch.gains_sq * p / (ch.gains_sq * tail + ch.noise_var)
