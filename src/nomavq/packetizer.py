"""Byte-accounting model of erasure-protected packetization for superposed streams.

Each GOP of a scalable stream becomes one transmission subblock (TSB): a
matrix whose rows are 255-byte Reed-Solomon codewords with a per-layer
parity budget (unequal protection: more important layers get more parity).
Two TSBs, one per NOMA UE, stack into a transmission block whose columns are
RTP packet payloads; column t of both buffers is superposed in timeslot t.

Only erasure counting is modeled: a codeword with s parity bytes survives up
to s lost packets. No Galois-field arithmetic is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import PayloadOverflow


@dataclass(frozen=True)
class UxpProfile:
    """Per-layer (data, parity) split of the RS codewords.

    ``parity_per_class`` maps layer id -> parity bytes s; each codeword row
    carries k = codeword_len - s data bytes.
    """

    parity_per_class: tuple  # ((layer_id, s), ...)
    codeword_len: int = 255

    def __post_init__(self):
        for layer, s in self.parity_per_class:
            if not 0 <= s < self.codeword_len:
                raise ValueError(f"layer {layer}: parity {s} not in [0, {self.codeword_len})")

    def parity_of(self, layer) -> int:
        for lid, s in self.parity_per_class:
            if lid == layer:
                return s
        raise KeyError(f"no parity class for layer {layer}")


@dataclass(frozen=True)
class TsbLayout:
    """Row/column dimensions of one TSB plus per-layer row ranges."""

    n_rows: int
    n_cols: int
    layer_rows: tuple  # ((layer_id, row_start, row_end, s), ...) end exclusive
    data_bytes: int
    parity_bytes: int


@dataclass(frozen=True)
class TransmissionBlock:
    tsb_a: TsbLayout
    tsb_b: TsbLayout
    rtp_payload_bytes: int
    # (timeslot, tsb_a column or -1, tsb_b column or -1, stacked bytes)
    schedule: tuple = field(default=())

    @property
    def column_count(self) -> int:
        return len(self.schedule)


def layout_tsb(gop_bytes_per_layer, profile: UxpProfile) -> TsbLayout:
    """Map one GOP's per-layer byte counts into TSB rows.

    Layer l with parity s_l gets ceil(bytes_l / (codeword_len - s_l)) rows.
    Zero-byte layers are skipped. Column count is the codeword length.
    """
    rows = []
    row = 0
    data = 0
    parity = 0
    for layer, n_bytes in gop_bytes_per_layer:
        if n_bytes < 0:
            raise ValueError(f"layer {layer}: negative byte count")
        if n_bytes == 0:
            continue
        s = profile.parity_of(layer)
        k = profile.codeword_len - s
        n_rows = math.ceil(n_bytes / k)
        rows.append((layer, row, row + n_rows, s))
        row += n_rows
        data += n_bytes
        parity += n_rows * s
    return TsbLayout(
        n_rows=row,
        n_cols=profile.codeword_len,
        layer_rows=tuple(rows),
        data_bytes=data,
        parity_bytes=parity,
    )


def assemble_tb(
    tsb_a: TsbLayout, tsb_b: TsbLayout, rtp_payload_bytes: int = 1400
) -> TransmissionBlock:
    """Stack two TSBs column-major into a packet schedule.

    Packet t carries column t of TSB-A on top of column t of TSB-B; the
    stacked height must fit in one RTP payload.
    """
    if rtp_payload_bytes <= 0:
        raise ValueError("rtp_payload_bytes must be positive")
    stacked = tsb_a.n_rows + tsb_b.n_rows
    if stacked > rtp_payload_bytes:
        raise PayloadOverflow(
            f"stacked column of {stacked} bytes exceeds the {rtp_payload_bytes}-byte payload"
        )
    n_cols = max(tsb_a.n_cols, tsb_b.n_cols)
    schedule = []
    for t in range(n_cols):
        a_col = t if t < tsb_a.n_cols else -1
        b_col = t if t < tsb_b.n_cols else -1
        size = (tsb_a.n_rows if a_col >= 0 else 0) + (tsb_b.n_rows if b_col >= 0 else 0)
        schedule.append((t, a_col, b_col, size))
    return TransmissionBlock(
        tsb_a=tsb_a, tsb_b=tsb_b, rtp_payload_bytes=rtp_payload_bytes,
        schedule=tuple(schedule),
    )


def erasure_recoverability(
    tb: TransmissionBlock, lost_packets, which: str = "a"
) -> dict:
    """Per-layer recoverability of one TSB after a set of packet losses.

    A lost packet erases one column of each codeword; a row with parity s is
    recoverable iff at most s of its columns were lost, and a layer is intact
    iff all its rows are. ``which`` names the TSB, ``"a"`` or ``"b"``.
    """
    if which not in ("a", "b"):
        raise ValueError(f"which must be 'a' or 'b', got {which!r}")
    tsb = tb.tsb_a if which == "a" else tb.tsb_b
    lost = set(lost_packets)
    for t in lost:
        if not 0 <= t < tb.column_count:
            raise ValueError(f"lost packet index {t} outside the schedule")
    n_lost_cols = sum(1 for t in lost if t < tsb.n_cols)
    return {
        layer: n_lost_cols <= s for layer, _, _, s in tsb.layer_rows
    }

