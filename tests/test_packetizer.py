import math

import numpy as np
import pytest

from nomavq import (
    PayloadOverflow,
    UxpProfile,
    assemble_tb,
    erasure_recoverability,
    layout_tsb,
)


def _profile(*classes, codeword_len=255):
    return UxpProfile(parity_per_class=tuple(classes), codeword_len=codeword_len)


def test_profile_validation():
    with pytest.raises(ValueError):
        _profile((0, 255))
    with pytest.raises(ValueError):
        _profile((0, -1))
    with pytest.raises(KeyError):
        _profile((0, 10)).parity_of(1)


def test_profile_rejects_a_repeated_layer_id():
    # parity_of would return the first class's parity for both
    with pytest.raises(ValueError, match="repeated layer id"):
        _profile((0, 32), (0, 16))


def test_layout_single_layer():
    tsb = layout_tsb([(0, 1000)], _profile((0, 55)))
    assert tsb.n_rows == 5  # ceil(1000 / 200)
    assert tsb.n_cols == 255
    assert tsb.layer_rows == ((0, 0, 5, 55),)


def test_layout_no_parity_uses_full_codeword():
    tsb = layout_tsb([(0, 510)], _profile((0, 0)))
    assert tsb.n_rows == 2  # ceil(510 / 255)
    assert tsb.parity_bytes == 0


def test_layout_two_layers_parity_arithmetic():
    # independent arithmetic: ceil(5000/223)=23 rows at s=32, ceil(12000/239)=51
    # rows at s=16 -> 23*32 + 51*16 = 1552 parity bytes
    tsb = layout_tsb([(0, 5000), (1, 12000)], _profile((0, 32), (1, 16)))
    assert tsb.layer_rows == ((0, 0, 23, 32), (1, 23, 74, 16))
    assert tsb.parity_bytes == 1552
    assert tsb.data_bytes == 17000


def test_layout_skips_empty_layers_rejects_negative():
    tsb = layout_tsb([(0, 0), (1, 100)], _profile((0, 32), (1, 16)))
    assert tsb.layer_rows == ((1, 0, 1, 16),)
    with pytest.raises(ValueError):
        layout_tsb([(0, -1)], _profile((0, 32)))


def test_byte_conservation():
    rng = np.random.default_rng(2)
    prof = _profile((0, 40), (1, 20), (2, 8))
    for _ in range(100):
        layers = [(l, int(rng.integers(0, 5000))) for l in range(3)]
        tsb = layout_tsb(layers, prof)
        want_rows = sum(
            math.ceil(nb / (255 - prof.parity_of(l)))
            for l, nb in layers if nb > 0
        )
        assert tsb.n_rows == want_rows
        assert tsb.data_bytes == sum(nb for _, nb in layers)
        assert tsb.parity_bytes == sum(
            math.ceil(nb / (255 - prof.parity_of(l))) * prof.parity_of(l)
            for l, nb in layers if nb > 0
        )


def test_assemble_aligned_tsbs():
    prof = _profile((0, 55))
    a = layout_tsb([(0, 2000)], prof)
    b = layout_tsb([(0, 3000)], prof)
    tb = assemble_tb(a, b)
    assert tb.column_count == 255
    for t, a_col, b_col, size in tb.schedule:
        assert (a_col, b_col) == (t, t)
        assert size == a.n_rows + b.n_rows <= 1400


def test_assemble_overflow_boundary():
    prof = _profile((0, 0))
    a = layout_tsb([(0, 255 * 700)], prof)  # 700 rows
    b = layout_tsb([(0, 255 * 700)], prof)  # stacked height exactly 1400
    tb = assemble_tb(a, b, rtp_payload_bytes=1400)
    assert all(size == 1400 for *_, size in tb.schedule)
    c = layout_tsb([(0, 255 * 701)], prof)  # stacked height 1401
    with pytest.raises(PayloadOverflow):
        assemble_tb(a, c, rtp_payload_bytes=1400)
    with pytest.raises(ValueError):
        assemble_tb(a, b, rtp_payload_bytes=0)


def test_recoverability_boundary():
    prof = _profile((0, 55))
    tb = assemble_tb(layout_tsb([(0, 2000)], prof), layout_tsb([(0, 2000)], prof))
    assert erasure_recoverability(tb, [], "a") == {0: True}
    assert erasure_recoverability(tb, range(55), "a") == {0: True}
    assert erasure_recoverability(tb, range(56), "a") == {0: False}
    with pytest.raises(ValueError):
        erasure_recoverability(tb, [255], "a")


def test_recoverability_reads_the_named_tsb():
    # TSB B is 100 columns wide, so losing packets 100..254 erases none of it
    a = layout_tsb([(0, 2000)], _profile((0, 55)))
    b = layout_tsb([(1, 500)], _profile((1, 20), codeword_len=100))
    tb = assemble_tb(a, b)
    assert erasure_recoverability(tb, range(100, 255), "a") == {0: False}
    assert erasure_recoverability(tb, range(100, 255), "b") == {1: True}
    assert erasure_recoverability(tb, range(20), "b") == {1: True}
    assert erasure_recoverability(tb, range(21), "b") == {1: False}
    with pytest.raises(ValueError):
        erasure_recoverability(tb, [], "A")


def test_recoverability_monotone_in_losses():
    prof = _profile((0, 30), (1, 10))
    tb = assemble_tb(layout_tsb([(0, 1000), (1, 1000)], prof),
                     layout_tsb([(0, 500)], prof))
    rng = np.random.default_rng(4)
    for _ in range(50):
        lost = set(rng.choice(255, size=rng.integers(0, 60), replace=False).tolist())
        more = lost | set(rng.choice(255, size=5, replace=False).tolist())
        r1 = erasure_recoverability(tb, lost, "a")
        r2 = erasure_recoverability(tb, more, "a")
        for layer in r1:
            assert r1[layer] or not r2[layer]  # losses never help


def test_layer_loss_rate_matches_binomial_tail():
    # Bernoulli(5%) column losses: layer lost iff losses exceed its parity
    p = 0.05
    prof = _profile((0, 20), (1, 12))
    tb = assemble_tb(layout_tsb([(0, 3000), (1, 3000)], prof),
                     layout_tsb([(0, 1000)], prof))
    rng = np.random.default_rng(8)
    trials = 100000
    losses = rng.binomial(255, p, size=trials)
    for layer, s in ((0, 20), (1, 12)):
        emp = np.mean(losses > s)
        tail = sum(
            math.comb(255, e) * p**e * (1 - p) ** (255 - e)
            for e in range(s + 1, 256)
        )
        sigma = math.sqrt(tail * (1 - tail) / trials)
        assert abs(emp - tail) < 3 * sigma + 1e-12
    # spot check the counting rule against the full recoverability path
    lost = set(rng.choice(255, size=21, replace=False).tolist())
    r = erasure_recoverability(tb, lost, "a")
    assert r == {0: False, 1: False}
