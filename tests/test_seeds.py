"""Labeled seed derivation and the per-column Gaussian stream."""

import math

import numpy as np
import pytest

from greenant.seeds import derive_seed, label_normal, substream


def test_derive_seed_is_deterministic():
    assert derive_seed(42, "drops") == derive_seed(42, "drops")


def test_derive_seed_sensitive_to_label_and_seed():
    seen = {derive_seed(42, "drops"), derive_seed(42, "drops2"),
            derive_seed(42, "x"), derive_seed(43, "drops")}
    assert len(seen) == 4


def test_derive_seed_range():
    for seed, label in [(0, ""), (2**63, "a"), (7, "ul:3:s1")]:
        v = derive_seed(seed, label)
        assert 0 <= v < 2**64


def test_substream_reproducible_and_independent():
    a1 = substream(1, "drops").random(5)
    a2 = substream(1, "drops").random(5)
    b = substream(1, "other").random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def _one(seed, label, counters):
    """One label's column of a draw."""
    return label_normal(seed, [label], counters)[:, 0]


def test_label_normal_deterministic():
    ids = np.arange(5)
    assert np.array_equal(_one(9, "ul:s0", ids), _one(9, "ul:s0", ids))
    assert not np.array_equal(_one(9, "ul:s0", ids), _one(9, "ul:s1", ids))


def _splitmix64_normal(seed, label, counter):
    """Scalar reference in Python integers: key = derive_seed(seed, label),
    a = mix(key + (c+1)*phi), b = mix(a ^ key), Box-Muller on the top 53 bits."""
    m64 = (1 << 64) - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m64
        return z ^ (z >> 31)

    key = derive_seed(seed, label)
    a = mix((key + (counter + 1) * 0x9E3779B97F4A7C15) & m64)
    b = mix(a ^ key)
    u1 = ((a >> 11) + 1) / 2**53
    u2 = ((b >> 11) + 0.5) / 2**53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def test_label_normal_matches_splitmix64_reference():
    counters = [0, 1, 2, 209, 2**32 + 5, 2**63 - 1, 2**63, 2**64 - 1]
    got = _one(11, "dl:s3", np.array(counters, dtype=np.uint64))
    want = [_splitmix64_normal(11, "dl:s3", c) for c in counters]
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_label_normal_is_standard_normal():
    """Moment check over many counters; loose bounds, no distribution fit."""
    zs = _one(3, "lbl", np.arange(20000))
    assert np.all(np.isfinite(zs))
    assert abs(zs.mean()) < 0.03
    assert abs(zs.std() - 1.0) < 0.03
    # two-sided: roughly 16% beyond +1 sigma and -1 sigma each
    assert 0.13 < (zs > 1.0).mean() < 0.19
    assert 0.13 < (zs < -1.0).mean() < 0.19


def test_label_normal_decorrelated_between_seeds():
    za = _one(1, "l", np.arange(2000))
    zb = _one(2, "l", np.arange(2000))
    assert abs(np.corrcoef(za, zb)[0, 1]) < 0.08


def test_label_normal_draw_depends_only_on_its_counter():
    """A column's first ten mobiles draw the same with 10 or 210 mobiles,
    and one counter drawn alone equals its entry in a longer call."""
    short = _one(7, "ul:s0", np.arange(10))
    long = _one(7, "ul:s0", np.arange(210))
    assert np.array_equal(short, long[:10])
    assert _one(7, "ul:s0", np.array([137]))[0] == long[137]


def test_label_normal_adjacent_counters_decorrelated():
    zs = _one(4, "ul:s0", np.arange(4000))
    assert abs(np.corrcoef(zs[:-1], zs[1:])[0, 1]) < 0.08


def test_label_normal_ul_and_dl_of_a_point_decorrelated():
    ids = np.arange(2000)
    assert abs(np.corrcoef(_one(5, "ul:s0", ids), _one(5, "dl:s0", ids))[0, 1]) < 0.08


def test_label_normal_finite_for_counters_near_2_63():
    ids = np.array([2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    zs = _one(6, "ul:s0", ids)
    assert zs.shape == (5,)
    assert np.all(np.isfinite(zs))


def test_label_normal_columns_equal_one_label_draws():
    """Column j of a many-label call is labels[j]'s one-label draw, bitwise,
    whatever the other labels and their order."""
    labels = [f"ul:s{k}" for k in range(21)] + ["ul:G", "dl:s3"]
    ids = np.arange(0, 2100, 10)
    table = label_normal(13, labels, ids)
    assert table.shape == (len(ids), len(labels))
    for j, label in enumerate(labels):
        assert np.array_equal(table[:, j], _one(13, label, ids))
    assert np.array_equal(label_normal(13, labels[::-1], ids), table[:, ::-1])
    assert label_normal(13, [], ids).shape == (len(ids), 0)


def test_label_normal_rejects_a_bare_label():
    with pytest.raises(TypeError):
        label_normal(1, "ul:s0", np.arange(3))
