import numpy as np
import pytest

from twistpf.resampling import multinomial_resample, resample_rows
from twistpf.rng import RESAMPLE, RngStream


def _gen(seed=0):
    return RngStream(seed).generator(1, RESAMPLE)


def test_deterministic_given_generator_state():
    lw = np.log([0.2, 0.5, 0.3])
    a = multinomial_resample(lw, 10, _gen(3))
    b = multinomial_resample(lw, 10, _gen(3))
    assert np.array_equal(a, b)
    assert a.dtype == np.int64


def test_additive_constant_invariance():
    lw = np.array([-1.0, 0.3, 2.2, -0.7])
    a = multinomial_resample(lw, 50, _gen(5))
    b = multinomial_resample(lw + 123.456, 50, _gen(5))
    assert np.array_equal(a, b)


def test_point_mass():
    lw = np.array([-np.inf, 0.0, -np.inf])
    idx = multinomial_resample(lw, 20, _gen(1))
    assert np.all(idx == 1)


def test_empirical_frequencies():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    lw = np.log(p)
    idx = multinomial_resample(lw, 200_000, _gen(7))
    freq = np.bincount(idx, minlength=4) / idx.size
    assert np.max(np.abs(freq - p)) < 0.005


def test_rejects_nan():
    with pytest.raises(ValueError):
        multinomial_resample(np.array([0.0, np.nan]), 3, _gen())


def test_rejects_all_minus_inf():
    with pytest.raises(ValueError):
        multinomial_resample(np.array([-np.inf, -np.inf]), 3, _gen())


def test_rejects_empty_and_2d():
    with pytest.raises(ValueError):
        multinomial_resample(np.array([]), 3, _gen())
    with pytest.raises(ValueError):
        multinomial_resample(np.zeros((2, 2)), 3, _gen())


def test_zero_count():
    out = multinomial_resample(np.zeros(4), 0, _gen())
    assert out.shape == (0,)


def test_huge_log_weights_no_overflow():
    lw = np.array([1000.0, 1000.0, 999.0])
    idx = multinomial_resample(lw, 1000, _gen(2))
    assert set(np.unique(idx)) <= {0, 1, 2}
    # index 2 carries weight e^-1 / (2 + e^-1): present but rare
    assert 0 < np.mean(idx == 2) < 0.5


def test_single_draw_uses_one_uniform():
    # one call with count=1 consumes exactly one uniform
    g1 = _gen(9)
    multinomial_resample(np.zeros(5), 1, g1)
    after = g1.random()
    g2 = _gen(9)
    g2.random()
    assert after == g2.random()


# ---------------------------------------------------------------------------
# the guide-table search against the per-row search it replaced


def _cdf(lw):
    """The row CDFs exactly as resample_rows builds them."""
    cdf = np.exp(lw - lw.max(axis=1, keepdims=True))
    np.add.accumulate(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    cdf[:, -1] = 1.0
    return cdf


def _per_row_search(lw, u):
    """Reference: one searchsorted per row."""
    out = np.empty(u.shape, dtype=np.int64)
    for row, c, v in zip(out, _cdf(lw), u):
        row[:] = c.searchsorted(v, side="right")
    return out


def _uniforms(rng, cdf, count):
    """Random uniforms, a third replaced by CDF entries and a third by the
    double just below an entry (ties are where a search can go wrong)."""
    rows, n = cdf.shape
    u = rng.random((rows, count))
    picks = cdf[np.arange(rows)[:, None], rng.integers(0, n, (rows, count))]
    kind = rng.integers(0, 3, (rows, count))
    u = np.where(kind == 1, picks, np.where(kind == 2, np.nextafter(picks, 0.0), u))
    return np.where(u < 1.0, u, rng.random((rows, count)))


def _weights(rng, kind, rows, n):
    if kind == "normal":
        return rng.normal(scale=3.0, size=(rows, n))
    if kind == "ties":                       # three distinct weights, as on a finite model
        return np.log([0.7, 0.15, 0.1])[rng.integers(0, 3, (rows, n))]
    if kind == "minus-inf":
        lw = rng.normal(size=(rows, n))
        lw[rng.random((rows, n)) < 0.6] = -np.inf
        lw[np.arange(rows), rng.integers(0, n, rows)] = 0.0
        return lw
    if kind == "subnormal":                  # CDF steps of about 1e-322 below the last
        lw = -740.0 + rng.normal(scale=0.5, size=(rows, n))
        lw[:, -1] = 0.0
        return lw
    if kind == "one-heavy":                  # every light entry packed into bin 0
        lw = np.full((rows, n), -20.0)
        lw[np.arange(rows), rng.integers(0, n, rows)] = 0.0
        return lw
    raise AssertionError(kind)


WEIGHT_KINDS = ("normal", "ties", "minus-inf", "subnormal", "one-heavy")


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_resample_rows_matches_per_row_search(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for rows, n in ((1, 1), (3, 1), (1, 2), (5, 8), (1, 9), (40, 16), (7, 17), (200, 33),
                    (1, 1024), (1, 1025), (2, 2000)):
        lw = _weights(rng, kind, rows, n)
        for count in (0, 1, 2, n, 3 * n + 1):
            u = _uniforms(rng, _cdf(lw), count)
            got = resample_rows(lw, u)
            assert got.dtype == np.int64 and got.shape == u.shape
            assert np.array_equal(got, _per_row_search(lw, u)), (rows, n, count)


def test_resample_rows_one_heavy_row_dense_bin():
    # most uniforms fall in the one bin that holds every light entry: the
    # bounded binary search resolves them, identical to searchsorted
    rng = np.random.default_rng(4)
    n = 4096
    lw = np.full((3, n), -25.0)
    lw[:, [0, n // 2, -1]] = 0.0
    cdf = _cdf(lw)
    u = _uniforms(rng, cdf, n)
    dense = rng.random(u.shape) < 0.7
    u[dense] = cdf[0, rng.integers(1, n // 2, dense.sum())]
    assert np.array_equal(resample_rows(lw, u), _per_row_search(lw, u))


@pytest.mark.parametrize("count", [1, 8, 3000])
def test_resample_rows_rejects_uniforms_outside_unit_interval(count):
    lw = np.zeros((2, 8))
    for bad in (np.nan, -1e-300, -0.5, 1.0, 1.5, np.inf):
        u = np.full((2, count), 0.25)
        u[1, -1] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            resample_rows(lw, u)
    u = np.full((2, count), np.nextafter(1.0, 0.0))
    u[0, 0] = 0.0
    idx = resample_rows(lw, u)
    assert idx[0, 0] == 0 and (idx[1] == 7).all()
