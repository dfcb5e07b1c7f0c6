import numpy as np
import pytest

from twistpf.fkcore import categorical_counts, count_at_or_below
from twistpf.models import FiniteHMMParams, LinearGaussianParams, q_apply_log
from twistpf.rng import INIT, MUTATE, RngStream
from twistpf.windows import ObservationWindow

from scalar_draws import sample_mutation


def q_apply(model, window, t, phi):
    """The linear-scale operator ``G_t * (M_t @ phi)`` through ``q_apply_log``."""
    with np.errstate(divide="ignore"):
        return np.exp(q_apply_log(model, window, t, np.log(phi)))


def two_state_model():
    return FiniteHMMParams(
        mu0=[0.6, 0.4],
        trans=[[0.7, 0.3], [0.4, 0.6]],
        emit=[[0.5, 0.5], [2.0 / 3.0, 1.0 / 3.0]],
    )


def test_validation_errors():
    with pytest.raises(ValueError):
        FiniteHMMParams([0.6, 0.4], [[0.7, 0.3]], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        FiniteHMMParams([0.6, 0.4], [[0.9, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        FiniteHMMParams([0.6, 0.4], [[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError):
        FiniteHMMParams([0.6, 0.5], [[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("table, value", [
    ("trans", [[1.2, -0.2], [0.4, 0.6]]),   # rows sum to 1, one entry negative
    ("trans", [[np.nan, 0.3], [0.4, 0.6]]),
    ("mu0", [np.nan, 0.5]),                 # every comparison with NaN is false
    ("mu0", [np.inf, 0.4]),
    ("emit", [[0.5, 0.5], [np.inf, 0.5]]),
    ("emit", [[0.5, np.nan], [0.5, 0.5]]),
])
def test_validation_rejects_negative_and_non_finite_tables(table, value):
    tables = {"mu0": [0.6, 0.4], "trans": [[0.7, 0.3], [0.4, 0.6]],
              "emit": [[0.5, 0.5], [0.5, 0.5]]}
    FiniteHMMParams(**tables)
    with pytest.raises(ValueError, match=f"^{table} "):
        FiniteHMMParams(**dict(tables, **{table: value}))


def test_q_apply_frozen_example():
    # hand-computed: G = (0.5, 2/3*3) -> use explicit potential (0.5, 2.0) via
    # an emission table whose column 0 is exactly (0.5, 2.0) after scaling
    model = FiniteHMMParams(
        mu0=[0.5, 0.5],
        trans=[[0.7, 0.3], [0.4, 0.6]],
        emit=[[0.5, 0.5], [2.0 / 3.0, 1.0 / 3.0]],
    )
    w = ObservationWindow(0, np.array([0]))
    phi = np.array([1.0, 0.0])
    got = q_apply(model, w, 0, phi)
    # G(x) * sum_z M(x,z) phi(z) with G = (0.5, 2/3): (0.5*0.7, 2/3*0.4)
    assert np.allclose(got, [0.35, 4.0 / 15.0], atol=1e-15)


def test_q_apply_matches_matmul_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        trans = rng.random((k, k)) + 0.1
        trans /= trans.sum(axis=1, keepdims=True)
        emit = rng.random((k, 3)) + 0.05
        emit /= emit.sum(axis=1, keepdims=True)
        mu0 = rng.random(k)
        mu0 /= mu0.sum()
        model = FiniteHMMParams(mu0, trans, emit)
        y = int(rng.integers(3))
        w = ObservationWindow(0, np.array([y]))
        phi = rng.random(k)
        expect = emit[:, y] * (trans @ phi)
        assert np.allclose(q_apply(model, w, 0, phi), expect, rtol=1e-14)


def test_q_apply_log_consistent_with_linear():
    model = two_state_model()
    w = ObservationWindow(0, np.array([1, 0]))
    phi = np.array([0.3, 1.7])
    lin = model.emit[:, 0] * (model.trans @ phi)
    logv = q_apply_log(model, w, 1, np.log(phi))
    assert np.allclose(np.exp(logv), lin, rtol=1e-13)


def test_q_apply_log_underflow_safe():
    model = two_state_model()
    w = ObservationWindow(0, np.array([0]))
    log_phi = np.array([-1500.0, -1502.0])
    out = q_apply_log(model, w, 0, log_phi)
    assert np.all(np.isfinite(out))
    # shifting log phi by a constant shifts the output by the same constant
    out2 = q_apply_log(model, w, 0, log_phi + 1500.0)
    assert np.allclose(out2, out + 1500.0, atol=1e-9)


def test_finite_samplers_match_law():
    model = two_state_model()
    gen = RngStream(5).generator(0, INIT)
    draws = model.sample_initial(200_000, gen)
    freq = np.bincount(draws, minlength=2) / draws.size
    assert np.max(np.abs(freq - model.mu0)) < 0.005

    w = ObservationWindow(0, np.array([0, 0]))
    x = np.zeros(200_000, dtype=np.int64)
    gen = RngStream(6).generator(1, MUTATE)
    nxt = sample_mutation(model, w, 0, x, gen)
    freq = np.bincount(nxt, minlength=2) / nxt.size
    assert np.max(np.abs(freq - model.trans[0])) < 0.005


def test_ar_mutation_moments():
    model = LinearGaussianParams(a=0.9, q=0.25, r_obs=1.0, mu0_var=1.0)
    x = np.full(400_000, 2.0)
    gen = RngStream(8).generator(1, MUTATE)
    nxt = sample_mutation(model, None, 0, x, gen)
    assert abs(nxt.mean() - 1.8) < 0.005
    assert abs(nxt.var() - 0.25) < 0.005



# the unit interval's ends: the least uniform, and the largest double below 1.0
U_ENDS = (0.0, 1.0 - 2.0**-53)


def test_categorical_counts_skip_the_last_column():
    # every CDF row ends at 1.0, which no uniform in [0, 1) exceeds, so the
    # counts without that column equal the full comparison, at both ends of
    # the interval too, and where a row reaches 1.0 or 1 - 2^-53 early
    cdf = np.array([[0.2, 0.5, 0.9, 1.0], [0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0],
                    [0.25, 0.25, U_ENDS[1], 1.0]])
    x = np.tile(np.arange(4), 3)
    for u in U_ENDS:
        u = np.full(x.shape, u)
        want = np.add.reduce(cdf[x] < u[:, None], axis=-1)
        assert np.array_equal(categorical_counts(cdf, x, u), want)
        out = np.full(x.shape, 7, dtype=np.int64)
        assert categorical_counts(cdf, x, u, out) is out and np.array_equal(out, want)
    with pytest.raises(AssertionError):
        categorical_counts(cdf[:, :-1], x[:3], np.zeros(3))


@pytest.mark.parametrize("k", [1, 2, 3, 256, 257, 300])
def test_categorical_counts_tally_any_number_of_states(k):
    # the comparisons are tallied in bytes up to 256 states and in 64-bit
    # integers beyond: the counts are the full comparison's either way, up
    # to k - 1 where a uniform lies above every entry but the last
    rng = np.random.default_rng(k)
    cdf = np.cumsum(rng.random((k, k)), axis=1)
    cdf /= cdf[:, -1:]
    cdf[:, -1] = 1.0
    cdf[0, :-1] = 0.0                       # state 0 always moves to k - 1
    x = np.concatenate([np.zeros(5, np.int64), rng.integers(0, k, 300)])
    u = rng.random(x.shape)
    want = np.add.reduce(cdf[x] < u[:, None], axis=-1)
    assert want[0] == k - 1
    got = categorical_counts(cdf, x, u)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    out = np.empty(x.shape, dtype=np.int64)
    assert categorical_counts(cdf, x, u, out) is out and np.array_equal(out, want)


def test_count_at_or_below_is_searchsorted():
    # initial draws count the CDF entries at or below each uniform: the
    # index of a right-sided search, ties and the interval's ends included
    rng = np.random.default_rng(8)
    for cdf in ([0.1, 0.1 + 0.2, 1.0], [0.0, 0.0, 0.5, 1.0], [0.5, 1.0, 1.0], [1.0]):
        cdf = np.array(cdf)
        u = np.concatenate([rng.random(500), cdf[:-1], np.nextafter(cdf, 0.0), U_ENDS])
        u = u[u < 1.0]
        got = count_at_or_below(cdf, u)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))
