import numpy as np

from twistpf.rng import INIT, MUTATE, RESAMPLE, SIMULATE, TWIST, RngStream


def _same_state(g1, g2) -> bool:
    a, b = g1.bit_generator.state, g2.bit_generator.state
    return (all(np.array_equal(a["state"][f], b["state"][f]) for f in ("counter", "key"))
            and np.array_equal(a["buffer"], b["buffer"])
            and all(a[f] == b[f] for f in ("buffer_pos", "has_uint32", "uinteger")))


def test_purpose_codes_distinct():
    assert len({INIT, RESAMPLE, MUTATE, TWIST, SIMULATE}) == 5


def test_same_coordinates_same_draws():
    a = RngStream(7, 3).generator(5, RESAMPLE).random(8)
    b = RngStream(7, 3).generator(5, RESAMPLE).random(8)
    assert np.array_equal(a, b)


def test_distinct_coordinates_differ():
    base = RngStream(7, 3).generator(5, RESAMPLE).random(4)
    for stream, step, purpose in [
        (RngStream(8, 3), 5, RESAMPLE),
        (RngStream(7, 4), 5, RESAMPLE),
        (RngStream(7, 3), 6, RESAMPLE),
        (RngStream(7, 3), 5, MUTATE),
    ]:
        assert not np.array_equal(base, stream.generator(step, purpose).random(4))


def test_replicate_order_independence():
    # drawing replicate 5 then 2 gives the same numbers as 2 then 5
    a5 = RngStream(11, 5).generator(1, MUTATE).random(6)
    a2 = RngStream(11, 2).generator(1, MUTATE).random(6)
    b2 = RngStream(11, 2).generator(1, MUTATE).random(6)
    b5 = RngStream(11, 5).generator(1, MUTATE).random(6)
    assert np.array_equal(a5, b5)
    assert np.array_equal(a2, b2)


def test_session_matches_fresh_generators():
    s = RngStream(42, 1)
    ss = RngStream(42, 1).session()
    for step, purpose in [(0, INIT), (1, RESAMPLE), (1, MUTATE), (1, TWIST), (2, RESAMPLE)]:
        assert np.array_equal(
            s.generator(step, purpose).random(5),
            ss.generator(step, purpose).random(5),
        )


def test_session_matches_integer_draws():
    s = RngStream(42, 1)
    ss = RngStream(42, 1).session()
    g1 = s.generator(3, TWIST)
    g2 = ss.generator(3, TWIST)
    a = [int(g1.integers(1000)) for _ in range(4)] + list(g1.random(3))
    b = [int(g2.integers(1000)) for _ in range(4)] + list(g2.random(3))
    assert a == b


def test_session_reset_clears_buffered_state():
    # a partially consumed generator must not leak into the next purpose,
    # whether it stopped inside a 64-bit block or holds a spare 32-bit half
    for root, rep in ((42, 1), (2**64 - 1, 2**63)):
        s = RngStream(root, rep)
        ss = RngStream(root, rep).session()
        for n_used in range(1, 6):
            s.generator(4, RESAMPLE).random(n_used)
            ss.generator(4, RESAMPLE).random(n_used)
            ss.generator(4, TWIST).integers(0, 2**31, size=n_used, dtype=np.uint32)
            g1, g2 = s.generator(4, MUTATE), ss.generator(4, MUTATE)
            assert _same_state(g1, g2)
            assert np.array_equal(g1.standard_normal(5), g2.standard_normal(5))
            assert np.array_equal(g1.integers(0, 10, size=6), g2.integers(0, 10, size=6))


def test_large_seeds_wrap():
    big = 2**70 + 5
    a = RngStream(big).generator(0, INIT).random(2)
    b = RngStream(big % 2**64).generator(0, INIT).random(2)
    assert np.array_equal(a, b)


def test_session_matches_fresh_generators_at_extreme_coordinates():
    # the largest key words, every purpose, many steps and each draw kind,
    # including resets after a partly consumed buffer
    root, rep = 2**64 - 1, 2**63
    s = RngStream(root, rep)
    ss = RngStream(root, rep).session()
    steps = list(range(40)) + [2**32 - 1, 2**32, 2**63, 2**64 - 1]
    for step in steps:
        for purpose in (INIT, RESAMPLE, MUTATE, TWIST, SIMULATE):
            g1, g2 = s.generator(step, purpose), ss.generator(step, purpose)
            assert np.array_equal(g1.random(3), g2.random(3))
            assert np.array_equal(g1.integers(0, 2**40, size=3), g2.integers(0, 2**40, size=3))
            assert int(g1.integers(7)) == int(g2.integers(7))
            assert np.array_equal(g1.standard_normal(5), g2.standard_normal(5))
            assert _same_state(g1, g2)

