import numpy as np
import pytest

from repro.sim.rng import RngStreams


class TestRngStreams:
    def test_same_name_same_stream(self):
        r = RngStreams(7)
        s = r.stream("a")
        assert r.stream("a") is s

    def test_determinism_across_instances(self):
        a = RngStreams(7).stream("x").random(5)
        b = RngStreams(7).stream("x").random(5)
        assert np.allclose(a, b)

    def test_different_names_independent(self):
        r = RngStreams(7)
        a = r.stream("x").random(5)
        b = r.stream("y").random(5)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").random(5)
        b = RngStreams(2).stream("x").random(5)
        assert not np.allclose(a, b)

    def test_adding_stream_does_not_perturb_existing(self):
        r1 = RngStreams(7)
        _ = r1.stream("a").random(3)
        first = r1.stream("a").random(3)

        r2 = RngStreams(7)
        _ = r2.stream("a").random(3)
        _ = r2.stream("b").random(100)  # new consumer in between
        second = r2.stream("a").random(3)
        assert np.allclose(first, second)

    def test_lognormal_factor_mean_one(self):
        r = RngStreams(42)
        draws = [r.lognormal_factor("jitter", 0.35) for _ in range(20000)]
        assert abs(np.mean(draws) - 1.0) < 0.02

    def test_lognormal_sigma_zero_is_exact_one(self):
        r = RngStreams(42)
        assert r.lognormal_factor("x", 0.0) == 1.0
        assert r.lognormal_factor("x", -1.0) == 1.0

    def test_lognormal_positive(self):
        r = RngStreams(3)
        assert all(r.lognormal_factor("j", 1.0) > 0 for _ in range(100))


class TestBlockDraws:
    """Jitter is drawn ``RngStreams.BLOCK`` factors at a time; the sequence
    must be the scalar one, draw for draw.  If a numpy upgrade breaks the
    equality of one ``size=n`` call and ``n`` scalar calls, this fails —
    and every jittered timing of the simulator would move with it."""

    @pytest.mark.parametrize("seed", [0, 2016, 31337])
    def test_block_draws_are_the_scalar_sequence(self, seed):
        sigma = 0.3
        mu = -0.5 * sigma * sigma
        n = 3 * RngStreams.BLOCK + 17  # across refills
        scalar = RngStreams(seed).stream("srv0.rpc")
        want = [float(scalar.lognormal(mu, sigma)) for _ in range(n)]
        draw = RngStreams(seed).lognormal_fn("srv0.rpc", sigma)
        assert [draw() for _ in range(n)] == want

    def test_every_drawer_of_a_name_shares_one_buffer(self):
        sigma = 0.35
        one = RngStreams(7)
        want = [one.lognormal_fn("srv1.raid.jitter", sigma)() for _ in range(600)]
        two = RngStreams(7)
        drawers = [two.lognormal_fn("srv1.raid.jitter", sigma) for _ in range(2)]
        drawers.append(lambda: two.lognormal_factor("srv1.raid.jitter", sigma))
        # Interleaved: two cached callables and the per-call form.
        assert [drawers[i % 3]() for i in range(600)] == want
        other = RngStreams(7).lognormal_fn("srv2.raid.jitter", sigma)
        assert [other() for _ in range(5)] != want[:5]  # names keep their own
