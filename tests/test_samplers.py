import functools

import numpy as np
import pytest

from ebmlab import models as mz
from ebmlab import samplers as sp
from test_models import engine_input_grad, perturbed_params


def quadratic_logp(x):
    """log p~ of E = 0.5|x|^2, per row."""
    return -0.5 * (x * x).sum(axis=1)


def quadratic_grad(x):
    """dE/dx of E = 0.5|x|^2."""
    return x


def quadratic(x):
    """(log p~ per row, dE/dx) of E = 0.5|x|^2."""
    return quadratic_logp(x), quadratic_grad(x)


def sgld_trajectory(grad_fn, x0, cfg, rng):
    """Every state a ``cfg.steps``-step chain visits, x0 included: one-step
    chains on one generator draw the same noise in the same order."""
    one = sp.SgldConfig(steps=1, step_size=cfg.step_size, noise_std=cfg.noise_std)
    traj = [np.array(x0, dtype=np.float64)]
    for _ in range(cfg.steps):
        traj.append(sp.sgld_chain(grad_fn, traj[-1], one, rng))
    return np.asarray(traj)


class TestSgldConfig:
    def test_defaults(self):
        cfg = sp.SgldConfig()
        assert (cfg.steps, cfg.step_size, cfg.noise_std) == (100, 1.0, 0.01)

    def test_validation(self):
        with pytest.raises(sp.SamplerError):
            sp.SgldConfig(steps=-1)
        with pytest.raises(sp.SamplerError):
            sp.SgldConfig(step_size=0.0)
        with pytest.raises(sp.SamplerError):
            sp.SgldConfig(noise_std=-0.1)


class TestSgldChain:
    def test_zero_steps_identity(self):
        x0 = np.array([[1.0, 2.0], [3.0, -1.0]])
        out = sp.sgld_chain(quadratic_grad, x0, sp.SgldConfig(steps=0),
                            np.random.default_rng(0))
        assert np.array_equal(out, x0)

    def test_noiseless_geometric_contraction(self):
        # E = 0.5|x|^2, alpha = 1, sigma = 0: x <- 0.5 x each step
        x0 = np.array([[4.0, -8.0]])
        out = sp.sgld_chain(quadratic_grad, x0,
                            sp.SgldConfig(steps=20, step_size=1.0, noise_std=0.0),
                            np.random.default_rng(0))
        assert np.linalg.norm(out) <= 1e-6 * np.linalg.norm(x0)
        assert np.allclose(out, x0 * 0.5**20)

    def test_stationary_variance_matches_ou(self):
        # small-step OU limit: stationary var ~= sigma^2 / alpha for E = 0.5 x^2
        cfg = sp.SgldConfig(steps=100_000, step_size=0.01, noise_std=0.1)
        rng = np.random.default_rng(7)
        traj = sgld_trajectory(quadratic_grad, np.zeros((1, 1)), cfg, rng)
        samples = traj[10_000:, 0, 0]
        assert samples.var() == pytest.approx(cfg.noise_std**2 / cfg.step_size, rel=0.1)

    def test_record_trajectory_shape(self):
        cfg, rng = sp.SgldConfig(steps=5), np.random.default_rng(0)
        traj = sgld_trajectory(quadratic_grad, np.zeros((2, 3)), cfg, rng)
        assert traj.shape == (6, 2, 3)
        assert np.array_equal(traj[-1], sp.sgld_chain(quadratic_grad, np.zeros((2, 3)), cfg,
                                                      np.random.default_rng(0)))

    def test_nonfinite_init_rejected(self):
        with pytest.raises(sp.SamplerError):
            sp.sgld_chain(quadratic_grad, np.array([[np.nan, 0.0]]),
                          sp.SgldConfig(steps=1), np.random.default_rng(0))

    def test_nonfinite_gradient_reports_step(self):
        def bad(x):
            return 0.5 * np.power(x, -0.5)  # dE/dx of sqrt(x): nan off the domain

        with pytest.raises(sp.SamplerError, match="step 0"):
            sp.sgld_chain(bad, np.array([[-1.0]]),
                          sp.SgldConfig(steps=3, noise_std=0.0), np.random.default_rng(0))

    def test_caller_arrays_left_unchanged(self):
        # the chain updates its own copy of x0 in place and only reads the
        # gradient, which a grad_fn may share between calls
        x0 = np.array([[1.0, -2.0], [0.5, 3.0]])
        g = np.array([[0.25, -1.0], [2.0, 0.5]])
        x0_before, g_before = x0.copy(), g.copy()
        cfg = sp.SgldConfig(steps=3, step_size=0.5, noise_std=0.1)
        out = sp.sgld_chain(lambda x: g, x0, cfg, np.random.default_rng(0))
        assert x0.tobytes() == x0_before.tobytes()
        assert g.tobytes() == g_before.tobytes()
        rng, x = np.random.default_rng(0), x0_before
        for _ in range(cfg.steps):
            x = x - 0.5 * cfg.step_size * g_before
            x = x + cfg.noise_std * rng.normal(size=x.shape)
        assert out.tobytes() == x.tobytes()

    def test_seed_determinism(self):
        cfg = sp.SgldConfig(steps=30)
        a = sp.sgld_chain(quadratic_grad, np.ones((3, 2)), cfg, np.random.default_rng(5))
        b = sp.sgld_chain(quadratic_grad, np.ones((3, 2)), cfg, np.random.default_rng(5))
        assert a.tobytes() == b.tobytes()


class TestClosedFormInputGradient:
    """Chains on ``models.input_grad`` equal chains on the engine's input
    gradient (``test_models.engine_input_grad``), byte for byte."""

    @pytest.mark.parametrize("spec", [
        mz.ModelSpec(input_dim=2, hidden=[16, 16], head="energy"),
        mz.ModelSpec(input_dim=2, hidden=[16, 16], head="logits", n_classes=3,
                     activation="softplus", bottleneck_factor=0.5),
        mz.ModelSpec(input_dim=2, hidden=[64, 64, 64], head="energy"),  # the benchmark's train-cd
    ])
    def test_sgld_endpoints_match_engine(self, spec):
        # train-cd's chain, on parameters whose activations take both branches
        pset = perturbed_params(spec)
        cfg = sp.SgldConfig(steps=30, step_size=1.0, noise_std=0.1)
        x0 = np.random.default_rng(1).uniform(-2.0, 2.0, size=(64, 2))
        fast = sp.sgld_chain(functools.partial(mz.input_grad, spec, pset), x0, cfg,
                             np.random.default_rng(2))
        engine = sp.sgld_chain(functools.partial(engine_input_grad, spec, pset), x0, cfg,
                               np.random.default_rng(2))
        assert fast.tobytes() == engine.tobytes()

    def test_flow_chain_matches_engine(self):
        # a flow's numpy input gradient against the node-by-node graph
        spec = mz.ModelSpec(input_dim=2, head="flow", n_flow_layers=2)
        pset = mz.init_params(spec, 0)
        logp = functools.partial(mz.score_logdensity, spec, pset)
        grad = functools.partial(mz.input_grad, spec, pset)
        x0 = np.random.default_rng(1).normal(size=(8, 2))
        cfg = sp.SgldConfig(steps=5, step_size=0.1, noise_std=0.0)
        out = sp.sgld_chain(grad, x0, cfg, np.random.default_rng(2))
        engine = sp.sgld_chain(functools.partial(engine_input_grad, spec, pset), x0, cfg,
                               np.random.default_rng(2))
        assert out.tobytes() == engine.tobytes()
        # noiseless SGLD descends the energy
        assert np.all(np.isfinite(out))
        assert logp(out).sum() > logp(x0).sum()
        traj = sp.likelihood_ascent(functools.partial(mz.logdensity_and_grad, spec, pset), x0,
                                    steps=3, lr=0.05)
        assert len(traj.logdensity) == 4 and np.all(np.diff(traj.logdensity) > 0)


def box_sampler(rng, n):
    return rng.uniform(-1.0, 1.0, size=(n, 2))


class TestReplayBuffer:
    def test_validation(self):
        with pytest.raises(sp.SamplerError):
            sp.ReplayBuffer(reinit_prob=1.5)
        with pytest.raises(sp.SamplerError):
            sp.ReplayBuffer(capacity=0)

    def test_empty_draw_is_all_fresh(self):
        buf = sp.ReplayBuffer(capacity=10, reinit_prob=0.0, reinit_sampler=box_sampler)
        pts, idx = buf.draw(4, np.random.default_rng(0))
        assert pts.shape == (4, 2)
        assert sorted(idx) == [0, 1, 2, 3]

    def test_reinit_prob_one_always_fresh(self):
        buf = sp.ReplayBuffer(capacity=100, reinit_prob=1.0, reinit_sampler=box_sampler)
        rng = np.random.default_rng(1)
        buf.write(np.arange(50), np.full((50, 2), 7.0))
        pts, _ = buf.draw(20, rng)
        assert np.all(np.abs(pts) <= 1.0)  # never the stored 7s

    def test_reinit_prob_zero_reuses_storage(self):
        buf = sp.ReplayBuffer(capacity=100, reinit_prob=0.0, reinit_sampler=box_sampler)
        rng = np.random.default_rng(2)
        stored = rng.normal(size=(10, 2)) + 5.0
        buf.write(np.arange(10), stored)
        pts, idx = buf.draw(50, rng)
        assert np.all(np.any(np.all(np.isclose(pts[:, None, :], stored[None]), axis=2), axis=1))
        assert np.all(idx < 10)

    def test_fresh_fraction_binomial_band(self):
        buf = sp.ReplayBuffer(capacity=20_000, reinit_prob=0.05, reinit_sampler=box_sampler)
        rng = np.random.default_rng(3)
        buf.write(np.arange(1000), np.full((1000, 2), 9.0))
        pts, _ = buf.draw(10_000, rng)
        n_fresh = int((np.abs(pts).max(axis=1) <= 1.0).sum())
        assert 430 <= n_fresh <= 570  # ~4 sigma around 500

    def test_write_then_draw_round_trip(self):
        buf = sp.ReplayBuffer(capacity=10, reinit_prob=1.0, reinit_sampler=box_sampler)
        rng = np.random.default_rng(4)
        pts, idx = buf.draw(5, rng)
        updated = pts + 100.0
        buf.write(idx, updated)
        buf.reinit_prob = 0.0  # every later draw reads storage
        drawn, slots = buf.draw(200, rng)
        got = np.array([drawn[list(slots).index(i)] for i in idx])
        assert np.array_equal(got, updated)

    def test_write_index_out_of_range(self):
        buf = sp.ReplayBuffer(capacity=4, reinit_prob=1.0, reinit_sampler=box_sampler)
        buf.draw(2, np.random.default_rng(0))
        with pytest.raises(sp.SamplerError):
            buf.write(np.array([4]), np.zeros((1, 2)))

    def test_full_buffer_fresh_overwrites_random_slot(self):
        buf = sp.ReplayBuffer(capacity=5, reinit_prob=1.0, reinit_sampler=box_sampler)
        rng = np.random.default_rng(6)
        buf.write(np.arange(5), np.zeros((5, 2)))
        _, idx = buf.draw(3, rng)
        assert np.all((idx >= 0) & (idx < 5))

    def test_draw_zero_rejected(self):
        buf = sp.ReplayBuffer(reinit_sampler=box_sampler)
        with pytest.raises(sp.SamplerError):
            buf.draw(0, np.random.default_rng(0))

    def test_missing_sampler_rejected(self):
        with pytest.raises(sp.SamplerError):
            sp.ReplayBuffer().draw(1, np.random.default_rng(0))


class TestLikelihoodAscent:
    def test_zero_steps(self):
        x0 = np.array([[2.0, -1.0]])
        traj = sp.likelihood_ascent(quadratic, x0, steps=0, lr=0.1)
        assert traj.logdensity.shape == (1,)
        assert traj.logdensity[0] == pytest.approx(-2.5)

    def test_quadratic_shrink_factor(self):
        # ascent on -0.5|x|^2 at lr 0.1 multiplies x by 0.9 each step
        x0 = np.array([[10.0]])
        traj = sp.likelihood_ascent(quadratic, x0, steps=5, lr=0.1)
        assert np.allclose(traj.logdensity, -0.5 * (10.0 * 0.9 ** np.arange(6)) ** 2)

    def test_logdensity_nondecreasing_for_small_lr(self):
        rng = np.random.default_rng(8)
        ok = 0
        total = 0
        for _ in range(20):
            x0 = rng.normal(size=(1, 3)) * 4.0
            traj = sp.likelihood_ascent(quadratic, x0, steps=30, lr=0.05)
            diffs = np.diff(traj.logdensity)
            ok += int((diffs >= -1e-12).all())
            total += 1
        assert ok / total >= 0.95

    def test_divergence_truncates(self):
        def unstable(x):
            return np.exp(x).sum(axis=1), -np.exp(x)  # logp = sum(exp) blows up

        traj = sp.likelihood_ascent(unstable, np.array([[5.0]]), steps=10_000, lr=10.0)
        assert 1 <= len(traj.logdensity) < 10_001  # stopped early
        assert np.all(np.isfinite(traj.logdensity))

    def test_bad_lr_rejected(self):
        with pytest.raises(sp.SamplerError):
            sp.likelihood_ascent(quadratic, np.zeros((1, 2)), steps=1, lr=0.0)

    @pytest.mark.parametrize("lr", [1e-3, 0.1, 50.0, 1e150])  # 1e150: some runs diverge
    @pytest.mark.parametrize("bottleneck", [None, 0.5])
    @pytest.mark.parametrize("activation", mz.ACTIVATIONS)
    @pytest.mark.parametrize("head", ["energy", "logits", "flow"])
    def test_one_pass_equals_two_calls(self, head, activation, bottleneck, lr):
        # models.logdensity_and_grad's trajectory is the one of
        # score_logdensity plus input_grad, each point's log-density and
        # gradient taken by separate calls, diverging runs included
        if head == "flow":
            spec = mz.ModelSpec(input_dim=3, head="flow", n_flow_layers=3)
        else:
            spec = mz.ModelSpec(input_dim=3, hidden=[16, 12], activation=activation, head=head,
                                n_classes=4 if head == "logits" else None,
                                bottleneck_factor=bottleneck)
        pset = perturbed_params(spec)
        for n in (1, 3):
            x0 = np.random.default_rng(n).normal(size=(n, 3)) * 2.0
            with np.errstate(all="ignore"):
                got = sp.likelihood_ascent(functools.partial(mz.logdensity_and_grad, spec, pset),
                                           x0, steps=40, lr=lr)
                want = two_call_ascent(functools.partial(mz.score_logdensity, spec, pset),
                                       functools.partial(mz.input_grad, spec, pset), x0, 40, lr)
            assert got.logdensity.tobytes() == want.tobytes(), n


def two_call_ascent(logp_fn, grad_fn, x, steps, lr):
    """The log-densities of the ascent on log p~ with the log-density and
    the gradient of each visited batch taken by separate calls."""
    logps = [logp_fn(x).sum()]
    for _ in range(steps):
        g = grad_fn(x)
        if not np.all(np.isfinite(g)):
            break
        x = x - lr * g
        logp = logp_fn(x).sum()
        if not np.isfinite(logp):
            break
        logps.append(logp)
    return np.asarray(logps)
