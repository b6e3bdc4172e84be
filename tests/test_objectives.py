import itertools
import math
import warnings
from functools import partial

import numpy as np
import pytest

from ebmlab import autodiff as ad
from ebmlab import models as mz
from ebmlab import objectives as obj
from ebmlab import rng as rngmod
from ebmlab import training as tr
from test_autodiff import engine_log, engine_ssm_vr_loss


def quadratic_energy(x):
    # E(x) = 0.5 |x|^2 per row
    return ad.mul(0.5, ad.reduce_sum(ad.mul(x, x), axis=1))


class TestSsmVr:
    def test_standard_normal_closed_form(self):
        # s = -x so the loss is -D + 0.5|x|^2 regardless of v in {-1,1}^D
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 4))
        v = rngmod.rademacher(rng, x.shape)
        loss = engine_ssm_vr_loss(quadratic_energy, x, v)
        expected = -4.0 + 0.5 * (x**2).sum(axis=1).mean()
        assert loss.value == pytest.approx(expected, abs=1e-12)

    def test_scalar_quadratic_point(self):
        # E = x^2 at x = 1/sqrt(2): -2 + 0.5*(2x)^2 = -1
        def e(x):
            return ad.mul(x, x)

        x = np.array([[1.0 / math.sqrt(2.0)]])
        loss = engine_ssm_vr_loss(e, x, np.array([[1.0]]))
        assert loss.value == pytest.approx(-1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        spec = mz.ModelSpec(input_dim=2, hidden=[3], activation="softplus")
        pset = mz.init_params(spec, 0)
        with pytest.raises(obj.ObjectiveError):
            obj.ssm_vr_loss(spec, pset, np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(obj.ObjectiveError):
            obj.ssm_vr_loss(spec, pset, np.zeros(2), np.zeros(2))
        flow = mz.ModelSpec(input_dim=2, head="flow", n_flow_layers=1)
        with pytest.raises(obj.ObjectiveError, match="energy or logits head"):
            obj.ssm_vr_loss(flow, mz.init_params(flow, 0), np.zeros((3, 2)), np.zeros((3, 2)))

    def test_against_finite_difference_oracle(self):
        # independent evaluation: finite differences of the score field
        spec = mz.ModelSpec(input_dim=3, hidden=[6, 6], activation="softplus", head="energy")
        pset = mz.init_params(spec, 11)

        def energy_np(x):
            return mz.energy(spec, mz.param_nodes(pset), x).value

        def score_np(x):
            h = 1e-5
            g = np.zeros_like(x)
            for j in range(x.shape[1]):
                e = np.zeros_like(x)
                e[:, j] = h
                g[:, j] = (energy_np(x + e) - energy_np(x - e)) / (2 * h)
            return -g

        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 3))
        v = rngmod.rademacher(rng, x.shape)
        h = 1e-5
        jvp = (score_np(x + h * v) - score_np(x - h * v)) / (2 * h)
        expected = ((jvp * v).sum(axis=1) + 0.5 * (score_np(x) ** 2).sum(axis=1)).mean()

        loss, _ = obj.ssm_vr_loss(spec, pset, x, v)
        assert loss == pytest.approx(expected, abs=1e-5)

    def test_rademacher_expectation_matches_trace(self):
        # E_v[-v^T H v] = -tr(H) for Rademacher v: the Monte Carlo mean of
        # the loss approaches -tr(H) + 0.5|dE/dx|^2
        spec = mz.ModelSpec(input_dim=2, hidden=[4], activation="softplus", head="energy")
        pset = mz.init_params(spec, 3)
        energy_fn = partial(mz.energy, spec, mz.param_nodes(pset))
        x = np.array([[0.4, -0.7]])

        # exact Hessian diagonal from two nested input gradients
        xn = ad.leaf(x)
        (g,) = ad.grad(ad.reduce_sum(energy_fn(xn)), [xn])
        trace = 0.0
        for j in range(2):
            (hj,) = ad.grad(ad.reduce_sum(ad.mul(g, np.eye(2)[j])), [xn])
            trace += float(hj.value[0, j])
        exact = -trace + 0.5 * float((g.value ** 2).sum())

        rng = np.random.default_rng(71)
        n = 100_000
        v = rngmod.rademacher(rng, (n, 2))
        xx = np.repeat(x, n, axis=0)
        empirical, _ = obj.ssm_vr_loss(spec, pset, xx, v)
        assert abs(empirical - exact) / max(abs(trace), 1e-12) < 0.02

    def test_parameter_gradient_matches_fd(self):
        spec = mz.ModelSpec(input_dim=2, hidden=[2], activation="softplus", head="energy")
        pset = mz.init_params(spec, 8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 2))
        v = rngmod.rademacher(rng, x.shape)

        _, flat = obj.ssm_vr_loss(spec, pset, x, v)

        def loss_at(values):
            q = pset.copy()
            q.values[:] = values
            return obj.ssm_vr_loss(spec, q, x, v)[0]

        h = 1e-5
        for i in range(pset.values.size):
            vp = pset.values.copy()
            vp[i] += h
            vm = pset.values.copy()
            vm[i] -= h
            fd = (loss_at(vp) - loss_at(vm)) / (2 * h)
            assert flat[i] == pytest.approx(fd, abs=1e-4)


class TestCdLoss:
    def test_hand_case(self):
        # E = sum(x): mean data energy 2, mean sample energy 5
        def e(x):
            return ad.reduce_sum(x, axis=1)

        loss = obj.cd_loss(e, np.array([[1.0, 1.0], [2.0, 1.0]]), np.array([[2.0, 3.0]]))
        assert loss.value == pytest.approx(2.5 - 5.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(obj.ObjectiveError):
            obj.cd_loss(quadratic_energy, np.zeros((0, 2)), np.zeros((3, 2)))

    def test_feature_mismatch_rejected(self):
        with pytest.raises(obj.ObjectiveError):
            obj.cd_loss(quadratic_energy, np.zeros((2, 2)), np.zeros((2, 3)))

    def test_translation_invariance(self):
        spec = mz.ModelSpec(input_dim=2, hidden=[5], head="energy")
        pset = mz.init_params(spec, 2)
        energy_fn = partial(mz.energy, spec, mz.param_nodes(pset))
        rng = np.random.default_rng(4)
        xd = rng.normal(size=(6, 2))
        xs = rng.normal(size=(6, 2))
        c = np.array([3.0, -1.0])

        def shifted(x):
            return energy_fn(ad.add(x, ad.constant(c)))

        a = obj.cd_loss(energy_fn, xd + c, xs + c)
        b = obj.cd_loss(shifted, xd, xs)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_precision_gradient_identity(self):
        # E(x) = theta * x^2: dL/dtheta = mean(xd^2) - mean(xs^2)
        theta = ad.leaf(np.asarray(0.7))

        def e(x):
            return ad.mul(theta, ad.reduce_sum(ad.mul(x, x), axis=1))

        rng = np.random.default_rng(6)
        xd = rng.normal(size=(50, 1))
        xs = rng.normal(size=(50, 1)) * 2.0
        loss = obj.cd_loss(e, xd, xs)
        (g,) = ad.grad(loss, [theta])
        assert g.value == pytest.approx((xd**2).mean() - (xs**2).mean(), abs=1e-12)

    def test_exact_sampler_recovers_precision(self):
        # data ~ N(0,1), E = theta*x^2 so the model is N(0, 1/(2*theta));
        # with exact sampling, gradient descent should drive theta to 0.5
        rng = np.random.default_rng(12)
        xd_all = rng.normal(size=(4000, 1))
        theta = 2.0
        lr = 0.05
        for step in range(300):
            t = ad.leaf(np.asarray(theta))

            def e(x, t=t):
                return ad.mul(t, ad.reduce_sum(ad.mul(x, x), axis=1))

            xd = xd_all[rng.integers(0, len(xd_all), size=128)]
            xs = rng.normal(size=(128, 1)) * math.sqrt(1.0 / (2.0 * theta))
            (g,) = ad.grad(obj.cd_loss(e, xd, xs), [t])
            theta = max(theta - lr * float(g.value), 1e-3)
        assert 0.35 < theta < 0.65


class TestCeLoss:
    def test_uniform_logits(self):
        logits = ad.constant(np.zeros((4, 3)))
        assert obj.ce_loss(logits, np.array([0, 1, 2, 0])).value == pytest.approx(math.log(3.0))

    def test_confident_correct(self):
        logits = ad.constant(np.array([[10.0, 0.0]]))
        assert obj.ce_loss(logits, np.array([0])).value == pytest.approx(
            math.log(1.0 + math.exp(-10.0)), rel=1e-12
        )

    def test_label_out_of_range(self):
        with pytest.raises(obj.ObjectiveError):
            obj.ce_loss(ad.constant(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(1)
        l = rng.normal(size=(5, 4))
        labels = np.array([0, 1, 2, 3, 1])
        logits = ad.leaf(l)
        (g,) = ad.grad(obj.ce_loss(logits, labels), [logits])
        p = np.exp(l - l.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        onehot = np.eye(4)[labels]
        assert np.allclose(g.value, (p - onehot) / 5.0, atol=1e-12)


class TestFlowNll:
    def test_identity_flow_is_gaussian_nll(self):
        spec = mz.ModelSpec(input_dim=2, head="flow", n_flow_layers=2)
        pset = mz.init_params(spec, 0)
        x = np.random.default_rng(0).normal(size=(8, 2))
        expected = (0.5 * (x**2).sum(axis=1) + math.log(2 * math.pi)).mean()
        nll, grad = obj.flow_nll(spec, pset, x)
        assert nll == pytest.approx(expected, abs=1e-9)
        assert grad.shape == (pset.size,)

    def test_gradient_matches_fd(self):
        spec = mz.ModelSpec(input_dim=1, head="flow", n_flow_layers=1)
        pset = mz.init_params(spec, 7)
        x = np.array([[0.3], [-1.2], [2.0]])
        _, flat = obj.flow_nll(spec, pset, x)
        h = 1e-6
        for i in range(pset.values.size):
            vp = pset.copy()
            vp.values[i] += h
            vm = pset.copy()
            vm.values[i] -= h
            fd = (obj.flow_nll(spec, vp, x)[0] - obj.flow_nll(spec, vm, x)[0]) / (2 * h)
            assert flat[i] == pytest.approx(fd, abs=1e-4)

    def test_mlp_head_rejected(self):
        spec = mz.ModelSpec(input_dim=2, hidden=[4])
        with pytest.raises(obj.ObjectiveError, match="flow_nll requires a flow head"):
            obj.flow_nll(spec, mz.init_params(spec, 0), np.zeros((1, 2)))


def jem_case(rng, n_classes=3):
    """A random small logits-head MLP, its parameters, a batch and labels."""
    d = int(rng.integers(1, 4))
    spec = mz.ModelSpec(input_dim=d, hidden=[int(h) for h in rng.integers(1, 9, size=2)],
                        head="logits", n_classes=n_classes)
    pset = mz.init_params(spec, int(rng.integers(1000)))
    n = int(rng.integers(1, 9))
    return spec, pset, rng.normal(size=(n, d)), rng.integers(0, n_classes, size=n)


class TestJemLoss:
    def test_arithmetic(self):
        spec, pset, x, labels = jem_case(np.random.default_rng(0))
        pset.values[:] = 0.0  # every logit 0: CE = log 3
        loss, _ = obj.jem_term(spec, pset, x, labels, gamma=2.0)
        assert loss == pytest.approx(2.0 * math.log(3.0), abs=1e-9)

    def test_gamma_zero_gives_a_zero_term(self):
        loss, grad = obj.jem_term(*jem_case(np.random.default_rng(1)), 0.0)
        assert loss == 0.0 and not grad.any()

    def test_negative_gamma_rejected(self):
        with pytest.raises(obj.ObjectiveError):
            obj.jem_term(*jem_case(np.random.default_rng(2)), -1.0)

    def test_affine_in_gamma(self):
        case = jem_case(np.random.default_rng(2))
        (l1, g1), (l2, g2) = (obj.jem_term(*case, gamma) for gamma in (1.0, 2.0))
        assert l2 == pytest.approx(2.0 * l1, abs=1e-12)
        assert np.allclose(g2, 2.0 * g1, rtol=0, atol=1e-12)

    def test_logits_head_energy_is_neg_logsumexp(self):
        spec = mz.ModelSpec(input_dim=2, hidden=[4], head="logits", n_classes=3)
        pset = mz.init_params(spec, 5)
        x = np.random.default_rng(3).normal(size=(4, 2))
        leaves = mz.param_nodes(pset)
        e = mz.energy(spec, leaves, ad.constant(x)).value
        logits = mz.mlp_forward(spec, leaves, x)[0].value
        m = logits.max(axis=1)
        assert np.allclose(e, -(m + np.log(np.exp(logits - m[:, None]).sum(axis=1))), atol=1e-12)


def ssm_case(rng, n_classes, activation, bottleneck, depth, n):
    """A random MLP of ``depth`` hidden layers (an energy head, or a logits
    head of ``n_classes``), perturbed parameters, a batch of ``n`` rows and
    Rademacher projections."""
    d = int(rng.integers(1, 4))
    spec = mz.ModelSpec(input_dim=d, hidden=[int(h) for h in rng.integers(1, 20, size=depth)],
                        activation=activation, head="logits" if n_classes else "energy",
                        n_classes=n_classes, bottleneck_factor=bottleneck)
    pset = mz.init_params(spec, int(rng.integers(1000)))
    pset.values += 0.3 * rng.normal(size=pset.size)
    x = rng.normal(size=(n, d))
    return spec, pset, x, rngmod.rademacher(rng, x.shape)


def engine_ssm_step(spec, pset, x, v):
    """The loss and flat parameter gradient of the SSM-VR engine graph."""
    leaves = mz.param_nodes(pset)
    node = engine_ssm_vr_loss(partial(mz.energy, spec, leaves), x, v)
    return float(node.value), obj._param_grads(node, leaves)


def assert_same_step(got, want, case=""):
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes(), case
    assert got[1].tobytes() == want[1].tobytes(), case


class TestSsmOracle:
    """The numpy ``ssm_vr_loss`` equals the engine graph it replaces, loss
    and flat gradient, byte for byte: forward, score, Hessian-vector pass
    and the parameter backward through all three."""

    @pytest.mark.parametrize("activation", mz.ACTIVATIONS)
    @pytest.mark.parametrize("n_classes", [None, 2, 3, 4])
    def test_equals_engine(self, n_classes, activation):
        rng = np.random.default_rng([n_classes or 0, mz.ACTIVATIONS.index(activation)])
        for case in itertools.product([None, 0.5, 1.0], [0, 1, 2, 3], [1, 2, 64]):
            spec, pset, x, v = ssm_case(rng, n_classes, activation, *case)
            assert_same_step(obj.ssm_vr_loss(spec, pset, x, v), engine_ssm_step(spec, pset, x, v),
                             case)

    def test_equals_engine_at_suite_size(self):
        # the suite-mix ssm run's model and batch: 64-wide GEMMs
        spec = mz.ModelSpec(input_dim=2, hidden=[64, 64, 64], activation="softplus")
        pset = mz.init_params(spec, 3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(64, 2))
        v = rngmod.rademacher(rng, x.shape)
        assert_same_step(obj.ssm_vr_loss(spec, pset, x, v), engine_ssm_step(spec, pset, x, v))

    def test_builds_no_graph(self, monkeypatch):
        spec, pset, x, v = ssm_case(np.random.default_rng(5), 3, "softplus", 0.5, 2, 4)
        monkeypatch.setattr(ad.Node, "__init__", lambda *a, **k: pytest.fail("built a node"))
        obj.ssm_vr_loss(spec, pset, x, v)


class TestJemSplit:
    """The JEM term as one addend equals the engine's composite graph
    base + gamma * CE, loss and flat gradient, byte for byte."""

    @staticmethod
    def composite(spec, pset, x, labels, gamma, base):
        leaves = mz.param_nodes(pset)
        node = ad.add(base(partial(mz.energy, spec, leaves)), ad.mul(
            gamma, obj.ce_loss(mz.mlp_forward(spec, leaves, x)[0], labels)))
        return float(node.value), obj._param_grads(node, leaves)

    @staticmethod
    def split(spec, pset, x, labels, gamma, base):
        loss, grad = base
        term, term_grad = obj.jem_term(spec, pset, x, labels, gamma)
        return loss + term, grad + term_grad

    @pytest.mark.parametrize("objective", ["ssm", "cd"])
    def test_equals_composite_graph(self, objective):
        rng = np.random.default_rng(["ssm", "cd"].index(objective))
        for i in range(40):
            n_classes = int(rng.integers(2, 5))
            case = (rng.choice([None, 0.5, 1.0]), int(rng.integers(1, 4)),
                    int(rng.choice([1, 2, 64])))
            spec, pset, x, v = ssm_case(rng, n_classes, rng.choice(mz.ACTIVATIONS), *case)
            labels, gamma = rng.integers(0, n_classes, size=len(x)), float(rng.uniform(0.1, 3))
            if objective == "ssm":
                graph = partial(engine_ssm_vr_loss, x=x, v=v)
                base = obj.ssm_vr_loss(spec, pset, x, v)
            else:
                samples = rng.normal(size=x.shape)
                graph = partial(obj.cd_loss, x_data=x, x_samples=samples)
                leaves = mz.param_nodes(pset)
                node = obj.cd_loss(partial(mz.energy, spec, leaves), x, samples)
                base = float(node.value), obj._param_grads(node, leaves)
            assert_same_step(self.split(spec, pset, x, labels, gamma, base),
                             self.composite(spec, pset, x, labels, gamma, graph), i)


class TestCeOracle:
    """CE's step in the training loop, the JEM term at weight 1 plus the
    weight decay, equals ``ad.grad`` of the bare CE graph plus the decay,
    loss and flat gradient, byte for byte."""

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("activation", mz.ACTIVATIONS)
    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    def test_equals_engine(self, n_classes, activation, weight_decay):
        rng = np.random.default_rng([n_classes, mz.ACTIVATIONS.index(activation)])
        config = tr.RunConfig(objective="ce", data={"kind": "two_moons"},
                              activation=activation, weight_decay=weight_decay)
        for case in itertools.product([None, 0.5, 1.0], [0, 1, 2, 3], [1, 2, 64]):
            spec, pset, x, _ = ssm_case(rng, n_classes, activation, *case)
            labels = rng.integers(0, n_classes, size=len(x))
            leaves = mz.param_nodes(pset)
            node = obj.ce_loss(mz.mlp_forward(spec, leaves, x)[0], labels)
            grad = obj._param_grads(node, leaves)
            want = float(node.value), grad + weight_decay * pset.values if weight_decay else grad
            step = tr._objective(config, spec, pset, x, np.random.default_rng(0))
            assert_same_step(step(x, labels), want, case)


def linear_gen_setup(d=2, latent=2, noise_std=0.1, k=50, seed=0, **cfg_kw):
    cfg = obj.VeraConfig(
        latent_dim=latent, gen_noise_std=noise_std, n_posterior_samples=k, **cfg_kw
    )
    gen_spec = mz.ModelSpec(input_dim=latent, hidden=[], head="vector", n_outputs=d)
    gen_params = mz.init_params(gen_spec, seed)
    spec = mz.ModelSpec(input_dim=d, hidden=[8], head="energy")
    return spec, mz.init_params(spec, seed + 1), gen_spec, gen_params, cfg


def vera_draws(rng, n, d, cfg):
    """z, eps and xi as ``vera_step`` draws them from ``rng``, in its order."""
    return (rng.normal(size=(n, cfg.latent_dim)), rng.normal(size=(n, d)),
            rng.normal(size=(n, cfg.n_posterior_samples, cfg.latent_dim)))


def generated(gen_spec, gen_pset, z, eps, cfg):
    """``vera_step``'s generated rows x_gen = g(z) + s * eps."""
    return mz.mlp_forward(gen_spec, mz.param_nodes(gen_pset), z)[0].value + cfg.gen_noise_std * eps


def vera_fields(step):
    return (np.float64(step.ebm_loss).tobytes(), step.ebm_grad.tobytes(), step.gen_grad.tobytes(),
            step.eta, step.n_skipped)


class TestVera:
    def test_eta_clamped_to_range(self):
        spec, pset, gen_spec, gen_params, cfg = linear_gen_setup()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 2))
        step = obj.vera_step(spec, pset, gen_spec, gen_params, x, cfg, eta=0.5, rng=rng)
        assert step.eta == pytest.approx(cfg.eta_max)
        rng = np.random.default_rng(0)
        step = obj.vera_step(spec, pset, gen_spec, gen_params, x, cfg, eta=0.001, rng=rng)
        assert step.eta >= cfg.eta_min

    def test_ebm_loss_matches_cd_with_generator_samples(self):
        spec, pset, gen_spec, gen_params, cfg = linear_gen_setup()
        x = np.random.default_rng(1).normal(size=(16, 2))
        step = obj.vera_step(spec, pset, gen_spec, gen_params, x, cfg, eta=0.1,
                             rng=np.random.default_rng(2))
        z, eps, _ = vera_draws(np.random.default_rng(2), 16, 2, cfg)
        assert_same_step((step.ebm_loss, step.ebm_grad),
                         obj._cd_step(spec, pset, x, generated(gen_spec, gen_params, z, eps, cfg)))

    def test_score_estimate_against_linear_gaussian(self):
        # g(z) = Az gives x ~ N(0, A A^T + s^2 I); the marginal score is
        # -(A A^T + s^2 I)^{-1} x, so the estimated score should mostly
        # point the same way
        spec, pset, gen_spec, gen_params, cfg = linear_gen_setup(
            k=200, noise_std=0.5, eta_max=0.5
        )
        A = np.array([[1.0, 0.3], [-0.2, 0.8]])
        gen_params.arrays()["head.W"][:] = A.T  # row-vector convention: x = z @ A^T + b
        gen_params.arrays()["head.b"][:] = 0.0
        cov = A @ A.T + cfg.gen_noise_std**2 * np.eye(2)
        prec = np.linalg.inv(cov)

        hits = 0
        total = 0
        for trial in range(10):
            z, eps, xi = vera_draws(np.random.default_rng(100 + trial), 10, 2, cfg)
            x_gen = generated(gen_spec, gen_params, z, eps, cfg)
            est, finite, _ = obj._posterior(gen_spec, gen_params.arrays(), z, xi, x_gen, 0.5, cfg)
            assert finite.all()
            analytic = -(x_gen @ prec.T)
            cos = (est * analytic).sum(axis=1) / (
                np.linalg.norm(est, axis=1) * np.linalg.norm(analytic, axis=1) + 1e-12
            )
            hits += (cos > 0).sum()
            total += len(cos)
        assert hits / total >= 0.9

    def test_generator_loss_gradient_finite(self):
        spec, pset, gen_spec, gen_params, cfg = linear_gen_setup()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 2))
        step = obj.vera_step(spec, pset, gen_spec, gen_params, x, cfg, eta=0.1, rng=rng)
        assert step.ebm_grad.shape == (pset.size,) and step.gen_grad.shape == (gen_params.size,)
        assert np.all(np.isfinite(step.ebm_grad)) and np.all(np.isfinite(step.gen_grad))

    def test_eta_takes_one_ascent_step_on_the_mean_log_mean_weight(self):
        """Away from its clamps, eta moves by ``eta_lr`` times the slope in
        eta of the mean log-mean importance weight, taken by a central
        difference on the step's own z, eps and xi draws."""
        d, latent, k, n, eta = 2, 3, 5, 8, 0.1
        cfg = obj.VeraConfig(latent_dim=latent, n_posterior_samples=k, eta_min=1e-6, eta_max=1e6)
        gen_spec = mz.ModelSpec(input_dim=latent, hidden=[16, 16], activation="softplus",
                                head="vector", n_outputs=d)
        gen_params = mz.init_params(gen_spec, 0)
        spec = mz.ModelSpec(input_dim=d, hidden=[8], head="energy")
        x = np.random.default_rng(5).normal(size=(n, d))
        step = obj.vera_step(spec, mz.init_params(spec, 1), gen_spec, gen_params,
                             x, cfg, eta=eta, rng=np.random.default_rng(6))
        assert step.n_skipped == 0

        z, eps, xi = vera_draws(np.random.default_rng(6), n, d, cfg)
        leaves = mz.param_nodes(gen_params)

        def generate(latents):
            return mz.mlp_forward(gen_spec, leaves, latents.reshape(-1, latent))[0].value

        x_gen = generate(z) + cfg.gen_noise_std * eps
        var, log_2pi = cfg.gen_noise_std**2, math.log(2.0 * math.pi)

        def mean_log_mean_weight(e):
            zk = z[:, None, :] + e * xi
            resid = x_gen[:, None, :] - generate(zk).reshape(n, k, d)
            log_lik = -0.5 * (resid**2).sum(axis=2) / var - 0.5 * d * (log_2pi + math.log(var))
            log_prior = -0.5 * (zk**2).sum(axis=2) - 0.5 * latent * log_2pi
            log_q = -0.5 * (xi**2).sum(axis=2) - 0.5 * latent * log_2pi - latent * math.log(e)
            log_w = log_lik + log_prior - log_q
            top = log_w.max(axis=1)
            return float(np.mean(np.log(np.exp(log_w - top[:, None]).mean(axis=1)) + top))

        h = 1e-6
        slope = (mean_log_mean_weight(eta + h) - mean_log_mean_weight(eta - h)) / (2 * h)
        assert abs(cfg.eta_lr * slope) > 1e-3  # a step well clear of rounding
        assert step.eta - eta == pytest.approx(cfg.eta_lr * slope, rel=1e-6)

    def test_deterministic_given_rng(self):
        spec, pset, gen_spec, gen_params, cfg = linear_gen_setup()
        x = np.random.default_rng(4).normal(size=(8, 2))
        s1 = obj.vera_step(spec, pset, gen_spec, gen_params, x, cfg,
                           eta=0.1, rng=np.random.default_rng(9))
        s2 = obj.vera_step(spec, pset, gen_spec, gen_params, x, cfg,
                           eta=0.1, rng=np.random.default_rng(9))
        assert vera_fields(s1) == vera_fields(s2)


def engine_vera_step(spec, pset, generator, gen_pset, x_data, cfg, eta, rng):
    """``obj.vera_step`` with its posterior pass and eta slope built on the
    engine: z_k = z + eta*xi on an eta leaf, the generator's graph on the
    n*k rows, log w, and ``ad.grad`` of the masked mean log-mean weight.
    Returns the step, the generated rows, the score estimate, the slope's
    node (None when every row is skipped) and eta's unclamped step."""
    x_data = np.asarray(x_data, dtype=np.float64)
    n, d = x_data.shape
    k = cfg.n_posterior_samples
    z, eps, xi = vera_draws(rng, n, d, cfg)

    gen_leaves = mz.param_nodes(gen_pset)
    g_z, _ = mz.mlp_forward(generator, gen_leaves, z)
    x_gen = ad.add(g_z, ad.constant(cfg.gen_noise_std * eps))
    x_gen_val = x_gen.value
    leaves = mz.param_nodes(pset)
    energy_theta = partial(mz.energy, spec, leaves)
    ebm_loss = obj.cd_loss(energy_theta, x_data, x_gen_val)

    eta_leaf = ad.leaf(np.asarray(eta))
    zk = ad.add(ad.constant(z[:, None, :]), ad.mul(eta_leaf, ad.constant(xi)))
    zk_flat = ad.reshape(zk, (n * k, cfg.latent_dim))
    g_zk, _ = mz.mlp_forward(generator, gen_leaves, zk_flat)
    var_x = cfg.gen_noise_std**2
    x_rep = np.repeat(x_gen_val, k, axis=0)
    resid = ad.add(ad.constant(x_rep), ad.neg(g_zk))
    ll_x = ad.add(
        ad.mul(-0.5 / var_x, ad.reduce_sum(ad.mul(resid, resid), axis=1)),
        -0.5 * d * math.log(2.0 * math.pi * var_x),
    )
    lp_prior = ad.add(
        ad.mul(-0.5, ad.reduce_sum(ad.mul(zk_flat, zk_flat), axis=1)),
        -0.5 * cfg.latent_dim * math.log(2.0 * math.pi),
    )
    xi_sq = np.sum(xi.reshape(n * k, -1) ** 2, axis=1)
    lq = ad.add(
        ad.constant(-0.5 * xi_sq - 0.5 * cfg.latent_dim * math.log(2.0 * math.pi)),
        ad.mul(-float(cfg.latent_dim), engine_log(eta_leaf)),
    )
    log_w = ad.reshape(ad.add(ad.add(ll_x, lp_prior), ad.neg(lq)), (n, k))
    log_mean_w = ad.add(ad.logsumexp(log_w, axis=1), -math.log(k))

    log_w_val = log_w.value
    finite = np.all(np.isfinite(log_w_val), axis=1)
    n_skipped = int(n - finite.sum())
    if n_skipped:
        warnings.warn(f"vera_step: skipped {n_skipped} samples with degenerate weights")
    w = np.zeros_like(log_w_val)
    rows = np.where(finite)[0]
    if rows.size:
        shifted = log_w_val[rows] - log_w_val[rows].max(axis=1, keepdims=True)
        ww = np.exp(shifted)
        w[rows] = ww / ww.sum(axis=1, keepdims=True)
    g_zk_val = g_zk.value.reshape(n, k, d)
    score = np.einsum("nk,nkd->nd", w, (g_zk_val - x_gen_val[:, None, :]) / var_x)

    h_surrogate = ad.neg(ad.mean(ad.reduce_sum(ad.mul(ad.constant(score), x_gen), axis=1)))
    gen_loss = ad.add(
        ad.mean(energy_theta(x_gen)),
        ad.neg(ad.mul(cfg.entropy_weight, h_surrogate)),
    )
    d_eta = None
    if rows.size:
        mask = finite.astype(np.float64)
        objective = ad.mul(
            ad.reduce_sum(ad.mul(log_mean_w, ad.constant(mask))), 1.0 / rows.size
        )
        (d_eta,) = ad.grad(objective, [eta_leaf])
        step = cfg.eta_lr * float(d_eta.value)
        if not np.isfinite(step):
            step = 0.0
    else:
        step = 0.0
    eta_new = float(np.clip(eta + step, cfg.eta_min, cfg.eta_max))
    vera = obj.VeraStep(ebm_loss=float(ebm_loss.value), ebm_grad=obj._param_grads(ebm_loss, leaves),
                        gen_grad=obj._param_grads(gen_loss, gen_leaves), eta=eta_new,
                        n_skipped=n_skipped)
    return vera, x_gen_val, score, d_eta, step


def gated_generator(d, latent, gate):
    """A generator whose output is 1e200 * relu(z[0] - gate) in every
    coordinate: 0 for most draws, and so large for draws past the gate that
    the residual's square overflows and their log weights are -inf."""
    gen = mz.ModelSpec(input_dim=latent, hidden=[1], head="vector", n_outputs=d)
    pset = mz.init_params(gen, 0)
    pset.values[:] = 0.0
    p = pset.arrays()
    p["layer0.W"][0, 0], p["layer0.b"][0], p["head.W"][0] = 1.0, -gate, 1e200
    return gen, pset


class TestVeraOracle:
    """``vera_step``'s numpy posterior pass and eta step equal the engine
    graph they replace, byte for byte: every field of the step, both losses
    and gradients among them, the score estimate and the slope."""

    @staticmethod
    def run_both(d, latent, k, n, eta, generator=None, **cfg_kw):
        cfg = obj.VeraConfig(latent_dim=latent, n_posterior_samples=k, **cfg_kw)
        if generator is None:
            generator = obj.generator_spec(d, cfg)
            gen_pset = mz.init_params(generator, 3)
            gen_pset.values += 0.05 * np.random.default_rng(4).normal(size=gen_pset.size)
        else:
            generator, gen_pset = generator
        spec = mz.ModelSpec(input_dim=d, hidden=[16, 16], head="energy")
        pset = mz.init_params(spec, 5)
        x = np.random.default_rng(6).normal(size=(n, d))
        steps = []
        for vera in (obj.vera_step, engine_vera_step):
            with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
                warnings.simplefilter("always")
                out = vera(spec, pset, generator, gen_pset, x, cfg, eta, np.random.default_rng(7))
            steps.append((out, [str(w.message) for w in caught if w.category is UserWarning]))
        (got, got_warned), ((want, x_gen, score, d_eta, step), want_warned) = steps
        assert vera_fields(got) == vera_fields(want)
        assert got_warned == want_warned
        # the score estimate, and the slope itself, before eta_lr, the
        # finiteness test and the clamps
        z, _, xi = vera_draws(np.random.default_rng(7), n, d, cfg)
        with np.errstate(all="ignore"):
            got_score, finite, slope = obj._posterior(generator, gen_pset.arrays(), z, xi, x_gen,
                                                      eta, cfg)
            got_slope = slope() if d_eta is not None else None
        assert got_score.tobytes() == score.tobytes()
        assert int(n - finite.sum()) == want.n_skipped
        if d_eta is not None:
            assert got_slope.tobytes() == d_eta.value.tobytes() or (
                np.isnan(got_slope) and np.isnan(d_eta.value))
        return want, step

    @pytest.mark.parametrize("k", [1, 5, 20])
    @pytest.mark.parametrize("latent", [2, 16])
    @pytest.mark.parametrize("d", [2, 8])
    def test_equals_engine(self, d, latent, k):
        _, step = self.run_both(d, latent, k, n=8, eta=0.1)
        assert step != 0.0 and np.isfinite(step)

    def test_one_row(self):
        self.run_both(2, 16, 5, n=1, eta=0.1)

    @pytest.mark.parametrize("eta", [0.01, 0.3, 0.17])
    def test_eta_at_and_between_its_clamps(self, eta):
        self.run_both(2, 4, 5, n=8, eta=eta)

    def test_skipped_rows_with_a_finite_step(self):
        want, step = self.run_both(2, 2, 5, n=64, eta=0.2, generator=gated_generator(2, 2, 1.5))
        assert 0 < want.n_skipped < 64
        assert step != 0.0 and np.isfinite(step)

    def test_skipped_row_with_a_non_finite_slope(self):
        # with one draw a row, a skipped row's logsumexp is -inf and its
        # softmax NaN: the slope is not finite and the step becomes 0
        want, step = self.run_both(2, 2, 1, n=64, eta=0.2, generator=gated_generator(2, 2, 1.5))
        assert 0 < want.n_skipped < 64
        assert step == 0.0 and want.eta == 0.2

    def test_subnormal_eta_makes_the_step_zero(self):
        # 1/eta overflows to inf in log q's derivative
        want, step = self.run_both(2, 4, 5, n=8, eta=1e-310, eta_min=0.0)
        assert want.n_skipped == 0 and step == 0.0 and want.eta == 1e-310

    def test_builds_no_node_with_posterior_rows(self, monkeypatch):
        n, k = 4, 6
        created = []
        init = ad.Node.__init__

        def recording_init(self, value, *args, **kwargs):
            init(self, value, *args, **kwargs)
            created.append(self.value.shape)

        monkeypatch.setattr(ad.Node, "__init__", recording_init)
        cfg = obj.VeraConfig(latent_dim=3, n_posterior_samples=k)
        generator = obj.generator_spec(2, cfg)
        spec = mz.ModelSpec(input_dim=2, hidden=[8], head="energy")
        obj.vera_step(spec, mz.init_params(spec, 0), generator, mz.init_params(generator, 1),
                      np.ones((n, 2)), cfg, 0.1, np.random.default_rng(0))
        assert created  # the losses and the n generator rows are graphs
        assert not [shape for shape in created if shape[:1] == (n * k,) or shape[:2] == (n, k)]


class TestConfigs:
    def test_vera_defaults(self):
        cfg = obj.VeraConfig()
        assert cfg.entropy_weight == 1e-4
        assert (cfg.eta_min, cfg.eta_init, cfg.eta_max) == (0.01, 0.1, 0.3)
        assert cfg.gen_betas == (0.0, 0.9)
        assert cfg.gen_lr == 6e-4

    def test_jem_config_validation(self):
        # the supervised composite is configured by RunConfig.gamma
        with pytest.raises(tr.ConfigError):
            tr.RunConfig(objective="cd", gamma=-0.5, data={"kind": "two_moons"})
