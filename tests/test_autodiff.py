import gc
import weakref

import numpy as np
import pytest

from ebmlab import autodiff as ad
from ebmlab import objectives as obj


def check_gradient(f, point, step: float = 1e-4):
    """Central-difference check of ``f``, which builds a scalar node from a
    node; returns (max relative error, per-coordinate table)."""
    if step <= 0:
        raise ad.AutodiffError("step must be positive")
    point = np.asarray(point, dtype=np.float64)
    x = ad.leaf(point)
    out = f(x)
    if not isinstance(out, ad.Node):
        raise ad.AutodiffError("f must build a graph node from its Node argument")
    (g,) = ad.grad(out, [x])
    analytic = g.value
    flat = point.ravel()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        hi, lo = flat.copy(), flat.copy()
        hi[i] += step
        lo[i] -= step
        f_hi = f(ad.constant(hi.reshape(point.shape))).value
        f_lo = f(ad.constant(lo.reshape(point.shape))).value
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise ad.AutodiffError(f"non-finite evaluation at coordinate {i}")
        numeric[i] = (f_hi - f_lo) / (2.0 * step)
    numeric = numeric.reshape(point.shape)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.abs(analytic - numeric) / np.where(denom > 1e-8, denom, 1.0)
    return float(rel.max()), rel


# Engine nodes for a**p and log(a), each with its derivative rule as a
# graph; no package code needs them, only the engine oracles in these tests.
def engine_power(a, p: float) -> ad.Node:
    a = ad.as_node(a)
    return ad.Node(np.power(a.value, p), (a,),
                   lambda g: (ad.mul(g, ad.mul(engine_power(a, p - 1.0), p)),))


def engine_log(a) -> ad.Node:
    a = ad.as_node(a)
    return ad.Node(np.log(a.value), (a,), lambda g: (ad.mul(g, engine_power(a, -1.0)),))


def engine_ssm_vr_loss(energy_fn, x, v) -> ad.Node:
    """The SSM-VR loss as an engine graph, the oracle of the numpy
    ``obj.ssm_vr_loss``: the batch mean of -v^T H v + 0.5 |dE/dx|^2, H the
    input Hessian of ``energy_fn``, differentiable w.r.t. any parameter
    leaves inside it."""
    x, v = ad.as_node(x), ad.as_node(v)
    if x.value.ndim != 2 or v.value.shape != x.value.shape:
        raise obj.ObjectiveError("an (n, d) batch and one projection vector per row are required")
    (gx,) = ad.grad(ad.reduce_sum(energy_fn(x)), [x])
    gv = ad.reduce_sum(ad.mul(gx, v))
    (hv,) = ad.grad(gv, [x])
    per_row = ad.add(
        ad.neg(ad.reduce_sum(ad.mul(hv, v), axis=1)),
        ad.mul(0.5, ad.reduce_sum(ad.mul(gx, gx), axis=1)),
    )
    return ad.mean(per_row)


def quad(x):
    return ad.mul(ad.reduce_sum(ad.mul(x, x)), 0.5)


def random_mlp(rng, dims):
    """Small softplus MLP energy with explicit parameter leaves."""
    weights = [ad.leaf(rng.normal(size=(a, b)) * 0.7) for a, b in zip(dims[:-1], dims[1:])]
    biases = [ad.leaf(rng.normal(size=b) * 0.1) for b in dims[1:]]

    def f(h):
        for i, (w, b) in enumerate(zip(weights, biases)):
            h = ad.add(ad.matmul(h, w), b)
            if i < len(weights) - 1:
                h = ad.softplus(h)
        return ad.reduce_sum(h)

    return f, weights, biases


class TestGrad:
    def test_quadratic(self):
        x = ad.leaf([1.0, 2.0])
        (g,) = ad.grad(quad(x), [x])
        assert np.allclose(g.value, [1.0, 2.0])

    def test_constant_function_zero_grad(self):
        x = ad.leaf([1.0, 2.0])
        out = ad.constant(3.0)
        (g,) = ad.grad(out, [x])
        assert np.all(g.value == 0.0)

    def test_non_scalar_output_rejected(self):
        x = ad.leaf([1.0, 2.0])
        with pytest.raises(ad.AutodiffError):
            ad.grad(ad.mul(x, 2.0), [x])

    def test_leaf_not_in_trace(self):
        x = ad.leaf([1.0, 2.0])
        y = ad.leaf(np.ones((2, 3)))
        gx, gy = ad.grad(quad(x), [x, y])
        assert np.allclose(gx.value, [1.0, 2.0])
        assert gy.value.shape == (2, 3) and np.all(gy.value == 0.0)

    def test_matches_finite_differences_random_mlp(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f, weights, _ = random_mlp(rng, [4, 8, 8, 1])
            x = rng.normal(size=(1, 4))
            err, _ = check_gradient(f, x, step=1e-4)
            assert err < 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=5)
        a, b = 2.5, -1.25

        def gval(builder):
            x = ad.leaf(x0)
            (g,) = ad.grad(builder(x), [x])
            return g.value

        f = lambda x: ad.reduce_sum(ad.exp(ad.mul(x, 0.3)))
        g = lambda x: quad(x)
        combined = lambda x: ad.add(ad.mul(f(x), a), ad.mul(g(x), b))
        assert np.allclose(gval(combined), a * gval(f) + b * gval(g), rtol=0, atol=1e-15)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(3)
        xv = rng.normal(size=6)

        def run():
            x = ad.leaf(xv)
            out = ad.logsumexp(ad.mul(ad.softplus(x), 1.7), axis=0)
            (g,) = ad.grad(out, [x])
            return g.value.tobytes()

        assert run() == run()


class TestLogsumexpGraph:
    def test_output_freed_without_garbage_collector(self):
        # no out -> vjp -> out cycle: scoring graphs go as soon as they are dropped
        for op in (lambda a: ad.logsumexp(a, axis=1), ad.exp, ad.sigmoid):
            out = op(ad.leaf(np.zeros((4, 3))))
            ref = weakref.ref(out)
            gc.disable()
            try:
                del out
                assert ref() is None
            finally:
                gc.enable()

    def test_exp_and_sigmoid_gradients_of_any_order(self):
        # the weak reference to the output still serves every backward pass
        x0 = np.array([[0.3, -1.2, 2.0]])
        for op, d1 in ((ad.exp, np.exp), (ad.sigmoid, lambda v: np.exp(-v) / (1 + np.exp(-v))**2)):
            x = ad.leaf(x0)
            (g,) = ad.grad(ad.reduce_sum(op(x)), [x])
            assert np.allclose(g.value, d1(x0), rtol=1e-14)

            def f(x):
                (g,) = ad.grad(ad.reduce_sum(op(x)), [x])
                return ad.reduce_sum(g)

            err, _ = check_gradient(f, x0, step=1e-5)
            assert err < 1e-6

    def test_second_order_through_logsumexp(self):
        # d/dx of sum(softmax(x) * c) via the gradient graph of logsumexp
        x0 = np.array([[0.3, -1.2, 2.0]])
        c = np.array([[1.0, -2.0, 0.5]])

        def f(x):
            (g,) = ad.grad(ad.reduce_sum(ad.logsumexp(x, axis=1)), [x])
            return ad.reduce_sum(ad.mul(g, c))

        err, _ = check_gradient(f, x0, step=1e-5)
        assert err < 1e-6


class TestHvpForm:
    """The Hessian-vector term of the SSM-VR loss: per row it is
    -v^T H v + 0.5 |dE/dx|^2 with H the input Hessian of the energy.
    Each test feeds one (1, d) row."""

    def test_identity_hessian(self):
        rng = np.random.default_rng(0)
        for d in (1, 3, 7):
            xv = rng.normal(size=(1, d))
            v = np.where(rng.random((1, d)) < 0.5, -1.0, 1.0)
            loss = engine_ssm_vr_loss(quad, xv, v)
            assert loss.value == pytest.approx(-d + 0.5 * float((xv * xv).sum()))

    def test_quartic_1d(self):
        # E = t^4/4: dE/dt = t^3, d2E/dt2 = 3t^2; at t = 2, -12 + 0.5 * 64
        loss = engine_ssm_vr_loss(lambda t: ad.mul(engine_power(t, 4.0), 0.25),
                               np.array([[2.0]]), np.array([[1.0]]))
        assert loss.value == pytest.approx(20.0)

    def test_even_in_v(self):
        rng = np.random.default_rng(5)
        f, _, _ = random_mlp(rng, [3, 6, 1])
        xv = rng.normal(size=(1, 3))
        v = rng.normal(size=(1, 3))
        a = engine_ssm_vr_loss(f, xv, v).value
        b = engine_ssm_vr_loss(f, xv, -v).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_fd_of_input_gradient(self):
        rng = np.random.default_rng(11)
        f, _, _ = random_mlp(rng, [4, 6, 1])
        xv = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 4))
        loss = engine_ssm_vr_loss(f, xv, v).value
        h = 1e-5

        def input_grad(pt):
            x = ad.leaf(pt)
            (g,) = ad.grad(f(x), [x])
            return g.value

        hv = (input_grad(xv + h * v) - input_grad(xv - h * v)) / (2 * h)
        g = input_grad(xv)
        assert loss == pytest.approx(-float((hv * v).sum()) + 0.5 * float((g * g).sum()), rel=1e-4)

    def test_parameter_gradient_second_order(self):
        # d/dtheta of the loss, which holds a second input derivative,
        # matches finite differences
        rng = np.random.default_rng(2)
        w0 = rng.normal(size=(3, 2)) * 0.5
        xv = rng.normal(size=(1, 3))
        v = rng.normal(size=(1, 3))

        def build(wv):
            w = ad.leaf(wv.reshape(3, 2))
            def f(x):
                s = ad.softplus(ad.matmul(x, w))
                return ad.reduce_sum(ad.mul(s, s))

            return engine_ssm_vr_loss(f, xv, v), w

        loss, w = build(w0)
        (gw,) = ad.grad(loss, [w])
        num = np.zeros(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = 1e-5
            num[i] = (build(w0.ravel() + e)[0].value - build(w0.ravel() - e)[0].value) / 2e-5
        denom = max(np.abs(num).max(), 1e-12)
        assert np.abs(gw.value.ravel() - num).max() / denom < 1e-4


class TestCheckGradient:
    def test_linear(self):
        err, _ = check_gradient(lambda x: ad.reduce_sum(ad.mul(x, 3.0)), np.ones(4))
        assert err < 1e-10

    def test_exp_taylor(self):
        err, _ = check_gradient(lambda x: ad.reduce_sum(ad.exp(x)), np.zeros(1), step=1e-4)
        assert err < 1e-7

    def test_nan_reports_coordinate(self):
        def f(x):
            return ad.reduce_sum(engine_log(x))  # log(-h) is nan

        with pytest.raises(ad.AutodiffError, match="coordinate 0"):
            check_gradient(f, np.zeros(2), step=1e-4)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ad.AutodiffError):
            check_gradient(lambda x: ad.reduce_sum(x), np.ones(2), step=0.0)
