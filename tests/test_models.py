import dataclasses
import itertools
import json
import math
import pickle
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ebmlab import autodiff as ad
from ebmlab import models as mz
from ebmlab import objectives as obj
from ebmlab import training as tr
from test_autodiff import engine_log, engine_power


def small_energy_spec(**kw):
    defaults = dict(input_dim=3, hidden=[8, 8], head="energy")
    defaults.update(kw)
    return mz.ModelSpec(**defaults)


def graph_energy(spec, pset, x):
    """``energy``'s node on fresh leaves over ``pset``."""
    return mz.energy(spec, mz.param_nodes(pset), x)


class TestModelSpec:
    def test_rejects_bad_dims(self):
        with pytest.raises(mz.ModelError):
            mz.ModelSpec(input_dim=0)
        with pytest.raises(mz.ModelError):
            mz.ModelSpec(input_dim=2, hidden=[0])

    def test_logits_head_needs_classes(self):
        with pytest.raises(mz.ModelError):
            mz.ModelSpec(input_dim=2, head="logits")

    def test_bottleneck_factor_range(self):
        with pytest.raises(mz.ModelError):
            mz.ModelSpec(input_dim=2, bottleneck_factor=0.0)
        mz.ModelSpec(input_dim=2, bottleneck_factor=1.0)  # valid no-op

    def test_bottleneck_width_ceil(self):
        spec = mz.ModelSpec(input_dim=2, hidden=[10], bottleneck_factor=0.25)
        shapes = dict(spec.layer_plan())
        assert shapes["layer0.bn_down.W"] == (10, 3)  # ceil(0.25*10)


class TestParameterSet:
    """``arrays`` gives views into ``values`` that are built once."""

    def test_views_see_in_place_updates(self):
        pset = mz.init_params(small_energy_spec(), 0)
        views = pset.arrays()
        pset.values -= 1.0  # as the training loop's Adam update
        assert pset.arrays() is views
        assert np.array_equal(np.concatenate([v.ravel() for v in views.values()]), pset.values)
        assert all(np.shares_memory(v, pset.values) for v in views.values())

    def test_copy_and_pickle_get_their_own_views(self):
        pset = mz.init_params(small_energy_spec(), 0)
        pset.arrays()
        for other in (pset.copy(), pickle.loads(pickle.dumps(pset))):
            other.values += 1.0
            views = other.arrays()
            assert views["head.W"][0, 0] == pset.arrays()["head.W"][0, 0] + 1.0
            assert all(np.shares_memory(v, other.values) for v in views.values())
            assert not any(np.shares_memory(v, pset.values) for v in views.values())

    def test_views_follow_a_new_values_array(self):
        pset = mz.init_params(small_energy_spec(), 0)
        pset.arrays()
        pset.values = pset.values * 2.0
        assert all(np.shares_memory(v, pset.values) for v in pset.arrays().values())

    @pytest.mark.parametrize("head", ["energy", "logits", "flow"])
    def test_numpy_paths_do_not_write_parameters(self, head):
        if head == "flow":
            spec, pset = perturbed_flow(3, 3)
        else:
            spec = closed_form_spec(head, "softplus", 0.5)
            pset = perturbed_params(spec)
        values = pset.values.copy()
        values.flags.writeable = False
        frozen = mz.ParameterSet(values, pset.offsets)
        for n in (1, 64, 2 * mz._BLOCK_ROWS + 1):
            x = np.random.default_rng(n).normal(size=(n, 3))
            assert np.array_equal(mz.score_logdensity(spec, frozen, x),
                                  mz.score_logdensity(spec, pset, x))
            assert np.array_equal(mz.input_grad(spec, frozen, x), mz.input_grad(spec, pset, x))
            if head == "logits":
                assert np.array_equal(mz.classifier_embed(spec, frozen, x),
                                      mz.classifier_embed(spec, pset, x))


class TestMlpEnergy:
    def test_zero_params_zero_energy(self):
        spec = small_energy_spec()
        pset = mz.init_params(spec, 0)
        pset.values[:] = 0.0
        for x in (np.zeros((1, 3)), np.ones((1, 3)), np.array([[3.0, -2.0, 0.5]])):
            assert graph_energy(spec, pset, x).value == 0.0

    def test_single_linear_layer(self):
        # w=[1,2], b=0.5: relu is inactive on the head, so E = w.x + b
        spec = mz.ModelSpec(input_dim=2, hidden=[1], head="energy")
        pset = mz.init_params(spec, 0)
        arrays = pset.arrays()
        arrays["layer0.W"][:] = np.array([[1.0], [2.0]])
        arrays["layer0.b"][:] = 0.5
        arrays["head.W"][:] = 1.0
        arrays["head.b"][:] = 0.0
        assert graph_energy(spec, pset, np.array([[1.0, 1.0]])).value == pytest.approx(3.5)

    def test_dimension_mismatch(self):
        spec = small_energy_spec()
        pset = mz.init_params(spec, 0)
        with pytest.raises(mz.ModelError):
            graph_energy(spec, pset, np.zeros((1, 4)))

    def test_against_straight_line_evaluator(self):
        # independent plain-numpy reimplementation
        spec = small_energy_spec(hidden=[8, 5, 8])
        pset = mz.init_params(spec, 42)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 3))

        p = pset.arrays()
        h = x
        for i in range(3):
            h = np.maximum(h @ p[f"layer{i}.W"] + p[f"layer{i}.b"], 0.0)
        expected = (h @ p["head.W"] + p["head.b"]).ravel()
        got = graph_energy(spec, pset, x).value
        assert np.abs(got - expected).max() < 1e-12

    def test_bottleneck_factor_one_is_plain_net(self):
        plain = small_energy_spec()
        with_bn = small_energy_spec(bottleneck_factor=1.0)
        p1 = mz.init_params(plain, 9)
        p2 = mz.init_params(with_bn, 9)
        x = np.random.default_rng(1).normal(size=(4, 3))
        assert np.array_equal(graph_energy(plain, p1, x).value,
                              graph_energy(with_bn, p2, x).value)

    def test_bottleneck_changes_plan(self):
        spec = small_energy_spec(bottleneck_factor=0.5)
        names = [n for n, _ in spec.layer_plan()]
        assert "layer0.bn_down.W" in names and "layer1.bn_up.b" in names


class TestJemHead:
    """A logits head's log p~ (JEM) is ``ad.logsumexp`` over its logits."""

    def test_logsumexp_uniform(self):
        assert ad.logsumexp(np.zeros(4)).value == pytest.approx(math.log(4.0))

    def test_logsumexp_dominant(self):
        assert ad.logsumexp(np.array([10.0, 0.0])).value == pytest.approx(
            math.log(math.exp(10) + 1), rel=1e-12
        )

    def test_single_logit_identity(self):
        assert ad.logsumexp(np.array([2.75])).value == pytest.approx(2.75)

    def test_shift_property(self):
        rng = np.random.default_rng(2)
        l = rng.normal(size=6)
        c = 3.7
        assert ad.logsumexp(l + c).value - ad.logsumexp(l).value == pytest.approx(c)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-100, 100))
    def test_property_shift_equivariance(self, logits, c):
        l = np.array(logits)
        assert ad.logsumexp(l + c).value == pytest.approx(ad.logsumexp(l).value + c,
                                                          rel=1e-9, abs=1e-9)

    def test_no_overflow(self):
        assert np.isfinite(ad.logsumexp(np.array([1e4, 1e4 - 3.0])).value)


@pytest.mark.engine_equality
class TestEnergy:
    """``energy`` is the one per-row -log p~ for every head."""

    def test_logits_score_is_max_shifted_logsumexp(self):
        spec = mz.ModelSpec(input_dim=3, hidden=[6], head="logits", n_classes=4)
        pset = mz.init_params(spec, 3)
        x = np.random.default_rng(5).normal(size=(7, 3)) * 3.0
        logits = mz.mlp_forward(spec, mz.param_nodes(pset), x)[0].value
        m = np.max(logits, axis=-1, keepdims=True)
        expected = np.squeeze(np.log(np.sum(np.exp(logits - m), axis=-1, keepdims=True)) + m, -1)
        assert mz.score_logdensity(spec, pset, x).tobytes() == expected.tobytes()

    def test_energy_of_each_head_and_score_is_its_negative(self):
        x = np.random.default_rng(6).normal(size=(5, 2))
        cases = [
            (mz.ModelSpec(input_dim=2, hidden=[4]),
             lambda s, p: mz.mlp_forward(s, p, x)[0].value[:, 0]),
            (mz.ModelSpec(input_dim=2, hidden=[4], head="logits", n_classes=3),
             lambda s, p: -ad.logsumexp(mz.mlp_forward(s, p, x)[0], axis=1).value),
        ]
        for spec, expected in cases:
            pset = mz.init_params(spec, 1)
            e = graph_energy(spec, pset, x).value
            assert e.shape == (5,)
            assert np.array_equal(e, expected(spec, mz.param_nodes(pset)))
            assert np.array_equal(mz.score_logdensity(spec, pset, x), -e)

    def test_vector_head_has_no_energy(self):
        spec = mz.ModelSpec(input_dim=2, hidden=[4], head="vector", n_outputs=2)
        with pytest.raises(mz.ModelError):
            graph_energy(spec, mz.init_params(spec, 0), np.zeros((1, 2)))

    def test_flow_head_has_no_energy_graph(self):
        spec = mz.ModelSpec(input_dim=2, head="flow", n_flow_layers=2)
        with pytest.raises(mz.ModelError, match="graphs cover MLP heads; a flow is scored with "
                                                 "score_logdensity"):
            graph_energy(spec, mz.init_params(spec, 0), np.zeros((1, 2)))

    @pytest.mark.parametrize("shape", [(3,), (), (2, 1, 3), (2, 4)])
    def test_only_n_by_d_batches(self, shape):
        spec = small_energy_spec()
        with pytest.raises(mz.ModelError):
            graph_energy(spec, mz.init_params(spec, 0), np.zeros(shape))
        flow = mz.ModelSpec(input_dim=3, head="flow", n_flow_layers=1)
        for fn in (mz.score_logdensity, mz.input_grad, obj.flow_nll):
            with pytest.raises(mz.ModelError):
                fn(flow, mz.init_params(flow, 0), np.zeros(shape))
        with pytest.raises(mz.ModelError):
            mz.radial_forward(np.zeros(3), 0.1, 0.1, np.zeros(shape))

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("head,activation,bottleneck", [
        *[(h, a, b) for h in ("energy", "logits") for a in mz.ACTIVATIONS for b in (None, 0.5)],
        ("flow", None, None),
    ])
    def test_numpy_values_equal_graph(self, head, activation, bottleneck, n):
        """``score_logdensity``, the one-block ``_mlp_outputs`` and
        ``classifier_embed`` give the graph's bytes, non-finite rows
        included; a flow is checked against the node-by-node reference."""
        if head == "flow":
            spec, pset = perturbed_flow(3, 3)
        else:
            spec = closed_form_spec(head, activation, bottleneck)
            pset = perturbed_params(spec)
        x = np.random.default_rng(n).normal(size=(n, 3)) * 3.0
        bad = np.array([[np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf], [0.0, np.nan, 0.0], [1e300] * 3])
        leaves = mz.param_nodes(pset)
        for xs in (x, np.vstack([x, bad])):
            with np.errstate(all="ignore"):
                graph = (engine_flow_logdensity(spec, leaves, xs) if head == "flow"
                         else ad.neg(mz.energy(spec, leaves, xs)))
                assert mz.score_logdensity(spec, pset, xs).tobytes() == graph.value.tobytes()
                if head == "flow":
                    continue
                out, h = (node.value for node in mz.mlp_forward(spec, leaves, xs))
                got_out, got_h = numpy_outputs(spec, pset, xs)
                assert got_out.tobytes() == out.tobytes() and got_h.tobytes() == h.tobytes()
                if head == "logits":
                    assert mz.classifier_embed(spec, pset, xs).tobytes() == h.tobytes()


def engine_input_grad(spec, pset, x):
    """The engine's dE/dx of the summed energy: ``energy``'s graph, or for a
    flow the node-by-node reference."""
    xn = ad.leaf(x)
    e = (ad.neg(engine_flow_logdensity(spec, mz.param_nodes(pset), xn)) if spec.head == "flow"
         else graph_energy(spec, pset, xn))
    (g,) = ad.grad(ad.reduce_sum(e), [xn])
    return g.value


def closed_form_spec(head, activation, bottleneck):
    return mz.ModelSpec(input_dim=3, hidden=[16, 12, 9], activation=activation, head=head,
                        n_classes=4 if head == "logits" else None,
                        bottleneck_factor=bottleneck)


def perturbed_params(spec, seed=3):
    # nonzero biases and larger weights, so activations take both branches
    pset = mz.init_params(spec, seed)
    pset.values += np.random.default_rng(seed).normal(size=pset.size) * 0.3
    return pset


@pytest.mark.engine_equality
class TestInputGrad:
    """``input_grad`` is the engine's input gradient, byte for byte (flows:
    ``TestNumpyFlow``)."""

    @pytest.mark.parametrize("n", [1, 64])
    @pytest.mark.parametrize("bottleneck", [None, 0.5])
    @pytest.mark.parametrize("activation", ["relu", "leaky_relu", "softplus"])
    @pytest.mark.parametrize("head", ["energy", "logits"])
    def test_equals_engine(self, head, activation, bottleneck, n):
        spec = closed_form_spec(head, activation, bottleneck)
        pset = perturbed_params(spec)
        x = np.random.default_rng(n).normal(size=(n, 3)) * 3.0
        expected = engine_input_grad(spec, pset, x)
        assert expected.shape == (n, 3)
        assert np.array_equal(mz.input_grad(spec, pset, x), expected)

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu", "softplus"])
    @pytest.mark.parametrize("head", ["energy", "logits"])
    def test_nonfinite_rows_match_engine(self, head, activation):
        spec = closed_form_spec(head, activation, 0.5)
        pset = perturbed_params(spec)
        x = np.random.default_rng(0).normal(size=(6, 3))
        x[1, 0], x[2, 2], x[3, 1], x[4] = np.inf, -np.inf, np.nan, 1e300
        with np.errstate(all="ignore"):
            expected = engine_input_grad(spec, pset, x)
            got = mz.input_grad(spec, pset, x)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("hidden", [[], [4]])
    def test_negative_zero_head_weight_matches_engine(self, hidden):
        # the engine's ones @ head.W.T turns a -0.0 weight into +0.0; with no
        # hidden layer that product is the input gradient itself
        spec = mz.ModelSpec(input_dim=3, hidden=hidden, head="energy")
        pset = perturbed_params(spec)
        pset.arrays()["head.W"][:2] = -0.0
        for n in (1, 5):
            x = np.random.default_rng(n).normal(size=(n, 3))
            expected = engine_input_grad(spec, pset, x)
            assert mz.input_grad(spec, pset, x).tobytes() == expected.tobytes()

    def test_builds_no_nodes(self, monkeypatch):
        # scores and embeddings build none either, for every head
        specs = [closed_form_spec("logits", "softplus", 0.5),
                 closed_form_spec("energy", "relu", None), perturbed_flow(2, 3)[0]]
        psets = [perturbed_params(spec) for spec in specs]
        created = []
        init = ad.Node.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Node, "__init__", counting_init)
        for spec, pset in zip(specs, psets):
            mz.input_grad(spec, pset, np.ones((4, 3)))
            mz.score_logdensity(spec, pset, np.ones((4, 3)))
            mz.logdensity_and_grad(spec, pset, np.ones((4, 3)))
        mz.classifier_embed(specs[0], psets[0], np.ones((4, 3)))
        assert created == []

    def test_vector_head_rejected(self):
        spec = mz.ModelSpec(input_dim=3, hidden=[4], head="vector", n_outputs=2)
        for fn in (mz.input_grad, mz.score_logdensity):
            with pytest.raises(mz.ModelError, match="no energy for head 'vector'"):
                fn(spec, mz.init_params(spec, 0), np.zeros((1, 3)))

    @pytest.mark.parametrize("shape", [(3,), (2, 4)])
    def test_only_n_by_d_batches(self, shape):
        spec = small_energy_spec()
        with pytest.raises(mz.ModelError):
            mz.input_grad(spec, mz.init_params(spec, 0), np.zeros(shape))

    @pytest.mark.parametrize("n", [1, 3, 64])
    @pytest.mark.parametrize("bottleneck", [None, 0.5])
    @pytest.mark.parametrize("activation", mz.ACTIVATIONS)
    @pytest.mark.parametrize("head", ["energy", "logits", "flow"])
    def test_logdensity_and_grad_from_one_pass(self, head, activation, bottleneck, n):
        # byte-equal to the two calls it replaces, non-finite rows included
        spec = (perturbed_flow(3, 3)[0] if head == "flow"
                else closed_form_spec(head, activation, bottleneck))
        pset = perturbed_flow(3, 3)[1] if head == "flow" else perturbed_params(spec)
        x = np.random.default_rng(n).normal(size=(n, 3)) * 3.0
        x[0, 0] = {1: np.inf, 3: 1e300, 64: 0.5}[n]
        with np.errstate(all="ignore"):
            logp, grad = mz.logdensity_and_grad(spec, pset, x)
            assert logp.tobytes() == mz.score_logdensity(spec, pset, x).tobytes()
            assert grad.tobytes() == mz.input_grad(spec, pset, x).tobytes()


def param_backward(spec, pset, x, g_out):
    """The kernel's adjoints of every parameter and of ``x``, given the
    head output's adjoint ``g_out``: the head's by ``_affine_grads``, the
    hidden maps' by ``back``."""
    p, grads = pset.arrays(), {}
    h, back = mz._hidden_values(spec, p, x, params=True)
    mz._affine_grads(grads, "head", h, g_out)
    gx = back(g_out @ p["head.W"].T, grads)
    return [grads[name] for name in p], gx


def engine_param_backward(spec, pset, x, g_out):
    """``ad.grad`` of sum(out * g_out), whose head output adjoint is g_out,
    in every parameter and in ``x``."""
    leaves, xn = mz.param_nodes(pset), ad.leaf(x)
    out, _ = mz.mlp_forward(spec, leaves, xn)
    *grads, gx = ad.grad(ad.reduce_sum(ad.mul(out, ad.constant(g_out))), [*leaves.values(), xn])
    return [g.value for g in grads], gx.value


@pytest.mark.engine_equality
class TestParamBackward:
    """``_hidden_values``' ``back`` with a ``grads`` dict, after the head's
    ``_affine_grads``, gives the engine's parameter and input adjoints of an
    MLP, byte for byte, for every MLP head, activation, bottleneck, depth
    and batch size."""

    @pytest.mark.parametrize("activation", mz.ACTIVATIONS)
    @pytest.mark.parametrize("head", ["energy", "logits", "vector"])
    def test_equals_engine(self, head, activation):
        rng = np.random.default_rng([["energy", "logits", "vector"].index(head),
                                     mz.ACTIVATIONS.index(activation)])
        for bottleneck, depth, n in itertools.product([None, 0.5, 1.0], [0, 1, 2, 3], [1, 2, 64]):
            d, outputs = int(rng.integers(1, 4)), 1 if head == "energy" else int(rng.integers(2, 5))
            spec = mz.ModelSpec(input_dim=d, hidden=[int(h) for h in rng.integers(1, 20, size=depth)],
                                activation=activation, head=head, bottleneck_factor=bottleneck,
                                n_classes=outputs if head == "logits" else None,
                                n_outputs=outputs if head == "vector" else None)
            pset = perturbed_params(spec, int(rng.integers(1000)))
            x, g_out = rng.normal(size=(n, d)), rng.normal(size=(n, outputs))
            (got, got_x), (want, want_x) = (f(spec, pset, x, g_out) for f in
                                            (param_backward, engine_param_backward))
            case = (bottleneck, depth, n)
            assert [g.tobytes() for g in got] == [g.tobytes() for g in want], case
            assert got_x.tobytes() == want_x.tobytes(), case


def energy_pass_results(spec, pset, x, c):
    """``_energy_pass``'s E(x), and its parameter and input adjoints when
    each row's energy has the adjoint ``c``."""
    p, grads = pset.arrays(), {}
    energy_fn, back = mz._energy_pass(spec, p, x)
    gx = back(c, grads)
    return energy_fn(), [grads[name] for name in p], gx


def engine_energy_pass(spec, pset, x, c):
    """``energy``'s node, and ``ad.grad`` of c * sum(E) in every parameter
    and in ``x``."""
    leaves, xn = mz.param_nodes(pset), ad.leaf(x)
    e = mz.energy(spec, leaves, xn)
    *grads, gx = ad.grad(ad.mul(ad.reduce_sum(e), c), [*leaves.values(), xn])
    return e.value, [g.value for g in grads], gx.value


@pytest.mark.engine_equality
class TestEnergyPass:
    """``_energy_pass`` gives ``energy``'s E(x) and the engine's parameter
    and input adjoints of c * sum(E), byte for byte, for both heads with an
    energy, every activation, bottleneck, depth, batch size and the row
    adjoints the steps hand it: 1 (sum), 1/n and -1/n (a mean, either
    sign) and one that is not a power of two."""

    @pytest.mark.parametrize("activation", mz.ACTIVATIONS)
    @pytest.mark.parametrize("head", ["energy", "logits"])
    def test_equals_engine(self, head, activation):
        rng = np.random.default_rng([["energy", "logits"].index(head),
                                     mz.ACTIVATIONS.index(activation)])
        for bottleneck, depth, n in itertools.product([None, 0.5, 1.0], [0, 1, 2, 3], [1, 2, 64]):
            d, hidden = int(rng.integers(1, 4)), [int(h) for h in rng.integers(1, 20, size=depth)]
            spec = mz.ModelSpec(input_dim=d, hidden=hidden,
                                activation=activation, head=head, bottleneck_factor=bottleneck,
                                n_classes=int(rng.integers(2, 5)) if head == "logits" else None)
            pset = perturbed_params(spec, int(rng.integers(1000)))
            x = rng.normal(size=(n, d)) * 3.0
            for c in (1.0, 1.0 / n, -1.0 / n, 1.0 / 3.0):
                (e, got, got_x), (want_e, want, want_x) = (
                    f(spec, pset, x, c) for f in (energy_pass_results, engine_energy_pass))
                case = (bottleneck, depth, n, c)
                assert e.tobytes() == want_e.tobytes(), case
                assert [g.tobytes() for g in got] == [g.tobytes() for g in want], case
                assert got_x.tobytes() == want_x.tobytes(), case

    def test_input_grad_of_an_energy_head_runs_no_head_gemm(self, monkeypatch):
        spec = closed_form_spec("energy", "relu", None)
        pset, names = perturbed_params(spec), []
        affine = mz._affine

        def recording(h, p, name, out=None):
            names.append(name)
            return affine(h, p, name, out)

        monkeypatch.setattr(mz, "_affine", recording)
        mz.input_grad(spec, pset, np.ones((4, 3)))
        assert names and "head" not in names
        mz.logdensity_and_grad(spec, pset, np.ones((4, 3)))
        assert names.count("head") == 1


def block_spec(head, activation, bottleneck, input_dim=8, hidden=(64, 48, 32)):
    return mz.ModelSpec(input_dim=input_dim, hidden=list(hidden), activation=activation,
                        head="energy" if head == "energy" else "logits",
                        n_classes=None if head == "energy" else head,
                        bottleneck_factor=bottleneck)


B = mz._BLOCK_ROWS


def engine_on_blocks(spec, pset, x):
    """The engine on each block of ``x``: ``len(x) // B`` blocks (at least
    one) of ``B`` rows, the last taking the rest, head included. Returns
    (head output, penultimate activations, log-density)."""
    leaves, n = mz.param_nodes(pset), len(x)
    edges = [k * B for k in range(max(n // B, 1))] + [n]
    blocks = [x[a:b] for a, b in zip(edges, edges[1:])]
    outputs = [mz.mlp_forward(spec, leaves, block) for block in blocks]
    return (np.concatenate([out.value for out, _ in outputs]),
            np.concatenate([h.value for _, h in outputs]),
            np.concatenate([ad.neg(mz.energy(spec, leaves, block)).value for block in blocks]))


def numpy_outputs(spec, pset, x):
    """``_mlp_outputs``'s head output and penultimate activations."""
    return mz._mlp_outputs(spec, pset, x, "head"), mz._mlp_outputs(spec, pset, x, "hidden")


class TestLeakyFactor:
    """The leaky-relu factor, built by selecting the bits of 1.0 or the
    slope, equals ``np.where(a > 0, 1.0, slope)`` byte for byte, as does the
    activation, in the allocating and the buffered pass."""

    EDGES = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308,
             -2.2e-308, 1e308, -1e308]

    @pytest.mark.parametrize("slope", [0.2, 0.01, 0.0, -0.0, 1.0, -0.5, 3, 5e-324, -np.inf,
                                       np.inf, np.nan])
    def test_equals_where(self, slope):
        # a spec refuses a non-finite slope, so it is set after the spec is built
        spec = mz.ModelSpec(input_dim=2, activation="leaky_relu", leaky_slope=0.2)
        spec.leaky_slope = slope
        a = np.concatenate([self.EDGES, np.random.default_rng(0).normal(size=52)]).reshape(16, 4)
        factor = np.where(a > 0, 1.0, slope)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0.0, 1e308 * 3
            value = a * factor
            got, got_factor = mz._activation_np(spec, a.copy())
            assert got_factor().tobytes() == factor.tobytes()
            assert got.tobytes() == value.tobytes()
            scratch = (np.empty(a.size, dtype=bool), np.empty(a.size + 3))
            got, _ = mz._activation_np(spec, a.copy(), scratch)
        assert got.tobytes() == value.tobytes()
        assert scratch[1][:a.size].tobytes() == factor.tobytes()


@pytest.mark.engine_equality
class TestRowBlocks:
    """A batch is scored and embedded over fixed ``B``-row blocks, head
    included; every row keeps the bytes of the engine applied to the same
    blocks. The specs after the grid are
    ``eval-ood``'s model and two with narrow layers, 16 -> 100 and
    16 -> 12, whose block GEMMs are small enough that some BLAS builds
    take separate small-matrix kernels for them."""

    @pytest.mark.parametrize("edge", [(2, -1), (2, 0), (2, 1), (3, 17)])
    @pytest.mark.parametrize("spec", [
        *[block_spec(h, a, b) for h in ("energy", 2, 3, 4) for a in mz.ACTIVATIONS
          for b in (None, 0.5)],
        block_spec(3, "relu", None, hidden=(64, 64, 64)),
        block_spec(4, "relu", None, input_dim=16, hidden=(100, 50)),
        block_spec(2, "leaky_relu", None, input_dim=16, hidden=(12, 12)),
    ], ids=lambda s: f"{s.head}{s.n_classes or ''}-{s.activation}-{s.bottleneck_factor}"
                     f"-{s.input_dim}x{'x'.join(map(str, s.hidden))}")
    def test_equal_to_engine_block_by_block(self, spec, edge):
        blocks, extra = edge
        n = blocks * B + extra
        pset = perturbed_params(spec)
        x = np.random.default_rng(n).normal(size=(n, spec.input_dim)) * 3.0
        bad = np.zeros((4, spec.input_dim))
        bad[0, 0], bad[1, -1], bad[2, 1], bad[3] = np.inf, -np.inf, np.nan, 1e300
        x[1:5], x[-5:-1] = bad, bad  # in the first and the last block
        with np.errstate(all="ignore"):
            out, h, expected = engine_on_blocks(spec, pset, x)
            got_out, got_h = numpy_outputs(spec, pset, x)
            assert got_out.tobytes() == out.tobytes() and got_h.tobytes() == h.tobytes()
            assert mz.score_logdensity(spec, pset, x).tobytes() == expected.tobytes()
            if spec.head == "logits":
                assert mz.classifier_embed(spec, pset, x).tobytes() == h.tobytes()

    def test_small_batch_is_one_hidden_values_call(self, monkeypatch):
        # blocks run on worker threads in any order, so each set's block
        # sizes are compared sorted
        calls = []
        hidden_values = mz._hidden_values
        monkeypatch.setattr(mz, "_hidden_values",
                            lambda *a: calls.append(len(a[2])) or hidden_values(*a))
        wide = block_spec(3, "relu", None, hidden=(64, 64, 64))
        narrow = block_spec(2, "leaky_relu", None, input_dim=16, hidden=(12, 12))
        sizes = []
        for spec, n in [(wide, 2 * B - 1), (wide, 2 * B + 1), (narrow, 2 * B + 1)]:
            calls.clear()
            mz.score_logdensity(spec, mz.init_params(spec, 0), np.zeros((n, spec.input_dim)))
            sizes.append(sorted(calls))
        assert sizes == [[2 * B - 1], [B, B + 1], [B, B + 1]]

    @pytest.mark.parametrize("spec", [
        block_spec(3, "relu", None), block_spec("energy", "softplus", 0.5),
        block_spec(2, "leaky_relu", None), block_spec(4, "relu", 0.5, hidden=()),
    ], ids=lambda s: f"{s.head}-{s.activation}-{s.bottleneck_factor}-{len(s.hidden)}")
    def test_bytes_do_not_depend_on_the_thread_count(self, spec, monkeypatch, time_limit):
        """Scores, embeddings and head outputs of a four-block set are the
        engine's at 1, 2 and 3 usable CPUs; at 3, one worker takes two
        blocks, the first and the last. A short switch interval makes the
        threads interleave often."""
        n = 4 * B + 17
        pset = perturbed_params(spec)
        x = np.random.default_rng(n).normal(size=(n, spec.input_dim)) * 3.0
        x[1, 0], x[-2, -1], x[B + 3] = np.inf, np.nan, 1e300
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with np.errstate(all="ignore"), time_limit(60):
                out, h, expected = engine_on_blocks(spec, pset, x)
                for cpus in (1, 2, 3):
                    monkeypatch.setattr(mz, "_usable_cpus", lambda: cpus)
                    got_out, got_h = numpy_outputs(spec, pset, x)
                    assert got_out.tobytes() == out.tobytes()
                    assert got_h.tobytes() == h.tobytes()
                    assert mz.score_logdensity(spec, pset, x).tobytes() == expected.tobytes()
                    if spec.head == "logits":
                        assert mz.classifier_embed(spec, pset, x).tobytes() == h.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_no_worker_thread_outlives_a_call(self, monkeypatch, time_limit):
        """Blocks run on threads other than the caller's, and every one is
        joined on return, so a suite can still fork afterwards; also when a
        block raises."""
        spec = block_spec(3, "relu", None)
        pset, x = perturbed_params(spec), np.zeros((4 * B, spec.input_dim))
        monkeypatch.setattr(mz, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(tr, "_usable_cpus", lambda: 2)
        threads, hidden_values = set(), mz._hidden_values

        def recording(*args):
            threads.add(threading.get_ident())
            return hidden_values(*args)

        monkeypatch.setattr(mz, "_hidden_values", recording)
        before = threading.active_count()
        with time_limit(60):
            mz.score_logdensity(spec, pset, x)
        # the pool may hand a later job to a thread whose job is done
        assert 1 <= len(threads) <= 3 and threading.get_ident() not in threads
        assert threading.active_count() == before
        assert tr._worker_count(2) == 2

        def failing(*args):
            if args[2][0, 0] == 1.0:
                raise ValueError("block failed")
            return hidden_values(*args)

        x[B, 0] = 1.0  # the second block fails, the others run
        monkeypatch.setattr(mz, "_hidden_values", failing)
        with pytest.raises(ValueError, match="block failed"), time_limit(60):
            mz.score_logdensity(spec, pset, x)
        assert threading.active_count() == before
        assert tr._worker_count(2) == 2

    def test_errstate_holds_in_the_workers(self, monkeypatch):
        """``np.errstate`` set by the caller governs every block: ignored
        errors warn from no thread, and raised ones reach the caller, as
        on one thread."""
        spec = block_spec(3, "relu", None)
        pset = perturbed_params(spec)
        x = np.random.default_rng(0).normal(size=(3 * B + 5, spec.input_dim))
        for a in range(0, 3 * B, B):  # in every block
            x[a + 1, 0], x[a + 2, -1], x[a + 3, 1], x[a + 4], x[a + 5] = (
                np.inf, -np.inf, np.nan, 1e300, 1e308)
        for cpus in (1, 3):
            monkeypatch.setattr(mz, "_usable_cpus", lambda: cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with np.errstate(all="ignore"):
                    mz.score_logdensity(spec, pset, x)
            assert caught == []
            for kind, message in [("over", "overflow"), ("invalid", "invalid value")]:
                with pytest.raises(FloatingPointError, match=message):
                    with np.errstate(all="ignore", **{kind: "raise"}):
                        mz.score_logdensity(spec, pset, x)


class TestRadialFlow:
    def _layer(self, rng, d):
        z0 = rng.normal(size=d)
        return z0, rng.normal(), rng.normal()

    def test_beta_zero_identity(self):
        # default-constrained beta = -alpha + softplus(beta_hat); pick
        # beta_hat so softplus(beta_hat) == alpha, i.e. beta == 0
        d = 3
        z0 = np.zeros(d)
        alpha_hat = 0.3
        y, logdet, _ = mz.radial_forward(z0, alpha_hat, alpha_hat, np.array([[1.0, -2.0, 0.5]]))
        assert np.allclose(y, [[1.0, -2.0, 0.5]])
        assert logdet[0] == pytest.approx(0.0, abs=1e-12)

    def test_center_point(self):
        rng = np.random.default_rng(4)
        d = 4
        z0, ah, bh = self._layer(rng, d)
        alpha = np.logaddexp(0.0, ah)  # softplus: alpha > 0, beta >= -alpha
        beta = np.logaddexp(0.0, bh) - alpha
        y, logdet, _ = mz.radial_forward(z0, ah, bh, z0[None].copy())
        assert np.allclose(y, z0[None])
        expected = (d - 1) * math.log(1 + beta / alpha) + math.log(1 + beta / alpha)
        assert logdet[0] == pytest.approx(expected, rel=1e-9)

    def test_logdet_matches_numeric_jacobian(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            z0, ah, bh = self._layer(rng, 2)
            x = rng.normal(size=(1, 2)) * 2.0
            _, logdet, _ = mz.radial_forward(z0, ah, bh, x)
            h = 1e-6
            jac = np.zeros((2, 2))
            for j in range(2):
                e = np.zeros((1, 2))
                e[0, j] = h
                yp, _, _ = mz.radial_forward(z0, ah, bh, x + e)
                ym, _, _ = mz.radial_forward(z0, ah, bh, x - e)
                jac[:, j] = (yp[0] - ym[0]) / (2 * h)
            assert logdet[0] == pytest.approx(math.log(abs(np.linalg.det(jac))), abs=1e-5)

    def test_statistical_injectivity(self):
        rng = np.random.default_rng(10)
        z0, ah, bh = self._layer(rng, 2)
        x = rng.normal(size=(10_000, 2)) * 3.0
        y, _, _ = mz.radial_forward(z0, ah, bh, x)
        perm = rng.permutation(len(x))
        distinct = np.any(x != x[perm], axis=1)
        assert np.all(np.any(y[distinct] != y[perm][distinct], axis=1))


class TestFlowDensity:
    def _identity_flow(self, d, k=3):
        spec = mz.ModelSpec(input_dim=d, head="flow", n_flow_layers=k)
        pset = mz.init_params(spec, 0)
        for i in range(k):
            pset.arrays()[f"flow{i}.z0"][:] = 0.0  # beta == 0 already at init
        return spec, pset

    def test_identity_flow_at_origin(self):
        spec, pset = self._identity_flow(2)
        assert mz.score_logdensity(spec, pset, np.zeros((1, 2)))[0] == pytest.approx(
            -math.log(2 * math.pi), abs=1e-9
        )

    def test_identity_flow_general_point(self):
        spec, pset = self._identity_flow(3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        expected = -0.5 * (x**2).sum(axis=1) - 1.5 * math.log(2 * math.pi)
        assert np.allclose(mz.score_logdensity(spec, pset, x), expected, atol=1e-9)

    def test_1d_density_integrates_to_one(self):
        spec = mz.ModelSpec(input_dim=1, head="flow", n_flow_layers=1)
        pset = mz.init_params(spec, 5)
        pset.arrays()["flow0.beta_hat"][...] = 1.5  # non-trivial transform
        grid = np.linspace(-20, 20, 20001)
        logp = mz.score_logdensity(spec, pset, grid[:, None])
        integral = np.trapezoid(np.exp(logp), grid)
        assert integral == pytest.approx(1.0, abs=1e-3)


def engine_radial_layer(z0, alpha_hat, beta_hat, x):
    """The radial layer built node by node on the engine: the reference the
    numpy flow must equal byte for byte."""
    alpha = ad.softplus(alpha_hat)
    beta = ad.add(ad.neg(alpha), ad.softplus(beta_hat))
    diff = ad.add(x, ad.neg(z0))
    r = engine_power(ad.add(ad.reduce_sum(ad.mul(diff, diff), axis=1, keepdims=True), 1e-24), 0.5)
    h = engine_power(ad.add(alpha, r), -1.0)
    bh = ad.mul(beta, h)
    y = ad.add(x, ad.mul(bh, diff))
    bhr = ad.neg(ad.mul(beta, ad.mul(ad.mul(h, h), r)))
    logdet = ad.add(
        ad.mul(float(x.value.shape[1] - 1), engine_log(ad.add(1.0, bh))),
        engine_log(ad.add(ad.add(1.0, bh), bhr)),
    )
    return y, ad.reshape(logdet, (x.value.shape[0],))


def engine_flow_logdensity(spec, pn, x):
    z = ad.as_node(x)
    total = ad.constant(np.zeros(z.value.shape[0]))
    for k in range(spec.n_flow_layers):
        z, logdet = engine_radial_layer(
            pn[f"flow{k}.z0"], pn[f"flow{k}.alpha_hat"], pn[f"flow{k}.beta_hat"], z)
        total = ad.add(total, logdet)
    base = ad.add(ad.mul(-0.5, ad.reduce_sum(ad.mul(z, z), axis=1)),
                  -0.5 * spec.input_dim * math.log(2.0 * math.pi))
    return ad.add(base, total)


def engine_flow_results(spec, pset, x):
    """The node-by-node reference's log-density, flow NLL and its flat
    parameter gradient, and the input gradient of the summed energy."""
    leaves = mz.param_nodes(pset)
    nll = ad.mean(ad.neg(engine_flow_logdensity(spec, leaves, x)))
    param_grad = np.concatenate([g.value.ravel()
                                 for g in ad.grad(nll, list(leaves.values()))])
    return [engine_flow_logdensity(spec, leaves, x).value, np.asarray(float(nll.value)),
            param_grad, engine_input_grad(spec, pset, x)]


def numpy_flow_results(spec, pset, x):
    """The same four results from the package, without the engine."""
    value, grad = obj.flow_nll(spec, pset, x)
    return [mz.score_logdensity(spec, pset, x), np.asarray(value), grad,
            mz.input_grad(spec, pset, x)]


def perturbed_flow(n_layers, d, seed=0):
    spec = mz.ModelSpec(input_dim=d, head="flow", n_flow_layers=n_layers)
    pset = mz.init_params(spec, seed)
    pset.values += np.random.default_rng(seed).normal(size=pset.size) * 0.7
    return spec, pset


class TestNumpyFlow:
    """The numpy radial flow (its log-density, ``flow_nll``'s value and
    gradient, and ``input_grad``) equals the node-by-node graph."""

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n_layers", [1, 2, 3, 20])
    def test_equals_engine(self, n_layers, d, n):
        spec, pset = perturbed_flow(n_layers, d, seed=10 * n_layers + d)
        x = np.random.default_rng(n).normal(size=(n, d)) * 2.0
        expected = engine_flow_results(spec, pset, x)
        got = numpy_flow_results(spec, pset, x)
        assert [a.shape for a in got] == [a.shape for a in expected]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))

    def test_nonfinite_rows_match_engine(self):
        spec, pset = perturbed_flow(3, 2)
        x = np.random.default_rng(0).normal(size=(7, 2))
        x[1, 0], x[2, 1], x[3, 0], x[4], x[5, 1] = np.inf, -np.inf, np.nan, 1e300, 1e160
        with np.errstate(all="ignore"):
            expected = engine_flow_results(spec, pset, x)
            got = numpy_flow_results(spec, pset, x)
        assert not np.all(np.isfinite(expected[0]))
        for a, b in zip(got, expected):
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("n_layers", [1, 20])
    def test_flow_nll_builds_no_nodes(self, monkeypatch, n_layers):
        spec, pset = perturbed_flow(n_layers, 2)
        created = []
        init = ad.Node.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Node, "__init__", counting_init)
        obj.flow_nll(spec, pset, np.ones((4, 2)))
        assert created == []


class TestClassifierEmbed:
    def _clf(self):
        spec = mz.ModelSpec(input_dim=4, hidden=[6, 5], head="logits", n_classes=3)
        return spec, mz.init_params(spec, 7)

    def test_width_is_last_hidden(self):
        spec, pset = self._clf()
        emb = mz.classifier_embed(spec, pset, np.zeros((2, 4)))
        assert emb.shape == (2, 5)

    def test_zero_weight_net_constant_embedding(self):
        spec, pset = self._clf()
        pset.values[:] = 0.0
        pset.arrays()["layer1.b"][:] = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
        emb = mz.classifier_embed(spec, pset, np.random.default_rng(0).normal(size=(3, 4)))
        assert np.allclose(emb, np.maximum([1.0, -1.0, 0.5, 0.0, 2.0], 0.0))
        assert np.all(emb[0] == emb[1])

    def test_energy_head_unsupported(self):
        spec = small_energy_spec()
        with pytest.raises(mz.ModelError):
            mz.classifier_embed(spec, mz.init_params(spec, 0), np.zeros((1, 3)))

    def test_embedding_feeds_energy_net(self):
        spec, pset = self._clf()
        emb = mz.classifier_embed(spec, pset, np.random.default_rng(1).normal(size=(6, 4)))
        espec = mz.ModelSpec(input_dim=emb.shape[1], hidden=[4], head="energy")
        e = graph_energy(espec, mz.init_params(espec, 1), emb)
        assert e.value.shape == (6,)


# each fault ``damage_checkpoint`` makes, and what ``load_checkpoint`` says
CHECKPOINT_FAULTS = {
    "inf-parameter": "checkpoint parameter head.b is not finite",
    "nan-parameter": "checkpoint parameter layer0.W is not finite",
    "unknown-key": "checkpoint spec: unknown keys ['width'], missing keys []",
    "missing-key": "checkpoint spec: unknown keys [], missing keys ['activation']",
    "no-spec": "missing keys ['activation', 'bottleneck_factor', 'head', 'hidden'",
    "str-input-dim": "input_dim must be of type int, got '3'",
    "int-hidden": "hidden must be of type list[int], got 4",
    "str-bottleneck": "bottleneck_factor must be of type float | None, got '0.5'",
    "str-parameter": "checkpoint parameters must be a list of numbers",
    "object-parameters": "checkpoint parameters must be a list of numbers",
    "list-metadata": "checkpoint metadata must be a JSON object",
    "list-document": "checkpoint must be a JSON object, got list",
    "inf-slope": "leaky_slope must be finite, got inf",
    "nan-slope": "leaky_slope must be finite, got nan",
}


def damage_checkpoint(doc, damage):
    """A checkpoint document with one fault: a non-finite first or last
    parameter, a spec key ``ModelSpec`` lacks, a missing one, no spec, a
    spec value or parameter of the wrong type, parameters or metadata that
    are not what they should hold, a document that is not an object, or a
    leaky-relu slope that JSON reads as a non-finite float."""
    if damage == "inf-parameter":
        doc["parameters"][-1] = float("inf")
    elif damage == "nan-parameter":
        doc["parameters"][0] = float("nan")
    elif damage == "unknown-key":
        doc["spec"]["width"] = 8
    elif damage == "missing-key":
        del doc["spec"]["activation"]
    elif damage == "no-spec":
        del doc["spec"]
    elif damage == "str-input-dim":
        doc["spec"]["input_dim"] = "3"
    elif damage == "int-hidden":
        doc["spec"]["hidden"] = 4
    elif damage == "str-bottleneck":
        doc["spec"]["bottleneck_factor"] = "0.5"
    elif damage == "str-parameter":
        doc["parameters"][0] = "x"
    elif damage == "object-parameters":
        doc["parameters"] = {"layer0.W": doc["parameters"]}
    elif damage == "list-metadata":
        doc["metadata"] = [doc["metadata"]]
    elif damage in ("inf-slope", "nan-slope"):
        doc["spec"]["leaky_slope"] = float(damage[:3])
    else:
        doc = [doc]
    return doc


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        spec = mz.ModelSpec(input_dim=3, hidden=[5, 4], head="logits", n_classes=2)
        pset = mz.init_params(spec, 13)
        path = str(tmp_path / "ckpt.json")
        mz.save_checkpoint(path, spec, pset, metadata={"note": "t"})
        spec2, pset2, meta = mz.load_checkpoint(path)
        assert spec2 == spec
        assert meta == {"note": "t"}
        assert np.array_equal(pset.values, pset2.values)
        x = np.random.default_rng(0).normal(size=(4, 3))
        a = mz.mlp_forward(spec, mz.param_nodes(pset), x)[0].value
        b = mz.mlp_forward(spec2, mz.param_nodes(pset2), x)[0].value
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("damage", CHECKPOINT_FAULTS)
    def test_damaged_checkpoint_rejected(self, tmp_path, damage):
        path = str(tmp_path / "c.json")
        mz.save_checkpoint(path, small_energy_spec(), mz.init_params(small_energy_spec(), 0))
        with open(path) as fh:
            doc = damage_checkpoint(json.load(fh), damage)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(mz.ModelError, match=re.escape(CHECKPOINT_FAULTS[damage])):
            mz.load_checkpoint(path)

    def test_unfillable_flow_depth_rejected_before_its_layout(self, tmp_path):
        # a few hundred bytes that claim 200,000 flow layers: the layout alone
        # would be 600,000 entries
        spec = mz.ModelSpec(input_dim=2, head="flow", n_flow_layers=200_000)
        path = str(tmp_path / "c.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": mz.CHECKPOINT_SCHEMA_VERSION,
                       "spec": dataclasses.asdict(spec), "seed": 0, "parameters": [0.0] * 4,
                       "metadata": {}}, fh)
        tracemalloc.start()
        try:
            with pytest.raises(mz.ModelError, match="parameter count 4 cannot fill 200000 flow"):
                mz.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_version_mismatch_rejected(self, tmp_path):
        spec = small_energy_spec()
        pset = mz.init_params(spec, 0)
        path = str(tmp_path / "c.json")
        mz.save_checkpoint(path, spec, pset)
        doc = json.load(open(path))
        doc["schema_version"] = 99
        json.dump(doc, open(path, "w"))
        with pytest.raises(mz.ModelError):
            mz.load_checkpoint(path)
