"""Self-tests of the benchmark's AP oracle, span arithmetic, tracer and
wall-clock guard. Run with ``PYTHONPATH=src python -m pytest benchmarks/tests``."""

import collections
import inspect
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
from ebmlab import evaluate, training  # noqa: E402


@pytest.mark.parametrize("tied", [True, False])
def test_oracle_matches_evaluate(tied):
    rng = np.random.default_rng(11)
    for n in [2, 3, 5, 17, 200, 5000]:
        for _ in range(20 if n < 1000 else 2):
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            scores = rng.normal(size=n)
            if tied:
                scores = np.round(scores * 2) / 2
            want = evaluate.average_precision(labels, scores)
            assert abs(oracle.average_precision(labels, scores) - want) <= 1e-12


def test_oracle_constant_scorer_gets_prevalence():
    labels = np.array([1, 0, 0, 1, 1])
    assert oracle.average_precision(labels, np.zeros(5)) == pytest.approx(0.6, abs=1e-15)


def _span(name, start, end, parent, attr=None):
    return [name, start, end, parent, attr]


def test_self_times_subtract_direct_children_only():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("training.train", 1.0, 9.0, 0),
        _span("samplers.sgld_chain", 2.0, 6.0, 1),
        _span("autodiff.grad", 3.0, 5.0, 2),
        _span("autodiff.grad", 6.5, 8.0, 1),
        _span("autodiff.grad", 9.2, 9.5, 0),  # neither input nor parameter gradient
    ]
    assert tracing.self_times(spans) == pytest.approx([1.7, 2.5, 2.0, 2.0, 1.5, 0.3])
    m = tracing.layer_metrics(spans, collections.Counter(nodes=7))
    assert m["autodiff.grad_calls"] == 3
    assert m["autodiff.input_grad_s"] == pytest.approx(2.0)  # under a sampler
    assert m["autodiff.param_backward_s"] == pytest.approx(1.5)  # directly under train
    assert m["samplers.sgld_chain_self_s"] == pytest.approx(2.0)
    assert m["training.train_self_s"] == pytest.approx(2.5)
    assert m["autodiff.nodes_created"] == 7
    assert m["autodiff.self_s"] == pytest.approx(3.8)


def test_vera_posterior_is_the_wider_generator_pass():
    spans = [
        _span("objectives.vera_step", 0.0, 10.0, -1, (64, 3)),
        _span("models.mlp_forward", 1.0, 2.0, 0, 64),
        _span("models.mlp_forward", 3.0, 7.0, 0, 320),
    ]
    m = tracing.layer_metrics(spans, collections.Counter())
    assert m["objectives.vera_posterior_s"] == pytest.approx(4.0)
    assert m["objectives.vera_skipped_frac"] == pytest.approx(3 / 64)


def _snapshot():
    """Identity of every attribute of every ebmlab module and class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ebmlab" or name.startswith("ebmlab.")):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def _tiny_cd():
    return training.RunConfig.from_dict({
        "objective": "cd",
        "data": {"kind": "two_moons", "n": 200, "noise_std": 0.1, "seed": 1},
        "seed": 0, "steps": 3, "warmup_steps": 1, "eval_interval": 2,
        "hidden": [8], "sgld_steps": 2, "sgld_noise_std": 0.1,
    })


def test_tracer_restores_every_attribute_and_matches_untraced_output():
    before = _snapshot()
    plain = training.train(_tiny_cd())
    tracer = tracing.Tracer()
    with tracer:
        assert training.sgld_chain is not before[("ebmlab.training", "sgld_chain")]
        traced = training.train(_tiny_cd())
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = {s[0] for s in tracer.spans}
    # reached through names imported into training, not only the home modules
    assert {"samplers.sgld_chain", "samplers.ReplayBuffer.draw", "objectives.cd_loss",
            "models.mlp_forward", "autodiff.grad", "training.Adam.step"} <= names
    assert tracer.counts["nodes"] > 0 and tracer.counts["matmul_flop"] > 0
    assert traced.report.to_dict() == plain.report.to_dict()
    assert np.array_equal(traced.params.values, plain.params.values)


def test_tracer_counts_nodes_and_matmul_flops_from_shapes():
    from ebmlab import autodiff

    tracer = tracing.Tracer()
    with tracer:
        autodiff.matmul(np.ones((3, 4)), np.ones((4, 5)))
    assert tracer.counts["matmul_flop"] == 2 * 3 * 4 * 5
    assert tracer.counts["nodes"] == 3  # two operands and the product


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    after = _snapshot()
    assert [k for k in before if after[k] is not before[k]] == []


def test_wall_clock_limit_turns_a_hang_into_a_failure():
    import harness

    t0 = time.perf_counter()
    with pytest.raises(harness.OpTimeout):
        with harness.wall_clock_limit(0.2):
            while True:
                pass
    assert time.perf_counter() - t0 < 5.0
