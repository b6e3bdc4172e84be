"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import math
import os
import warnings

import numpy as np
import pytest

from ebmlab import autodiff as ad
from ebmlab import data as dt
from ebmlab import evaluate as ev
from ebmlab import models as mz
from ebmlab import objectives as obj
from ebmlab import samplers as sp
from ebmlab import training as tr
from ebmlab.rng import rademacher


def _line(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:>2}: {status} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def _rel_err(got, want):
    got = np.asarray(got, dtype=np.float64).ravel()
    want = np.asarray(want, dtype=np.float64).ravel()
    scale = max(float(np.abs(want).max()), 1e-12)
    return float(np.abs(got - want).max()) / scale


def _random_mlp(rng):
    # smooth activation: finite differences are only valid away from kinks
    n_layers = int(rng.integers(1, 4))
    hidden = [int(rng.integers(2, 17)) for _ in range(n_layers)]
    dim = int(rng.integers(1, 5))
    spec = mz.ModelSpec(input_dim=dim, hidden=hidden, activation="softplus", head="energy")
    return spec, mz.init_params(spec, int(rng.integers(0, 10_000)))


class TestCriterion1Differentiation:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(101)
        worst_param = worst_input = 0.0
        h = 1e-4
        for _ in range(100):
            spec, pset = _random_mlp(rng)
            x = rng.normal(size=(3, spec.input_dim))

            leaves = mz.param_nodes(pset)
            loss = ad.mean(mz.energy(spec, leaves, x))
            grads = ad.grad(loss, list(leaves.values()))
            flat = np.concatenate([g.value.ravel() for g in grads])
            fd = np.zeros_like(flat)
            for i in range(pset.values.size):
                vp, vm = pset.copy(), pset.copy()
                vp.values[i] += h
                vm.values[i] -= h
                fd[i] = (mz.energy(spec, vp, x).value.mean()
                         - mz.energy(spec, vm, x).value.mean()) / (2 * h)
            worst_param = max(worst_param, _rel_err(flat, fd))

            xn = ad.leaf(x)
            (gx,) = ad.grad(ad.mean(mz.energy(spec, pset, xn)), [xn])
            fdx = np.zeros_like(x)
            for i in range(x.shape[0]):
                for j in range(x.shape[1]):
                    xp, xm = x.copy(), x.copy()
                    xp[i, j] += h
                    xm[i, j] -= h
                    fdx[i, j] = (mz.energy(spec, pset, xp).value.mean()
                                 - mz.energy(spec, pset, xm).value.mean()) / (2 * h)
            worst_input = max(worst_input, _rel_err(gx.value, fdx))
        ok = worst_param < 1e-6 and worst_input < 1e-6
        _line(1, "first-order gradients vs finite differences", ok,
              f"param {worst_param:.2e}, input {worst_input:.2e}")

    def test_second_order_parameter_gradients(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        h = 1e-4
        for _ in range(10):
            spec = mz.ModelSpec(input_dim=2, hidden=[int(rng.integers(2, 5))],
                                activation="softplus", head="energy")
            pset = mz.init_params(spec, int(rng.integers(0, 1000)))
            x = rng.normal(size=(4, 2))
            v = rademacher(rng, x.shape)

            leaves = mz.param_nodes(pset)
            loss = obj.ssm_vr_loss(obj.make_energy_fn(spec, leaves), x, v)
            grads = ad.grad(loss, list(leaves.values()))
            flat = np.concatenate([g.value.ravel() for g in grads])

            def loss_at(values):
                q = pset.copy()
                q.values[:] = values
                return float(obj.ssm_vr_loss(obj.make_energy_fn(spec, q), x, v).value)

            fd = np.zeros_like(flat)
            for i in range(pset.values.size):
                vp, vm = pset.values.copy(), pset.values.copy()
                vp[i] += h
                vm[i] -= h
                fd[i] = (loss_at(vp) - loss_at(vm)) / (2 * h)
            worst = max(worst, _rel_err(flat, fd))
        _line(1, "second-order (score matching) parameter gradients", worst < 1e-4,
              f"max rel err {worst:.2e}")


class TestCriterion2SsmAnalytic:
    def test_standard_normal_energy(self):
        rng = np.random.default_rng(2)

        def energy(x):
            axis = 1 if x.value.ndim == 2 else None
            return ad.mul(0.5, ad.reduce_sum(ad.mul(x, x), axis=axis))

        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 9))
            x = rng.normal(size=(1, d))
            v = rademacher(rng, x.shape)
            loss = obj.ssm_vr_loss(energy, x, v).value
            expected = -d + 0.5 * float((x**2).sum())
            worst = max(worst, abs(loss - expected))
        _line(2, "sliced score matching closed form on quadratic energy",
              worst < 1e-8, f"max abs err {worst:.2e}")


class TestCriterion3SgldStationarity:
    def test_ou_variance(self):
        from test_samplers import quadratic_grad, sgld_trajectory

        cfg = sp.SgldConfig(steps=100_000, step_size=0.01, noise_std=0.1)
        # 16 parallel chains: the autocorrelation time is ~2/alpha = 200
        # steps, so a single chain has too few effective samples for a
        # 10% band
        traj = sgld_trajectory(quadratic_grad, np.zeros((16, 1)), cfg, np.random.default_rng(33))
        var = float(traj[10_000:].var())
        target = cfg.noise_std**2 / cfg.step_size
        ok = abs(var - target) / target < 0.10
        _line(3, "SGLD stationary variance vs Ornstein-Uhlenbeck closed form",
              ok, f"empirical {var:.4f}, target {target:.4f}")


class TestCriterion4CdRecovery:
    def test_precision_recovery(self):
        thetas = []
        for seed in range(5):
            rng = np.random.default_rng(400 + seed)
            data = rng.normal(size=(4000, 1)) * math.sqrt(0.5)
            theta = 3.0
            adam = tr.Adam(1)
            for step in range(400):
                t = ad.leaf(np.asarray(theta))

                def energy(x, t=t):
                    return ad.mul(t, ad.reduce_sum(ad.mul(x, x), axis=1))

                xd = data[rng.integers(0, len(data), size=128)]
                xs = rng.normal(size=(128, 1)) * math.sqrt(1.0 / (2.0 * theta))
                (g,) = ad.grad(obj.cd_loss(energy, xd, xs), [t])
                theta = max(theta - float(adam.step(np.array([g.value]), 0.02)[0]), 1e-3)
            thetas.append(theta)
        med = float(np.median(thetas))
        _line(4, "contrastive divergence recovers the Gaussian precision",
              0.8 <= med <= 1.2, f"median theta {med:.3f} over {thetas}")


class TestCriterion5AveragePrecision:
    def test_oracle_equivalence(self):
        from test_evaluate import ap_by_threshold_enumeration

        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 21))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=n) * 2) / 2  # forces ties
            worst = max(worst, abs(ev.average_precision(labels, scores)
                                   - ap_by_threshold_enumeration(labels, scores)))
        hand = ev.average_precision([0, 1, 0, 1], [4, 3, 2, 1])
        ok = worst <= 1e-12 and abs(hand - 0.5) <= 1e-12
        _line(5, "average precision matches exhaustive threshold enumeration",
              ok, f"max err {worst:.1e}, hand case {hand}")


class TestCriterion6FlowSanity:
    def test_mixture_beats_single_gaussian(self):
        rng = np.random.default_rng(6)

        def mixture(n):
            comp = rng.integers(0, 2, size=n)
            return (np.where(comp == 0, -2.0, 2.0) + 0.5 * rng.normal(size=n))[:, None]

        train_x = mixture(4000)
        test_x = mixture(2000)
        mu, var = train_x.mean(), train_x.var()
        base_ll = float((-0.5 * (test_x - mu)**2 / var
                         - 0.5 * math.log(2 * math.pi * var)).mean())

        spec = mz.ModelSpec(input_dim=1, head="flow", n_flow_layers=20)
        pset = mz.init_params(spec, 0)
        adam = tr.Adam(pset.size)
        for step in range(1, 1001):
            xb = train_x[rng.integers(0, len(train_x), size=128)]
            leaves = mz.param_nodes(pset)
            g = tr._param_grads(obj.flow_nll(spec, leaves, xb), leaves, pset)
            pset.values -= adam.step(g, tr.warmup_lr(1e-2, step, 100))
        flow_ll = float(mz.flow_logdensity(spec, pset, test_x).value.mean())

        grid = np.linspace(-20.0, 20.0, 20001)
        integral = float(np.trapezoid(
            np.exp(mz.flow_logdensity(spec, pset, grid[:, None]).value), grid))
        ok = flow_ll - base_ll >= 0.05 and abs(integral - 1.0) <= 1e-3
        _line(6, "radial flow beats single-Gaussian MLE and normalizes",
              ok, f"margin {flow_ll - base_ll:.3f} nats, integral {integral:.5f}")


def train_all(configs):
    """``train`` each config, in worker processes, on one bundle built from
    the first: the configs share their data block. Raises the first error."""
    bundle = tr.build_bundle(configs[0])
    results = tr.train_many([(config, bundle) for config in configs])
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def toy_moons_config(objective, seed, **kw):
    d = dict(
        objective=objective,
        data={"kind": "two_moons", "n": 2000, "noise_std": 0.1, "seed": 123},
        seed=seed,
        warmup_steps=100,
        batch_size=64,
        eval_interval=50,
        hidden=[64, 64, 64],
    )
    d.update(kw)
    return tr.RunConfig.from_dict(d)


class TestCriterion7ToyOodSeparation:
    @pytest.mark.parametrize("objective,kw", [
        ("ssm", {"activation": "softplus", "steps": 1200}),
        ("cd", {"steps": 800, "sgld_steps": 30, "sgld_noise_std": 0.1}),
        ("vera", {"steps": 400, "eval_interval": 100,
                  "vera": {"n_posterior_samples": 5}}),
    ])
    def test_median_ap(self, objective, kw):
        aps = []
        for result in train_all([toy_moons_config(objective, seed, **kw) for seed in range(5)]):
            nat = [r for r in result.report.results if r["group"] == "natural"][0]
            aps.append(nat["auc_pr"])
        med = float(np.median(aps))
        _line(7, f"{objective} two-moons ID vs uniform-noise AP",
              med >= 0.95, f"median {med:.3f} over {[round(a, 3) for a in aps]}")


@pytest.fixture(scope="module")
def supervision_runs(tmp_path_factory):
    """Class-removal blobs split trained with and without the CE term."""
    rng = np.random.default_rng(2024)
    # removed class 0 sits at the centroid of the kept triangle
    means = np.array([[1.5, 0.87], [0.0, 0.0], [3.0, 0.0], [1.5, 2.6]])
    feats = np.concatenate([m + 0.5 * rng.normal(size=(250, 2)) for m in means])
    feats = np.concatenate([feats, rng.normal(size=(len(feats), 2))], axis=1)
    labels = np.repeat(np.arange(4), 250)
    path = str(tmp_path_factory.mktemp("blobs") / "blobs.csv")
    dt.write_csv(path, dt.LabeledTable(feats, labels))

    configs = [tr.RunConfig.from_dict(dict(
        objective="cd", gamma=gamma, seed=seed,
        data={"kind": "csv", "path": path, "removed_classes": [0], "seed": 11},
        steps=500, warmup_steps=50, batch_size=64, eval_interval=50,
        hidden=[32, 32], sgld_steps=30, sgld_noise_std=0.1,
    )) for gamma in (0.0, 1.0) for seed in range(5)]
    results = train_all(configs)
    return {0.0: results[:5], 1.0: results[5:]}


class TestCriterion8SupervisionTrend:
    def test_gamma_one_improves_natural_ood(self, supervision_runs):
        def natural_aps(rs):
            return [next(r["auc_pr"] for r in res.report.results
                         if r["group"] == "natural") for res in rs]

        base = natural_aps(supervision_runs[0.0])
        sup = natural_aps(supervision_runs[1.0])
        m0, m1 = float(np.median(base)), float(np.median(sup))
        _line(8, "supervised JEM-CD improves natural-OOD detection",
              m1 >= m0, f"gamma=1 median {m1:.3f} vs gamma=0 median {m0:.3f}")


class TestCriterion9OffManifoldTrend:
    def test_density_grows_far_from_data(self, supervision_runs):
        # warn-level: reported but non-blocking; the effect is only
        # demonstrated at image scale in the source experiments
        model = supervision_runs[1.0][0]
        anchor = model.bundle.id_train.features.mean(axis=0)
        dirs = ev.unit_directions_through(anchor, model.bundle.id_test.features[:64])
        curve = ev.norm_sweep(model.spec, model.params, anchor, dirs, [5.0, 50.0])
        ok = curve[1] > curve[0]
        status = "PASS" if ok else "WARN"
        print(f"criterion  9: {status} - log-density at radius 50 vs 5 "
              f"({curve[1]:.2f} vs {curve[0]:.2f}, non-blocking)")
        if not ok:
            warnings.warn("norm sweep did not increase from radius 5 to 50")


class _ConstantRng:
    def uniform(self, lo, hi, size):
        return np.full(size, 0.7)


class TestCriterion10Generators:
    def test_smoothness_ladder(self):
        rng = np.random.default_rng(10)
        identity = dt.make_smoothness(10, 4, 1, rng)
        ok_identity = identity.shape == (10, 16) and len(np.unique(identity)) == 160

        const = dt.make_smoothness(3, 48, 16, _ConstantRng())
        ok_const = np.allclose(const, 0.7)

        variances = [dt.make_smoothness(1000, 48, p, np.random.default_rng(11)).var()
                     for p in (2, 3, 4, 16)]
        ok_mono = all(a > b for a, b in zip(variances, variances[1:]))
        _line(10, "smoothness ladder identity / constant / variance monotonicity",
              ok_identity and ok_const and ok_mono,
              f"variances {[round(float(v), 5) for v in variances]}")

    def test_probe_generator_examples(self):
        rng = np.random.default_rng(12)
        # 50-d Gaussian rows essentially never fit in the unit box, so the
        # box count isolates the uniform half exactly
        noise = dt.make_noise(1000, 50, rng)
        in_box = int((np.abs(noise).max(axis=1) <= 1.0).sum())
        ok_noise = in_box == 500 and np.all(np.abs(noise[np.abs(noise).max(axis=1) <= 1.0]) <= 1.0)
        gauss_var = noise[np.abs(noise).max(axis=1) > 1.0].var()
        ok_noise = ok_noise and 0.9 <= gauss_var <= 1.1

        const = dt.make_constant(100, 6, rng)
        ok_const = (np.all(const == const[:, :1])
                    and np.all((const >= -1.0) & (const <= 1.0))
                    and len(np.unique(const[:, 0])) == 100)

        ood = dt.make_oodomain(np.array([[0.1, -0.2]]))
        img = dt.make_oodomain(np.array([[0.0, 0.5, 1.0]]), mode="image")
        feats = rng.normal(size=(20, 3))
        ok_ood = (np.allclose(ood, [[25.5, -51.0]])
                  and np.allclose(np.abs(dt.make_oodomain(feats)).max(),
                                  255.0 * np.abs(feats).max())
                  and np.array_equal(img, [[0.0, 128.0, 255.0]]))
        _line(10, "noise / constant / out-of-domain generator contracts",
              ok_noise and ok_const and ok_ood)


class TestCriterion11Reproducibility:
    CONFIG = dict(
        objective="cd",
        data={"kind": "two_moons", "n": 300, "noise_std": 0.1, "seed": 7},
        seed=0, steps=20, warmup_steps=5, batch_size=32, eval_interval=10,
        hidden=[16, 16], sgld_steps=5, sgld_noise_std=0.1,
    )

    def test_suite_byte_identical(self, tmp_path):
        cfg = self.CONFIG
        manifest = {
            "runs": [
                {"name": "base", "config": cfg},
                {"name": "sup", "config": dict(cfg, gamma=1.0), "baseline": "base"},
            ],
            "analyses": [
                {"kind": "norm_sweep", "model": "base", "radii": [0, 1, 5], "name": "sweep"},
            ],
        }
        outs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for out in outs:
            tr.run_experiment_suite(json.loads(json.dumps(manifest)), out)
        files, mismatched = _compare_trees(*outs)
        _line(11, "suite outputs byte-identical across consecutive runs",
              not mismatched, f"{len(files)} files" + (f", mismatched {mismatched}" if mismatched else ""))

    def test_suite_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        cfg = self.CONFIG
        # a CSV without removed classes leaves cd no OOD rows to select on,
        # so that run raises once it trains, in its worker
        path = str(tmp_path / "blobs.csv")
        rng = np.random.default_rng(11)
        dt.write_csv(path, dt.LabeledTable(rng.normal(size=(200, 2)), rng.integers(0, 2, 200)))
        manifest = {
            "runs": [
                {"name": "base", "config": cfg},
                {"name": "sup", "config": dict(cfg, gamma=1.0), "baseline": "base"},
                {"name": "emb", "config": dict(cfg, seed=1, hidden=[8]), "embed_from": "sup"},
                {"name": "bad", "config": dict(cfg, data={"kind": "csv", "path": path})},
                # its data file is read, and found missing, before any run trains
                {"name": "absent", "config": dict(cfg, data={"kind": "csv", "path": path + "x"})},
                {"name": "emb-bad", "config": cfg, "embed_from": "bad"},
                {"name": "seed2", "config": dict(cfg, seed=2), "baseline": "base"},
            ],
            "analyses": [
                {"kind": "norm_sweep", "model": "emb", "radii": [0, 1, 5], "name": "sweep"},
                {"kind": "ascend", "model": "sup", "n_points": 2, "steps": 3, "name": "climb"},
            ],
        }
        outs, summaries = [str(tmp_path / "w1"), str(tmp_path / "w2")], []
        for workers, out in zip((1, 2), outs):
            monkeypatch.setattr(tr, "_usable_cpus", lambda: workers)
            summaries.append(tr.run_experiment_suite(json.loads(json.dumps(manifest)), out))
        errors = summaries[0]["errors"]
        assert list(errors) == ["bad", "absent", "emb-bad"]  # in manifest order, as in serial
        assert errors["bad"].startswith("ConfigError: objective 'cd' selects")
        assert errors["emb-bad"] == "ConfigError: embed_from run 'bad' unavailable"
        files, mismatched = _compare_trees(*outs)
        ok = not mismatched and summaries[0] == summaries[1]
        _line(11, "suite outputs byte-identical at 1 and 2 worker processes", ok,
              f"{len(files)} files" + (f", mismatched {mismatched}" if mismatched else ""))


def _compare_trees(a, b):
    """(every file under ``a``, relative, and those whose bytes differ in
    ``b``); both trees must hold the same files."""
    def tree(top):
        return sorted(os.path.relpath(os.path.join(root, name), top)
                      for root, _, names in os.walk(top) for name in names)

    files = tree(a)
    assert files and files == tree(b)
    mismatched = [rel for rel in files if open(os.path.join(a, rel), "rb").read()
                  != open(os.path.join(b, rel), "rb").read()]
    return files, mismatched
