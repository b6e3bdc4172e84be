import csv
import dataclasses
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from ebmlab import cli
from ebmlab import models as mz
from ebmlab import objectives as obj
from ebmlab import training as tr
from ebmlab.data import DataError, LabeledTable, SplitBundle, write_csv
from ebmlab.evaluate import EvalReport
from test_models import CHECKPOINT_FAULTS, damage_checkpoint, engine_input_grad


def write_toy_csv(path, dim=4, n=200, seed=0):
    rng = np.random.default_rng(seed)
    write_csv(str(path), LabeledTable(rng.normal(size=(n, dim)), rng.integers(0, 3, size=n)))
    return str(path)


def toy_config(**kw):
    d = dict(
        objective="cd",
        data={"kind": "two_moons", "n": 300, "noise_std": 0.1, "seed": 7},
        seed=0,
        steps=20,
        warmup_steps=5,
        batch_size=32,
        eval_interval=10,
        hidden=[16, 16],
        sgld_steps=5,
        sgld_noise_std=0.1,
    )
    d.update(kw)
    return tr.RunConfig.from_dict(d)


# run, data and VERA values the rule tables refuse, each with the message
# that names it; none of them may get as far as training
BAD_BLOCKS = [
    ({"activation": "tanh"}, "activation must be 'relu' or 'leaky_relu' or 'softplus'"),
    ({"bottleneck_factor": 2.0}, "bottleneck_factor must be null or a number in (0, 1], got 2.0"),
    ({"bottleneck_factor": True}, "bottleneck_factor must be null or a number in (0, 1], got True"),
    ({"data": {"kind": "two_moons", "flavor": "x"}}, "unknown data keys: ['flavor']"),
    ({"data": {"kind": "mnist"}}, "unknown data kind 'mnist'"),
    ({"data": {"kind": "two_moons", "noise_std": "x"}}, "data noise_std must be a finite number"),
    ({"data": {"kind": "two_moons", "noise_std": -1.0}}, "data noise_std must be a finite number"),
    ({"data": {"kind": "two_moons", "ood_margin": -5}}, "data ood_margin must be a finite number"),
    ({"data": {"kind": "csv"}}, "data path is required"),
    ({"data": {"kind": "csv", "path": "d.csv", "id_fracs": [0.5, 0.1, 0.9]}},
     "data id_fracs must be three finite numbers >= 0 that sum to 1, got [0.5, 0.1, 0.9]"),
    ({"data": {"kind": "csv", "path": "d.csv", "ood_val_frac": 1.5}},
     "data ood_val_frac must be a finite number >= 0 and <= 1"),
    ({"vera": {"n_posterior_samples": 2.5}}, "vera n_posterior_samples must be an integer >= 1"),
    ({"vera": {"latent_dim": True}}, "vera latent_dim must be an integer >= 1, got True"),
    ({"vera": {"gen_betas": [0.5]}}, "vera gen_betas must be two numbers in [0, 1), got [0.5]"),
    ({"vera": {"eta_init": 5.0}}, "vera eta_init must be a number in [eta_min 0.01, eta_max 0.3], "
                                  "got 5.0"),
]


# suite manifests whose own keys or run items the rule tables refuse
BAD_MANIFESTS = [
    ({"runs": [], "analysis": [{"kind": "norm_sweep", "model": "m"}]},
     "unknown suite keys: ['analysis']"),
    ({"runs": {"name": "m", "config": {}}}, "suite runs must be a list of dicts"),
    ({"runs": [], "analyses": {"kind": "norm_sweep"}}, "suite analyses must be a list of dicts"),
    ({"runs": [{"config": {}}]}, "run name is required"),
    ({"runs": [{"name": "m"}]}, "run config is required"),
    ({"runs": [{"name": "m", "config": {}, "embed": "x"}]}, "unknown run keys: ['embed']"),
    ({"runs": [{"name": 3, "config": {}}]}, "run name must be a string, got 3"),
    ({"runs": [{"name": "m", "config": {}, "baseline": 5}]},
     "run baseline must be null or a run name, got 5"),
    ({"runs": [{"name": "m", "config": {}, "baseline": "nobody"}]},
     "run 'm': baseline 'nobody' names no run"),
]


class TestWarmup:
    def test_ramp(self):
        assert tr.warmup_lr(1e-3, 0) == 0.0
        assert tr.warmup_lr(1e-3, 1250) == pytest.approx(5e-4)
        assert tr.warmup_lr(1e-3, 2500) == pytest.approx(1e-3)
        assert tr.warmup_lr(1e-3, 9999) == pytest.approx(1e-3)

    def test_zero_window(self):
        assert tr.warmup_lr(0.5, 0, warmup_steps=0) == 0.5


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # bias correction makes the first update lr * sign(grad)
        opt = tr.Adam(3)
        up = opt.step(np.array([1.0, -2.0, 0.5]), lr=0.1)
        assert np.allclose(up, [0.1, -0.1, 0.1], atol=1e-6)

    def test_zero_gradient_no_update(self):
        opt = tr.Adam(2)
        assert np.allclose(opt.step(np.zeros(2), 0.1), 0.0)

    def test_converges_on_quadratic(self):
        opt = tr.Adam(1)
        x = np.array([5.0])
        for _ in range(2000):
            x -= opt.step(2 * x, lr=0.05)
        assert abs(x[0]) < 1e-3

    @pytest.mark.parametrize("betas", [(0.9, 0.999), (0.0, 0.9)])
    @pytest.mark.parametrize("size", [1, 7, 8577, 42302])
    def test_in_place_step_equals_the_formula(self, size, betas):
        # the formula Adam.step computed with fresh arrays, as the oracle
        b1, b2 = betas
        m, v = np.zeros(size), np.zeros(size)
        opt, rng = tr.Adam(size, betas=betas), np.random.default_rng(size)
        for t in range(1, 61):
            grad, lr = rng.normal(size=size) * 10.0 ** rng.integers(-8, 3), 10.0 ** -rng.uniform(2, 5)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            want = lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + 1e-8)
            assert opt.step(grad, lr).tobytes() == want.tobytes(), t
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()


class TestRunConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(tr.ConfigError, match="learning_rate"):
            tr.RunConfig.from_dict({"objective": "cd", "data": {"kind": "two_moons"},
                                    "learning_rate": 0.1})

    def test_unknown_objective(self):
        with pytest.raises(tr.ConfigError):
            tr.RunConfig.from_dict({"objective": "wgan", "data": {"kind": "two_moons"}})

    def test_gamma_on_baselines_rejected(self):
        for objective in ("nf", "ce"):
            with pytest.raises(tr.ConfigError):
                tr.RunConfig.from_dict({"objective": objective, "gamma": 1.0,
                                        "data": {"kind": "two_moons"}})

    def test_default_lrs(self):
        for objective, lr in (("cd", 1e-3), ("ssm", 1e-3), ("nf", 1e-3),
                              ("ce", 1e-3), ("vera", 3e-4)):
            cfg = tr.RunConfig(objective=objective, data={"kind": "two_moons"},
                               activation="softplus")
            assert cfg.base_lr == lr

    def test_bad_vera_config_rejected(self):
        for vera in ({"nope": 1}, {"entropy_weight": -1.0}, {"ebm_lr": 3e-4},
                     {"n_posterior_samples": 0}, {"latent_dim": 0}, {"gen_noise_std": 0},
                     {"gen_lr": -1e-3}, {"eta_lr": 0}, {"eta_init": 0}, {"eta_min": 0},
                     {"eta_min": 0.5, "eta_max": 0.1}, {"n_posterior_samples": 2.5},
                     {"latent_dim": True}, {"gen_betas": [0.5]}, {"eta_init": 0.005},
                     {"eta_min": 0.2, "eta_init": 0.1}, {"eta_max": 0.05}):
            with pytest.raises(tr.ConfigError, match="vera"):
                toy_config(objective="vera", vera=vera)

    def test_round_trip(self):
        cfg = toy_config(gamma=0.5)
        assert tr.RunConfig.from_dict(cfg.to_dict()) == cfg


def test_rule_tables_cover_every_field(tmp_path, monkeypatch):
    """The run and VERA tables list exactly their dataclass's fields, and
    each data and analysis table exactly the keys its reader takes."""
    assert list(tr._RUN) == [f.name for f in dataclasses.fields(tr.RunConfig)]
    assert list(tr._VERA) == [f.name for f in dataclasses.fields(obj.VeraConfig)]
    read = set()

    class Reads(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    check = tr.check_fields
    csv_config = toy_config(data={"kind": "csv", "path": write_toy_csv(tmp_path / "d.csv"),
                                  "removed_classes": [2]})
    monkeypatch.setattr(tr, "check_fields", lambda *a: Reads(check(*a)))
    for config in (toy_config(), csv_config):
        read.clear()
        tr.build_bundle(config)
        assert read == set(tr._DATA[config.data["kind"]])
    part = LabeledTable(np.random.default_rng(0).normal(size=(3, 4)))
    spec = mz.ModelSpec(input_dim=4, hidden=[4], head="energy")
    items = {"norm_sweep": {}, "smoothness": {"side": 2, "pool_sizes": [1, 2], "n": 5},
             "ascend": {"n_points": 1, "steps": 1}}
    assert list(items) == list(tr.ANALYSES)
    for kind, item in items.items():
        read.clear()
        tr.run_analysis(item | {"kind": kind}, spec, mz.init_params(spec, 0),
                        SplitBundle(*[part] * 5), 0, str(tmp_path))
        assert read == set(tr.ANALYSES[kind])


class TestBuildBundle:
    def test_unknown_kind(self):
        with pytest.raises(tr.ConfigError):
            tr.build_bundle(tr.RunConfig(objective="cd", data={"kind": "mnist"}))

    def test_unknown_data_key(self):
        with pytest.raises(tr.ConfigError, match="flavor"):
            tr.build_bundle(toy_config(data={"kind": "two_moons", "n": 100, "flavor": "x"}))

    def test_two_moons_bundle_standardized(self):
        bundle = tr.build_bundle(toy_config())
        assert np.abs(bundle.id_train.features.mean(axis=0)).max() < 1e-10
        assert bundle.id_train.n == 210
        assert bundle.id_val.n == 30
        assert bundle.id_test.n == 60
        assert bundle.ood_test.n == 60
        assert bundle.ood_val.n > 0

    def test_two_moons_ood_avoids_data(self, monkeypatch):
        # unstandardized distances: OOD points were rejection-sampled away
        monkeypatch.setattr(tr, "standardize", lambda bundle: bundle)
        bundle = tr.build_bundle(toy_config())
        data, ood = bundle.id_train.features, bundle.ood_test.features
        d2 = ((ood[:, None, :] - data[None, :, :]) ** 2).sum(axis=2)
        assert np.sqrt(d2.min(axis=1)).min() >= 0.3 - 1e-9

    def test_unreachable_exclusion_radius_fails_fast(self, time_limit):
        cfg = toy_config(data={"kind": "two_moons", "n": 300, "ood_exclusion_radius": 50})
        with time_limit(20), pytest.raises(DataError, match="ood_exclusion_radius"):
            tr.build_bundle(cfg)

    @pytest.mark.parametrize("n,named", [
        (3, "two_moons split leaves id_val with no rows"),
        (1, "two_moons split leaves id_val with no rows"),
        (0, "data n must be an integer >= 1, got 0"),
        (2.5, "data n must be an integer >= 1, got 2.5"),
    ])
    def test_empty_split_part_rejected(self, n, named):
        with pytest.raises(tr.ConfigError) as err:
            tr.build_bundle(toy_config(data={"kind": "two_moons", "n": n}))
        assert named in str(err.value)

    def test_empty_csv_split_part_rejected(self, tmp_path, capsys):
        # 5 kept rows split 70/10/20 leave id_val empty
        path = str(tmp_path / "d.csv")
        write_csv(path, LabeledTable(np.arange(16.0).reshape(8, 2), [0, 0, 0, 1, 1, 2, 2, 2]))
        config = toy_config(data={"kind": "csv", "path": path, "removed_classes": [2]})
        with pytest.raises(tr.ConfigError, match="csv split leaves id_val with no rows"):
            tr.build_bundle(config)
        cfg_path = write_json(tmp_path / "c.json", config.to_dict())
        assert cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        assert "id_val with no rows" in capsys.readouterr().err

    def test_csv_bundle(self, tmp_path):
        rng = np.random.default_rng(0)
        table = LabeledTable(rng.normal(size=(100, 3)), rng.integers(0, 3, size=100))
        path = str(tmp_path / "d.csv")
        write_csv(path, table)
        cfg = tr.RunConfig(objective="cd",
                           data={"kind": "csv", "path": path, "removed_classes": [2]})
        bundle = tr.build_bundle(cfg)
        total = sum(p.n for p in bundle.parts().values())
        assert total == 100
        ood_labels = np.concatenate([bundle.ood_val.labels, bundle.ood_test.labels])
        assert set(ood_labels.tolist()) == {2}


class TestBuildModelSpec:
    def test_heads(self):
        bundle = tr.build_bundle(toy_config())
        assert tr.build_model_spec(toy_config(), bundle).head == "energy"
        assert tr.build_model_spec(toy_config(gamma=1.0), bundle).head == "logits"
        assert tr.build_model_spec(toy_config(objective="ce"), bundle).head == "logits"
        assert tr.build_model_spec(toy_config(objective="nf"), bundle).head == "flow"

    def test_supervised_needs_labels(self):
        bundle = tr.build_bundle(toy_config())
        bundle.id_train.labels = None
        with pytest.raises(tr.ConfigError):
            tr.build_model_spec(toy_config(gamma=1.0), bundle)


class TestStandardOodSets:
    def test_contents(self):
        bundle = tr.build_bundle(toy_config())
        sets, groups = tr.standard_ood_sets(bundle, seed=0)
        assert set(groups.values()) == {"non-natural", "natural"}
        assert sets["noise"].shape == bundle.id_test.features.shape
        assert np.array_equal(sets["oodomain"], bundle.id_test.features * 255.0)
        natural = [k for k, g in groups.items() if g == "natural"]
        assert len(natural) == 1
        assert np.array_equal(sets[natural[0]], bundle.ood_test.features)


class TestTrain:
    def test_zero_steps_keeps_init(self):
        cfg = toy_config(steps=0)
        result = tr.train(cfg)
        expected = mz.init_params(result.spec, cfg.seed)
        assert np.array_equal(result.params.values, expected.values)

    def test_deterministic(self):
        a = tr.train(toy_config())
        b = tr.train(toy_config())
        assert a.params.values.tobytes() == b.params.values.tobytes()
        assert a.report.to_dict() == b.report.to_dict()

    def test_seed_changes_result(self):
        a = tr.train(toy_config())
        b = tr.train(toy_config(seed=1))
        assert not np.array_equal(a.params.values, b.params.values)

    def test_cd_makes_progress(self):
        # slightly longer run: selection AP should beat the prevalence floor
        cfg = toy_config(steps=200, eval_interval=50, warmup_steps=20)
        result = tr.train(cfg)
        scores = [s["score"] for s in result.history["selection"]]
        n_id = result.bundle.id_val.n
        prevalence = n_id / (n_id + result.bundle.ood_val.n)
        assert max(scores) > prevalence + 0.1

    def test_history_and_report_populated(self):
        result = tr.train(toy_config())
        assert len(result.history["loss"]) == 20
        assert {r["ood_set"] for r in result.report.results} >= {"noise", "constant", "oodomain"}
        assert result.report.run["objective"] == "cd"

    def test_nf_and_ce_early_stopping_fields(self):
        nf = tr.train(toy_config(objective="nf", steps=30, n_flow_layers=3,
                                 eval_interval=5, patience=2))
        assert len(nf.history["selection"]) >= 1
        ce = tr.train(toy_config(objective="ce", steps=30, eval_interval=5, patience=2))
        assert 0.0 <= ce.history["selection"][0]["score"] <= 1.0

    def test_ssm_uses_softplus(self):
        result = tr.train(toy_config(objective="ssm", activation="softplus", steps=10))
        assert np.all(np.isfinite(result.params.values))

    def test_vera_runs(self):
        result = tr.train(toy_config(objective="vera", steps=5,
                                     vera={"n_posterior_samples": 3, "latent_dim": 4}))
        assert len(result.history["loss"]) == 5 and not result.history["diverged"]
        assert np.all(np.isfinite(result.params.values))

    @pytest.mark.parametrize("objective, name", [("nf", "flow_nll"), ("ce", "jem_term")])
    def test_nonfinite_loss_stops_at_the_best_finite_checkpoint(self, monkeypatch, objective,
                                                                 name):
        # the step's loss (nf's flow NLL, ce's JEM term at weight 1) turns
        # non-finite at step k; selection runs every step
        k = 4
        config = dict(objective=objective, steps=10, eval_interval=1, n_flow_layers=3)
        finite = tr.train(toy_config(**dict(config, steps=k - 1)))
        calls, real = [], getattr(tr, name)

        def diverging(*args):
            calls.append(1)
            out = real(*args)
            if len(calls) < k:
                return out
            return math.nan, out[1]

        monkeypatch.setattr(tr, name, diverging)
        result = tr.train(toy_config(**config))
        assert result.history["diverged"] and len(calls) == k
        assert len(result.history["loss"]) == k - 1
        assert np.all(np.isfinite(result.params.values))
        assert result.params.values.tobytes() == finite.params.values.tobytes()
        assert result.report.to_dict() == finite.report.to_dict()

    def test_jem_gamma_one(self):
        result = tr.train(toy_config(gamma=1.0, steps=10))
        assert result.spec.head == "logits"
        assert result.report.run["gamma"] == 1.0


class TestSaveRun:
    def test_artifacts(self, tmp_path):
        result = tr.train(toy_config(steps=5))
        out = str(tmp_path / "run")
        tr.save_run(result, out)
        spec, params, meta = mz.load_checkpoint(os.path.join(out, "checkpoint.json"))
        assert np.array_equal(params.values, result.params.values)
        assert meta["config"]["objective"] == "cd"
        report = EvalReport.load(os.path.join(out, "report.json"))
        assert report.to_dict() == result.report.to_dict()


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def sweep(tmp_path, grid, seeds=1, **config):
    """``ebmlab sweep-gamma`` on the toy config; returns (exit code, out dir)."""
    cfg = write_json(tmp_path / "config.json",
                     toy_config(steps=5, eval_interval=5, **config).to_dict())
    out = tmp_path / "sweep"
    return cli.main(["sweep-gamma", "--config", cfg, "--grid", grid, "--seeds", str(seeds),
                     "--out", str(out)]), out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestGammaSweep:
    def test_grid_and_labels(self, tmp_path, capsys):
        code, out = sweep(tmp_path, "0,1", seeds=2)
        assert code == 0
        runs = {f"gamma{g}_seed{s}": (float(g), s) for g in (0, 1) for s in (0, 1)}
        names = sorted(runs)
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == names
        for name, (gamma, seed) in runs.items():
            run = EvalReport.load(str(out / name / "report.json")).run
            assert (run["gamma"], run["seed"]) == (gamma, seed)
            assert run["label"] == name + ("-S" if gamma == 1.0 else "")
        assert sorted(os.listdir(out)) == sorted(names + ["aggregate.csv", "gamma_sweep.csv",
                                                          "suite_summary.json"])
        assert "suite complete: 4 runs, 0 errors" in capsys.readouterr().out

    def test_runs_match_train_and_save_run(self, tmp_path):
        code, out = sweep(tmp_path, "0,1", seeds=2)
        assert code == 0
        expected = [["gamma", "auc_pr", "series"]]
        for gamma in (0.0, 1.0):  # grid, then seeds
            for seed in (0, 1):
                name = f"gamma{gamma:g}_seed{seed}"
                alone = tmp_path / "alone" / name
                tr.save_run(tr.train(toy_config(steps=5, eval_interval=5, gamma=gamma,
                                                seed=seed)), str(alone))
                got = (out / name / "checkpoint.json").read_bytes()
                assert got == (alone / "checkpoint.json").read_bytes()
                report = EvalReport.load(str(alone / "report.json"))
                tag = "cd-S" if gamma == 1.0 else "cd"
                expected += [[repr(gamma), repr(r["auc_pr"]), f"{tag}:{r['ood_set']}:seed{seed}"]
                             for r in report.results]
        assert read_csv(out / "gamma_sweep.csv") == expected

    def test_failed_run_keeps_the_others_and_exits_2(self, tmp_path, monkeypatch, capsys):
        train = tr.train

        def failing(config, bundle=None):
            if (config.gamma, config.seed) == (1.0, 0):
                raise RuntimeError("lost the data")
            return train(config, bundle)

        monkeypatch.setattr(tr, "train", failing)
        code, out = sweep(tmp_path, "0,1", seeds=2)
        assert code == 2
        assert "FAILED gamma1_seed0: RuntimeError: lost the data" in capsys.readouterr().out
        for name in ("gamma0_seed0", "gamma0_seed1", "gamma1_seed1"):
            assert (out / name / "checkpoint.json").exists()
        assert not (out / "gamma1_seed0").exists()
        series = [row[2] for row in read_csv(out / "gamma_sweep.csv")[1:]]
        assert {s.split(":")[-1] for s in series if s.startswith("cd-S")} == {"seed1"}

    @pytest.mark.parametrize("grid,seeds,named,config", [
        ("0,abc", 1, "--grid value 'abc'", {}),
        ("", 1, "--grid value ''", {}),
        ("0,-1", 1, "--grid value '-1'", {}),
        ("0,nan", 1, "--grid value 'nan'", {}),
        ("0,inf", 1, "--grid value 'inf'", {}),
        ("0,1", 1, "--grid value '1'", {"objective": "nf"}),
        ("1,1.0", 1, "unique", {}),
        ("0,1", 0, "--seeds must be >= 1, got 0", {}),
    ])
    def test_bad_grid_or_seeds_exit_1_before_training(self, tmp_path, monkeypatch, capsys,
                                                      grid, seeds, named, config):
        trained = []
        monkeypatch.setattr(tr, "train", lambda *a, **k: trained.append(a))
        code, out = sweep(tmp_path, grid, seeds, **config)
        assert code == 1
        assert named in capsys.readouterr().err
        assert trained == [] and not out.exists()

    def test_run_label_suffixes(self):
        cfg = toy_config(gamma=1.0)
        assert tr._run_label("cd", cfg, embedded=False) == "cd-S"
        assert tr._run_label("cd", cfg, embedded=True) == "cd-S-E"
        assert tr._run_label("cd", toy_config(), embedded=False) == "cd"


class TestSuite:
    def _manifest(self, steps=5):
        cfg = toy_config(steps=steps, eval_interval=5).to_dict()
        cfg2 = dict(cfg, gamma=1.0)
        return {
            "runs": [
                {"name": "base", "config": cfg},
                {"name": "sup", "config": cfg2, "baseline": "base"},
            ]
        }

    def test_empty_manifest(self, tmp_path):
        summary = tr.run_experiment_suite({}, str(tmp_path / "out"))
        assert summary["runs"] == []
        assert os.path.exists(str(tmp_path / "out" / "aggregate.csv"))
        assert os.path.exists(str(tmp_path / "out" / "suite_summary.json"))

    def test_two_runs(self, tmp_path):
        out = str(tmp_path / "out")
        summary = tr.run_experiment_suite(self._manifest(), out)
        assert summary["runs"] == ["base", "sup"]
        assert summary["errors"] == {}
        for name in ("base", "sup"):
            assert os.path.exists(os.path.join(out, name, "checkpoint.json"))
            assert os.path.exists(os.path.join(out, name, "report.json"))
        lines = open(os.path.join(out, "aggregate.csv")).read().splitlines()
        assert lines[0].startswith("name,label,")
        # 4 OOD sets per run
        assert len(lines) == 1 + 8

    def test_relative_improvement_arithmetic(self, tmp_path):
        out = str(tmp_path / "out")
        tr.run_experiment_suite(self._manifest(), out)
        base = {r["ood_set"]: r["auc_pr"]
                for r in EvalReport.load(os.path.join(out, "base", "report.json")).results}
        sup = {r["ood_set"]: r["auc_pr"]
               for r in EvalReport.load(os.path.join(out, "sup", "report.json")).results}
        import csv as csvmod

        with open(os.path.join(out, "aggregate.csv")) as fh:
            rows = list(csvmod.DictReader(fh))
        for row in rows:
            if row["name"] == "sup":
                expected = 100.0 * (sup[row["ood_set"]] - base[row["ood_set"]]) / base[row["ood_set"]]
                assert float(row["rel_improvement_pct"]) == pytest.approx(expected, rel=1e-6)
                assert row["label"] == "sup-S"

    def test_failing_run_isolated(self, tmp_path):
        # a valid data config whose file is read only when its run starts
        manifest = self._manifest()
        manifest["runs"][1]["config"]["data"] = {"kind": "csv",
                                                 "path": str(tmp_path / "absent.csv")}
        summary = tr.run_experiment_suite(manifest, str(tmp_path / "out"))
        assert summary["runs"] == ["base"]
        assert "sup" in summary["errors"]

    def test_analysis_outputs(self, tmp_path):
        manifest = self._manifest()
        manifest["analyses"] = [
            {"kind": "norm_sweep", "model": "base", "radii": [0, 1, 5], "name": "sweep"},
            {"kind": "ascend", "model": "base", "n_points": 2, "steps": 3, "name": "climb"},
        ]
        out = str(tmp_path / "out")
        summary = tr.run_experiment_suite(manifest, out)
        assert summary["errors"] == {}
        assert os.path.exists(os.path.join(out, "sweep.csv"))
        assert os.path.exists(os.path.join(out, "climb.csv"))

    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        manifest = self._manifest()
        # no removed classes leave cd no OOD rows to select on: "m" raises
        # once it trains, in its worker
        cfg = manifest["runs"][0]["config"]
        manifest["runs"].append({"name": "m", "config": dict(
            cfg, data={"kind": "csv", "path": write_toy_csv(tmp_path / "t.csv", dim=2)})})
        manifest["analyses"] = [
            {"kind": "norm_sweep", "model": "base", "radii": [0, 1, 5], "name": "sweep"},
            {"kind": "ascend", "model": "sup", "n_points": 2, "steps": 3, "name": "climb"},
            # valid on its own; 4 x 4 images do not fit the 2-input model
            {"kind": "smoothness", "model": "sup", "side": 4, "pool_sizes": [2],
             "name": "misfit"},
            {"kind": "norm_sweep", "model": "m", "name": "orphan"},
        ]
        outs, summaries = [tmp_path / "w1", tmp_path / "w2"], []
        for workers, out in zip((1, 2), outs):
            monkeypatch.setattr(tr, "_worker_count", lambda n_jobs, w=workers: w)
            summaries.append(tr.run_experiment_suite(json.loads(json.dumps(manifest)), str(out)))
        errors = summaries[0]["errors"]
        assert summaries[0] == summaries[1]
        assert list(errors) == ["m", "misfit", "orphan"]  # runs, then analyses, in manifest order
        assert errors["m"].startswith("ConfigError: objective 'cd' selects")
        assert errors["misfit"].startswith("ConfigError: smoothness images of side 4")
        assert errors["orphan"] == "KeyError: 'm'"
        files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
        assert files[0] == files[1]
        assert {"sweep.csv", "climb.csv", "suite_summary.json"} <= {str(f) for f in files[0]}
        assert not (outs[0] / "misfit.csv").exists()
        for rel in files[0]:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_report_omits_csv_path(self, tmp_path):
        os.makedirs(tmp_path / "where")
        path = write_toy_csv(tmp_path / "where" / "data.csv")
        cfg = toy_config(steps=5, eval_interval=5,
                         data={"kind": "csv", "path": path, "removed_classes": [2]})
        out = str(tmp_path / "out")
        tr.run_experiment_suite({"runs": [{"name": "m", "config": cfg.to_dict()}]}, out)
        with open(os.path.join(out, "m", "report.json")) as fh:
            text = fh.read()
        assert "removed-classes" in text
        assert "where" not in text and "data.csv" not in text

    @pytest.mark.parametrize("manifest", [
        {"runs": [{"name": "m", "config": {}}, {"name": "m", "config": {}}]},
        {"analyses": [{"kind": "ascend", "model": "m"}, {"kind": "ascend", "model": "m"}]},
        {"analyses": [{"kind": "norm_sweep", "model": "m", "name": "aggregate"}]},
        {"analyses": [{"kind": "norm_sweep", "model": "m", "name": "m"}]},
    ])
    def test_duplicate_names_rejected_before_training(self, tmp_path, manifest):
        runs = [{"name": "m", "config": toy_config(steps=5, eval_interval=5).to_dict()}]
        manifest = {"runs": runs} | manifest
        out = tmp_path / "out"
        with pytest.raises(tr.ConfigError, match="unique"):
            tr.run_experiment_suite(manifest, str(out))
        assert not out.exists()

    def test_ascend_on_flow_model(self, tmp_path):
        bundle = tr.build_bundle(toy_config())
        spec = mz.ModelSpec(input_dim=2, head="flow", n_flow_layers=2)
        item = {"kind": "ascend", "n_points": 2, "steps": 3}
        rows = tr.run_analysis(item, spec, mz.init_params(spec, 0), bundle, 0, str(tmp_path))
        assert [(t, s) for t, _, s in rows] == [(t, f"point{i}") for i in range(2)
                                                for t in range(4)]
        assert all(np.isfinite(lp) for _, lp, _ in rows)
        assert (tmp_path / "ascend.csv").exists()

    @pytest.mark.parametrize("spec", [
        mz.ModelSpec(input_dim=2, hidden=[16, 16], head="energy"),
        mz.ModelSpec(input_dim=2, hidden=[16, 16], head="logits", n_classes=2,
                     activation="leaky_relu", bottleneck_factor=0.5),
    ])
    def test_ascend_csv_matches_engine(self, tmp_path, monkeypatch, spec):
        # the engine run takes each step's gradient and log-density from graphs
        bundle = tr.build_bundle(toy_config())
        item = {"kind": "ascend", "n_points": 3, "steps": 10, "lr": 0.1}
        params = mz.init_params(spec, 0)
        (tmp_path / "fast").mkdir()
        (tmp_path / "engine").mkdir()
        tr.run_analysis(item, spec, params, bundle, 0, str(tmp_path / "fast"))
        engine_calls = []

        def engine_fn(spec, pset, x):
            engine_calls.append(1)
            return (-mz.energy(spec, mz.param_nodes(pset), x).value,
                    engine_input_grad(spec, pset, x))

        monkeypatch.setattr(tr, "logdensity_and_grad", engine_fn)
        tr.run_analysis(item, spec, params, bundle, 0, str(tmp_path / "engine"))
        assert len(engine_calls) == 3 * (10 + 1)  # one call per visited point
        fast = (tmp_path / "fast" / "ascend.csv").read_bytes()
        assert fast == (tmp_path / "engine" / "ascend.csv").read_bytes()

    def test_smoothness_checks_model_input_dim(self, tmp_path):
        bundle = tr.build_bundle(toy_config())
        spec = mz.ModelSpec(input_dim=2, hidden=[8], head="energy")
        item = {"kind": "smoothness", "side": 4, "pool_sizes": [2], "n": 10}
        with pytest.raises(tr.ConfigError, match=r"side 4 have 16 pixels.* takes 2 inputs"):
            tr.run_analysis(item, spec, mz.init_params(spec, 0), bundle, 0, str(tmp_path))

    def test_every_csv_value_cell_is_a_number(self, tmp_path):
        path = write_toy_csv(tmp_path / "d.csv")
        cfg = toy_config(steps=5, eval_interval=5,
                         data={"kind": "csv", "path": path, "removed_classes": [2]})
        manifest = {
            "runs": [{"name": "m", "config": cfg.to_dict()},
                     {"name": "s", "config": dict(cfg.to_dict(), gamma=1.0), "baseline": "m"}],
            "analyses": [
                {"kind": "norm_sweep", "model": "m", "radii": [0, 1, 5]},
                {"kind": "norm_sweep", "model": "m", "directions": "random", "name": "rand"},
                {"kind": "smoothness", "model": "m", "side": 2, "pool_sizes": [1, 2], "n": 20},
                {"kind": "ascend", "model": "m", "n_points": 2, "steps": 3},
            ],
        }
        out = str(tmp_path / "out")
        summary = tr.run_experiment_suite(manifest, out)
        assert summary["errors"] == {}
        numeric = {"aggregate.csv": ("gamma", "seed", "auc_pr", "rel_improvement_pct")}
        names = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
        assert names == ["aggregate.csv", "ascend.csv", "norm_sweep.csv", "rand.csv",
                         "smoothness.csv"]
        for name in names:
            with open(os.path.join(out, name)) as fh:
                rows = list(csv.DictReader(fh))
            assert rows
            for row in rows:
                for col in numeric.get(name, ("x", "value")):
                    if col == "rel_improvement_pct" and row["baseline"] == "":
                        continue
                    float(row[col])

    def test_embedded_run(self, tmp_path):
        cfg_ce = toy_config(objective="ce", steps=10, eval_interval=5).to_dict()
        cfg_cd = toy_config(steps=5, eval_interval=5, hidden=[8]).to_dict()
        manifest = {"runs": [
            {"name": "clf", "config": cfg_ce},
            {"name": "cd-emb", "config": cfg_cd, "embed_from": "clf"},
        ]}
        out = str(tmp_path / "out")
        summary = tr.run_experiment_suite(manifest, out)
        assert summary["errors"] == {}
        report = EvalReport.load(os.path.join(out, "cd-emb", "report.json"))
        assert report.run["label"] == "cd-emb-E"

    def test_runs_sharing_data_build_it_once(self, tmp_path, monkeypatch):
        built = []
        build = tr.build_bundle
        monkeypatch.setattr(tr, "build_bundle", lambda config: built.append(config) or build(config))
        runs = [
            {"name": "clf", "config": toy_config(objective="ce", steps=10, eval_interval=5).to_dict()},
            {"name": "sup", "config": toy_config(steps=5, eval_interval=5, gamma=1.0).to_dict()},
            {"name": "emb", "config": toy_config(steps=5, eval_interval=5, hidden=[8]).to_dict(),
             "embed_from": "clf"},
        ]
        summary = tr.run_experiment_suite({"runs": runs}, str(tmp_path / "all"))
        assert summary["errors"] == {} and len(built) == 1
        # a run that changed the shared bundle would change the runs after it
        for run in runs[:2]:
            alone = tmp_path / run["name"]
            tr.run_experiment_suite({"runs": [run]}, str(alone))
            for f in ("checkpoint.json", "report.json"):
                assert ((tmp_path / "all" / run["name"] / f).read_bytes()
                        == (alone / run["name"] / f).read_bytes())

    @pytest.mark.parametrize("data_seed,n_bundles", [(7, 1), (None, 2)])
    def test_bundle_key_resolves_the_data_seed(self, tmp_path, monkeypatch, data_seed, n_bundles):
        built = []
        build = tr.build_bundle
        monkeypatch.setattr(tr, "build_bundle", lambda config: built.append(config) or build(config))
        data = {"kind": "two_moons", "n": 300} | ({"seed": data_seed} if data_seed else {})
        runs = [{"name": f"s{seed}", "config": toy_config(steps=5, eval_interval=5, seed=seed,
                                                          data=data).to_dict()}
                for seed in (0, 1, 0)]
        runs[2]["name"] = "again"
        tr.run_experiment_suite({"runs": runs}, str(tmp_path / "out"))
        assert len(built) == n_bundles

    @pytest.mark.parametrize("runs,named", [
        ([{"name": "ok", "config": {}}, {"name": "bad", "config": {"steps": -1}}],
         "run 'bad': steps must be an integer >= 0, got -1"),
        ([{"name": "ok", "config": {}}, {"name": "bad", "config": {"hidden": "64"}}],
         "run 'bad': hidden must be a list of integers >= 1"),
        ([{"name": "ok", "config": {}}, {"name": "bad", "config": {"learning_rate": 1}}],
         "run 'bad': unknown config keys: ['learning_rate']"),
        ([{"name": "ok", "config": {}}, {"name": "emb", "config": {}, "embed_from": "nobody"}],
         "run 'emb': embed_from 'nobody' names no earlier run"),
        ([{"name": "emb", "config": {}, "embed_from": "ok"}, {"name": "ok", "config": {}}],
         "run 'emb': embed_from 'ok' names no earlier run"),
        ([{"name": "ssm", "config": {"objective": "ssm", "activation": "softplus"}},
          {"name": "emb", "config": {}, "embed_from": "ssm"}],
         "run 'emb': embed_from run 'ssm' has no classifier head"),
    ] + [([{"name": "ok", "config": {}}, {"name": "bad", "config": patch}], f"run 'bad': {named}")
         for patch, named in BAD_BLOCKS])
    def test_bad_run_rejected_before_training(self, tmp_path, monkeypatch, runs, named):
        monkeypatch.setattr(tr, "train", lambda *a, **k: pytest.fail("trained"))
        base = toy_config(steps=5, eval_interval=5).to_dict()
        runs = [run | {"config": base | run["config"]} for run in runs]
        out = tmp_path / "out"
        with pytest.raises(tr.ConfigError) as err:
            tr.run_experiment_suite({"runs": runs}, str(out))
        assert named in str(err.value)
        assert not out.exists()

    @pytest.mark.parametrize("manifest,named", BAD_MANIFESTS)
    def test_bad_manifest_rejected_before_training(self, tmp_path, monkeypatch, manifest, named):
        monkeypatch.setattr(tr, "train", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "out"
        with pytest.raises(tr.ConfigError) as err:
            tr.run_experiment_suite(manifest, str(out))
        assert named in str(err.value)
        assert not out.exists()

    def test_default_smoothness_analysis_runs(self, tmp_path):
        part = LabeledTable(np.random.default_rng(0).uniform(size=(10, 256)))
        bundle = SplitBundle(part, part, part, part, part)
        spec = mz.ModelSpec(input_dim=256, hidden=[4], head="energy")
        rows = tr.run_analysis({"kind": "smoothness", "n": 20}, spec, mz.init_params(spec, 0),
                               bundle, 0, str(tmp_path))
        assert {series for _, _, series in rows} == {"pool2", "pool4", "pool8", "pool16",
                                                      "id_test"}

    @pytest.mark.parametrize("analysis,named", [
        ({"kind": "histogram"}, "unknown analysis kind 'histogram'"),
        ({"kind": "norm_sweep", "model": "nobody"}, "model 'nobody' names no run"),
        ({"kind": "norm_sweep", "directions": "heldot"}, "directions must be 'heldout' or"),
        ({"kind": "norm_sweep", "n_direction": 8}, "unknown norm_sweep analysis keys: ['n_direction']"),
        ({"kind": "norm_sweep", "radii": [5, 1]}, "radii must be an ascending list"),
        ({"kind": "norm_sweep", "radii": [1, "x"]}, "radii must be"),
        ({"kind": "norm_sweep", "radii": []}, "radii must be"),
        ({"kind": "norm_sweep", "radii": [-1, 1]}, "radii must be"),
        ({"kind": "norm_sweep", "n_directions": 0}, "n_directions must be an integer >= 1"),
        ({"kind": "smoothness", "bins": 2.5}, "bins must be an integer >= 1"),
        ({"kind": "ascend", "lr": 0}, "lr must be positive and finite"),
        ({"kind": "ascend", "n_points": 0}, "n_points must be an integer >= 1"),
        ({"kind": "ascend", "steps": -1}, "steps must be an integer >= 0"),
        ({"kind": "ascend", "n_points": True}, "n_points must be an integer >= 1, got True"),
        ({"kind": "ascend", "lr": True}, "lr must be positive and finite, got True"),
        ({"kind": "smoothness", "side": True}, "side must be an integer >= 1"),
        ({"kind": "smoothness", "pool_sizes": [2, 3]}, "pool_sizes must be a non-empty list "
                                                       "of integers >= 1 that divide side 16"),
        ({"kind": "smoothness", "side": 4, "pool_sizes": [8]}, "divide side 4, got [8]"),
        ({"kind": "smoothness", "pool_sizes": []}, "pool_sizes must be a non-empty list"),
        ({"kind": "smoothness", "pool_sizes": [0]}, "pool_sizes must be"),
        ({"kind": "smoothness", "pool_sizes": 2}, "pool_sizes must be"),
        ({"kind": "smoothness", "pool_sizes": [2.0]}, "pool_sizes must be"),
        ({"kind": "smoothness", "pool_sizes": [True]}, "pool_sizes must be"),
        ({"kind": "norm_sweep", "radii": [False, True]}, "radii must be an ascending list of "
                                                         "finite numbers >= 0, not empty, got"),
    ])
    def test_bad_analysis_rejected_before_training(self, tmp_path, monkeypatch, analysis, named):
        monkeypatch.setattr(tr, "train", lambda *a, **k: pytest.fail("trained"))
        manifest = self._manifest() | {"analyses": [{"model": "base"} | analysis]}
        out = tmp_path / "out"
        with pytest.raises(tr.ConfigError) as err:
            tr.run_experiment_suite(manifest, str(out))
        assert named in str(err.value)
        assert not out.exists()


class _Interrupt(BaseException):
    """Raised from a SIGALRM handler, as the benchmark's wall-clock guard
    raises its OpTimeout."""


class TestWorkers:
    """Suite runs in forked workers: no worker outlives its suite, and
    dying or interrupted workers end in errors, never in a hang."""

    @staticmethod
    def _runs(n):
        return [{"name": f"s{seed}", "config": toy_config(steps=5, eval_interval=5,
                                                          seed=seed).to_dict()}
                for seed in range(n)]

    def test_worker_count(self, monkeypatch, time_limit):
        with time_limit(10):
            monkeypatch.setattr(tr, "_usable_cpus", lambda: 10_000)
            assert tr._worker_count(3) == 3
            # forking a process that runs other threads is unsafe
            stop = threading.Event()
            thread = threading.Thread(target=stop.wait)
            thread.start()
            try:
                assert tr._worker_count(3) == 1
            finally:
                stop.set()
                thread.join()
            monkeypatch.setattr(tr, "_usable_cpus", lambda: 1)
            assert tr._worker_count(3) == 1

    def test_dead_worker_is_an_error(self, tmp_path, monkeypatch, time_limit):
        train = tr.train

        def dying(config, bundle=None):
            if config.seed == 1:
                os._exit(1)
            return train(config, bundle)

        # forked workers see the patched train
        monkeypatch.setattr(tr, "train", dying)
        monkeypatch.setattr(tr, "_usable_cpus", lambda: 2)
        with time_limit(60):
            summary = tr.run_experiment_suite({"runs": self._runs(3)}, str(tmp_path / "out"))
        assert summary["runs"] == ["s0", "s2"]
        assert summary["errors"] == {
            "s1": "RuntimeError: the worker process exited with code 1 before its run finished"}
        assert multiprocessing.active_children() == []

    def test_interrupt_kills_every_worker(self, tmp_path, monkeypatch, time_limit):
        monkeypatch.setattr(tr, "train", lambda config, bundle=None: time.sleep(60))
        monkeypatch.setattr(tr, "_usable_cpus", lambda: 2)
        with time_limit(30):
            guard = signal.getsignal(signal.SIGALRM)

            def interrupt(signum, frame):
                # hand the alarm back to time_limit, with what is left of it
                signal.signal(signal.SIGALRM, guard)
                signal.setitimer(signal.ITIMER_REAL, left)
                raise _Interrupt

            signal.signal(signal.SIGALRM, interrupt)
            left = signal.setitimer(signal.ITIMER_REAL, 0.5)[0] - 0.5
            started = time.perf_counter()
            with pytest.raises(_Interrupt):
                tr.run_experiment_suite({"runs": self._runs(3)}, str(tmp_path / "out"))
            assert time.perf_counter() - started < 10
            assert multiprocessing.active_children() == []

    def test_one_blas_thread_by_default(self):
        src = os.path.dirname(os.path.dirname(tr.__file__))
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        code = f"import ebmlab, os; print(*(os.environ[n] for n in {names!r}))"
        env = {k: v for k, v in os.environ.items() if k not in names} | {"PYTHONPATH": src}
        for given, want in (({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")):
            out = subprocess.run([sys.executable, "-c", code], env=env | given, check=True,
                                 capture_output=True, text=True).stdout
            assert out.split() == want.split()


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    tr.save_run(tr.train(toy_config(steps=5, eval_interval=5)), str(out))
    return str(out / "checkpoint.json")


class TestCli:
    def _write_config(self, tmp_path, **kw):
        path = str(tmp_path / "config.json")
        with open(path, "w") as fh:
            json.dump(toy_config(steps=5, eval_interval=5, **kw).to_dict(), fh)
        return path

    def test_train_and_evaluate(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "run")
        assert cli.main(["train", "--config", cfg, "--out", out]) == 0
        assert "AP=" in capsys.readouterr().out
        out2 = str(tmp_path / "eval")
        code = cli.main(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.json"),
                         "--out", out2])
        assert code == 0
        assert os.path.exists(os.path.join(out2, "report.json"))

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"objective": "cd", "data": {"kind": "two_moons"}, "nope": 1}, fh)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,message", [
        ("train", 5, "config must be a JSON object, got int"),
        ("train", [1, 2], "config must be a JSON object, got list"),
        ("train", "x", "config must be a JSON object, got str"),
        ("sweep-gamma", 5, "config must be a JSON object, got int"),
        ("suite", 5, "suite must be a JSON object, got int"),
        ("evaluate", 5, "config must be a JSON object, got int"),
    ])
    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys, command, doc, message):
        path = str(tmp_path / "doc.json")
        if command == "evaluate":  # a checkpoint whose metadata holds the config
            spec = mz.ModelSpec(input_dim=2, hidden=[4])
            mz.save_checkpoint(path, spec, mz.init_params(spec, 0), {"config": doc})
        else:
            with open(path, "w") as fh:
                json.dump(doc, fh)
        flag = {"train": "--config", "sweep-gamma": "--config", "suite": "--manifest",
                "evaluate": "--checkpoint"}[command]
        assert cli.main([command, flag, path, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "o")]) == 1

    def test_gen_data(self, tmp_path, capsys):
        out = str(tmp_path / "data")
        assert cli.main(["gen-data", "--kind", "noise", "--n", "50", "--dim", "3",
                         "--out", out]) == 0
        from ebmlab.data import load_csv

        table = load_csv(os.path.join(out, "noise.csv"))
        assert table.features.shape == (50, 3)

    def test_gen_two_moons(self, tmp_path):
        out = str(tmp_path / "data")
        assert cli.main(["gen-data", "--kind", "two-moons", "--n", "40", "--out", out]) == 0

    def test_diagnose_norm_and_ascend(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "run")
        cli.main(["train", "--config", cfg, "--out", out])
        ckpt = os.path.join(out, "checkpoint.json")
        assert cli.main(["diagnose-norm", "--checkpoint", ckpt, "--radii", "0,1,5",
                         "--out", str(tmp_path / "norm")]) == 0
        assert os.path.exists(str(tmp_path / "norm" / "norm_sweep.csv"))
        assert cli.main(["ascend", "--checkpoint", ckpt, "--steps", "3",
                         "--n-points", "2", "--out", str(tmp_path / "asc")]) == 0
        assert os.path.exists(str(tmp_path / "asc" / "ascent.csv"))

    def test_diagnose_norm_matches_suite_analysis(self, tmp_path, capsys):
        cfg = toy_config(steps=5, eval_interval=5).to_dict()
        out = str(tmp_path / "suite")
        tr.run_experiment_suite({
            "runs": [{"name": "m", "config": cfg}],
            "analyses": [{"kind": "norm_sweep", "name": "norm_sweep", "model": "m",
                          "radii": [0, 1, 5], "n_directions": 8}],
        }, out)
        assert cli.main(["diagnose-norm", "--checkpoint", os.path.join(out, "m", "checkpoint.json"),
                         "--radii", "0,1,5", "--n-directions", "8",
                         "--out", str(tmp_path / "norm")]) == 0
        with open(os.path.join(out, "norm_sweep.csv"), "rb") as fh:
            suite_bytes = fh.read()
        with open(str(tmp_path / "norm" / "norm_sweep.csv"), "rb") as fh:
            assert fh.read() == suite_bytes
        assert b"norm_sweep:heldout" in suite_bytes

    def test_bad_inputs_exit_1(self, tmp_path, capsys, time_limit):
        bad_csv = tmp_path / "inf.csv"
        bad_csv.write_text("a,label\n1,0\ninf,1\n")
        latin1_csv = tmp_path / "latin1.csv"
        latin1_csv.write_bytes(b"a,label\n1,caf\xe9\n2,b\n")
        configs = [
            toy_config(objective="vera").to_dict() | {"vera": {"nope": 1}},
            toy_config(objective="vera").to_dict() | {"vera": {"entropy_weight": -1.0}},
            toy_config(objective="vera").to_dict() | {"vera": {"n_posterior_samples": 0}},
            toy_config(objective="vera").to_dict() | {"vera": {"gen_noise_std": 0}},
            toy_config(data={"kind": "two_moons", "n": 300, "ood_exclusion_radius": 50}).to_dict(),
            toy_config(data={"kind": "csv", "path": str(bad_csv)}).to_dict(),
            toy_config(data={"kind": "csv", "path": str(latin1_csv)}).to_dict(),
            toy_config(data={"kind": "csv", "path": str(tmp_path)}).to_dict(),
        ]
        for i, config in enumerate(configs):
            path = str(tmp_path / f"bad{i}.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            with time_limit(20):
                code = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
            assert code == 1, config
            assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("std", [1e300, 1e-300])
    def test_vera_noise_scale_out_of_range_exits_1(self, tmp_path, capsys, time_limit, std):
        """Squared, 1e300 overflows and 1e-300 underflows to 0."""
        path = write_json(tmp_path / "c.json", toy_config(objective="vera").to_dict()
                          | {"vera": {"gen_noise_std": std}})
        with time_limit(20):
            code = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config error: vera gen_noise_std must be" in capsys.readouterr().err
        for bound in (1e-150, 1e150):  # the bounds themselves are allowed
            toy_config(objective="vera", vera={"gen_noise_std": bound})

    @pytest.mark.parametrize("field,value", [
        ("eval_interval", 0), ("sgld_steps", -1), ("batch_size", 0), ("buffer_capacity", 0),
        ("data_noise_var", -1), ("steps", -3), ("lr", -0.001), ("sgld_step_size", 0.0),
        ("reinit_prob", 1.5), ("patience", 0),
        ("steps", 1.5), ("steps", True), ("batch_size", 2.5), ("hidden", "64"), ("hidden", 5),
        ("hidden", [16, 0]), ("hidden", [16.0]), ("seed", -1), ("seed", 0.5),
        ("lr", float("inf")), ("sgld_step_size", float("inf")), ("weight_decay", True),
        ("activation", "tanh"), ("bottleneck_factor", True),
    ])
    def test_bad_numeric_field_exits_1(self, tmp_path, capsys, time_limit, field, value):
        path = str(tmp_path / "c.json")
        with open(path, "w") as fh:
            json.dump(toy_config().to_dict() | {field: value}, fh)
        with time_limit(20):
            code = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"config error: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    @pytest.mark.parametrize("command", ["train", "suite", "sweep-gamma"])
    def test_ssm_with_a_piecewise_linear_energy_exits_1_before_training(
            self, tmp_path, monkeypatch, capsys, command, activation):
        # its input Hessian is 0, so the SSM loss is minimized by a flat energy
        for module in (cli, tr):
            monkeypatch.setattr(module, "train", lambda *a, **k: pytest.fail("trained"))
        config = toy_config(objective="ssm", activation="softplus").to_dict()
        config["activation"] = activation
        if command == "suite":
            argv = ["--manifest", write_json(tmp_path / "m.json",
                                             {"runs": [{"name": "ssm", "config": config}]})]
        else:
            argv = ["--config", write_json(tmp_path / "c.json", config)]
        if command == "sweep-gamma":
            argv += ["--grid", "0,1"]
        assert cli.main([command, *argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.endswith(
            "activation must be 'relu' or 'leaky_relu' or 'softplus', and 'softplus' for "
            f"objective 'ssm', got {activation!r}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "suite", "sweep-gamma"])
    def test_ssm_with_a_linear_energy_exits_1_before_training(self, tmp_path, monkeypatch,
                                                               capsys, command):
        # with no hidden layer E = w.x + b: its input Hessian is 0, so the SSM
        # loss 0.5*|w|^2 is minimized by a flat energy
        for module in (cli, tr):
            monkeypatch.setattr(module, "train", lambda *a, **k: pytest.fail("trained"))
        config = toy_config(objective="ssm", activation="softplus").to_dict() | {"hidden": []}
        if command == "suite":
            argv = ["--manifest", write_json(tmp_path / "m.json",
                                             {"runs": [{"name": "ssm", "config": config}]})]
        elif command == "sweep-gamma":
            # a CE term gives the loss a minimum, so only the grid's gamma 0 is refused
            argv = ["--config", write_json(tmp_path / "c.json", config | {"gamma": 0.5}),
                    "--grid", "0.5,0"]
        else:
            argv = ["--config", write_json(tmp_path / "c.json", config)]
        assert cli.main([command, *argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.endswith(
            "hidden must be a list of integers >= 1, not empty for objective 'ssm' at gamma 0, "
            "got []\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("patch,named", BAD_BLOCKS)
    def test_bad_block_exits_1_before_training(self, tmp_path, monkeypatch, capsys, patch, named):
        for module in (cli, tr):
            monkeypatch.setattr(module, "train", lambda *a, **k: pytest.fail("trained"))
        good = toy_config().to_dict()
        path = write_json(tmp_path / "c.json", good | patch)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {named}" in capsys.readouterr().err
        path = write_json(tmp_path / "m.json", {"runs": [{"name": "ok", "config": good},
                                                          {"name": "bad", "config": good | patch}]})
        assert cli.main(["suite", "--manifest", path, "--out", str(tmp_path / "s")]) == 1
        assert f"config error: run 'bad': {named}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flag,value,named", [
        ("--n", "-5", "gen-data --n must be an integer >= 1, got -5"),
        ("--n", "0", "gen-data --n must be an integer >= 1, got 0"),
        ("--dim", "0", "gen-data --dim must be an integer >= 1, got 0"),
        ("--side", "0", "gen-data --side must be an integer >= 1, got 0"),
        ("--pool-size", "0", "gen-data --pool-size must be an integer >= 1, got 0"),
        ("--noise-std", "nan", "gen-data --noise-std must be a finite number >= 0, got nan"),
        ("--noise-std", "-0.1", "gen-data --noise-std must be a finite number >= 0, got -0.1"),
        ("--seed", "-1", "gen-data --seed must be an integer >= 0, got -1"),
    ])
    def test_bad_gen_data_flag_exits_1(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "data"
        kind = "smoothness" if flag in ("--side", "--pool-size") else (
            "two-moons" if flag == "--noise-std" else "noise")
        assert cli.main(["gen-data", "--kind", kind, flag, value, "--out", str(out)]) == 1
        assert f"config error: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_ebm_on_csv_without_removed_classes_exits_1(self, tmp_path, capsys):
        config = toy_config(data={"kind": "csv", "path": write_toy_csv(tmp_path / "d.csv")})
        path = str(tmp_path / "c.json")
        with open(path, "w") as fh:
            json.dump(config.to_dict(), fh)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "removed_classes" in capsys.readouterr().err

    def test_sweep_gamma(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "sweep")
        assert cli.main(["sweep-gamma", "--config", cfg, "--grid", "0,1",
                         "--seeds", "1", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "gamma_sweep.csv"))

    def test_suite(self, tmp_path, capsys):
        manifest = {"runs": [{"name": "m", "config": toy_config(steps=5,
                                                                eval_interval=5).to_dict()}]}
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        out = str(tmp_path / "suite")
        assert cli.main(["suite", "--manifest", path, "--out", out]) == 0
        assert "suite complete: 1 runs" in capsys.readouterr().out

    @pytest.mark.parametrize("failing", ["run", "analysis"])
    def test_suite_failure_exits_2(self, tmp_path, capsys, failing):
        cfg = toy_config(steps=5, eval_interval=5).to_dict()
        missing = {"kind": "csv", "path": str(tmp_path / "absent.csv")}
        manifest = {"runs": [{"name": "m", "config": cfg},
                             {"name": "bad", "config": cfg | {"data": missing}}]}
        if failing == "analysis":
            manifest["runs"].pop()
            # valid on its own; 4 x 4 images do not fit the 2-input model
            manifest["analyses"] = [{"kind": "smoothness", "name": "bad", "model": "m", "side": 4,
                                     "pool_sizes": [2]}]
        path = write_json(tmp_path / "manifest.json", manifest)
        out = tmp_path / "suite"
        assert cli.main(["suite", "--manifest", path, "--out", str(out)]) == 2
        stdout = capsys.readouterr().out
        assert "suite complete: 1 runs, 1 errors" in stdout and "FAILED bad: " in stdout
        assert (out / "m" / "checkpoint.json").exists()

    @pytest.mark.parametrize("manifest,named", BAD_MANIFESTS)
    def test_bad_manifest_exits_1_before_training(self, tmp_path, monkeypatch, capsys,
                                                  manifest, named):
        monkeypatch.setattr(tr, "train", lambda *a, **k: pytest.fail("trained"))
        path = write_json(tmp_path / "manifest.json", manifest)
        assert cli.main(["suite", "--manifest", path, "--out", str(tmp_path / "suite")]) == 1
        assert f"config error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "suite").exists()

    def test_suite_bad_analysis_exits_1(self, tmp_path, capsys):
        cfg = toy_config(steps=5, eval_interval=5).to_dict()
        path = write_json(tmp_path / "manifest.json", {
            "runs": [{"name": "m", "config": cfg}],
            "analyses": [{"kind": "norm_sweep", "model": "m", "directions": "heldot"}]})
        assert cli.main(["suite", "--manifest", path, "--out", str(tmp_path / "suite")]) == 1
        assert "norm_sweep analysis directions must be" in capsys.readouterr().err
        assert not (tmp_path / "suite").exists()

    @pytest.mark.parametrize("argv,named", [
        (["diagnose-norm", "--radii", "5,1"], "radii must be"),
        (["diagnose-norm", "--radii", "1,x"], "radii must be"),
        (["diagnose-norm", "--radii", ""], "radii must be"),
        (["diagnose-norm", "--n-directions", "0"], "n_directions must be an integer >= 1"),
        (["ascend", "--lr", "0"], "lr must be positive"),
        (["ascend", "--n-points", "0"], "n_points must be an integer >= 1"),
        (["ascend", "--steps", "-1"], "steps must be an integer >= 0"),
    ])
    def test_bad_analysis_parameter_exits_1(self, trained_checkpoint, tmp_path, capsys,
                                            argv, named):
        out = tmp_path / "out"
        code = cli.main(argv[:1] + ["--checkpoint", trained_checkpoint, "--out", str(out)]
                        + argv[1:])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["evaluate", "diagnose-norm", "ascend"])
    @pytest.mark.parametrize("damage", ["nan-parameter", "unknown-key", "str-input-dim",
                                        "int-hidden", "str-bottleneck", "str-parameter",
                                        "object-parameters", "list-metadata", "list-document",
                                        "inf-slope", "nan-slope"])
    def test_damaged_checkpoint_exits_1(self, trained_checkpoint, tmp_path, capsys, command,
                                        damage):
        with open(trained_checkpoint) as fh:
            doc = damage_checkpoint(json.load(fh), damage)
        ckpt = write_json(tmp_path / "checkpoint.json", doc)
        out = tmp_path / "out"
        assert cli.main([command, "--checkpoint", ckpt, "--out", str(out)]) == 1
        assert f"config error: {CHECKPOINT_FAULTS[damage]}" in capsys.readouterr().err
        assert not out.exists()
