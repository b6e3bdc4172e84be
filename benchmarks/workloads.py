"""The three benchmark workloads.

Each workload derives all of its inputs from the benchmark seed, runs one
operation through a public ebmlab entry point, checks the output and
digests its deterministic content. The harness times ``op`` and nothing
else; ``setup``, ``before_op``, ``after_setup`` and ``check`` run outside
the timed interval.

ebmlab modules are looked up as module attributes at call time (never
imported by name), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from ebmlab import cli, models, training

import oracle


def _seeds(seed: int, n: int) -> list[int]:
    """n independent 31-bit seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _dir_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _ap_in_unit_interval(ap) -> bool:
    return isinstance(ap, float) and 0.0 <= ap <= 1.0


class Workload:
    name = ""
    work_unit = ""  # what work_per_s counts

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Build this workload's inputs (timed as set-up)."""

    def after_setup(self):
        """Untimed preparation of the correctness checks."""

    def before_op(self):
        """Untimed reset before each op."""

    def op(self):
        raise NotImplementedError

    def check(self, out) -> tuple[list[str], str]:
        """(problems found, digest of the deterministic output)."""
        raise NotImplementedError

    def work(self, out) -> float:
        raise NotImplementedError


class TrainCd(Workload):
    """One ``training.train`` on the criterion-7 contrastive-divergence
    config: two moons, hidden [64, 64, 64], batch 64, 30 SGLD steps."""

    name = "train-cd"
    work_unit = "train_steps"
    steps = 100

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        data_seed, run_seed = _seeds(seed, 2)
        self.config_dict = {
            "objective": "cd",
            "data": {"kind": "two_moons", "n": 2000, "noise_std": 0.1, "seed": data_seed},
            "seed": run_seed,
            "steps": self.steps,
            "warmup_steps": 100,
            "batch_size": 64,
            "eval_interval": 50,
            "hidden": [64, 64, 64],
            "sgld_steps": 30,
            "sgld_noise_std": 0.1,
        }

    def op(self):
        return training.train(training.RunConfig.from_dict(self.config_dict))

    def check(self, result):
        problems = []
        history = result.history
        if history["diverged"]:
            problems.append("run diverged")
        if not all(math.isfinite(v) for v in history["loss"]):
            problems.append("non-finite loss")
        aps = [r["auc_pr"] for r in result.report.results]
        aps += [s["score"] for s in history["selection"]]
        if not aps or not all(_ap_in_unit_interval(a) for a in aps):
            problems.append(f"AP outside [0, 1]: {aps}")
        digest = _sha256(
            json.dumps(result.report.to_dict(), sort_keys=True).encode(),
            json.dumps(history, sort_keys=True).encode(),
            result.params.values.tobytes(),
        )
        return problems, digest

    def work(self, result):
        return len(result.history["loss"])


class SuiteMix(Workload):
    """One ``training.run_experiment_suite`` on a two-moons manifest with
    ssm, vera, nf and ce runs, two norm sweeps and one likelihood ascent."""

    name = "suite-mix"
    work_unit = "train_steps"
    steps = {"ssm": 100, "vera": 30, "nf": 50, "ce": 60}
    eval_interval = 25
    patience = 10

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        data_seed, run_seed = _seeds(seed, 2)
        base = {
            "data": {"kind": "two_moons", "n": 2000, "noise_std": 0.1, "seed": data_seed},
            "seed": run_seed,
            "warmup_steps": 50,
            "batch_size": 64,
            "eval_interval": self.eval_interval,
            "patience": self.patience,
            "hidden": [64, 64, 64],
        }
        extra = {
            "ssm": {"activation": "softplus"},
            "vera": {"vera": {"n_posterior_samples": 5}},
            "nf": {},
            "ce": {},
        }
        # with fewer steps than this, nf and ce cannot stop early, so the
        # steps completed are the steps configured
        assert max(self.steps.values()) <= self.patience * self.eval_interval
        self.manifest = {
            "runs": [
                {"name": obj, "config": dict(base, objective=obj, steps=n, **extra[obj])}
                for obj, n in self.steps.items()
            ],
            "analyses": [
                {"kind": "norm_sweep", "name": "norm_ssm", "model": "ssm"},
                {"kind": "norm_sweep", "name": "norm_nf", "model": "nf"},
                {"kind": "ascend", "name": "ascend_ssm", "model": "ssm",
                 "n_points": 16, "steps": 50},
            ],
        }
        self.out_dir = os.path.join(workdir, "suite")

    def before_op(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self):
        return training.run_experiment_suite(json.loads(json.dumps(self.manifest)), self.out_dir)

    def check(self, summary):
        problems = [f"run {k} failed: {v}" for k, v in summary["errors"].items()]
        if summary["runs"] != sorted(self.steps):
            problems.append(f"runs completed: {summary['runs']}")
        return problems, _dir_digest(self.out_dir)

    def work(self, summary):
        return sum(self.steps.values())


class EvalOod(Workload):
    """One in-process ``ebmlab evaluate`` of a JEM-CD (gamma=1) checkpoint
    trained on a generated 4-class, 8-dim, 200k-row CSV whose class 3 is
    the natural OOD set."""

    name = "eval-ood"
    work_unit = "eval_rows"
    n_rows = 200_000
    n_classes = 4
    dim = 8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.data_seed, self.split_seed, self.run_seed = _seeds(seed, 3)
        # a relative path: load_csv records the path as the natural OOD
        # set's name, so it must not depend on where the checkout lives
        self.csv_path = os.path.join(workdir, "data.csv")
        self.ckpt_dir = os.path.join(workdir, "checkpoint")
        self.eval_dir = os.path.join(workdir, "eval")
        self.config_dict = {
            "objective": "cd",
            "gamma": 1.0,
            "data": {"kind": "csv", "path": self.csv_path, "label_column": "label",
                     "removed_classes": [self.n_classes - 1], "seed": self.split_seed},
            "seed": self.run_seed,
            "steps": 60,
            "warmup_steps": 20,
            "eval_interval": 30,
            "batch_size": 64,
            "hidden": [64, 64, 64],
            "sgld_steps": 10,
            "sgld_noise_std": 0.1,
        }
        self.result = None
        self.expected = {}
        self.rows = 0

    def _write_csv(self):
        rng = np.random.default_rng(self.data_seed)
        centers = rng.normal(scale=3.0, size=(self.n_classes, self.dim))
        scales = rng.uniform(0.5, 1.5, size=(self.n_classes, self.dim))
        labels = rng.integers(0, self.n_classes, size=self.n_rows)
        x = centers[labels] + scales[labels] * rng.normal(size=(self.n_rows, self.dim))
        os.makedirs(self.workdir, exist_ok=True)
        header = ",".join([f"x{i}" for i in range(self.dim)] + ["label"])
        np.savetxt(self.csv_path, np.column_stack([x, labels]), delimiter=",",
                   fmt=["%.17g"] * self.dim + ["%d"], header=header, comments="")

    def setup(self):
        self._write_csv()
        self.result = training.train(training.RunConfig.from_dict(self.config_dict))
        training.save_run(self.result, self.ckpt_dir)

    def after_setup(self):
        """Expected APs from the benchmark's own AP oracle, on the scores of
        the checkpointed parameters."""
        res = self.result
        if res.history["diverged"]:
            raise RuntimeError("checkpoint training diverged")
        bundle = res.bundle
        sets, _ = training.standard_ood_sets(bundle, res.config.seed)

        def score(x):
            return models.score_logdensity(res.spec, res.params, x)

        id_scores = score(bundle.id_test.features)
        self.rows = len(id_scores)
        expected = {}
        distinct = []
        for name, feats in sets.items():
            ood = score(feats)
            both = np.concatenate([id_scores, ood])
            labels = np.r_[np.ones(len(id_scores)), np.zeros(len(ood))]
            expected[name] = oracle.average_precision(labels, both)
            distinct.append(np.unique(both).size / both.size)
            self.rows += len(ood)
        val_id, val_ood = score(bundle.id_val.features), score(bundle.ood_val.features)
        expected["selection"] = oracle.average_precision(
            np.r_[np.ones(len(val_id)), np.zeros(len(val_ood))], np.r_[val_id, val_ood])
        self.rows += len(val_id) + len(val_ood)
        self.expected = expected
        # heavily tied scores would take AP's slow path out of this workload
        if min(distinct) < 0.9:
            raise RuntimeError(f"scores too tied to represent eval-ood: {distinct}")

    def op(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["evaluate", "--checkpoint",
                             os.path.join(self.ckpt_dir, "checkpoint.json"),
                             "--out", self.eval_dir])
        return code

    def check(self, code):
        if code != 0:
            return [f"evaluate exited {code}"], ""
        with open(os.path.join(self.eval_dir, "report.json"), "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        got = {r["ood_set"]: r["auc_pr"] for r in report["results"]}
        got["selection"] = report["selection"].get("auc_pr")
        problems = []
        if set(got) != set(self.expected):
            problems.append(f"OOD sets {sorted(got)} != {sorted(self.expected)}")
        for name, want in self.expected.items():
            ap = got.get(name)
            if ap is None or abs(ap - want) > 1e-12:
                problems.append(f"{name}: AP {ap} != oracle {want}")
        return problems, _sha256(raw)

    def work(self, code):
        return self.rows


WORKLOADS = {w.name: w for w in (TrainCd, SuiteMix, EvalOod)}
