"""One training loop for every objective, with warm-up and model selection,
Adam, the experiment suite and its analyses."""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import signal
import threading
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from multiprocessing.connection import wait

import numpy as np

from .data import (
    SplitBundle,
    class_removal_split,
    embed_dataset,
    load_csv,
    make_constant,
    make_noise,
    make_oodomain,
    make_smoothness,
    standardize,
    two_moons_split,
)
from .evaluate import (
    EvalReport,
    density_histogram,
    norm_sweep,
    ood_report,
    random_unit_directions,
    score_logdensity,
    selection_score,
    unit_directions_through,
    write_series_csv,
)
from .models import (
    ACTIVATIONS,
    ModelSpec,
    ParameterSet,
    _atomic_write_json,
    _mlp_outputs,
    _usable_cpus,
    energy,
    init_params,
    input_grad,
    mlp_forward,
    param_nodes,
    save_checkpoint,
)
from .objectives import (
    ObjectiveError,
    VeraConfig,
    _param_grads,
    cd_loss,
    ce_loss,
    flow_nll,
    generator_spec,
    jem_term,
    ssm_vr_loss,
    vera_step,
)
from .rng import rademacher, stream
from .samplers import ReplayBuffer, SgldConfig, likelihood_ascent, sgld_chain

OBJECTIVES = ("ssm", "cd", "vera", "nf", "ce")
DEFAULT_LR = {"ssm": 1e-3, "cd": 1e-3, "vera": 3e-4, "nf": 1e-3, "ce": 1e-3}


class ConfigError(Exception):
    pass


def warmup_lr(base_lr: float, step: int, warmup_steps: int = 2500) -> float:
    """Linear ramp from 0 to base_lr over the warm-up window."""
    if warmup_steps <= 0:
        return base_lr
    return base_lr * min(1.0, step / warmup_steps)


class Adam:
    def __init__(self, size: int, betas=(0.9, 0.999), eps: float = 1e-8):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0

    def step(self, grad: np.ndarray, lr: float) -> np.ndarray:
        """Returns the update to subtract from the parameters."""
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        mhat = self.m / (1 - self.b1**self.t)
        vhat = self.v / (1 - self.b2**self.t)
        return lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclass
class RunConfig:
    """One run's settings. Building one checks them, and the ``data`` and
    ``vera`` blocks, against the rule tables below; the blocks are kept as
    written, without their defaults."""
    objective: str
    data: dict
    gamma: float = 0.0
    seed: int = 0
    steps: int = 10000
    warmup_steps: int = 2500
    batch_size: int = 64
    lr: float | None = None
    weight_decay: float = 5e-4  # CE baseline only
    eval_interval: int = 500
    patience: int = 10          # NF / CE early stopping
    hidden: list[int] = field(default_factory=lambda: [100] * 5)
    activation: str = "relu"
    bottleneck_factor: float | None = None
    n_flow_layers: int = 20
    sgld_steps: int = 100
    sgld_step_size: float = 1.0
    sgld_noise_std: float = 0.01
    buffer_capacity: int = 10000
    reinit_prob: float = 0.05
    data_noise_var: float = 0.1  # additive noise on CD data batches
    vera: dict = field(default_factory=dict)

    def __post_init__(self):
        check_fields(_RUN, vars(self))
        check_fields(_VERA, self.vera, "vera")
        _data_fields(self)

    @property
    def base_lr(self) -> float:
        return self.lr if self.lr is not None else DEFAULT_LR[self.objective]

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        check_fields(_RUN, d)  # an unknown or missing key, named
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)


def check_fields(rules: dict, given: dict, block: str = "") -> dict:
    """``given`` with each missing field's default filled in, every field
    checked against ``rules``. An unknown or missing key, or a value its
    rule refuses, is a ConfigError naming ``block`` and the field.

    A rule table maps each field of a config block to (default, ok, want),
    where a ``dataclasses.MISSING`` default marks a required field. ``ok(value,
    fields)`` says whether the value is allowed, ``fields`` being the
    block's values with defaults filled in, and ``want`` says what ok wants,
    with ``{field}`` placeholders filled from them. Fields are checked in
    table order, so a rule may rely on the fields above it. A ``given`` that
    is not a dict is a ConfigError too.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"{block or 'config'} must be a JSON object, got {type(given).__name__}")
    unknown = sorted(set(given) - set(rules))
    if unknown:
        raise ConfigError(f"unknown {block or 'config'} keys: {unknown}")
    p = {name: given.get(name, default) for name, (default, _, _) in rules.items()}
    prefix = f"{block} " if block else ""
    for name, (_, ok, want) in rules.items():
        if p[name] is MISSING:
            raise ConfigError(f"{prefix}{name} is required")
        if not ok(p[name], p):
            raise ConfigError(f"{prefix}{name} must be {want.format(**p)}, got {p[name]!r}")
    return p


def _is_int(v, least=-math.inf) -> bool:
    """An integer >= least that is not a bool (JSON ``true`` must not count as 1)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least


def _is_finite(v, least=0, most=math.inf) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and least <= v <= most \
        and math.isfinite(v)


def _is_list(v, item) -> bool:
    return isinstance(v, (list, tuple)) and all(map(item, v))


# rules as (ok, want), to follow a default in a rule table
def _int(least):
    return lambda v, p: _is_int(v, least), f"an integer >= {least}"


def _num(least, most=math.inf):
    return (lambda v, p: _is_finite(v, least, most),
            f"a finite number >= {least}" + (f" and <= {most}" if most < math.inf else ""))


def _choice(options):
    return lambda v, p: v in options, " or ".join(map(repr, options))


_POSITIVE = (lambda v, p: _is_finite(v) and v > 0, "positive and finite")
_DICT = (lambda v, p: isinstance(v, dict), "a dict")
_STR = (lambda v, p: isinstance(v, str), "a string")


def _with_defaults(cls, rules: dict) -> dict:
    """The rule table of dataclass ``cls``: each of ``rules`` (field -> (ok,
    want)) with the field's default in front."""
    defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
                for f in fields(cls)}
    return {name: (defaults[name], *rule) for name, rule in rules.items()}


_RUN = _with_defaults(RunConfig, {
    "objective": _choice(OBJECTIVES), "data": _DICT,
    "gamma": (lambda v, p: _is_finite(v) and (v == 0 or p["objective"] not in ("nf", "ce")),
              "a finite number >= 0, and 0 for objectives 'nf' and 'ce'"),
    "seed": _int(0), "steps": _int(0), "warmup_steps": _int(0), "batch_size": _int(1),
    "lr": (lambda v, p: v is None or _is_finite(v) and v > 0, "null or positive and finite"),
    "weight_decay": _num(0), "eval_interval": _int(1), "patience": _int(1),
    "hidden": (lambda v, p: _is_list(v, lambda h: _is_int(h, 1)), "a list of integers >= 1"),
    "activation": _choice(ACTIVATIONS),
    "bottleneck_factor": (lambda v, p: v is None or _is_finite(v, 0, 1) and v > 0,
                          "null or a number in (0, 1]"),
    "n_flow_layers": _int(1), "sgld_steps": _int(0), "sgld_step_size": _POSITIVE,
    "sgld_noise_std": _num(0), "buffer_capacity": _int(1), "reinit_prob": _num(0, 1),
    "data_noise_var": _num(0), "vera": _DICT,
})
_VERA = _with_defaults(VeraConfig, {
    "entropy_weight": _num(0), "eta_min": _POSITIVE,
    "eta_max": (lambda v, p: _is_finite(v, p["eta_min"]), "a finite number >= eta_min {eta_min}"),
    "eta_init": (lambda v, p: _is_finite(v, p["eta_min"], p["eta_max"]),
                 "a number in [eta_min {eta_min}, eta_max {eta_max}]"),
    "eta_lr": _POSITIVE,
    # within these bounds, std**2 and log(2 pi std**2) are finite normal floats
    "gen_noise_std": _num(1e-150, 1e150),
    "n_posterior_samples": _int(1), "latent_dim": _int(1), "gen_lr": _POSITIVE,
    "gen_betas": (lambda v, p: _is_list(v, lambda b: _is_finite(b, 0, 1) and b < 1)
                  and len(v) == 2, "two numbers in [0, 1)"),
})
# a suite manifest's keys, and each of its runs' keys
_DICTS = (lambda v, p: _is_list(v, lambda i: isinstance(i, dict)), "a list of dicts")
_MANIFEST = {"runs": ((), *_DICTS), "analyses": ((), *_DICTS)}
_NAME = (lambda v, p: v is None or isinstance(v, str), "null or a run name")
_SUITE_RUN = {"name": (MISSING, *_STR), "config": (MISSING, *_DICT),
              "embed_from": (None, *_NAME), "baseline": (None, *_NAME)}
# each data kind's keys; ``seed`` defaults to the run's seed
_DATA = {
    "two_moons": {"seed": (MISSING, *_int(0)), "n": (2000, *_int(1)),
                  "noise_std": (0.1, *_num(0)), "ood_margin": (1.5, *_num(0)),
                  "ood_exclusion_radius": (0.3, *_num(0))},
    "csv": {
        "seed": (MISSING, *_int(0)), "path": (MISSING, *_STR), "label_column": ("label", *_STR),
        "removed_classes": ((), lambda v, p: _is_list(v, lambda c: _is_int(c, 0)),
                            "a list of integers >= 0"),
        "ood_val_frac": (0.1, *_num(0, 1)),
        "id_fracs": ((0.7, 0.1, 0.2), lambda v, p: _is_list(v, _is_finite) and len(v) == 3
                     and abs(sum(v) - 1) <= 1e-9, "three finite numbers >= 0 that sum to 1"),
    },
}
# each analysis kind's parameters
ANALYSES = {
    "norm_sweep": {
        "radii": ((0, 1, 2, 5, 10, 20, 50), lambda v, p: _is_list(v, _is_finite) and bool(v)
                  and list(v) == sorted(v), "an ascending list of finite numbers >= 0, not empty"),
        "directions": ("heldout", *_choice(("heldout", "random"))), "n_directions": (64, *_int(1)),
    },
    "smoothness": {
        "side": (16, *_int(1)), "n": (1000, *_int(1)),
        "pool_sizes": ((2, 4, 8, 16), lambda v, p: bool(v) and _is_list(
            v, lambda k: _is_int(k, 1) and p["side"] % k == 0),
            "a non-empty list of integers >= 1 that divide side {side}"),
        "bins": (40, *_int(1)),
    },
    "ascend": {"n_points": (16, *_int(1)), "steps": (100, *_int(0)), "lr": (0.01, *_POSITIVE)},
}
# the numeric flags of ``ebmlab gen-data``, with their defaults
GEN_DATA_FLAGS = {"--n": (1000, *_int(1)), "--dim": (2, *_int(1)), "--side": (16, *_int(1)),
                  "--pool-size": (2, *_int(1)), "--noise-std": (0.1, *_num(0)),
                  "--seed": (0, *_int(0))}


def _data_fields(config: RunConfig) -> dict:
    """The run's data block, checked, with the run's seed and every default
    filled in."""
    d = {"seed": config.seed} | config.data
    kind = d.pop("kind", None)
    if kind not in _DATA:
        raise ConfigError(f"unknown data kind {kind!r}")
    return check_fields(_DATA[kind], d, "data")


def check_analysis(item: dict) -> dict:
    """An analysis item's parameters, checked, with defaults filled in.
    Whether a smoothness analysis's ``side`` fits the model is checked when
    the analysis runs."""
    kind = item.get("kind")
    if kind not in ANALYSES:
        raise ConfigError(f"unknown analysis kind {kind!r}")
    params = {k: v for k, v in item.items() if k not in ("kind", "name", "model")}
    return check_fields(ANALYSES[kind], params, f"{kind} analysis")


def build_bundle(config: RunConfig) -> SplitBundle:
    """Standardized split bundle from the run's data config."""
    p, kind = _data_fields(config), config.data["kind"]
    if kind == "csv":
        bundle = class_removal_split(load_csv(p["path"], p["label_column"]),
                                     p["removed_classes"], val_frac=p["ood_val_frac"],
                                     id_fracs=p["id_fracs"], seed=p["seed"])
    else:
        bundle = two_moons_split(p["n"], p["noise_std"], margin=p["ood_margin"],
                                 exclusion=p["ood_exclusion_radius"], seed=p["seed"])
    for part in ("id_train", "id_val", "id_test"):
        if bundle.parts()[part].n == 0:
            raise ConfigError(f"the {kind} split leaves {part} with no rows; use more data")
    return standardize(bundle)


def _has_logits_head(config: RunConfig) -> bool:  # objective 'ce', or a CE term
    return config.objective == "ce" or config.gamma > 0


def build_model_spec(config: RunConfig, bundle: SplitBundle) -> ModelSpec:
    dim = bundle.id_train.dim
    if config.objective == "nf":
        return ModelSpec(input_dim=dim, head="flow", n_flow_layers=config.n_flow_layers)
    n_classes, head = None, "energy"
    if _has_logits_head(config):
        if bundle.id_train.labels is None:
            raise ConfigError("supervised training requires labels")
        n_classes, head = int(bundle.id_train.labels.max()) + 1, "logits"
    return ModelSpec(input_dim=dim, hidden=list(config.hidden), activation=config.activation,
                     head=head, n_classes=n_classes, bottleneck_factor=config.bottleneck_factor)


def standard_ood_sets(bundle: SplitBundle, seed: int) -> tuple[dict, dict]:
    """Natural (removed classes) plus the synthetic probe datasets."""
    rng = stream(seed, "eval")
    n = bundle.id_test.n
    dim = bundle.id_test.dim
    sets = {"noise": make_noise(n, dim, rng), "constant": make_constant(n, dim, rng),
            "oodomain": make_oodomain(bundle.id_test.features)}
    groups = dict.fromkeys(sets, "non-natural")
    if bundle.ood_test.n > 0:
        name = bundle.ood_test.source or "removed-classes"
        sets[name] = bundle.ood_test.features
        groups[name] = "natural"
    return sets, groups


@dataclass
class TrainResult:
    config: RunConfig
    spec: ModelSpec
    params: ParameterSet
    report: EvalReport
    bundle: SplitBundle
    history: dict


def _objective(config: RunConfig, spec: ModelSpec, pset: ParameterSet,
               x_train: np.ndarray, data_rng: np.random.Generator):
    """Per-run state of the configured objective, as ``step(xb, yb)``: the
    loss value and its flat parameter gradient, from numpy for SSM and a
    flow, else from the engine on ``loss(leaves, xb, yb)``'s node. For
    gamma > 0 the JEM term ``gamma * CE`` is one more addend."""
    if config.objective == "nf":
        return lambda xb, yb: flow_nll(spec, pset, xb)
    if config.objective == "ssm":
        proj_rng = stream(config.seed, "projection")

        def base_step(xb, yb):
            return ssm_vr_loss(spec, pset, xb, rademacher(proj_rng, xb.shape))
    else:
        loss = _engine_loss(config, spec, pset, x_train, data_rng)

        def base_step(xb, yb):
            leaves = param_nodes(pset)
            node = loss(leaves, xb, yb)
            return float(node.value), _param_grads(node, leaves)

    if config.gamma == 0:
        return base_step

    def jem_step(xb, yb):
        loss_val, grad = base_step(xb, yb)
        term, term_grad = jem_term(spec, pset, xb, yb, config.gamma)
        return loss_val + term, grad + term_grad

    return jem_step


def _engine_loss(config: RunConfig, spec: ModelSpec, pset: ParameterSet,
                 x_train: np.ndarray, data_rng: np.random.Generator):
    """``loss(leaves, xb, yb)``, the engine node of objective cd, vera or ce
    on ``param_nodes`` leaves, with the objective's per-run state."""
    if config.objective == "cd":
        lo, hi = x_train.min(axis=0), x_train.max(axis=0)
        buffer = ReplayBuffer(config.buffer_capacity, config.reinit_prob,
                              lambda rng, k: rng.uniform(lo, hi, size=(k, x_train.shape[1])))
        sgld_cfg = SgldConfig(config.sgld_steps, config.sgld_step_size, config.sgld_noise_std)
        sgld_rng = stream(config.seed, "sgld")
        buf_rng = stream(config.seed, "buffer")

        def loss(leaves, xb, yb):
            # ``pset`` holds the values of ``leaves`` until the loop's update
            starts, slots = buffer.draw(xb.shape[0], buf_rng)
            samples = sgld_chain(partial(input_grad, spec, pset), starts, sgld_cfg, sgld_rng)
            buffer.write(slots, samples)
            xb_noisy = xb + math.sqrt(config.data_noise_var) * data_rng.normal(size=xb.shape)
            return cd_loss(partial(energy, spec, leaves), xb_noisy, samples)
    elif config.objective == "vera":
        vera_cfg = VeraConfig(**config.vera)
        generator = generator_spec(x_train.shape[1], vera_cfg)
        gen_pset = init_params(generator, config.seed + 1)
        gen_adam = Adam(gen_pset.size, betas=vera_cfg.gen_betas)
        vera_rng = stream(config.seed, "vera")
        eta = vera_cfg.eta_init

        def loss(leaves, xb, yb):
            # the generator steps first: its loss reads the EBM through
            # ``leaves``, which hold the parameters before the EBM update
            nonlocal eta
            vs = vera_step(spec, leaves, generator, gen_pset, xb, vera_cfg, eta, vera_rng)
            g_gen = _param_grads(vs.gen_loss, vs.gen_leaves)
            step = gen_adam.t + 1  # the loop's step: one generator update per step
            gen_pset.values -= gen_adam.step(
                g_gen, warmup_lr(vera_cfg.gen_lr, step, config.warmup_steps))
            eta = vs.eta
            return vs.ebm_loss
    else:
        def loss(leaves, xb, yb):
            return ce_loss(mlp_forward(spec, leaves, xb)[0], yb)
    return loss


def train(config: RunConfig, bundle: SplitBundle | None = None) -> TrainResult:
    """Run the configured objective and keep the best-selection checkpoint.

    Every objective shares one loop: batch draw, warm-up lr, the
    objective's step (its loss and gradient, with the supervised composite
    ``+ gamma * CE`` for the EBM objectives), the finite-loss check, Adam,
    selection and patience. EBM objectives select on ood_val AP every ``eval_interval`` steps; NF early-stops on
    validation log-likelihood and CE on validation accuracy, both with
    the configured patience.
    """
    if bundle is None:
        bundle = build_bundle(config)
    selection_mode = ("ood_ap" if config.objective in ("ssm", "cd", "vera")
                      else "val_ll" if config.objective == "nf" else "val_acc")
    if selection_mode == "ood_ap" and bundle.ood_val.n == 0:
        raise ConfigError(f"objective {config.objective!r} selects on OOD validation AP, but the "
                          "split has no OOD validation rows: list classes in data.removed_classes "
                          "(with enough rows for data.ood_val_frac)")
    spec = build_model_spec(config, bundle)
    pset = init_params(spec, config.seed)
    data_rng = stream(config.seed, "data")
    x_train = bundle.id_train.features
    y_train = bundle.id_train.labels
    n_train = x_train.shape[0]
    objective_step = _objective(config, spec, pset, x_train, data_rng)

    adam = Adam(pset.size)
    history = {"loss": [], "selection": [], "stopped_at": None, "diverged": False}
    best = pset.copy()
    best_score = -math.inf
    patience_left = config.patience

    def evaluate_selection() -> float:
        if selection_mode == "ood_ap":
            return selection_score(spec, pset, bundle)
        if selection_mode == "val_ll":
            return float(score_logdensity(spec, pset, bundle.id_val.features).mean())
        logits = _mlp_outputs(spec, pset, bundle.id_val.features, "head")
        return float((logits.argmax(axis=1) == bundle.id_val.labels).mean())

    for step in range(1, config.steps + 1):
        idx = data_rng.integers(0, n_train, size=min(config.batch_size, n_train))
        xb = x_train[idx]
        yb = y_train[idx] if y_train is not None else None
        loss_val, grad_flat = objective_step(xb, yb)
        if not np.isfinite(loss_val):
            history["diverged"] = True
            break
        if config.objective == "ce" and config.weight_decay > 0:
            grad_flat = grad_flat + config.weight_decay * pset.values
        pset.values -= adam.step(grad_flat, warmup_lr(config.base_lr, step, config.warmup_steps))
        history["loss"].append(loss_val)

        if step % config.eval_interval == 0 or step == config.steps:
            score = evaluate_selection()
            history["selection"].append({"step": step, "score": score})
            if score > best_score:
                best_score = score
                best = pset.copy()
                patience_left = config.patience
            elif selection_mode in ("val_ll", "val_acc"):
                patience_left -= 1
                if patience_left <= 0:
                    history["stopped_at"] = step
                    break

    if config.steps == 0 or best_score == -math.inf:
        best = pset.copy()
        best_score = evaluate_selection() if config.steps > 0 else None

    report = evaluation_report(spec, best, bundle, config, selection_score=best_score)
    return TrainResult(config, spec, best, report, bundle, history)


def evaluation_report(spec: ModelSpec, params, bundle: SplitBundle, config: RunConfig,
                      **run_meta) -> EvalReport:
    """OOD report of a model on the run's standard OOD sets."""
    ood_sets, groups = standard_ood_sets(bundle, config.seed)
    meta = {"objective": config.objective, "gamma": config.gamma,
            "bottleneck": config.bottleneck_factor, "seed": config.seed, **run_meta}
    return ood_report(spec, params, bundle, ood_sets, groups, meta)


def save_run(result: TrainResult, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), result.spec, result.params,
                    metadata={"config": result.config.to_dict()})
    result.report.save(os.path.join(out_dir, "report.json"))


def _run_label(name: str, config: RunConfig, embedded: bool) -> str:
    """The run's name, suffixed -S when gamma == 1 and -E when trained on embeddings."""
    return name + "-S" * (config.gamma == 1.0) + "-E" * embedded


def _worker_count(n_jobs: int) -> int:
    """Processes that train ``n_jobs`` runs: one per usable CPU and at most
    one per run. 1, meaning this process, where there is no ``fork``, or
    where other threads run, which makes forking unsafe."""
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), n_jobs))


def _train_job(config: RunConfig, bundle: SplitBundle | None, out_dir: str | None = None,
               run: dict | None = None, analyses: tuple = ()):
    """One job of ``train_many``: ``train``, then, given ``out_dir`` and
    ``run``, add ``run`` to the report's run block, save the run in
    ``out_dir``, and run each ``(item, directory)`` of ``analyses`` on the
    saved run as ``run_analysis`` does. Returns the result, or the exception
    the run raised, and each failed analysis's error text by name."""
    try:
        result = train(config, bundle)
        if out_dir is not None:
            result.report.run.update(run)
            save_run(result, out_dir)
    except Exception as exc:  # isolate failing runs
        return exc, {}
    errors = {}
    for item, directory in analyses:
        try:
            run_analysis(item, result.spec, result.params, result.bundle, config.seed, directory)
        except Exception as exc:  # isolate failing analyses
            errors[item.get("name", item["kind"])] = f"{type(exc).__name__}: {exc}"
    return result, errors


def _worker(conn, job: tuple, mask: set):
    """A forked worker: run one job and send back its outcome, a result
    without the bundle the parent already holds. ``mask`` is the parent's
    signal mask."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's, which kills us
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    out, errors = _train_job(*job)
    if isinstance(out, TrainResult) and job[1] is not None:
        out.bundle = None
    conn.send((out, errors))


def train_many(jobs: list[tuple]) -> list:
    """Run each ``(config, bundle[, out_dir, run[, analyses]])`` job as
    ``_train_job`` does; returns, in input order, each job's result or the
    exception its run raised, paired with its failed analyses' error texts.

    Jobs train in forked worker processes, one per usable CPU and at most
    one per job, or in this process when that is one. A worker inherits
    its job, bundle included, and sends back the result, to which the
    job's bundle is re-attached. A worker that dies makes its run a
    RuntimeError, with no analysis errors. Any BaseException here, such as
    KeyboardInterrupt, kills and joins every worker before it propagates.
    """
    workers = _worker_count(len(jobs))
    if workers == 1:
        return [_train_job(*job) for job in jobs]
    fork = multiprocessing.get_context("fork")
    out, queue, running, started = [None] * len(jobs), list(enumerate(jobs)), {}, []
    try:
        while queue or running:
            while queue and len(running) < workers:
                i, job = queue.pop(0)
                reader, writer = fork.Pipe(duplex=False)
                # every signal blocked from before the fork until the worker is
                # in ``started``, so an alarm or Ctrl-C cannot fall in between
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
                try:
                    proc = fork.Process(target=_worker, args=(writer, job, mask), daemon=True)
                    proc.start()
                    started.append(proc)
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                writer.close()
                running[reader] = i, proc
            for reader in wait(list(running)):
                i, proc = running.pop(reader)
                try:
                    out[i] = reader.recv()
                except EOFError:  # the worker died before it sent anything
                    proc.join()
                    out[i] = RuntimeError(f"the worker process exited with code "
                                          f"{proc.exitcode} before its run finished"), {}
                reader.close()
                proc.join()
                if isinstance(out[i][0], TrainResult) and jobs[i][1] is not None:
                    out[i][0].bundle = jobs[i][1]
    finally:
        for proc in started:
            proc.kill()
            proc.join()
    return out


def run_experiment_suite(manifest: dict, out_root: str) -> dict:
    """Execute a manifest of runs and follow-up analyses.

    Each run gets its own report directory; an aggregate CSV collects
    every AP plus the percent improvement over a declared baseline run.
    Runs with one resolved data config share one bundle. A repeated name,
    a run config ``RunConfig`` rejects (its data and VERA blocks
    included), an ``embed_from`` that names no earlier run or one without
    a classifier head, a ``baseline`` that names no run, or an analysis
    that is invalid or names no run, is a ConfigError before any training;
    a failing run or analysis is recorded in the summary's errors, and the
    suite continues.

    Runs train through ``train_many`` in waves: every run whose
    ``embed_from`` run, if any, has finished. Each analysis runs in the job
    of the run it names, after that run is saved; the summary lists run
    errors, then analysis errors, each in manifest order. Outputs do not
    depend on how many workers train them.
    """
    manifest = check_fields(_MANIFEST, manifest, "suite")
    runs = [check_fields(_SUITE_RUN, item, "run") for item in manifest["runs"]]
    analyses, run_names = manifest["analyses"], [r["name"] for r in runs]
    for item in analyses:
        check_analysis(item)
        if item.get("model") not in run_names:
            raise ConfigError(f"analysis model {item.get('model')!r} names no run")
    # every name is an output file or directory beside the suite's aggregate.csv
    names = ["aggregate"] + run_names + [a.get("name", a["kind"]) for a in analyses]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"run and analysis names must be unique and not 'aggregate': {repeated}")
    configs = {}
    for item in runs:
        if item["embed_from"] is not None and item["embed_from"] not in configs:
            raise ConfigError(f"run {item['name']!r}: embed_from {item['embed_from']!r} "
                              "names no earlier run")
        if item["embed_from"] is not None and not _has_logits_head(configs[item["embed_from"]]):
            raise ConfigError(f"run {item['name']!r}: embed_from run {item['embed_from']!r} has "
                              "no classifier head; give it objective 'ce' or gamma > 0")
        if item["baseline"] is not None and item["baseline"] not in run_names:
            raise ConfigError(f"run {item['name']!r}: baseline {item['baseline']!r} names no run")
        try:
            configs[item["name"]] = RunConfig.from_dict(item["config"])
        except ConfigError as exc:
            raise ConfigError(f"run {item['name']!r}: {exc}") from None
    os.makedirs(out_root, exist_ok=True)
    results: dict[str, TrainResult] = {}
    failed: dict[str, Exception] = {}
    bundles: dict[str, SplitBundle] = {}
    analysis_errors: dict[str, str] = {}

    def job(item: dict) -> tuple:
        name, config, source = item["name"], configs[item["name"]], item["embed_from"]
        if source is not None:
            if source not in results:
                raise ConfigError(f"embed_from run {source!r} unavailable")
            bundle = embed_dataset(results[source].spec, results[source].params,
                                   results[source].bundle)
        else:
            key = repr(sorted(({"seed": config.seed} | config.data).items()))
            if key not in bundles:
                bundles[key] = build_bundle(config)
            bundle = bundles[key]
        run = {"label": _run_label(name, config, source is not None), "name": name}
        mine = tuple((a, out_root) for a in analyses if a["model"] == name)
        return config, bundle, os.path.join(out_root, name), run, mine

    waiting = runs
    while waiting:
        done = results.keys() | failed.keys()
        wave = [i for i in waiting if i["embed_from"] in done | {None}]
        waiting = [i for i in waiting if i not in wave]
        jobs = {}
        for item in wave:
            try:
                jobs[item["name"]] = job(item)
            except Exception as exc:
                failed[item["name"]] = exc
        for name, (out, job_errors) in zip(jobs, train_many(list(jobs.values()))):
            if isinstance(out, Exception):
                failed[name] = out
            else:
                results[name] = out
            analysis_errors |= job_errors
    errors = {n: f"{type(failed[n]).__name__}: {failed[n]}" for n in run_names if n in failed}

    rows = []
    for item in (i for i in runs if i["name"] in results):
        run, base_name = results[item["name"]].report.run, item["baseline"]
        base_aps = ({r["ood_set"]: r["auc_pr"] for r in results[base_name].report.results}
                    if base_name in results else {})
        for r in results[item["name"]].report.results:
            base = base_aps.get(r["ood_set"], 0)
            rel = 100.0 * (r["auc_pr"] - base) / base if base > 0 else ""
            rows.append([run["name"], run["label"], run["objective"], run["gamma"], run["seed"],
                         r["ood_set"], r["group"], r["auc_pr"], base_name or "", rel])
    write_series_csv(os.path.join(out_root, "aggregate.csv"), rows, header=(
        "name", "label", "objective", "gamma", "seed",
        "ood_set", "group", "auc_pr", "baseline", "rel_improvement_pct",
    ))

    for item in analyses:
        name = item.get("name", item["kind"])
        if item["model"] not in results:  # the text a lookup of the failed run raises
            errors[name] = f"KeyError: {item['model']!r}"
        elif name in analysis_errors:
            errors[name] = analysis_errors[name]

    summary = {"runs": sorted(results), "errors": errors, "aggregate": "aggregate.csv"}
    _atomic_write_json(os.path.join(out_root, "suite_summary.json"), summary)
    return summary


def run_analysis(item: dict, spec: ModelSpec, params, bundle: SplitBundle, seed: int,
                 out_dir: str) -> list[list]:
    """Run one analysis of a trained model, write ``<name>.csv`` in
    ``out_dir`` and return its (x, value, series) rows."""
    p, kind, name = check_analysis(item), item["kind"], item.get("name", item["kind"])
    if kind == "norm_sweep":
        anchor = bundle.id_train.features.mean(axis=0)
        mode, n_directions = p["directions"], p["n_directions"]
        if mode == "heldout":
            dirs = unit_directions_through(anchor, bundle.id_test.features[:n_directions])
        else:
            dirs = random_unit_directions(bundle.id_train.dim, n_directions, stream(seed, "eval"))
        radii = [float(r) for r in p["radii"]]
        curve = norm_sweep(spec, params, anchor, dirs, radii)
        rows = [[r, v, f"{name}:{mode}"] for r, v in zip(radii, curve)]
    elif kind == "smoothness":
        side = p["side"]
        if spec.input_dim != side**2:
            raise ConfigError(f"smoothness images of side {side} have {side**2} pixels, "
                              f"but the model takes {spec.input_dim} inputs")
        rng = stream(seed, "eval")
        sets = {f"pool{k}": make_smoothness(p["n"], side, k, rng) for k in p["pool_sizes"]}
        scores = {k: score_logdensity(spec, params, v) for k, v in sets.items()}
        scores["id_test"] = score_logdensity(spec, params, bundle.id_test.features)
        edges, counts = density_histogram(scores, bins=p["bins"])
        centers = 0.5 * (edges[:-1] + edges[1:])
        rows = [[c, int(v), series] for series, cnt in sorted(counts.items())
                for c, v in zip(centers, cnt)]
    else:
        logp, grad = partial(score_logdensity, spec, params), partial(input_grad, spec, params)
        rows = []
        for i, x0 in enumerate(bundle.id_test.features[:p["n_points"]]):
            traj = likelihood_ascent(logp, grad, x0[None], p["steps"], p["lr"])
            rows.extend([t, lp, f"point{i}"] for t, lp in enumerate(traj.logdensity))
    write_series_csv(os.path.join(out_dir, f"{name}.csv"), rows)
    return rows
