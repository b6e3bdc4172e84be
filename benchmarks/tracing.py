"""Span tracing of ebmlab's layers, installed from outside the package.

A ``Tracer`` wraps the public functions of each ebmlab module (each module
is one layer) and records one span per call: name, start, end and the
index of the enclosing span. It installs every wrapper on each module that
holds a reference to the original function, so ``training.sgld_chain`` is
traced as well as ``samplers.sgld_chain``. ``uninstall`` puts every
original back. Spans stay in memory until ``dump`` writes them out.

In ``autodiff`` only ``grad`` gets a span. Primitives such as ``add`` or
``matmul`` run once per graph node, so a span each would swamp the
measurement; their time is in the self time of whoever called them.
``matmul`` and ``Node`` construction are counted instead.
"""

from __future__ import annotations

import collections
import inspect
import json
import sys
import time

import numpy as np

PACKAGE = "ebmlab"
LAYERS = ("autodiff", "models", "objectives", "samplers", "data", "evaluate", "training")

# public methods traced alongside the module-level functions
METHODS = {
    "samplers": {"ReplayBuffer": ("draw", "write")},
    "evaluate": {"EvalReport": ("save",)},
    "training": {"Adam": ("step",)},
}


def _rows(x) -> int:
    value = getattr(x, "value", x)
    shape = np.shape(value)
    return int(shape[0]) if len(shape) == 2 else 1


# attributes recorded on a span, computed from (args, kwargs, result)
ATTRS = {
    "models.mlp_forward": lambda a, k, r: _rows(a[2]),
    "models.score_logdensity": lambda a, k, r: len(r),
    "samplers.sgld_chain": lambda a, k, r: a[2].steps,
    "samplers.likelihood_ascent": lambda a, k, r: len(r.logdensity) - 1,
    "objectives.vera_step": lambda a, k, r: (_rows(a[4]), r.n_skipped),
    "evaluate.average_precision": lambda a, k, r: len(a[0]),
    "data.load_csv": lambda a, k, r: r.n,
    "training.train": lambda a, k, r: bool(r.history["diverged"]),
    "training.run_experiment_suite": lambda a, k, r: len(r["errors"]),
}


class Tracer:
    """Spans and counters for one process; not thread-safe (ebmlab runs on
    one thread)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attr]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open_span(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close_span(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        attr = ATTRS.get(name)

        def traced(*args, **kwargs):
            idx = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(idx)
            if attr is not None:
                self.spans[idx][4] = attr(args, kwargs, result)
            return result

        return traced

    def _wrap_draw(self, fn):
        """ReplayBuffer.draw, also counting rows from the reinit sampler."""
        traced = self._wrap("samplers.ReplayBuffer.draw", fn)
        counts = self.counts

        def draw(buffer, n, rng):
            sampler = buffer.reinit_sampler

            def counting(rng_, k):
                counts["reinit_rows"] += k
                return sampler(rng_, k)

            counts["drawn_rows"] += n
            buffer.reinit_sampler = counting
            try:
                return traced(buffer, n, rng)
            finally:
                buffer.reinit_sampler = sampler

        return draw

    def _counting_matmul(self, fn):
        counts = self.counts

        def matmul(a, b):
            out = fn(a, b)  # (m, k) @ (k, n): 2*m*k*n flops
            counts["matmul_flop"] += 2 * out.value.size * out.parents[0].value.shape[1]
            return out

        return matmul

    def _counting_init(self, fn):
        counts = self.counts

        def __init__(node, value, parents=(), vjp=None):
            counts["nodes"] += 1
            fn(node, value, parents, vjp)

        return __init__

    # -- installing --------------------------------------------------------

    def _modules(self) -> list:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        replacements = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = mods[layer]
            if layer == "autodiff":
                replacements[id(mod.grad)] = self._wrap("autodiff.grad", mod.grad)
                replacements[id(mod.matmul)] = self._counting_matmul(mod.matmul)
                self._set(mod.Node, "__init__", self._counting_init(mod.Node.__init__))
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    replacements[id(obj)] = self._wrap(f"{layer}.{name}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    if (cls_name, meth) == ("ReplayBuffer", "draw"):
                        wrapper = self._wrap_draw(fn)
                    else:
                        wrapper = self._wrap(f"{layer}.{cls_name}.{meth}", fn)
                    self._set(cls, meth, wrapper)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()  # a half-done install must not leave wrappers behind
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def dump(self, path: str):
        """Spans as one JSON document: names plus [name_id, start, end, parent]."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows, "counts": dict(self.counts)}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children of one span never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, *_) in enumerate(spans)]


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics over a set of spans, totalled (not per op)."""
    selfs = self_times(spans)
    calls = collections.Counter()
    total = collections.defaultdict(float)
    own = collections.defaultdict(float)
    attr_sum = collections.defaultdict(float)
    layer_self = collections.defaultdict(float)
    input_grad = param_backward = vera_posterior = 0.0
    vera_rows = vera_skipped = 0
    for i, (name, start, end, parent, attr) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        own[name] += selfs[i]
        layer_self[name.split(".", 1)[0]] += selfs[i]
        if isinstance(attr, (int, float)):
            attr_sum[name] += attr
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "autodiff.grad":
            if parent_name.split(".", 1)[0] in ("samplers", "objectives"):
                input_grad += dur
            elif parent_name == "training.train":
                param_backward += dur
        elif name == "objectives.vera_step" and attr is not None:
            vera_rows += attr[0]
            vera_skipped += attr[1]
        elif (name == "models.mlp_forward" and parent_name == "objectives.vera_step"
              and spans[parent][4] is not None and attr != spans[parent][4][0]):
            vera_posterior += dur  # the n*k posterior rows, not the n generator rows

    m = {
        "autodiff.grad_calls": calls["autodiff.grad"],
        "autodiff.grad_self_s": own["autodiff.grad"],
        "autodiff.nodes_created": counts["nodes"],
        "autodiff.matmul_gflop": counts["matmul_flop"] / 1e9,
        "autodiff.input_grad_s": input_grad,
        "autodiff.param_backward_s": param_backward,
        "samplers.sgld_chain_calls": calls["samplers.sgld_chain"],
        "samplers.sgld_steps": attr_sum["samplers.sgld_chain"],
        "samplers.sgld_chain_self_s": own["samplers.sgld_chain"],
        "samplers.buffer_draw_s": total["samplers.ReplayBuffer.draw"],
        "samplers.buffer_write_s": total["samplers.ReplayBuffer.write"],
        "samplers.reinit_frac": (counts["reinit_rows"] / counts["drawn_rows"]
                                 if counts["drawn_rows"] else 0.0),
        "samplers.ascent_steps": attr_sum["samplers.likelihood_ascent"],
        "samplers.likelihood_ascent_self_s": own["samplers.likelihood_ascent"],
        "objectives.ssm_vr_loss_self_s": own["objectives.ssm_vr_loss"],
        "objectives.cd_loss_self_s": own["objectives.cd_loss"],
        "objectives.vera_step_self_s": own["objectives.vera_step"],
        "objectives.vera_posterior_s": vera_posterior,
        "objectives.vera_skipped_frac": vera_skipped / vera_rows if vera_rows else 0.0,
        "objectives.flow_nll_self_s": own["objectives.flow_nll"],
        "objectives.ce_loss_self_s": own["objectives.ce_loss"],
        "models.mlp_forward_calls": calls["models.mlp_forward"],
        "models.mlp_forward_rows": attr_sum["models.mlp_forward"],
        "models.mlp_forward_self_s": own["models.mlp_forward"],
        "models.radial_layer_calls": calls["models.radial_forward"],
        "models.radial_layer_self_s": own["models.radial_forward"],
        "models.score_rows": attr_sum["models.score_logdensity"],
        "models.score_logdensity_s": total["models.score_logdensity"],
        "models.checkpoint_io_s": total["models.save_checkpoint"] + total["models.load_checkpoint"],
        "data.load_csv_rows": attr_sum["data.load_csv"],
        "data.load_csv_s": total["data.load_csv"],
        "data.split_s": total["data.class_removal_split"] + total["data.standardize"],
        "data.probe_gen_s": sum(total[f"data.make_{k}"]
                                for k in ("noise", "constant", "oodomain", "smoothness")),
        "evaluate.ap_calls": calls["evaluate.average_precision"],
        "evaluate.ap_rows": attr_sum["evaluate.average_precision"],
        "evaluate.ap_s": total["evaluate.average_precision"],
        "evaluate.ood_report_self_s": own["evaluate.ood_report"],
        "evaluate.selection_calls": calls["evaluate.selection_score"],
        "evaluate.selection_s": total["evaluate.selection_score"],
        "evaluate.norm_sweep_s": total["evaluate.norm_sweep"],
        "evaluate.write_s": total["evaluate.write_series_csv"] + total["evaluate.EvalReport.save"],
        "training.train_calls": calls["training.train"],
        "training.train_self_s": own["training.train"],
        "training.adam_step_calls": calls["training.Adam.step"],
        "training.adam_step_s": total["training.Adam.step"],
        "training.build_bundle_s": total["training.build_bundle"],
        "training.diverged_runs": attr_sum["training.train"],
        "training.suite_errors": attr_sum["training.run_experiment_suite"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
