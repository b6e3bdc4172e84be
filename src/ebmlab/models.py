"""Model zoo: MLP energy nets (optional bottlenecks), JEM heads, radial
flows, and classifiers with embedding extraction.

This module decides how E(x) and dE/dx are computed for every head with an
energy. Values and input gradients (``score_logdensity``, ``input_grad``,
``classifier_embed``) run in numpy on a ParameterSet, doing the engine's
float operations in its order; tests prove them byte-equal to the engine.
Scoring, embedding and the head output equal the engine run over fixed row
blocks, head included; a set's blocks run on up to one thread per usable
CPU, and the bytes depend neither on that count nor on which thread runs a
block. The radial flow runs in numpy
only (``_flow``), parameter adjoints included. Graphs (``energy``,
``mlp_forward``) cover MLP heads, on ``param_nodes`` leaves, only for
parameter gradients.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import numbers
import os
import struct
import tempfile
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import autodiff as ad
from .rng import stream

CHECKPOINT_SCHEMA_VERSION = 1
ACTIVATIONS = ("relu", "leaky_relu", "softplus")

# softplus(x) = 1 at this x; radial layers start as the identity map
_SOFTPLUS_INV_1 = math.log(math.e - 1.0)

# the bit pattern of the float64 1.0
_ONE_BITS = 0x3FF0000000000000


class ModelError(Exception):
    pass


@dataclass
class ModelSpec:
    input_dim: int
    hidden: list[int] = field(default_factory=lambda: [100] * 5)
    activation: str = "relu"
    leaky_slope: float = 0.2
    head: str = "energy"  # energy | logits | flow | vector
    n_classes: int | None = None
    n_outputs: int | None = None  # vector head only
    n_flow_layers: int = 20
    bottleneck_factor: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _of_type(value, f.type):
                raise ModelError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.input_dim < 1:
            raise ModelError("input_dim must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ModelError("hidden widths must be >= 1")
        if self.head not in ("energy", "logits", "flow", "vector"):
            raise ModelError(f"unknown head {self.head!r}")
        if self.head == "logits" and (self.n_classes is None or self.n_classes < 2):
            raise ModelError("logits head requires n_classes >= 2")
        if self.head == "vector" and (self.n_outputs is None or self.n_outputs < 1):
            raise ModelError("vector head requires n_outputs >= 1")
        if self.head == "flow" and self.n_flow_layers < 1:
            raise ModelError("flow needs at least one layer")
        if self.activation not in ACTIVATIONS:
            raise ModelError(f"unknown activation {self.activation!r}")
        if self.bottleneck_factor is not None and not (0.0 < self.bottleneck_factor <= 1.0):
            raise ModelError("bottleneck_factor must be in (0, 1]")

    @property
    def has_bottleneck(self) -> bool:
        # factor 1 is defined as a no-op so it matches the plain net exactly
        return self.bottleneck_factor is not None and self.bottleneck_factor < 1.0

    def layer_plan(self) -> list[tuple[str, tuple[int, ...]]]:
        """Ordered (name, shape) pairs of every parameter block."""
        plan: list[tuple[str, tuple[int, ...]]] = []
        if self.head == "flow":
            for k in range(self.n_flow_layers):
                plan.append((f"flow{k}.z0", (self.input_dim,)))
                plan.append((f"flow{k}.alpha_hat", ()))
                plan.append((f"flow{k}.beta_hat", ()))
            return plan
        prev = self.input_dim
        for i, h in enumerate(self.hidden):
            plan.append((f"layer{i}.W", (prev, h)))
            plan.append((f"layer{i}.b", (h,)))
            if self.has_bottleneck:
                m = math.ceil(self.bottleneck_factor * h)
                plan.append((f"layer{i}.bn_down.W", (h, m)))
                plan.append((f"layer{i}.bn_down.b", (m,)))
                plan.append((f"layer{i}.bn_up.W", (m, h)))
                plan.append((f"layer{i}.bn_up.b", (h,)))
            prev = h
        if self.head == "energy":
            out = 1
        elif self.head == "logits":
            out = self.n_classes
        else:
            out = self.n_outputs
        plan.append(("head.W", (prev, out)))
        plan.append(("head.b", (out,)))
        return plan


def _of_type(value, annotation: str) -> bool:
    """Whether ``value`` has a ``ModelSpec`` field's annotated type (no bool)."""
    if annotation.endswith(" | None"):
        return value is None or _of_type(value, annotation[:-len(" | None")])
    if annotation == "list[int]":
        return isinstance(value, (list, tuple)) and all(_of_type(v, "int") for v in value)
    kind = {"int": numbers.Integral, "float": numbers.Real, "str": str}[annotation]
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class ParameterSet:
    """Flat float64 storage with named per-layer offsets."""

    values: np.ndarray
    offsets: list[tuple[str, int, tuple[int, ...]]]
    seed: int | None = None
    _views: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def arrays(self) -> dict[str, np.ndarray]:
        """Named views into ``values``, in layout order. They are built once
        per ``values`` array, so they see its in-place updates."""
        if self._views is None or self._views[0] is not self.values:
            self._views = self.values, {n: self.values[a:a + math.prod(shape)].reshape(shape)
                                        for n, a, shape in self.offsets}
        return self._views[1]

    def __getstate__(self):
        return {**self.__dict__, "_views": None}  # a pickle would copy the views

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.values.copy(), list(self.offsets), self.seed)

    @property
    def size(self) -> int:
        return self.values.size


def _layout(spec: ModelSpec) -> tuple[list[tuple[str, int, tuple[int, ...]]], int]:
    """(name, start, shape) of each parameter block in the flat vector, and
    the vector's length."""
    offsets, pos = [], 0
    for name, shape in spec.layer_plan():
        offsets.append((name, pos, tuple(shape)))
        pos += math.prod(shape)
    return offsets, pos


def init_params(spec: ModelSpec, seed: int) -> ParameterSet:
    """Weights uniform in +-sqrt(6/(fan_in+fan_out)); biases zero.

    Flow layers start at the identity transform with normally
    distributed centers.
    """
    rng = stream(seed, "init")
    offsets, _ = _layout(spec)
    chunks = []
    for name, _, shape in offsets:
        size = math.prod(shape)
        if name.endswith(".W"):
            fan_in, fan_out = shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            vals = rng.uniform(-bound, bound, size=size)
        elif name.endswith(".z0"):
            vals = rng.normal(size=size)
        elif name.endswith(".alpha_hat") or name.endswith(".beta_hat"):
            vals = np.full(size, _SOFTPLUS_INV_1)
        else:  # biases
            vals = np.zeros(size)
        chunks.append(vals)
    return ParameterSet(np.concatenate(chunks), offsets, seed)


def param_nodes(pset: ParameterSet) -> dict[str, ad.Node]:
    """Fresh leaf nodes over copies of the current parameter values."""
    return {name: ad.leaf(arr.copy()) for name, arr in pset.arrays().items()}


def _activation(spec: ModelSpec, h: ad.Node) -> ad.Node:
    if spec.activation == "relu":
        return ad.relu(h)
    if spec.activation == "softplus":
        return ad.softplus(h)
    return ad.leaky_relu(h, spec.leaky_slope)


def _check_batch(x: np.ndarray, dim: int):
    if x.ndim != 2 or x.shape[1] != dim:
        raise ModelError(f"expected an (n, {dim}) batch, got shape {x.shape}")


def mlp_forward(spec: ModelSpec, pn: dict[str, ad.Node], x) -> tuple[ad.Node, ad.Node]:
    """Returns (head output (N, out), penultimate activations (N, H))."""
    if spec.head == "flow":
        raise ModelError("mlp_forward does not apply to flow heads")
    h = ad.as_node(x)
    _check_batch(h.value, spec.input_dim)
    for i in range(len(spec.hidden)):
        h = _activation(spec, ad.add(ad.matmul(h, pn[f"layer{i}.W"]), pn[f"layer{i}.b"]))
        if spec.has_bottleneck:
            d = _activation(
                spec, ad.add(ad.matmul(h, pn[f"layer{i}.bn_down.W"]), pn[f"layer{i}.bn_down.b"])
            )
            h = ad.add(ad.matmul(d, pn[f"layer{i}.bn_up.W"]), pn[f"layer{i}.bn_up.b"])
    return ad.add(ad.matmul(h, pn["head.W"]), pn["head.b"]), h


@functools.cache
def _hidden_maps(depth: int, bottleneck: bool) -> tuple[tuple[str, bool], ...]:
    """(parameter block, activated) of each affine map of ``depth`` hidden
    layers, with or without bottlenecks, in ``mlp_forward``'s order."""
    parts = [("", True)] + [(".bn_down", True), (".bn_up", False)] * bottleneck
    return tuple((f"layer{i}{part}", act) for i in range(depth) for part, act in parts)


def _hidden_values(spec: ModelSpec, p: dict[str, np.ndarray], x, bufs=None):
    """The hidden layers of ``mlp_forward`` in numpy on the parameter arrays
    ``p``: (penultimate activations, back), where ``back(g)`` maps an adjoint
    of the penultimate activations to the input adjoint as ``ad.grad``
    would, overwriting ``g``, which must be a fresh array.

    Given ``bufs``, an ``(out, scratch)`` pair as ``_hidden_blocks`` makes it,
    a value-only pass that allocates no array: the affine maps write
    alternately into ``scratch``'s first two flat buffers, the last one into
    ``out``, the activations run in place through the rest of ``scratch``,
    and ``(out, None)`` is returned. The float operations are the same."""
    h = np.asarray(x, dtype=np.float64)
    _check_batch(h, spec.input_dim)
    out, scratch = bufs or (None, None)
    maps = _hidden_maps(len(spec.hidden), spec.has_bottleneck)
    factors = []  # per activation, a function giving its vjp's factor
    for k, (name, activated) in enumerate(maps):
        into = out
        if bufs and k < len(maps) - 1:
            into = _view(scratch[k % 2], (len(h), p[f"{name}.W"].shape[1]))
        h = _affine(h, p, name, into)
        if activated:
            h, f = _activation_np(spec, h, scratch and scratch[2:])
            factors.append(f)
    if bufs:
        if not maps:
            out[...] = h
        return out, None

    def back(g):
        # ad.matmul's vjp is g @ W.T; ad.add passes g through unchanged.
        # Each factor multiplies the fresh matmul result in place.
        rest = iter(reversed(factors))
        for name, activated in reversed(maps):
            if activated:
                g *= next(rest)()
            g = g @ p[f"{name}.W"].T
        return g

    return h, back


def _view(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first items of a flat buffer as a C-contiguous array of ``shape``."""
    return flat[:math.prod(shape)].reshape(shape)


# Rows per block of a value-only MLP pass; a multiple of BLAS row unrolls
_BLOCK_ROWS = 2048


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return os.cpu_count() or 1


def _striped(start, items):
    """Work k = min(usable CPUs, len(items)) shares of ``items``, share j
    holding every k-th item from item j: ``start(share)`` runs in this
    thread and returns the function, of no arguments, that works the
    share. One share is worked in this thread; more on a pool of k
    threads, each in a copy of this thread's context (so ``np.errstate``
    holds in it), all joined before this returns or raises."""
    k = min(_usable_cpus(), len(items))
    if k <= 1:
        start(items)()
        return
    # imported here, as it loads logging: a process that never fans out
    # does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(k) as pool:
        workers = [pool.submit(contextvars.copy_context().run, start(items[j::k]))
                   for j in range(k)]
        for worker in workers:
            worker.result()


def _mlp_outputs(spec: ModelSpec, pset: ParameterSet, x, part: str) -> np.ndarray:
    """One of ``mlp_forward``'s per-row values, in numpy, for callers that
    need no backward: ``part`` of ``_block_part``. The hidden layers run
    over consecutive ``_BLOCK_ROWS``-row blocks, the last taking the rest
    (fewer than twice that), so each temporary stays cache-sized, and each
    block's part is taken from its own penultimate rows, so no whole-set
    (n, width) array is made unless ``part`` is "hidden". One block runs in
    this thread on arrays it allocates, two or more through
    ``_hidden_blocks``'s buffers. The bytes are the engine's, run over the
    same blocks."""
    x, p = np.asarray(x, dtype=np.float64), pset.arrays()
    _check_batch(x, spec.input_dim)
    n = x.shape[0]
    starts = range(0, max(n - _BLOCK_ROWS + 1, 1), _BLOCK_ROWS)
    blocks = list(zip(starts, [*starts[1:], n]))
    if len(blocks) == 1:
        h = _hidden_values(spec, p, x)[0]
        if h is x:  # no hidden layer: the caller's own rows
            h = h.copy()
        return _block_part(spec, p, h, part)
    return _hidden_blocks(spec, p, x, blocks, part)


def _block_part(spec: ModelSpec, p: dict[str, np.ndarray], h: np.ndarray, part: str):
    """``part`` of the rows whose penultimate activations are ``h``:
    "hidden", ``h`` itself; "head", the head output; "score", the
    log-density -E(x) of an energy or logits head."""
    if part == "hidden":
        return h
    out = _affine(h, p, "head")
    if part == "head":
        return out
    return -out[:, 0] if spec.head == "energy" else _logsumexp(out)[:, 0]


def _hidden_blocks(spec: ModelSpec, p: dict[str, np.ndarray], x: np.ndarray,
                   blocks: list[tuple[int, int]], part: str) -> np.ndarray:
    """``_block_part`` of ``x``, each block ``x[a:b]`` of ``blocks`` writing
    rows ``a:b`` of it, on ``_striped``'s shares of the blocks.

    Each share runs its blocks through ``_hidden_values`` on buffers made
    once per share in the calling thread, so a share allocates no arrays
    but the head's (rows, outputs) ones. (Made in the pool threads, the
    buffers raised the peak RSS of scoring 185k rows from 97 to 107 MB.)
    The bytes do not depend on which thread runs a block or on how many
    there are."""
    def start(mine):
        rows = max(b - a for a, b in mine)
        size = rows * max(spec.hidden, default=0)
        scratch = (np.empty(size), np.empty(size), np.empty(size, dtype=bool),
                   np.empty(size) if spec.activation != "relu" else None)
        penultimate = np.empty(rows * width) if part != "hidden" else None
        return functools.partial(run, mine, scratch, penultimate)

    def run(mine, scratch, penultimate):
        for a, b in mine:
            h = out[a:b] if part == "hidden" else _view(penultimate, (b - a, width))
            _hidden_values(spec, p, x[a:b], (h, scratch))
            if part != "hidden":
                out[a:b] = _block_part(spec, p, h, part)

    width = (spec.hidden or [spec.input_dim])[-1]
    row = {"hidden": (width,), "head": p["head.b"].shape, "score": ()}[part]
    out = np.empty((len(x), *row))
    _striped(start, blocks)
    return out


def _affine(h: np.ndarray, p: dict[str, np.ndarray], name: str, out=None) -> np.ndarray:
    """``ad.add(ad.matmul(h, W), b)``'s value, the add in place, into ``out``
    if given."""
    a = np.matmul(h, p[f"{name}.W"], out=out)
    a += p[f"{name}.b"]
    return a


def classifier_embed(spec: ModelSpec, pset: ParameterSet, x) -> np.ndarray:
    """Penultimate activations of a classifier, as plain arrays: the
    engine's, computed over ``_mlp_outputs``'s row blocks."""
    if spec.head != "logits":
        raise ModelError("classifier_embed requires a logits head")
    return _mlp_outputs(spec, pset, x, "hidden")


def radial_forward(z0, alpha_hat, beta_hat, x):
    """One radial transform on an (n, d) array: y = x + beta*h*(x - z0).

    h = 1/(alpha + r), r = |x - z0|; log|det J| has the closed form
    (D-1)*log(1 + beta*h) + log(1 + beta*h + beta*h'*r), h' = -h^2.
    Returns arrays ``(y, logdet, back)``: ``back(g_y, g_logdet, last)`` gives
    the adjoints of x, z0, alpha_hat and beta_hat. Both directions do the
    float operations of the engine graph of this formula, in its order;
    ``last`` is set on the flow's final layer, whose three-term adjoint sums
    the engine associates differently.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_batch(x, z0.shape[0])
    n, d = x.shape
    # unconstrained layer parameters -> alpha > 0, beta >= -alpha
    alpha_hat = np.asarray(alpha_hat, dtype=np.float64)
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    alpha, softplus_b = _softplus(alpha_hat), _softplus(beta_hat)
    beta = -alpha + softplus_b
    diff = x + -z0
    s = (diff * diff).sum(axis=1, keepdims=True) + 1e-24
    r = np.power(s, 0.5)
    apr = alpha + r
    h = np.power(apr, -1.0)
    m = beta * h
    hh = h * h
    hhr = hh * r  # beta*h'*r = -beta*hhr with h' = -h^2
    one_m = 1.0 + m
    inner = one_m + -(beta * hhr)
    logdet = ((d - 1.0) * np.log(one_m) + np.log(inner)).reshape(n)

    def back(g_y, g_logdet, last):
        g = g_logdet.reshape(n, 1)
        g_inner = g * np.power(inner, -1.0)
        g_one_m = (g * (d - 1.0)) * np.power(one_m, -1.0)
        g_hhr = -g_inner * beta
        g_hh = g_hhr * r
        m_y = g_y * diff if d == 1 else (g_y * diff).sum(axis=(1,), keepdims=True)
        g_m = (m_y + g_one_m) + g_inner if last else (g_one_m + g_inner) + m_y
        g_h = (g_m * beta + g_hh * h) + g_hh * h if last else (g_hh * h + g_hh * h) + g_m * beta
        g_apr = g_h * (np.power(apr, -2.0) * -1.0)
        g_s = (g_apr + g_hhr * hh) * (np.power(s, -0.5) * 0.5)
        g_diff = (g_y * m + g_s * diff) + g_s * diff
        g_beta = (g_m * h).sum(axis=(0, 1)) + (-g_inner * hhr).sum(axis=(0, 1))
        g_alpha = -g_beta + g_apr.sum(axis=(0, 1))
        return (g_y + g_diff, -g_diff.sum(axis=(0,)), g_alpha * _sigmoid(alpha_hat),
                g_beta * _sigmoid(beta_hat))

    return x + m * diff, logdet, back


def _flow(spec: ModelSpec, p: dict[str, np.ndarray], x):
    """The radial stack, data -> standard-normal base, in numpy on an (n, d)
    array: (log p(x), backward), where ``backward(g)`` maps an adjoint of
    log p(x) to those of x and of every flow parameter, in layout order."""
    z = np.asarray(x, dtype=np.float64)
    _check_batch(z, spec.input_dim)
    blocks = [p[name] for name, _ in spec.layer_plan()]
    total, backs = np.zeros(z.shape[0]), []
    for k in range(spec.n_flow_layers):
        z, logdet, back = radial_forward(*blocks[3 * k:3 * k + 3], z)
        total = total + logdet
        backs.append(back)
    base = -0.5 * (z * z).sum(axis=1) + -0.5 * spec.input_dim * math.log(2.0 * math.pi)

    def backward(g):
        b = (g * -0.5).reshape(-1, 1)
        g_y, adjoints = b * z + b * z, []
        for k in reversed(range(spec.n_flow_layers)):
            g_y, *layer = backs[k](g_y, g, k == spec.n_flow_layers - 1)
            adjoints[:0] = layer
        return [g_y, *adjoints]

    return base + total, backward


def energy(spec: ModelSpec, pn: dict[str, ad.Node], x) -> ad.Node:
    """Per-row energy E(x) = -log p~(x) of an (n, d) batch, shape (n,), as a
    graph node: the energy head's output; -logsumexp of the logits for a
    logits head (JEM). A vector head has no energy."""
    if spec.head == "energy":
        out, _ = mlp_forward(spec, pn, x)
        return ad.reshape(out, (out.value.shape[0],))
    if spec.head == "logits":
        return ad.neg(ad.logsumexp(mlp_forward(spec, pn, x)[0], axis=-1))
    raise ModelError("energy graphs cover MLP heads; a flow is scored with score_logdensity"
                     if spec.head == "flow" else f"no energy for head {spec.head!r}")


def _softplus(a: np.ndarray) -> np.ndarray:
    """``ad.softplus(a)``'s value."""
    return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """``ad.sigmoid(a)``'s value, the factor of ``ad.softplus``'s vjp."""
    return 1.0 / (1.0 + np.exp(-a))


def _activation_np(spec: ModelSpec, a: np.ndarray, scratch=None):
    """The activation's value at ``a``, overwriting ``a`` where that is
    exact, and a function giving the factor its vjp multiplies the adjoint
    by, computed as the ``ad.relu``/``ad.softplus``/``ad.leaky_relu``
    primitives compute them. Softplus's factor is computed only when called.

    Given ``scratch``, flat (bool, float) buffers of at least ``a.size``
    items (the float one unused by relu), the value overwrites ``a``
    through them, by the same float operations, and no factor is made."""
    if scratch is not None:
        mask, t = scratch
        if spec.activation == "softplus":
            t = _view(t, a.shape)
            np.negative(np.abs(a, out=t), out=t)
            np.log1p(np.exp(t, out=t), out=t)
            np.maximum(a, 0.0, out=a)
            a += t
        elif spec.activation == "relu":
            a *= np.greater(a, 0, out=_view(mask, a.shape))  # times 1.0 or 0.0, as ad.relu
        else:
            factor = _view(t, a.shape)
            _leaky_factor(spec.leaky_slope, np.greater(a, 0, out=_view(mask, a.shape)), factor)
            a *= factor
        return a, None
    if spec.activation == "softplus":
        return _softplus(a), lambda: _sigmoid(a)
    if spec.activation == "relu":
        factor = (a > 0).astype(np.float64)
    else:
        factor = _leaky_factor(spec.leaky_slope, a > 0)
    a *= factor
    return a, lambda: factor


def _leaky_factor(slope: float, positive: np.ndarray, out=None) -> np.ndarray:
    """``np.where(positive, 1.0, slope)``, into ``out`` if given, by
    selecting the bits of the two constants without a branch: ``positive``
    times the XOR of their bit patterns, XORed with the slope's."""
    low = int.from_bytes(struct.pack("<d", slope), "little")
    bits = np.multiply(positive, _ONE_BITS ^ low, dtype=np.uint64,
                       out=None if out is None else out.view(np.uint64))
    bits ^= low
    return bits.view(np.float64)


def _logsumexp(logits: np.ndarray) -> np.ndarray:
    """``ad.logsumexp``'s value over the last axis, kept as an (n, 1) column."""
    m = np.max(logits, axis=-1, keepdims=True)
    return np.log(np.sum(np.exp(logits - m), axis=-1, keepdims=True)) + m


def input_grad(spec: ModelSpec, pset: ParameterSet, x) -> np.ndarray:
    """dE/dx of the summed energy of an (n, d) batch, shape (n, d), for
    every head with an energy; builds no graph nodes.

    Equals the engine's ``ad.grad`` of the summed energy graph w.r.t. ``x``
    byte for byte (non-finite rows included): an MLP runs the backward of
    its numpy hidden layers, a flow the backward of ``_flow``, each from the
    adjoint the engine would hand it.
    """
    p = pset.arrays()
    if spec.head == "flow":
        logp, backward = _flow(spec, p, x)
        return backward(-np.ones(logp.shape))[0]  # the adjoint of log p under sum(-log p)
    if spec.head not in ("energy", "logits"):
        raise ModelError(f"no energy for head {spec.head!r}")
    h, back = _hidden_values(spec, p, x)
    if spec.head == "energy":
        # The head output is not needed. Under sum(E) its adjoint is ones, so
        # ad.matmul's vjp ones @ head.W.T (inner dimension 1) has entries
        # 1.0 * w = w exactly, added to a GEMM's zeroed accumulator: w + 0.0,
        # which turns a -0.0 weight into +0.0.
        return back(np.repeat(p["head.W"].T + 0.0, h.shape[0], axis=0))
    # for E = -logsumexp, the adjoint of the head output is -1 times the
    # softmax exp(logits - lse) (ad.logsumexp's vjp)
    out = _affine(h, p, "head")
    return back(-1.0 * np.exp(out + -_logsumexp(out)) @ p["head.W"].T)


def score_logdensity(spec: ModelSpec, pset: ParameterSet, x) -> np.ndarray:
    """Unnormalized log-density log p~(x) = -E(x) per row, for OOD scoring;
    ``-energy(...).value`` byte for byte, without graph nodes, an MLP's run
    over ``_mlp_outputs``'s row blocks, head included."""
    if spec.head == "flow":
        return _flow(spec, pset.arrays(), x)[0]
    if spec.head not in ("energy", "logits"):
        raise ModelError(f"no energy for head {spec.head!r}")
    return _mlp_outputs(spec, pset, x, "score")


def save_checkpoint(path: str, spec: ModelSpec, pset: ParameterSet, metadata: dict | None = None):
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "spec": asdict(spec),
        "seed": pset.seed,
        "parameters": pset.values.tolist(),
        "metadata": metadata or {},
    }
    _atomic_write_json(path, doc)


def load_checkpoint(path: str) -> tuple[ModelSpec, ParameterSet, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelError(f"checkpoint must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ModelError(
            f"checkpoint schema version {doc.get('schema_version')} "
            f"!= supported {CHECKPOINT_SCHEMA_VERSION}"
        )
    raw = doc.get("spec")
    keys, names = set(raw) if isinstance(raw, dict) else set(), {f.name for f in fields(ModelSpec)}
    if keys != names:
        raise ModelError(f"checkpoint spec: unknown keys {sorted(keys - names)}, "
                         f"missing keys {sorted(names - keys)}")
    spec = ModelSpec(**raw)
    try:
        values = np.array(doc.get("parameters"))
    except ValueError:  # ragged nested lists
        values = np.array(None)
    if values.ndim != 1 or values.dtype.kind not in "iuf":
        raise ModelError("checkpoint parameters must be a list of numbers")
    values = values.astype(np.float64, copy=False)
    if not isinstance(doc.get("metadata", {}), dict):
        raise ModelError("checkpoint metadata must be a JSON object")
    offsets, pos = _layout(spec)
    if pos != values.size:
        raise ModelError(f"parameter count {values.size} does not match spec ({pos})")
    pset = ParameterSet(values, offsets, doc.get("seed"))
    for name, arr in pset.arrays().items():
        if not np.isfinite(arr).all():
            raise ModelError(f"checkpoint parameter {name} is not finite")
    return spec, pset, doc.get("metadata", {})


def _atomic_write_json(path: str, doc: dict):
    """Write-then-rename so aborted runs never leave partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
