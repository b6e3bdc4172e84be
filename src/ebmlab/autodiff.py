"""Reverse-mode autodiff on a small fixed primitive set.

Gradients are built as graph nodes themselves, so differentiating a
gradient expression (needed for Hessian-vector quadratic forms that stay
differentiable w.r.t. parameters) works to any depth. Everything is
float64; adding a primitive requires a derivative rule built from
existing primitives plus a finite-difference test.

Graphs are built only through the named primitives below (``add``,
``matmul``, ...); ``Node`` has no operator overloads, so every operation
on a graph is a call that a tracer wrapping this module can see and count.

This engine is the oracle for every derivative in ebmlab. ebmlab builds
a graph for one step only: CD's (``objectives._cd_step``), its loss and
MLP parameter gradient. The training loop takes a (loss value, flat
gradient) pair from every objective and builds no graph. Values, input
gradients and the MLP parameter backward run in numpy in ``models``, and
the other steps are built on them in ``objectives``: sliced score
matching with its second-order parameter gradient, the radial flow's
NLL, VERA's whole step and the JEM term, which at weight 1 is the CE
baseline's step. Each is tested byte-equal to this engine, and the tests
keep the graphs they replaced as oracles.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np


class AutodiffError(Exception):
    pass


class Node:
    """One value in the computation graph.

    ``parents`` is empty for leaves and constants; ``vjp`` maps an
    adjoint node to per-parent adjoint contributions (as nodes, so the
    result is itself differentiable).
    """

    __slots__ = ("value", "parents", "vjp", "__weakref__")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents: tuple[Node, ...] = tuple(parents)
        self.vjp: Callable[[Node], tuple[Node, ...]] | None = vjp

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


def as_node(x) -> Node:
    if isinstance(x, Node):
        return x
    return Node(x)


def leaf(value) -> Node:
    """A differentiation target (parameter or input)."""
    return Node(value)


constant = as_node


def _sum_to(g: Node, shape: tuple[int, ...]) -> Node:
    """Reduce a broadcasted adjoint back to ``shape``."""
    if g.value.shape == shape:
        return g
    extra = g.value.ndim - len(shape)
    if extra > 0:
        g = reduce_sum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.value.shape[i] != 1)
    if axes:
        g = reduce_sum(g, axis=axes, keepdims=True)
    if g.value.shape != shape:
        g = reshape(g, shape)
    return g


def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = Node(a.value + b.value, (a, b))
    out.vjp = lambda g: (_sum_to(g, a.value.shape), _sum_to(g, b.value.shape))
    return out


def neg(a) -> Node:
    a = as_node(a)
    out = Node(-a.value, (a,))
    out.vjp = lambda g: (neg(g),)
    return out


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = Node(a.value * b.value, (a, b))
    out.vjp = lambda g: (_sum_to(mul(g, b), a.value.shape), _sum_to(mul(g, a), b.value.shape))
    return out


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise AutodiffError("matmul primitive is 2-D only")
    out = Node(a.value @ b.value, (a, b))
    out.vjp = lambda g: (matmul(g, transpose(b)), matmul(transpose(a), g))
    return out


def transpose(a) -> Node:
    a = as_node(a)
    out = Node(a.value.T, (a,))
    out.vjp = lambda g: (transpose(g),)
    return out


def reshape(a, shape) -> Node:
    a = as_node(a)
    orig = a.value.shape
    out = Node(a.value.reshape(shape), (a,))
    out.vjp = lambda g: (reshape(g, orig),)
    return out


def broadcast_to(a, shape) -> Node:
    a = as_node(a)
    orig = a.value.shape
    out = Node(np.broadcast_to(a.value, shape), (a,))
    out.vjp = lambda g: (_sum_to(g, orig),)
    return out


def reduce_sum(a, axis=None, keepdims=False) -> Node:
    a = as_node(a)
    orig = a.value.shape
    out = Node(a.value.sum(axis=axis, keepdims=keepdims), (a,))

    def vjp(g):
        gg = g
        if not keepdims and axis is not None:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            kshape = list(orig)
            for ax in axes:
                kshape[ax] = 1
            gg = reshape(gg, tuple(kshape))
        elif not keepdims and axis is None:
            gg = reshape(gg, (1,) * len(orig)) if orig else gg
        return (broadcast_to(gg, orig),)

    out.vjp = vjp
    return out


def mean(a, axis=None, keepdims=False) -> Node:
    a = as_node(a)
    n = a.value.size if axis is None else np.prod(
        [a.value.shape[ax] for ax in ((axis,) if isinstance(axis, int) else axis)]
    )
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def exp(a) -> Node:
    a = as_node(a)
    out = Node(np.exp(a.value), (a,))
    out_ref = weakref.ref(out)  # no out -> vjp -> out cycle; see logsumexp
    out.vjp = lambda g: (mul(g, out_ref()),)
    return out


def relu(a) -> Node:
    a = as_node(a)
    mask = (a.value > 0).astype(np.float64)
    out = Node(a.value * mask, (a,))
    out.vjp = lambda g: (mul(g, mask),)
    return out


def leaky_relu(a, slope: float = 0.2) -> Node:
    a = as_node(a)
    factor = np.where(a.value > 0, 1.0, slope)
    out = Node(a.value * factor, (a,))
    out.vjp = lambda g: (mul(g, factor),)
    return out


def sigmoid(a) -> Node:
    a = as_node(a)
    out = Node(1.0 / (1.0 + np.exp(-a.value)), (a,))
    out_ref = weakref.ref(out)  # no out -> vjp -> out cycle; see logsumexp

    def vjp(g):
        s = out_ref()
        return (mul(g, mul(s, add(1.0, neg(s)))),)

    out.vjp = vjp
    return out


def softplus(a) -> Node:
    a = as_node(a)
    v = a.value
    out = Node(np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v))), (a,))
    out.vjp = lambda g: (mul(g, sigmoid(a)),)
    return out


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Node:
    """Max-shifted logsumexp; never overflows on finite input."""
    a = as_node(a)
    m = np.max(a.value, axis=axis, keepdims=True)
    val = np.log(np.sum(np.exp(a.value - m), axis=axis, keepdims=True)) + m
    if not keepdims:
        val = np.squeeze(val, axis=axis)
    out = Node(val, (a,))
    # weak: a cycle out -> vjp -> out would keep out's whole graph (every row of
    # a scoring pass) alive until the garbage collector ran; grad holds out
    out_ref = weakref.ref(out)

    def vjp(g):
        lse_kd = out_ref() if keepdims else reshape(out_ref(), m.shape)
        soft = exp(add(a, neg(broadcast_to(lse_kd, a.value.shape))))
        g_kd = g if keepdims else reshape(g, m.shape)
        return (mul(broadcast_to(g_kd, a.value.shape), soft),)

    out.vjp = vjp
    return out


def _toposort(output: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def grad(output: Node, leaves: Sequence[Node]) -> list[Node]:
    """Adjoints of a scalar ``output`` w.r.t. each leaf, as graph nodes.

    The returned nodes can be differentiated again. Leaves the output
    does not depend on get zero adjoints (constant functions have zero
    gradient).
    """
    if output.value.ndim != 0 and output.value.size != 1:
        raise AutodiffError(f"grad requires a scalar output, got shape {output.value.shape}")
    order = _toposort(output)
    adjoint: dict[int, Node] = {id(output): constant(np.ones_like(output.value))}
    for node in reversed(order):
        g = adjoint.get(id(node))
        if g is None or node.vjp is None:
            continue
        for parent, contrib in zip(node.parents, node.vjp(g)):
            prev = adjoint.get(id(parent))
            adjoint[id(parent)] = contrib if prev is None else add(prev, contrib)
    out = []
    for lf in leaves:
        g = adjoint.get(id(lf))
        out.append(g if g is not None else constant(np.zeros_like(lf.value)))
    return out

