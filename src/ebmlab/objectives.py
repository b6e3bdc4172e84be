"""Training objectives: SSM-VR, contrastive divergence, VERA, flow NLL,
cross-entropy, and the supervised composite's CE term with weight gamma.

Each objective's step returns its loss value and flat parameter gradient,
the one contract of the training loop. SSM-VR and the flow NLL compute
theirs in numpy; CD, VERA and the JEM term, which at weight 1 is the CE
baseline's step, take theirs from engine graphs: only this module's steps build
graphs."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .models import (ModelSpec, ParameterSet, _affine, _check_batch, _flow, _hidden_maps,
                     _hidden_values, _leaky_factor, _logsumexp, _sigmoid, _softplus, energy,
                     mlp_forward, param_nodes)


class ObjectiveError(Exception):
    pass


@dataclass
class VeraConfig:
    """VERA's settings; ``training.RunConfig`` checks a run's ``vera`` block."""
    entropy_weight: float = 1e-4
    eta_min: float = 0.01
    eta_max: float = 0.3
    eta_init: float = 0.1  # after its bounds: its rule reads them
    eta_lr: float = 1e-3
    gen_noise_std: float = 0.01
    n_posterior_samples: int = 20
    latent_dim: int = 16
    gen_lr: float = 6e-4
    gen_betas: tuple[float, float] = (0.0, 0.9)


def ssm_vr_loss(spec: ModelSpec, pset: ParameterSet, x, v) -> tuple[float, np.ndarray]:
    """Variance-reduced sliced score matching with Rademacher projections
    ``v`` on an (n, d) batch ``x``, and its flat parameter gradient, in numpy.

    The loss is the batch mean of v^T (ds/dx) v + 0.5*|s|^2 where s = -dE/dx
    is the score of an energy or logits head; the projected square is
    integrated out analytically for Rademacher v. Loss and gradient do the
    float operations of the engine graph of this formula and of ``ad.grad``
    of it w.r.t. ``param_nodes`` leaves, in their order, GEMM operand
    layouts and the grouping of every adjoint sum included.

    That graph has three layers: the forward; the score pass, ``ad.grad``
    of the summed energy in x (``models._hidden_values``' ``back``); and the
    hv pass, ``ad.grad`` of sum(dE/dx * v) in x, which runs up the score
    pass and back down the forward to the Hessian-vector product hv. The
    parameter backward runs through the hv pass first, then through the
    score pass. ``top`` is the highest affine map the hv pass reaches: the
    head for a logits head, the last activated map for a softplus energy;
    a piecewise-linear energy has hv = 0 and no hv pass.

    Lists hold one entry per affine map k, the head last (k = K): z[k] is
    its input, f[k] its activation's vjp factor. In the score pass, gz[k]
    is the adjoint of z[k] and ga[k] that of map k's output; a ``p`` prefix
    marks a node's adjoint in the hv pass, an ``a3`` prefix in the
    parameter backward.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.ndim != 2 or v.shape != x.shape:
        raise ObjectiveError("an (n, d) batch and one projection vector per row are required")
    if spec.head not in ("energy", "logits"):
        raise ObjectiveError("ssm_vr_loss requires an energy or logits head")
    _check_batch(x, spec.input_dim)
    p, n = pset.arrays(), x.shape[0]
    maps = _hidden_maps(len(spec.hidden), spec.has_bottleneck) + (("head", False),)
    K, smooth, logits = len(maps) - 1, spec.activation == "softplus", spec.head == "logits"
    W = [p[f"{name}.W"] for name, _ in maps]
    act = [activated and smooth for _, activated in maps]  # maps with a sigmoid factor
    top = K if logits else max((k for k in range(K) if act[k]), default=-1)

    def slots(count):
        return ([None] * (K + 1) for _ in range(count))

    # the forward; for softplus f = sigmoid, and its vjp's own factor is
    # ss = s * (1.0 + -s) = s * op
    (f, op, ss), z = slots(3), [x]
    for k, (name, activated) in enumerate(maps[:K]):
        a = _affine(z[k], p, name)
        if act[k]:
            f[k] = _sigmoid(a)
            op[k] = 1.0 + -f[k]
            ss[k] = f[k] * op[k]
            a = _softplus(a)
        elif activated:
            f[k] = ((a > 0).astype(np.float64) if spec.activation == "relu"
                    else _leaky_factor(spec.leaky_slope, a > 0))
            a = a * f[k]
        z.append(a)
    out = _affine(z[K], p, "head")

    # the score pass
    gz, ga = slots(2)
    ones = _ones_column(n)
    if logits:
        soft = np.exp(out + -_logsumexp(out))
        gh = -1.0 * soft
        gz[K] = gh @ W[K].T
    else:
        gz[K] = ones @ W[K].T
    for k in reversed(range(K)):
        ga[k] = gz[k + 1] * f[k] if f[k] is not None else gz[k + 1]
        gz[k] = ga[k] @ W[k].T
    gx = gz[0]

    # the hv pass, up the score pass (pga[K] is the adjoint of the head's
    # gh, psig[k] that of f[k]) ...
    pga, pgz, psig = slots(3)
    q = np.broadcast_to(np.ones((1, 1)), v.shape) * v
    if top >= 0:
        pga[0] = q @ W[0]
    for k in range(min(top, K - 1) + 1):
        if act[k]:
            psig[k] = pga[k] * gz[k + 1]
        if k < top:
            pgz[k] = pga[k] * f[k] if f[k] is not None else pga[k]
            pga[k + 1] = pgz[k] @ W[k + 1]
    # ... and back down the forward: p2a[k] is the adjoint of map k's
    # output, pz[k] that of z[k]
    p2a, pz = slots(2)
    if logits:  # logsumexp's vjp, the softmax, differentiated
        adj_soft = pga[K] * -1.0
        pd = adj_soft * soft
        al = (-pd).sum(axis=(1,), keepdims=True)
        p2a[K] = pd + al * soft
        pz[K] = p2a[K] @ W[K].T
    for k in reversed(range(min(top, K - 1) + 1)):
        through_z = None  # k == top: z[k + 1] is past the hv pass
        if k < top:
            through_z = pz[k + 1] * f[k] if f[k] is not None else pz[k + 1]
        p2a[k] = _acc(through_z, psig[k] * ss[k] if act[k] else None)
        pz[k] = p2a[k] @ W[k].T
    hv = pz[0] if top >= 0 else np.zeros_like(x)

    c = 1.0 / float(n)
    per_row = -(hv * v).sum(axis=1) + 0.5 * (gx * gx).sum(axis=1)
    loss = float(per_row.sum() * c)

    # the parameter backward, first through the hv pass down the forward:
    # u[k] is the adjoint of p2a[k]. Each weight W[k] gets up to four
    # adjoints: through the hv pass's W.T (c_t2), the forward's W (c_m), the
    # hv pass's copy of the score pass (c_tt) and the score pass (c_gzt).
    a3pz, u, c_t2, c_tt, c_gzt, c_sig2, a3pga, a3sig, a3gz = slots(9)
    a3pz[0] = -c * v
    for k in range(top + 1):
        u[k] = a3pz[k] @ W[k]
        c_t2[k] = (p2a[k].T @ a3pz[k]).T
        if k < top:
            a3pz[k + 1] = u[k] * f[k] if f[k] is not None else u[k]
            if act[k]:
                c_sig2[k] = (u[k] * pz[k + 1]) * ss[k]

    def down(j):
        """From the complete adjoint of pga[j] down the hv pass's copy of
        the score pass, to the next map with a sigmoid factor."""
        while True:
            c_tt[j] = ((pgz[j - 1] if j else q).T @ a3pga[j]).T
            if j == 0:
                return
            g, j = a3pga[j] @ W[j].T, j - 1
            if act[j]:
                a3pga[j], a3sig[j] = g * f[j], g * pga[j]
                return
            a3pga[j] = g * f[j] if f[j] is not None else g

    # ... then down the hv pass's copy of the score pass, from the top
    if logits:
        a3bgl = u[K] * soft
        a3soft2 = u[K] * al
        a3pd = u[K] + -a3bgl.sum(axis=(1,), keepdims=True)
        a3pga[K] = (a3pd * soft) * -1.0
        a3soft = a3pd * adj_soft
        down(K)
        c_ah = a3soft2 * soft
        a3lse = (-c_ah).sum(axis=(1,), keepdims=True)
    for k in reversed(range(min(top, K - 1) + 1)):
        if act[k]:
            a3psig, a3ss = u[k] * ss[k], u[k] * psig[k]
            a3pga[k] = _acc(a3pga[k], a3psig * gz[k + 1])
            a3gz[k + 1] = a3psig * pga[k]
            down(k)
            a3sig[k] = _acc(a3sig[k], a3ss * op[k]) + -(a3ss * f[k])

    # ... then up the score pass, from the loss's two uses of the score
    half = (c * 0.5) * gx
    a3gz[0] = half + half
    for k in range(K):
        a3ga = a3gz[k] @ W[k]
        c_gzt[k] = ga[k].T @ a3gz[k]
        a3gz[k + 1] = _acc(a3gz[k + 1], a3ga * f[k]) if f[k] is not None else a3ga
        if act[k]:
            a3sig[k] = a3sig[k] + a3ga * gz[k + 1]
    if logits:
        a3soft = a3soft + (a3gz[K] @ W[K]) * -1.0
        c_gzt[K] = gh.T @ a3gz[K]
        a3d = a3soft * soft
        a3lse = a3lse + (-a3d).sum(axis=(1,), keepdims=True)
        a3out = (c_ah + a3d) + a3lse * soft
    else:
        c_gzt[K] = ones.T @ a3gz[K]
        a3out = None

    # ... and last down the forward: a3out is the adjoint of map k's output
    grads = {}
    for k in reversed(range(K + 1)):
        name = maps[k][0]
        if act[k]:
            through_z = None if a3out is None else a3out * f[k]
            a3out = _acc(_acc(c_sig2[k], through_z), a3sig[k] * ss[k])
        elif a3out is not None and f[k] is not None:
            a3out = a3out * f[k]
        c_m = None
        if a3out is not None:
            grads[f"{name}.b"] = a3out.sum(axis=(0,))
            c_m = z[k].T @ a3out
            a3out = a3out @ W[k].T if k else None
        grads[f"{name}.W"] = _acc(_acc(c_t2[k], c_m), _acc(c_tt[k], c_gzt[k]).T)
    return loss, np.concatenate([np.ravel(grads[name]) if name in grads else np.zeros(math.prod(s))
                                 for name, _, s in pset.offsets])


def _acc(total, term):
    """An adjoint sum as ``ad.grad`` groups it: ``term`` added to the
    contributions before it, if any."""
    if total is None:
        return term
    return total if term is None else total + term


def _ones_column(n: int) -> np.ndarray:
    """The adjoint ``ad.grad`` hands an energy head's (n, 1) output under
    sum(E): a stride-0 view of one 1.0, as the engine builds it."""
    return np.broadcast_to(np.ones(()).reshape((1,)), (n,)).reshape((n, 1))


def cd_loss(energy_fn, x_data, x_samples) -> ad.Node:
    """mean E(data) - mean E(samples); samples enter as constants."""
    x_data = np.asarray(x_data, dtype=np.float64)
    x_samples = np.asarray(x_samples, dtype=np.float64)
    if x_data.size == 0 or x_samples.size == 0:
        raise ObjectiveError("empty batch")
    if x_data.shape[-1] != x_samples.shape[-1]:
        raise ObjectiveError("data and samples must share feature dimension")
    return ad.add(ad.mean(energy_fn(ad.constant(x_data))),
                  ad.neg(ad.mean(energy_fn(ad.constant(x_samples)))))


def _cd_step(spec: ModelSpec, pset: ParameterSet, x_data, samples) -> tuple[float, np.ndarray]:
    """CD's loss of ``x_data`` against ``samples`` and its flat parameter
    gradient, from the engine."""
    leaves = param_nodes(pset)
    loss = cd_loss(partial(energy, spec, leaves), x_data, samples)
    return float(loss.value), _param_grads(loss, leaves)


def ce_loss(logits: ad.Node, labels) -> ad.Node:
    """Mean negative log softmax probability of the true class."""
    labels = np.asarray(labels)
    n, c = logits.value.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ObjectiveError(f"labels must lie in [0, {c})")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = ad.reduce_sum(ad.mul(logits, onehot), axis=1)
    return ad.mean(ad.add(ad.logsumexp(logits, axis=1), ad.neg(picked)))


def flow_nll(spec: ModelSpec, pset: ParameterSet, x) -> tuple[float, np.ndarray]:
    """A flow's mean NLL on an (n, d) batch and its flat parameter gradient,
    in numpy, by the engine's float operations for ``mean(neg(log p))``."""
    if spec.head != "flow":
        raise ObjectiveError("flow_nll requires a flow head")
    logp, backward = _flow(spec, pset.arrays(), x)
    n = logp.shape[0]
    adjoints = backward(np.full(n, -(1.0 / n)))[1:]  # mean's 1/n through neg
    return float((-logp).sum() * (1.0 / n)), np.concatenate([np.ravel(a) for a in adjoints])


def jem_term(spec: ModelSpec, pset: ParameterSet, x, labels, gamma: float
             ) -> tuple[float, np.ndarray]:
    """The supervised composite's addend gamma * cross-entropy of a logits
    head on labeled rows, and its flat parameter gradient, from the engine.

    Added to an EBM objective's loss and gradient, it gives the engine's
    loss and gradient of their sum byte for byte: ``ad.grad`` of the sum
    hands each parameter the base's adjoint first, then the term's one
    contribution through its single use in the term's forward. At gamma 1
    it is the CE baseline's step, byte-equal to ``ad.grad`` of the bare
    CE: 1.0 * CE and its unit adjoint are exact."""
    if gamma < 0:
        raise ObjectiveError("gamma must be nonnegative")
    leaves = param_nodes(pset)
    term = ad.mul(gamma, ce_loss(mlp_forward(spec, leaves, x)[0], labels))
    return float(term.value), _param_grads(term, leaves)


def _param_grads(loss: ad.Node, leaves: dict[str, ad.Node]) -> np.ndarray:
    """Gradient of ``loss`` w.r.t. ``param_nodes`` leaves, flat in the
    parameters' layout (``param_nodes`` lists the blocks in layout order)."""
    return np.concatenate([g.value.ravel() for g in ad.grad(loss, list(leaves.values()))])


@dataclass
class VeraStep:
    """One VERA step's outcome: the EBM's loss and flat parameter gradient,
    the generator's flat parameter gradient, the updated eta and the
    number of rows skipped for degenerate importance weights."""
    ebm_loss: float
    ebm_grad: np.ndarray
    gen_grad: np.ndarray
    eta: float
    n_skipped: int


def generator_spec(data_dim: int, cfg: VeraConfig) -> ModelSpec:
    return ModelSpec(
        input_dim=cfg.latent_dim,
        hidden=[100] * 5,
        activation="leaky_relu",
        leaky_slope=0.2,
        head="vector",
        n_outputs=data_dim,
    )


def vera_step(
    spec: ModelSpec,
    pset: ParameterSet,
    generator: ModelSpec,
    gen_pset: ParameterSet,
    x_data: np.ndarray,
    cfg: VeraConfig,
    eta: float,
    rng: np.random.Generator,
) -> VeraStep:
    """One VERA step: both loss gradients and the eta update.

    The EBM loss is the CD loss of data against generator samples held
    constant. The generator minimizes the energy of its samples minus an
    entropy surrogate whose gradient matches the importance-weighted
    posterior score estimator; eta follows one ascent step on the log-mean
    importance weight before clamping. The generator's pass on the n rows
    and both losses are graphs on leaves made here from ``pset`` and
    ``gen_pset``; the posterior pass on the n*k rows and the eta step run
    in numpy (``_posterior``).
    """
    x_data = np.asarray(x_data, dtype=np.float64)
    n, d = x_data.shape

    z = rng.normal(size=(n, cfg.latent_dim))
    eps = rng.normal(size=(n, d))
    xi = rng.normal(size=(n, cfg.n_posterior_samples, cfg.latent_dim))

    # generator pass with parameter leaves (phi)
    gen_leaves = param_nodes(gen_pset)
    g_z, _ = mlp_forward(generator, gen_leaves, z)
    x_gen = ad.add(g_z, ad.constant(cfg.gen_noise_std * eps))

    # EBM side: generated samples are constants
    leaves = param_nodes(pset)
    energy_theta = partial(energy, spec, leaves)
    ebm_loss = cd_loss(energy_theta, x_data, x_gen.value)

    score, finite, slope = _posterior(generator, gen_pset.arrays(), z, xi, x_gen.value, eta, cfg)
    n_skipped = int(n - finite.sum())
    if n_skipped:
        warnings.warn(f"vera_step: skipped {n_skipped} samples with degenerate weights")

    # entropy surrogate, the score held constant: dH/dphi ~ -mean score^T dx/dphi
    h_surrogate = ad.neg(ad.mean(ad.reduce_sum(ad.mul(ad.constant(score), x_gen), axis=1)))
    gen_loss = ad.add(
        ad.mean(energy_theta(x_gen)),
        ad.neg(ad.mul(cfg.entropy_weight, h_surrogate)),
    )

    # eta ascent on the mean log-mean importance weight, then clamp
    step = cfg.eta_lr * float(slope()) if n_skipped < n else 0.0
    if not np.isfinite(step):
        step = 0.0
    eta_new = float(np.clip(eta + step, cfg.eta_min, cfg.eta_max))

    return VeraStep(ebm_loss=float(ebm_loss.value), ebm_grad=_param_grads(ebm_loss, leaves),
                    gen_grad=_param_grads(gen_loss, gen_leaves), eta=eta_new, n_skipped=n_skipped)


def _posterior(generator: ModelSpec, p: dict[str, np.ndarray], z, xi, x_gen, eta, cfg):
    """VERA's posterior pass in numpy on the generator's parameter arrays
    ``p``: the n*k samples z_k = z + eta*xi through the generator, and
    log w = log N(x_gen; g(z_k), s^2) + log N(z_k; 0, I) - log N(z_k; z, eta^2)
    per sample. Returns (score, finite, slope): the importance-weighted
    estimate of the score d log q(x)/dx at each generated row, the mask of
    the rows whose k log weights are all finite (the others score 0), and
    ``slope()``, the derivative in eta of the mean of
    log_mean_w = logsumexp_k(log w) - log k over those rows.

    Values and slope do the float operations of the engine graph of these
    formulas, eta a leaf, and of ``ad.grad`` on it, in their order; the
    generator's parameter adjoints are not formed."""
    n, k, latent = xi.shape
    d = x_gen.shape[1]
    eta = np.asarray(eta, dtype=np.float64)
    zk = (z[:, None, :] + eta * xi).reshape(n * k, latent)
    h, back = _hidden_values(generator, p, zk)
    g_zk = _affine(h, p, "head")
    var_x = cfg.gen_noise_std**2
    resid = np.repeat(x_gen, k, axis=0) + -g_zk
    ll_x = (-0.5 / var_x) * (resid * resid).sum(axis=1) + -0.5 * d * math.log(2.0 * math.pi * var_x)
    lp_prior = -0.5 * (zk * zk).sum(axis=1) + -0.5 * latent * math.log(2.0 * math.pi)
    # the proposal density N(z_k; z, eta^2) at z_k = z + eta*xi reduces to
    # -|xi|^2/2 - L*log(eta) - (L/2)*log(2*pi)
    xi_sq = np.sum(xi.reshape(n * k, -1) ** 2, axis=1)
    lq = (-0.5 * xi_sq - 0.5 * latent * math.log(2.0 * math.pi)) + -float(latent) * np.log(eta)
    log_w = ((ll_x + lp_prior) + -lq).reshape(n, k)

    finite = np.all(np.isfinite(log_w), axis=1)
    w = np.zeros_like(log_w)
    rows = np.where(finite)[0]
    if rows.size:
        shifted = log_w[rows] - log_w[rows].max(axis=1, keepdims=True)
        ww = np.exp(shifted)
        w[rows] = ww / ww.sum(axis=1, keepdims=True)
    score = np.einsum("nk,nkd->nd", w, (g_zk.reshape(n, k, d) - x_gen[:, None, :]) / var_x)

    def slope():
        # the adjoint of log w: the mean's 1/rows on the finite rows times
        # logsumexp's vjp, the softmax exp(log w - lse)
        g = (1.0 / int(finite.sum())) * finite.astype(np.float64)
        g = (g[:, None] * np.exp(log_w + -_logsumexp(log_w))).reshape(n * k)
        # the residual's square is mul(r, r): two equal contributions
        g_resid = (g * (-0.5 / var_x))[:, None] * resid
        g_zk_adj = back(-(g_resid + g_resid) @ p["head.W"].T)
        # z_k feeds the first layer, then the prior's square twice
        g_prior = (g * -0.5)[:, None] * zk
        g_zk_adj = (g_zk_adj + g_prior) + g_prior
        # eta feeds z_k through eta*xi, summed to a scalar, and log q through log(eta)
        via_zk = (g_zk_adj.reshape(n, k, latent) * xi).sum(axis=(0, 1, 2))
        via_lq = ((-g).sum(axis=(0,)) * -float(latent)) * np.power(eta, -1.0)
        return via_zk + via_lq

    return score, finite, slope
