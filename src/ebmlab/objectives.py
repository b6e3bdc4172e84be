"""Training objectives: SSM-VR, contrastive divergence, VERA, flow NLL,
cross-entropy, and the supervised composite with CE weight gamma."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .models import (ModelSpec, ParameterSet, _affine, _flow, _hidden_values, _logsumexp, energy,
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


def ssm_vr_loss(energy_fn, x, v) -> ad.Node:
    """Variance-reduced sliced score matching with Rademacher projections.

    Mean over the batch of v^T (ds/dx) v + 0.5*|s|^2 where s = -dE/dx;
    the projected square is integrated out analytically for Rademacher v.
    Differentiable w.r.t. any parameter leaves inside ``energy_fn``.
    """
    x, v = ad.as_node(x), ad.as_node(v)
    if x.value.ndim != 2 or v.value.shape != x.value.shape:
        raise ObjectiveError("an (n, d) batch and one projection vector per row are required")
    (gx,) = ad.grad(ad.reduce_sum(energy_fn(x)), [x])
    gv = ad.reduce_sum(ad.mul(gx, v))
    (hv,) = ad.grad(gv, [x])
    per_row = ad.add(
        ad.neg(ad.reduce_sum(ad.mul(hv, v), axis=1)),
        ad.mul(0.5, ad.reduce_sum(ad.mul(gx, gx), axis=1)),
    )
    return ad.mean(per_row)


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


def jem_loss(base_loss: ad.Node, logits: ad.Node, labels, gamma: float) -> ad.Node:
    """base + gamma * cross-entropy; gamma=0 returns the base node itself."""
    if gamma < 0:
        raise ObjectiveError("gamma must be nonnegative")
    if gamma == 0.0:
        return base_loss
    return ad.add(base_loss, ad.mul(gamma, ce_loss(logits, labels)))


@dataclass
class VeraStep:
    ebm_loss: ad.Node
    gen_loss: ad.Node
    gen_leaves: dict[str, ad.Node]
    eta: float
    x_gen: np.ndarray
    entropy_grad_wrt_x: np.ndarray  # -score estimate per generated row
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
    leaves: dict[str, ad.Node],
    generator: ModelSpec,
    gen_pset: ParameterSet,
    x_data: np.ndarray,
    cfg: VeraConfig,
    eta: float,
    rng: np.random.Generator,
) -> VeraStep:
    """One VERA step: EBM and generator loss nodes plus the eta update.

    ``leaves`` are the EBM's ``param_nodes`` leaves; the EBM loss is the
    CD loss of data against generator samples held constant.
    The generator minimizes the energy of its samples minus an entropy
    surrogate whose gradient matches the importance-weighted posterior
    score estimator; eta follows one ascent step on the log-mean
    importance weight before clamping. The generator's pass on the n rows
    and both losses are graphs; the posterior pass on the n*k rows and the
    eta step run in numpy (``_posterior``).
    """
    x_data = np.asarray(x_data, dtype=np.float64)
    n, d = x_data.shape
    k = cfg.n_posterior_samples

    z = rng.normal(size=(n, cfg.latent_dim))
    eps = rng.normal(size=(n, d))
    xi = rng.normal(size=(n, k, cfg.latent_dim))

    # generator pass with parameter leaves (phi)
    gen_leaves = param_nodes(gen_pset)
    g_z, _ = mlp_forward(generator, gen_leaves, z)
    x_gen = ad.add(g_z, ad.constant(cfg.gen_noise_std * eps))
    x_gen_val = x_gen.value

    # EBM side: generated samples are constants
    energy_theta = partial(energy, spec, leaves)
    ebm_loss = cd_loss(energy_theta, x_data, x_gen_val)

    # posterior samples z_k = z + eta*xi and their log importance weights
    log_w_val, g_zk_val, slope = _posterior(generator, gen_pset.arrays(), z, xi, x_gen_val,
                                            eta, cfg)

    # importance-weighted posterior score, held constant for the surrogate
    finite = np.all(np.isfinite(log_w_val), axis=1)
    n_skipped = int(n - finite.sum())
    if n_skipped:
        warnings.warn(f"vera_step: skipped {n_skipped} samples with degenerate weights")
    w = np.zeros_like(log_w_val)
    rows = np.where(finite)[0]
    if rows.size:
        shifted = log_w_val[rows] - log_w_val[rows].max(axis=1, keepdims=True)
        ww = np.exp(shifted)
        w[rows] = ww / ww.sum(axis=1, keepdims=True)
    g_zk_val = g_zk_val.reshape(n, k, d)
    score = np.einsum("nk,nkd->nd", w, (g_zk_val - x_gen_val[:, None, :]) / cfg.gen_noise_std**2)

    # entropy surrogate: dH/dphi ~ -mean score^T dx/dphi
    h_surrogate = ad.neg(ad.mean(ad.reduce_sum(ad.mul(ad.constant(score), x_gen), axis=1)))
    gen_loss = ad.add(
        ad.mean(energy_theta(x_gen)),
        ad.neg(ad.mul(cfg.entropy_weight, h_surrogate)),
    )

    # eta ascent on the mean log-mean importance weight, then clamp
    step = cfg.eta_lr * float(slope(finite)) if rows.size else 0.0
    if not np.isfinite(step):
        step = 0.0
    eta_new = float(np.clip(eta + step, cfg.eta_min, cfg.eta_max))

    return VeraStep(
        ebm_loss=ebm_loss,
        gen_loss=gen_loss,
        gen_leaves=gen_leaves,
        eta=eta_new,
        x_gen=x_gen_val,
        entropy_grad_wrt_x=score,
        n_skipped=n_skipped,
    )


def _posterior(generator: ModelSpec, p: dict[str, np.ndarray], z, xi, x_gen, eta, cfg):
    """VERA's posterior pass in numpy on the generator's parameter arrays
    ``p``: the n*k samples z_k = z + eta*xi through the generator, and
    log w = log N(x_gen; g(z_k), s^2) + log N(z_k; 0, I) - log N(z_k; z, eta^2)
    per sample. Returns (log w as (n, k), g(z_k) as (n*k, d), slope), where
    ``slope(finite)`` is the derivative in eta of the mean of
    log_mean_w = logsumexp_k(log w) - log k over the rows where ``finite``.

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

    def slope(finite):
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

    return log_w, g_zk, slope
