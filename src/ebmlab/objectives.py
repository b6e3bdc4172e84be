"""Training objectives: SSM-VR, contrastive divergence, VERA, flow NLL,
cross-entropy, and the supervised composite with CE weight gamma."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .models import ModelSpec, ParameterSet, _flow, energy, mlp_forward, param_nodes


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
    importance weight before clamping.
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

    # posterior samples z_k = z + eta*xi; eta as a leaf so the log-mean
    # importance weight stays differentiable in eta
    eta_leaf = ad.leaf(np.asarray(eta))
    zk = ad.add(ad.constant(z[:, None, :]), ad.mul(eta_leaf, ad.constant(xi)))
    zk_flat = ad.reshape(zk, (n * k, cfg.latent_dim))
    g_zk, _ = mlp_forward(generator, gen_leaves, zk_flat)

    var_x = cfg.gen_noise_std**2
    x_rep = np.repeat(x_gen_val, k, axis=0)
    ll_x = ad.add(
        ad.mul(-0.5 / var_x, ad.reduce_sum(ad.square(ad.add(ad.constant(x_rep), ad.neg(g_zk))), axis=1)),
        -0.5 * d * math.log(2.0 * math.pi * var_x),
    )
    lp_prior = ad.add(
        ad.mul(-0.5, ad.reduce_sum(ad.square(zk_flat), axis=1)),
        -0.5 * cfg.latent_dim * math.log(2.0 * math.pi),
    )
    # proposal density N(z_k; z, eta^2) at z_k = z + eta*xi reduces to
    # -|xi|^2/2 - L*log(eta) - (L/2)*log(2*pi)
    xi_sq = np.sum(xi.reshape(n * k, -1) ** 2, axis=1)
    lq = ad.add(
        ad.constant(-0.5 * xi_sq - 0.5 * cfg.latent_dim * math.log(2.0 * math.pi)),
        ad.mul(-float(cfg.latent_dim), ad.log(eta_leaf)),
    )
    log_w = ad.reshape(ad.add(ad.add(ll_x, lp_prior), ad.neg(lq)), (n, k))
    log_mean_w = ad.add(ad.logsumexp(log_w, axis=1), -math.log(k))

    # importance-weighted posterior score, held constant for the surrogate
    log_w_val = log_w.value
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
    g_zk_val = g_zk.value.reshape(n, k, d)
    score = np.einsum("nk,nkd->nd", w, (g_zk_val - x_gen_val[:, None, :]) / var_x)

    # entropy surrogate: dH/dphi ~ -mean score^T dx/dphi
    h_surrogate = ad.neg(ad.mean(ad.reduce_sum(ad.mul(ad.constant(score), x_gen), axis=1)))
    gen_loss = ad.add(
        ad.mean(energy_theta(x_gen)),
        ad.neg(ad.mul(cfg.entropy_weight, h_surrogate)),
    )

    # eta ascent on the mean log-mean importance weight, then clamp
    if rows.size:
        mask = finite.astype(np.float64)
        objective = ad.mul(
            ad.reduce_sum(ad.mul(log_mean_w, ad.constant(mask))), 1.0 / rows.size
        )
        (d_eta,) = ad.grad(objective, [eta_leaf])
        step = cfg.eta_lr * float(d_eta.value)
        if not np.isfinite(step):
            step = 0.0
    else:
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
