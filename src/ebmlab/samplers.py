"""SGLD chains, the persistent replay buffer, and likelihood ascent.

The samplers take plain numpy functions of an (n, d) batch and build no
graph: ``grad_fn(x)``, the input gradient dE/dx of the summed energy, and
``logp_fn(x)``, the per-row log p~(x) = -E(x). For a model these are
``models.input_grad`` and ``models.score_logdensity`` with the parameters
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SamplerError(Exception):
    pass


@dataclass
class SgldConfig:
    steps: int = 100
    step_size: float = 1.0
    noise_std: float = 0.01

    def __post_init__(self):
        if self.steps < 0:
            raise SamplerError("steps must be >= 0")
        if self.step_size <= 0:
            raise SamplerError("step size must be positive")
        if self.noise_std < 0:
            raise SamplerError("noise std must be nonnegative")


def sgld_chain(grad_fn, x0, config: SgldConfig, rng: np.random.Generator) -> np.ndarray:
    """x <- x - (alpha/2) * dE/dx + sigma * eps, run for ``steps`` steps
    from ``x0``, with ``grad_fn(x)`` = dE/dx; returns the endpoints."""
    x = np.array(x0, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise SamplerError("non-finite chain initialization")
    for step in range(config.steps):
        g = grad_fn(x)
        if not np.all(np.isfinite(g)):
            raise SamplerError(f"non-finite energy gradient at SGLD step {step}")
        # in place: x is the chain's own copy, while g may be the caller's
        x -= 0.5 * config.step_size * g
        if config.noise_std > 0:
            x += config.noise_std * rng.normal(size=x.shape)
    return x


@dataclass
class ReplayBuffer:
    """Persistent-chain storage with probabilistic reinitialization.

    ``reinit_sampler(rng, n)`` draws fresh starting points; by default
    the trainer wires it to a uniform box over the training data.
    """

    capacity: int = 10000
    reinit_prob: float = 0.05
    reinit_sampler: object = None
    _storage: np.ndarray | None = field(default=None, repr=False)
    _size: int = 0

    def __post_init__(self):
        if not 0.0 <= self.reinit_prob <= 1.0:
            raise SamplerError("reinit probability must lie in [0, 1]")
        if self.capacity < 1:
            raise SamplerError("capacity must be >= 1")

    def _ensure_storage(self, dim: int):
        if self._storage is None:
            self._storage = np.zeros((self.capacity, dim))

    def draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Starting points plus the slot indices for writing back.

        Each point is fresh with probability ``reinit_prob`` (always, if
        the buffer is empty), otherwise drawn uniformly from storage.
        """
        if n < 1:
            raise SamplerError("must draw at least one point")
        if self.reinit_sampler is None:
            raise SamplerError("no reinit sampler configured")
        fresh = rng.random(n) < self.reinit_prob
        if self._size == 0:
            fresh[:] = True
        size_before = self._size
        indices = np.zeros(n, dtype=np.int64)
        n_fresh = int(fresh.sum())
        if n_fresh:
            fresh_points = np.atleast_2d(self.reinit_sampler(rng, n_fresh))
            dim = fresh_points.shape[1]
        else:
            dim = self._storage.shape[1]
        self._ensure_storage(dim)
        points = np.zeros((n, dim))
        if n_fresh:
            points[fresh] = fresh_points
            for i in np.where(fresh)[0]:
                if self._size < self.capacity:
                    indices[i] = self._size
                    self._size += 1
                else:
                    indices[i] = rng.integers(0, self.capacity)
        if n_fresh < n:
            # only slots written before this draw; fresh slots claimed above
            # have not been populated yet
            old_idx = rng.integers(0, size_before, size=n - n_fresh)
            indices[~fresh] = old_idx
            points[~fresh] = self._storage[old_idx]
        return points, indices

    def write(self, indices, samples):
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        indices = np.asarray(indices, dtype=np.int64)
        self._ensure_storage(samples.shape[1])
        if indices.size and (indices.min() < 0 or indices.max() >= self.capacity):
            raise SamplerError("buffer index out of range")
        self._storage[indices] = samples
        self._size = max(self._size, int(indices.max()) + 1 if indices.size else 0)


@dataclass
class AscentTrajectory:
    logdensity: np.ndarray   # (T+1,) unnormalized log-density summed over each batch


def likelihood_ascent(logp_fn, grad_fn, x, steps: int, lr: float) -> AscentTrajectory:
    """Gradient ascent on log p~ = -E of an (n, d) batch in input space, with
    ``logp_fn(x)`` = log p~ per row and ``grad_fn(x)`` = dE/dx; records the
    log-density of each visited batch, and stops before the first step
    whose gradient or log-density is not finite."""
    if lr <= 0:
        raise SamplerError("learning rate must be positive")
    x = np.array(x, dtype=np.float64)
    logps = [logp_fn(x).sum()]
    for _ in range(steps):
        g = grad_fn(x)
        if not np.all(np.isfinite(g)):
            break
        x = x - lr * g  # ascent on -E
        logp = logp_fn(x).sum()
        if not np.isfinite(logp):
            break
        logps.append(logp)
    return AscentTrajectory(np.asarray(logps))
