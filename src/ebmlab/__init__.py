"""Desk-scale lab for training energy-based density models and studying
their out-of-distribution detection behavior."""

import os

# One BLAS thread unless the caller chose otherwise: at these matrix sizes
# threads buy nothing, forked suite workers would oversubscribe the CPUs,
# and VERA's numbers depend on the thread count. It takes effect only if
# numpy is not loaded yet: once it is, its BLAS thread count is fixed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import autodiff, data, evaluate, models, objectives, rng, samplers, training  # noqa: E402

__all__ = [
    "autodiff",
    "data",
    "evaluate",
    "models",
    "objectives",
    "rng",
    "samplers",
    "training",
]
