"""Imports ebmlab before any test module imports numpy, so that the tests,
and the suite workers they fork, run with ebmlab's default of one BLAS
thread unless the environment sets another."""

import ebmlab  # noqa: F401
