"""Exception types shared across the package, the shared input checks, and the doubling search.

Usage and domain problems (bad arguments, malformed input files, numbers
outside a domain) raise subclasses of ``ValueError``; failed searches,
constructions and iterations raise subclasses of ``RuntimeError``.

Four input rules have one check each, which raises ``UsageError`` naming
the input: ``_grid`` (a 1d grid of finite values that strictly increase
from above 0, or from 0), ``_interval`` (a pair of radii with
0 < lo < hi < inf), ``_count`` (an integer count of at least n) and
``_uniform_angles`` (a 1d grid of m uniform angles theta_0 + 2 pi i / m).
Each is written so that NaN fails it.
"""

import math
from numbers import Integral

import numpy as np


class UsageError(ValueError):
    """An argument or input file violates a documented precondition."""


class DomainError(ValueError):
    """A numeric input lies outside the mathematical domain of an operation."""


class SearchExhaustedError(RuntimeError):
    """A doubling search found no scale k <= 2^40 that satisfies its target inequality.

    The search ends at the fixed cap k = 2^40, or earlier where no larger k
    can pass; glue's k search ends where sigma_k(R2+delta) overflows.
    """


class InfeasibleError(RuntimeError):
    """A root-find bracket is empty; the requested construction cannot proceed."""


class ConstructionError(RuntimeError):
    """An internal consistency check failed while assembling an object."""


class DivergenceError(RuntimeError):
    """An iteration produced a non-finite quantity.

    ``report`` is the run's report up to the state it kept, where the raiser
    attaches one (``solver.solve`` does), and None otherwise.
    """

    report = None


def _grid(values, what, least=1, zero=False) -> np.ndarray:
    """``values`` as a 1d float array of at least ``least`` finite values that strictly increase from above 0.

    With ``zero`` set the first value may be 0.  The first value, the last
    and the steps are compared, each written so that NaN fails.
    """
    grid = np.asarray(values, dtype=float)
    if not (grid.ndim == 1 and grid.size >= least and (grid[0] >= 0.0 if zero else grid[0] > 0.0)
            and grid[-1] < math.inf and np.all(np.diff(grid) > 0.0)):
        raise UsageError(f"{what} must be strictly increasing and {'nonnegative' if zero else 'positive'}: "
                         f"1d and finite, with at least {least} point{'s' * (least > 1)}")
    return grid


def _interval(lo, hi, what) -> None:
    """Refuse a pair of radii other than 0 < lo < hi < inf, compared as plain Python scalars."""
    if not 0.0 < lo < hi < math.inf:
        raise UsageError(f"{what} must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")


def _count(n, what, least) -> None:
    """Refuse a count other than an ``Integral`` n >= ``least``."""
    if not (isinstance(n, Integral) and n >= least):
        raise UsageError(f"{what} must be an integer >= {least}, got {n!r}")


def _uniform_angles(theta) -> None:
    """Refuse angles other than the 1d array theta_0 + 2 pi i / m, i < m = ``theta.size`` >= 1, to within 1e-12."""
    if theta.ndim != 1:
        raise UsageError("theta_grid must be a 1d array")
    m = theta.size
    want = theta[0] + 2.0 * np.pi * np.arange(m) / m
    if not np.allclose(theta, want, atol=1e-12):
        raise UsageError("theta_grid must be uniform on [0, 2*pi)")


_K_MAX = 2.0**40  # the last scale a doubling search tries


def _doubling_search(failure) -> float:
    """Smallest k in 1, 2, 4, ..., 2^40 for which ``failure(k)`` is None.

    ``failure(k)`` returns None when k passes, and otherwise the message to
    raise should k be the last scale tried: past 2^40 the search raises
    ``SearchExhaustedError`` with the message of k = 2^40.  A ``failure``
    that sees that no larger k can pass ends the search by raising itself.
    """
    k = 1.0
    while k <= _K_MAX:
        message = failure(k)
        if message is None:
            return k
        k *= 2.0
    raise SearchExhaustedError(message)
