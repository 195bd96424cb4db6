"""Exception types shared across the package, and the doubling search.

Usage and domain problems (bad arguments, malformed input files, numbers
outside a domain) raise subclasses of ``ValueError``; failed searches,
constructions and iterations raise subclasses of ``RuntimeError``.
"""

import math


class UsageError(ValueError):
    """An argument or input file violates a documented precondition."""


class DomainError(ValueError):
    """A numeric input lies outside the mathematical domain of an operation."""


class SearchExhaustedError(RuntimeError):
    """A doubling search hit its cap without satisfying the target inequality."""


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


def _doubling_search(k_max: float, failure) -> float:
    """Smallest k in 1, 2, 4, ... <= k_max for which ``failure(k)`` is None.

    ``failure(k)`` returns None when k passes, and otherwise the message to
    raise should k be the last scale tried: past ``k_max`` the search raises
    ``SearchExhaustedError`` with the message of the last failing k.  A
    ``k_max`` below 1 (or NaN) leaves no scale to try, and an infinite one no
    end to the search: both raise ``UsageError``.
    """
    if not 1.0 <= k_max < math.inf:  # written so that NaN fails
        raise UsageError(f"the doubling search needs a finite k_max >= 1, got {k_max:g}")
    k = 1.0
    while k <= k_max:
        message = failure(k)
        if message is None:
            return k
        k *= 2.0
    raise SearchExhaustedError(message)
