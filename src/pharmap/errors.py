"""Exception types shared across the package, and the doubling search.

Usage and domain problems (bad arguments, malformed input files, numbers
outside a domain) raise subclasses of ``ValueError``; failed searches,
constructions and iterations raise subclasses of ``RuntimeError``.
"""


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
