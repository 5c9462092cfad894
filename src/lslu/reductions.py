"""Counted global reductions (inner products and Euclidean norms).

Every length-m / length-n inner product or 2-norm that the solver
drivers take one vector at a time goes through this module, so tests
can witness that the LSLU family's iteration hot path performs none of
them; the Golub-Kahan reorthogonalization's block products (rows @ vec)
are not counted, so that family's count is a lower bound.  Infinity
norms and coordinate maxima (the pivot searches) are deliberately *not*
routed here: they are max-reductions, not inner products, and avoiding
the latter is the whole point of the Hessenberg-based methods.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np


class ReductionCounter:
    """Tally of long-vector inner-product/norm evaluations."""

    def __init__(self):
        self.count = 0
        self.by_length = {}

    def record(self, length):
        self.count += 1
        self.by_length[length] = self.by_length.get(length, 0) + 1


# innermost track() of this context; a new thread starts without one
_active = ContextVar("lslu_reduction_counter", default=None)


@contextmanager
def track():
    """Count every dot/norm2 call made in this context while it is active."""
    counter = ReductionCounter()
    token = _active.set(counter)
    try:
        yield counter
    finally:
        _active.reset(token)


def _record(length):
    counter = _active.get()
    if counter is not None:
        counter.record(int(length))


def dot(x, y):
    """Counted Euclidean inner product of two vectors."""
    _record(len(x))
    return float(np.dot(x, y))


def norm2(x):
    """Counted Euclidean norm of a vector."""
    _record(len(x))
    return float(np.linalg.norm(x))
