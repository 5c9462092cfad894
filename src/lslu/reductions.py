"""Counted global reductions (inner products and Euclidean norms).

Every length-m / length-n inner product or 2-norm that the solver
drivers take one vector at a time goes through this module, so tests
can witness that the LSLU family's iteration hot path performs none of
them.  The Golub-Kahan reorthogonalization's block products (rows @ vec,
one per classical Gram-Schmidt pass: one per half-step after the first,
and a second wherever the DGKS test asks for another pass) are tallied
apart, as `blocks`, so `count` keeps meaning one-vector reductions and
the two together are that family's whole tally of long reductions.
Infinity norms and coordinate maxima (the pivot searches) are
deliberately *not* routed here: they are max-reductions, not inner
products, and avoiding the latter is the whole point of the
Hessenberg-based methods.  track() counts each operator product too,
beside the reductions.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np


class ReductionCounter:
    """Tally of long-vector inner products/norms, of reorthogonalization
    block products and of forward/adjoint products."""

    def __init__(self):
        self.count = 0
        self.by_length = {}
        self.blocks = 0
        self.forward = 0
        self.adjoint = 0

    def record(self, length):
        self.count += 1
        self.by_length[length] = self.by_length.get(length, 0) + 1


# innermost track() of this context; a new thread starts without one
_active = ContextVar("lslu_reduction_counter", default=None)


@contextmanager
def track():
    """Count every dot/norm2 call, block product and operator product of
    this context while active."""
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


def record_product(name):
    """Count one product: "forward" or "adjoint" (an operator product) or
    "blocks" (a reorthogonalization's rows @ vec)."""
    counter = _active.get()
    if counter is not None:
        setattr(counter, name, getattr(counter, name) + 1)


def dot(x, y):
    """Counted Euclidean inner product of two vectors."""
    _record(len(x))
    return float(np.dot(x, y))


#: Below this sum of squares (2^53 times the smallest normal number) the
#: squares of small entries may round to subnormals at more than an ulp
#: of the sum, so norm2 rescales
_SQUARE_MIN = 2.0 ** -969


def norm2(x):
    """Counted Euclidean norm of a vector: np.linalg.norm(x), bit for bit,
    wherever its sum of squares lies in [2^-969, inf), a norm from about
    1e-146 to 1.3e154.  Outside, where that sum under- or overflows, x is
    rescaled by a power of two and the norm taken again (the norm of a
    finite nonzero vector is then 0 or inf only if the true norm
    rounds so).  Neither path emits a floating-point warning.
    """
    _record(len(x))
    x = np.ravel(x, order="K")  # np.linalg.norm's copy of a strided vector
    # np.vdot is x.dot(x) bit for bit, without the overflow warning
    square = float(np.vdot(x, x))
    if _SQUARE_MIN <= square < math.inf:
        return math.sqrt(square)
    top = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < top < math.inf:  # zero, or entries that are not finite
        return math.sqrt(square)
    exponent = math.frexp(top)[1]
    x = np.ldexp(x, -exponent)  # exact, but for entries negligible against top
    try:
        return math.ldexp(math.sqrt(float(np.vdot(x, x))), exponent)
    except OverflowError:  # the norm itself exceeds the float range
        return math.inf
