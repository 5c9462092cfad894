"""Dense small-problem machinery shared by all solver drivers.

Everything here operates on the (k+1)-by-k projected matrix (Hessenberg
H or bidiagonal B) through its SVD: Tikhonov and least-squares solves,
the GCV and weighted-GCV parameter-selection functions, the iteration
stopping function, and the parameter search itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reductions


@dataclass
class ProjectedSvd:
    """Full SVD of a (k+1)-by-k projected matrix, with U^T e_1 cached."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    ue1: np.ndarray

    @property
    def k(self):
        return self.sigma.shape[0]


def svd_small(H):
    """Full SVD of the projected matrix; O(k^3), recomputed per iteration."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[1] < 1 or H.shape[0] != H.shape[1] + 1:
        raise ValueError("expected a (k+1)-by-k matrix with k >= 1")
    if not np.all(np.isfinite(H)):
        raise ValueError("projected matrix has non-finite entries")
    U, s, Vh = np.linalg.svd(H, full_matrices=True)
    return ProjectedSvd(U=U, sigma=s, V=Vh.T, ue1=U[0, :].copy())


def tikhonov_projected(svd, beta, lam):
    """Minimizer of ||beta e_1 - H y||^2 + lam^2 ||y||^2 via the SVD."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    s = svd.sigma
    if lam == 0 and s[-1] <= 1e-14 * s[0]:
        raise np.linalg.LinAlgError(
            "projected matrix is numerically rank deficient; lam=0 not solvable")
    filt = s / (s**2 + lam**2)
    return svd.V @ (filt * (beta * svd.ue1[:svd.k]))


def ls_projected(svd, beta, rcond=1e-14):
    """Plain least-squares solution min ||beta e_1 - H y|| (rank-aware)."""
    s = svd.sigma
    inv = np.where(s > rcond * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return svd.V @ (inv * (beta * svd.ue1[:svd.k]))


def _residual_terms(svd, lam):
    """Sum of squared filtered residual coefficients plus the tail term."""
    s2 = svd.sigma**2
    denom = s2 + lam**2
    filt = np.where(denom > 0, lam**2 / np.where(denom > 0, denom, 1.0), 0.0)
    k = svd.k
    return float(np.sum((filt * svd.ue1[:k]) ** 2) + svd.ue1[k] ** 2), filt


def _wgcv_function(svd, beta, omega, k):
    """The weighted-GCV function of lam > 0, with its lam-free terms built once.

    A parameter search evaluates it some twenty times per iteration, so
    each evaluation does only the operations that involve lam.
    """
    s2 = svd.sigma**2
    u = svd.ue1[:svd.k]
    tail = svd.ue1[svd.k] ** 2
    a = (1.0 - omega) * s2
    kb = k * beta**2

    def value(lam):
        # no zero guard on den: it vanishes only where lam**2 underflows
        # at a zero singular value, and there the trace is 0/0 regardless
        l2 = lam**2
        den = s2 + l2
        t = l2 / den
        t *= u
        t *= t
        terms = float(np.add.reduce(t) + tail)
        trace = 1.0 + np.add.reduce((a + l2) / den)
        return kb * terms / trace**2

    return value


def wgcv_value(svd, beta, lam, omega, k=None):
    """Weighted-GCV function of the projected problem.

    The omega weight only enters the trace denominator; omega=1 is the
    standard GCV function (same floating-point path, bit for bit).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not 0 <= omega <= 1:
        raise ValueError("omega must lie in [0, 1]")
    if k is None:
        k = svd.k
    return _wgcv_function(svd, beta, omega, k)(lam)


def gcv_value(svd, beta, lam, k=None):
    """Standard GCV function of the projected problem."""
    return wgcv_value(svd, beta, lam, 1.0, k=k)


def ghat(svd, beta, lam, k, m, n):
    """Stopping function: projected GCV-in-k with the full problem's traces.

    The numerator carries the full-problem factor n; the trace in the
    denominator runs over all m rows, of which only k are touched by the
    projected filter.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if m <= k:
        raise ValueError("requires m > k")
    terms, filt = _residual_terms(svd, lam)
    trace = (m - k) + np.sum(filt)
    return n * beta**2 * terms / trace**2


def stop_check(ghat_history, tol):
    """True when the latest relative change of the stopping function is small.

    Fires iff |G(k+1) - G(k)| / G(1) < tol for the last recorded pair.
    A zero first value disables stopping (always False).
    """
    if len(ghat_history) < 2:
        raise ValueError("need at least two stopping-function values")
    first = ghat_history[0]
    if first == 0:
        return False
    return abs(ghat_history[-1] - ghat_history[-2]) / first < tol


@dataclass
class LambdaRule:
    """Regularization-parameter selection rule for the projected problem.

    kind 'fixed' uses value verbatim; 'gcv' and 'wgcv' minimize the
    corresponding function; 'optimal' minimizes the true solution error
    (diagnostic only; needs x_true).  Other kinds ignore value and
    x_true.  lo/hi override the default search window
    [max(1e-12, 1e-6*sigma_1), sigma_1].
    """

    KINDS = ("fixed", "gcv", "wgcv", "optimal")

    kind: str = "wgcv"
    value: float | None = None
    lo: float | None = None
    hi: float | None = None
    x_true: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown lambda rule kind {self.kind!r}")
        if self.value is not None and not (math.isfinite(self.value)
                                           and self.value >= 0):
            raise ValueError(
                f"lambda value must be finite and nonnegative, got {self.value!r}")
        if self.kind == "fixed" and self.value is None:
            raise ValueError("fixed rule needs a lambda value")
        if self.kind == "optimal" and self.x_true is None:
            raise ValueError("optimal rule needs x_true")
        if self.x_true is not None:
            self.x_true = np.asarray(self.x_true, dtype=float)
        if self.lo is not None and self.lo <= 0:
            raise ValueError("search window lower bound must be positive")

    @classmethod
    def fixed(cls, value):
        return cls(kind="fixed", value=value)

    @classmethod
    def gcv(cls):
        return cls(kind="gcv")

    @classmethod
    def wgcv(cls):
        return cls(kind="wgcv")

    @classmethod
    def optimal(cls, x_true):
        return cls(kind="optimal", x_true=x_true)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_log(f, lo, hi, tol=1e-3, maxiter=200):
    """Golden-section minimizer of f over [lo, hi] on a log10 abscissa."""
    a, b = np.log10(lo), np.log10(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(10.0**c), f(10.0**d)
    for _ in range(maxiter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(10.0**c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(10.0**d)
    return 10.0 ** ((a + b) / 2.0)


def select_lambda(rule, svd, beta, k, m, basis=None, x0=None):
    """Pick the iteration's regularization parameter under the given rule.

    The wgcv weight is omega = (k+1)/m clamped to [0, 1].  The optimal
    rule searches the same window, minimizing the distance of the
    reconstructed iterate to rule.x_true; it needs the current solution
    basis (n-by-k) and x0.
    """
    if rule.kind == "fixed":
        return float(rule.value)
    sigma1 = svd.sigma[0]
    lo = rule.lo if rule.lo is not None else max(1e-12, 1e-6 * sigma1)
    hi = rule.hi if rule.hi is not None else sigma1
    if hi < lo:
        raise ValueError("empty search window for the regularization parameter")
    if hi == lo:
        return float(lo)

    if rule.kind == "gcv":
        func = _wgcv_function(svd, beta, 1.0, k)
    elif rule.kind == "wgcv":
        func = _wgcv_function(svd, beta, min(1.0, max(0.0, (k + 1) / m)), k)
    else:
        if basis is None:
            raise ValueError("optimal rule needs the solution basis")
        x_true = rule.x_true
        base = (x0 if x0 is not None else 0.0) - x_true
        coeff = beta * svd.ue1[:svd.k]
        mapped = basis @ svd.V  # (n, k): one basis product, reused per evaluation
        s = svd.sigma

        def func(lam):
            # a true-error evaluation: this rule is the one selector that
            # must take full-length norms, so they go through the counter
            y = (s / (s**2 + lam**2)) * coeff
            return reductions.norm2(base + mapped @ y)

    return golden_section_log(func, lo, hi)
