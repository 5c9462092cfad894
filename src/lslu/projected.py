"""Dense small-problem machinery shared by all solver drivers.

Everything here operates on the (k+1)-by-k projected matrix (Hessenberg
H or bidiagonal B) through its SVD: Tikhonov and least-squares solves,
the GCV and weighted-GCV parameter-selection functions, the iteration
stopping function, and the parameter search itself.  The matrix grows
by one column and one row per iteration, so past a measured crossover
its SVD is extended from the previous one (extend_svd, O(k^2) work and
two k-by-k products) rather than recomputed in O(k^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dlasd4

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


#: Below this many columns a fresh LAPACK SVD costs less than extending
#: the previous one (measured crossover, see ROADMAP "Recent").
_EXTEND_MIN_K = 40
#: The extension writes the new U and V a block of columns at a time,
#: each block's vectors about this many entries; its other temporaries,
#: NumPy's broadcasting buffers included, are no larger, so it holds no
#: k-by-k array besides U and V.
_BLOCK_ENTRIES = 12288
#: The benign factor d_j + omega_i of the gaps is formed in row chunks
#: of about this many entries.
_CHUNK_ENTRIES = 2048
_EPS = np.finfo(float).eps
#: ls_projected drops singular values at or below this fraction of sigma_1.
_LS_RCOND = 1e-14


def svd_small(H, prev=None):
    """Full SVD of the (k+1)-by-k projected matrix.

    prev, when given, must be the SVD of H[:-1, :-1], the previous
    iteration's projected matrix.  If H only appends a column and a row
    to it (H[-1, :-1] == 0, true of the Hessenberg H and the bidiagonal
    B alike) and k is past the crossover, the SVD is extended from prev
    in O(k^2) work plus two k-by-k products (extend_svd); otherwise, or
    if the extension's secular solver fails, LAPACK computes it afresh
    in O(k^3).  The two routes agree to rounding, not bitwise.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[1] < 1 or H.shape[0] != H.shape[1] + 1:
        raise ValueError("expected a (k+1)-by-k matrix with k >= 1")
    if not np.all(np.isfinite(H)):
        raise ValueError("projected matrix has non-finite entries")
    k = H.shape[1]
    if (prev is not None and k > _EXTEND_MIN_K and prev.k == k - 1
            and not np.any(H[-1, :-1])):
        try:
            return extend_svd(prev, H)
        except np.linalg.LinAlgError:
            pass
    U, s, Vh = np.linalg.svd(H, full_matrices=True)
    return ProjectedSvd(U=U, sigma=s, V=Vh.T, ue1=U[0, :].copy())


def extend_svd(prev, H):
    """SVD of H = [[G, h], [0, eta]] from prev, the SVD of G (k+1 by k).

    With c = U^T h and a Givens rotation folding (c_k, eta) into rho,
    H = blockdiag(U, 1) R^T [C; 0] blockdiag(V, 1)^T, where the square
    core C = diag(sigma, 0) + z e_last^T, z = (c_0..c_{k-1}, rho), has
    C C^T = diag(sigma, 0)^2 + z z^T.  LAPACK dlasd4 finds each singular
    value of C from that secular equation; the vectors come from the
    Loewner-recomputed z (Gu & Eisenstat, SIAM J. Matrix Anal. Appl.
    16, 1995), so they are orthogonal to working precision.  Tiny z_j
    and close singular values deflate as in LAPACK dlasd2, with
    tolerances relative to max(sigma_1, |z|).  The new U and V are
    written a block of columns at a time, with no k-by-k temporary.
    Raises LinAlgError when the secular solver fails; svd_small then
    falls back to LAPACK.
    """
    k = prev.k
    n = k + 1
    c = prev.U.T @ H[:n, k]
    eta = float(H[n, k])
    rho = math.hypot(c[k], eta)
    gc, gs = (c[k] / rho, eta / rho) if rho > 0 else (1.0, 0.0)

    # the secular problem lists its poles ascending: pole 0 is z's own
    # column of C (d = 0), pole a >= 1 is sigma_{k-a}, column k - a of C
    d = np.empty(n)
    d[0] = 0.0
    d[1:] = prev.sigma[::-1]
    z = c[::-1].copy()
    z[0] = rho
    top = max(d[-1], float(np.max(np.abs(z))))
    if not 0 < top < np.inf:
        raise np.linalg.LinAlgError("cannot extend the SVD of a zero matrix")
    scale = math.ldexp(1.0, math.frexp(top)[1])  # a power of two: exact
    d /= scale
    z /= scale
    core = _SecularCore(d, z, 8.0 * _EPS * top / scale)

    U = np.empty((n + 1, n + 1))
    V = np.empty((n, n))
    rows = max(1, _BLOCK_ENTRIES // n)
    for p0 in range(0, n, rows):
        out = slice(p0, min(n, p0 + rows))
        idx = core.order[out]
        vec, norms = core.left_vectors(idx)
        U[n, out] = gs * vec[:, k]
        vec[:, k] *= gc
        np.matmul(prev.U, vec.T, out=U[:n, out])
        core.left_to_right(vec, idx, norms)
        np.matmul(prev.V, vec[:, :k].T, out=V[:k, out])
        V[k, out] = vec[:, k]
        del vec  # before the next block's is made
    U[:n, n] = -gs * prev.U[:, k]
    U[n, n] = gc
    return ProjectedSvd(U=U, sigma=core.values[core.order] * scale, V=V,
                        ue1=U[0, :].copy())


class _SecularCore:
    """SVD of the core diag(d) + z e_0^T, poles d ascending with d[0] = 0.

    Deflates as LAPACK dlasd2 does: a pole whose z_j is at most tol
    leaves with its d_j and a unit vector, and of two consecutive
    remaining poles within tol a rotation moves the first one's z into
    the second's and the first leaves; pole 0 always stays.  The last
    safeguards of dlasd2 follow (the smallest kept nonzero pole and z_0
    are at least tol/2 and tol), then dlasd4 solves the secular equation
    of the kept poles.  Each root is kept as omega = base + tau with
    base its nearer pole, so the gaps d_j^2 - omega^2 are rebuilt to
    full relative accuracy from O(k) numbers instead of dlasd4's k-by-k
    output.  Vectors are rows over the columns of C: column n-1-a is
    pole a.
    """

    def __init__(self, d, z, tol):
        n = d.shape[0]
        keep = np.abs(z) > tol
        keep[0] = True
        live = np.flatnonzero(keep[1:]) + 1
        self.rotations = []
        for t in np.flatnonzero(d[live[1:]] - d[live[:-1]] <= tol):
            a, b = live[t], live[t + 1]
            r = math.hypot(z[a], z[b])
            self.rotations.append((n - 1 - a, n - 1 - b, z[b] / r, -z[a] / r))
            z[a], z[b] = 0.0, r
            keep[a] = False
        kept = np.flatnonzero(keep)
        self.deflated = np.flatnonzero(~keep)
        dk, zk = d[kept], z[kept]
        if dk.shape[0] > 1 and dk[1] <= tol / 2:
            dk[1] = tol / 2
        zk[0] = max(zk[0], tol)
        self.K = dk.shape[0]
        self._roots(dk, zk)
        self.values = np.concatenate([self.omega, d[self.deflated]])
        self.order = np.argsort(-self.values, kind="stable")
        # poles and z over the columns of C; z is 0 at deflated poles
        self.d_cols = d[::-1].copy()
        self.d_cols[n - 1 - kept] = dk
        self.z_cols = np.zeros(n)
        self.z_cols[n - 1 - kept] = self._loewner_z(dk, zk)

    def _roots(self, d, z):
        K = d.shape[0]
        if K == 1:
            self.omega, self.base, self.tau = z.copy(), np.zeros(1), z.copy()
            return
        r = math.sqrt(float(z @ z))
        zn = z / r
        omega, base, tau = np.empty(K), np.empty(K), np.empty(K)
        for i in range(K):
            delta, omega[i], _, info = dlasd4(i, d, zn, r * r)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"dlasd4 failed on root {i} (info={info})")
            near = i + 1 if i + 1 < K and abs(delta[i + 1]) < abs(delta[i]) else i
            base[i] = d[near]
            tau[i] = -delta[near]
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(tau))):
            raise np.linalg.LinAlgError("dlasd4 returned non-finite roots")
        self.omega, self.base, self.tau = omega, base, tau

    @staticmethod
    def gaps(d, base, tau, omega):
        """d_j^2 - omega_i^2 for the roots omega_i = base_i + tau_i (rows),
        as (d_j - base_i - tau_i) (d_j + omega_i): the first factor from
        the nearer pole, so no digits cancel, the second a sum."""
        gaps = np.empty((base.shape[0], d.shape[0]))
        gaps[...] = d
        gaps -= base[:, None]
        gaps -= tau[:, None]
        step = max(1, _CHUNK_ENTRIES // d.shape[0])
        for r in range(0, base.shape[0], step):
            gaps[r:r + step] *= d + omega[r:r + step, None]
        return gaps

    def _loewner_z(self, d, z):
        # z_m^2 = prod_i (omega_i^2 - d_m^2) / prod_{j != m} (d_j^2 - d_m^2),
        # root i paired with pole i below m and pole i+1 from m on, so that
        # every ratio lies in (0, 1] (LAPACK dlasd3)
        K = d.shape[0]
        last = slice(K - 1, K)
        zhat = self.gaps(d, self.base[last], self.tau[last], self.omega[last])[0]
        poles = np.arange(K)
        rows = max(1, _BLOCK_ENTRIES // K)
        for i0 in range(0, K - 1, rows):
            i = slice(i0, min(K - 1, i0 + rows))
            ratio = self.gaps(d, self.base[i], self.tau[i], self.omega[i])
            rank = np.arange(i.start, i.stop)[:, None]
            paired = np.where(poles > rank, d[i, None], d[i.start + 1:i.stop + 1, None])
            ratio /= d - paired
            paired += d
            ratio /= paired
            zhat *= np.prod(ratio, axis=0)
        return np.copysign(np.sqrt(np.abs(zhat)), z)

    def left_vectors(self, idx):
        """Unit left singular vectors of the values idx (rows), and the
        norms of the u_j = z_j / (d_j^2 - omega^2) they were scaled from.
        A deflated value's row is its unit vector; the deflation
        rotations are undone."""
        n, K = self.d_cols.shape[0], self.K
        root = idx < K
        # a stand-in root at 2, past every pole, for deflated values' rows
        pick = np.where(root, idx, 0)
        vec = self.gaps(self.d_cols, np.where(root, self.base[pick], 0.0),
                        np.where(root, self.tau[pick], 2.0),
                        np.where(root, self.omega[pick], 2.0))
        if K < n:
            vec[:, n - 1 - self.deflated] = 1.0  # where z is 0
        np.divide(self.z_cols, vec, out=vec)
        norms = np.sqrt(np.einsum("ij,ij->i", vec, vec))
        vec /= norms[:, None]
        self._finish(vec, idx)
        return vec, norms

    def left_to_right(self, vec, idx, norms):
        """Turn left_vectors(idx) into the matching unit right singular
        vectors, in place: C^T u = (d_j u_j, -1), pole 0 last (so the
        left vectors' pole-0 column may have been rescaled since)."""
        for a, b, cs, sn in self.rotations:  # back to the deflated core's
            x, y = vec[:, a].copy(), vec[:, b].copy()
            vec[:, a] = cs * x + sn * y
            vec[:, b] = cs * y - sn * x
        vec *= self.d_cols
        vec[:, -1] = -1.0 / norms
        vec /= np.sqrt(np.einsum("ij,ij->i", vec, vec))[:, None]
        self._finish(vec, idx)

    def _finish(self, vec, idx):
        # unit rows for deflated values, then the deflation rotations undone
        n, K = vec.shape[1], self.K
        unit = np.flatnonzero(idx >= K)
        if unit.size:
            vec[unit] = 0.0
            vec[unit, n - 1 - self.deflated[idx[unit] - K]] = 1.0
        for a, b, cs, sn in reversed(self.rotations):
            x, y = vec[:, a].copy(), vec[:, b].copy()
            vec[:, a] = cs * x - sn * y
            vec[:, b] = sn * x + cs * y


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


def ls_projected(svd, beta):
    """Plain least-squares solution min ||beta e_1 - H y|| (rank-aware)."""
    s = svd.sigma
    inv = np.where(s > _LS_RCOND * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return svd.V @ (inv * (beta * svd.ue1[:svd.k]))


def _wgcv_function(svd, beta, omega, factor, offset=1.0):
    """The GCV-family function of lam > 0, with its lam-free terms built once.

    Weighted GCV has factor k and trace offset 1; the stopping function
    has omega 1, factor n and offset m - k.  A parameter search evaluates
    it some twenty times per iteration, so each evaluation does only the
    operations that involve lam.
    """
    s2 = svd.sigma**2
    u = svd.ue1[:svd.k]
    tail = svd.ue1[svd.k] ** 2
    a = (1.0 - omega) * s2
    fb = factor * beta**2

    def value(lam):
        # no zero guard on den: it vanishes only where lam**2 underflows
        # at a zero singular value, and there the trace is 0/0 regardless
        l2 = lam**2
        den = s2 + l2
        t = l2 / den
        t *= u
        t *= t
        terms = float(np.add.reduce(t) + tail)
        trace = offset + np.add.reduce((a + l2) / den)
        return fb * terms / trace**2

    return value


def _check_search_lam(lam, name, what):
    # a lam whose square underflows to 0 makes the trace 0/0 at an exact
    # zero singular value; the float() product cannot raise OverflowError
    if not (lam > 0 and float(lam) * float(lam) > 0):
        raise ValueError(f"{what} must be positive with a square that does "
                         f"not underflow to 0, got {name}={lam!r}")


def wgcv_value(svd, beta, lam, omega):
    """Weighted-GCV function of the projected problem, k = svd.k.

    The omega weight only enters the trace denominator; omega=1 is the
    standard GCV function (same floating-point path, bit for bit).  lam
    must be positive, and large enough that lam**2 does not underflow.
    """
    _check_search_lam(lam, "lam", "lam")
    if not 0 <= omega <= 1:
        raise ValueError("omega must lie in [0, 1]")
    return _wgcv_function(svd, beta, omega, svd.k)(lam)


def gcv_value(svd, beta, lam):
    """Standard GCV function of the projected problem."""
    return wgcv_value(svd, beta, lam, 1.0)


def ghat(svd, beta, lam, m, n):
    """Stopping function: projected GCV-in-k with the full problem's traces.

    The numerator carries the full-problem factor n; the trace in the
    denominator runs over all m rows, of which only k = svd.k are
    touched by the projected filter.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if m <= svd.k:
        raise ValueError("requires m > k")
    if lam**2 == 0:
        # every filter factor is 0: the lam-free value, with no 0/0 at a
        # zero singular value
        return n * beta**2 * svd.ue1[svd.k] ** 2 / (m - svd.k) ** 2
    return _wgcv_function(svd, beta, 1.0, n, m - svd.k)(lam)


def stop_check(ghat_history, tol):
    """True when the latest relative change of the stopping function is small.

    Fires iff |G(k+1) - G(k)| / G(1) < tol for the last recorded pair.
    A zero or non-finite first value, or a non-finite value in the last
    pair, never fires.
    """
    if len(ghat_history) < 2:
        raise ValueError("need at least two stopping-function values")
    first, prev, last = ghat_history[0], ghat_history[-2], ghat_history[-1]
    if first == 0 or not all(map(math.isfinite, (first, prev, last))):
        return False
    return abs(last - prev) / first < tol


def check_truth(x_true, n=None, name="x_true"):
    """x_true as a float vector; a ValueError naming it unless finite and
    1-D, of length n (the operator's columns) when n is given."""
    x_true = np.asarray(x_true, dtype=float)
    if x_true.ndim != 1 or n not in (None, x_true.shape[0]):
        want = ("a 1-D vector" if n is None
                else f"a vector of length {n} (the operator's columns)")
        raise ValueError(f"{name} must be {want}, got shape {x_true.shape}")
    if not np.all(np.isfinite(x_true)):
        raise ValueError(f"{name} has non-finite entries")
    return x_true


@dataclass
class LambdaRule:
    """Regularization-parameter selection rule for the projected problem.

    kind 'fixed' uses value verbatim; 'gcv' and 'wgcv' minimize the
    corresponding function; 'optimal' minimizes the true solution error
    (diagnostic only; needs x_true, a finite 1-D vector).  Other kinds
    ignore value and x_true.  The searching kinds look in
    [1e-6*sigma_1, sigma_1], a window that scales with the projected
    matrix.
    """

    KINDS = ("fixed", "gcv", "wgcv", "optimal")

    kind: str = "wgcv"
    value: float | None = None
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
            self.x_true = check_truth(self.x_true)

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
_SEARCH_TOL, _SEARCH_MAXITER = 1e-3, 200  # log10 bracket width; safety bound


def golden_section_log(f, lo, hi):
    """Golden-section minimizer of f over [lo, hi] on a log10 abscissa."""
    a, b = np.log10(lo), np.log10(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(10.0**c), f(10.0**d)
    for _ in range(_SEARCH_MAXITER):
        if b - a <= _SEARCH_TOL:
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


def select_lambda(rule, svd, beta, m, *, basis=None, x0=None):
    """Pick the iteration's regularization parameter under the given rule.

    The wgcv weight is omega = (k+1)/m clamped to [0, 1], k = svd.k.
    The optimal rule searches the same window, minimizing the distance
    of the reconstructed iterate to rule.x_true; it needs the current
    solution basis (n-by-k) and x0, and rejects an x_true not of length n.
    """
    if rule.kind == "fixed":
        return float(rule.value)
    sigma1 = svd.sigma[0]
    if not sigma1 > 0:
        raise ValueError("the projected matrix is zero: no search window for "
                         "the regularization parameter")
    lo = 1e-6 * sigma1
    _check_search_lam(lo, "1e-6*sigma_1", "search window lower bound")

    if rule.kind == "gcv":
        func = _wgcv_function(svd, beta, 1.0, svd.k)
    elif rule.kind == "wgcv":
        func = _wgcv_function(svd, beta, min(1.0, max(0.0, (svd.k + 1) / m)), svd.k)
    else:
        if basis is None:
            raise ValueError("optimal rule needs the solution basis")
        x_true = check_truth(rule.x_true, basis.shape[0])
        base = (x0 if x0 is not None else 0.0) - x_true
        coeff = beta * svd.ue1[:svd.k]
        mapped = basis @ svd.V  # (n, k): one basis product, reused per evaluation
        s = svd.sigma

        def func(lam):
            # a true-error evaluation: this rule is the one selector that
            # must take full-length norms, so they go through the counter
            y = (s / (s**2 + lam**2)) * coeff
            return reductions.norm2(base + mapped @ y)

    return golden_section_log(func, lo, sigma1)
