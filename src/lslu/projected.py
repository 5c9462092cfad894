"""Dense small-problem machinery shared by all solver drivers.

Everything here operates on the (k+1)-by-k projected matrix (Hessenberg
H or bidiagonal B) through its SVD: Tikhonov and least-squares solves,
the GCV and weighted-GCV parameter-selection functions, the iteration
stopping function, and the parameter search itself.  The last three
share one GCV-family function of mu = lam / sigma_1 formed in
sigma / sigma_1 (_gcv_family); the public values multiply it by their
lam-free factor (k or n times beta * beta) last, so none of them
squares an unscaled sigma, beta or lam.  The matrix grows by one
column and one row per iteration, so past a measured crossover
its SVD is extended from the previous one (extend_svd: one LAPACK
dlasd8 call for the secular equation, O(k^2) NumPy work and one k-by-k
product for V, plus one for U's rows when the new column is dense)
rather than recomputed in O(k^3).  The pass reads U only through
U^T e_1 and U^T h for the new column h, so U itself is kept only when
those need it.  Golub-Kahan's lower bidiagonal B adds a column that is
zero above its diagonal, so its extended SVD keeps only U's first and
last rows.  The Hessenberg H adds a dense column, so its SVD keeps the
full U, unless the caller passes the columns still to come (ahead): a
solve without a stop test grows them all before the pass.  Once they
number no more than U's rows (about the midpoint), it keeps U^T on them
and on e_1 instead, p + 1 rows that shrink by one per extension.  On a
reporting hybrid LSLU solve of tomo n=24 at 200 iterations (2-vCPU
Xeon, one BLAS thread) that takes the solve's tracemalloc peak from
4.89 to 4.26 MB.  The extension chain from k = 41 on took 181.2 against
161.7 ms there, and 24.0 against 23.6 ms on tomo n=64 at 100 (full U
against probe rows, medians of 15 alternating runs, lower in 14 and 15
of them).
"""

from __future__ import annotations

import ctypes
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cython_lapack

from . import reductions
from .hessenberg import InputError, check_kind, check_real, check_vector, finite_matrix


@dataclass
class ProjectedSvd:
    """SVD of a (k+1)-by-k projected matrix.

    sigma and V are full.  U holds rows of the (k+1)-by-(k+1) left
    factor in one of three forms:

    - the full U;
    - once the SVD has been extended by a column zero above its diagonal
      and nonzero on it (Golub-Kahan's B, extend_svd), only U's first
      and last rows (2-by-(k+1)), the last being all a later such
      extension reads;
    - with probes set, the probe rows [e_1, a_p, ..., a_1]^T U, where
      a_1, ..., a_p are the projected matrix's later columns, the next
      one last, cut to their first k+1 entries: all that extending the
      SVD by exactly those columns reads, since U^T a_1 is the next
      extension's U^T h.  p is less than k, so they are fewer than U's
      k + 1 rows.

    Row 0 is U^T e_1 in every form.  At k = 1 the first two are the same.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    probes: bool = False

    @property
    def k(self):
        return self.sigma.shape[0]

    @cached_property
    def ue1(self):
        """U^T e_1, U's first row: a read-only view, made on first use."""
        row = self.U[0]
        row.setflags(write=False)
        return row


#: Below this many columns a fresh LAPACK SVD costs less than extending
#: the previous one.  Measured on tomo n=24 projected matrices of both
#: families (2-vCPU Xeon, one BLAS thread, median of 300 calls, two
#: runs): LAPACK against the extension took 122-242 against 175-361 us
#: at k = 30, 155-314 against 176-398 us at k = 35 and 263-419 against
#: 228-369 us at k = 40, so the crossover lies between 35 and 40.
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
#: At lam = 0 tikhonov_projected drops singular values <= this times sigma_1.
_LS_RCOND = 1e-14

# PyCapsule accessors of their own, so the shared ctypes.pythonapi
# prototypes are left as other libraries set them
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                     ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _pointer_kind(arg):
    # a C parameter of a cython_lapack signature, as 'i' (int *), 'd'
    # (double *, or Cython's typedef of it) or None
    if arg == "int *":
        return "i"
    return "d" if re.fullmatch(r"(double|__pyx_t_\w+_d) \*", arg) else None


def _lapack_routine(name, kinds):
    """The LAPACK routine that scipy exports to Cython as name, callable
    through ctypes with one address (an int) per argument.

    kinds spells its arguments in order, 'i' for int * and 'd' for
    double *.  The function comes from the capsule in
    scipy.linalg.cython_lapack.__pyx_capi__, the one Cython's cimport
    reads; an ImportError naming the routine is raised unless that
    capsule's signature is exactly those pointers.
    """
    capsule = cython_lapack.__pyx_capi__.get(name)
    if capsule is None:
        raise ImportError(f"scipy.linalg.cython_lapack does not export {name}")
    signature = _capsule_name(capsule)
    args = re.fullmatch(r"void \((.*)\)", signature.decode())
    if args is None or [_pointer_kind(a) for a in args[1].split(", ")] != list(kinds):
        raise ImportError(f"LAPACK {name} from scipy has the signature "
                          f"{signature.decode()!r}, not {len(kinds)} pointers "
                          f"of kinds {kinds!r} (i: int *, d: double *)")
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(kinds))(
        _capsule_pointer(capsule, signature))


# DLASD8(ICOMPQ, K, D, Z, VF, VL, DIFL, DIFR, LDDIFR, DSIGMA, WORK, INFO)
_DLASD8 = _lapack_routine("dlasd8", "iiddddddiddi")


def _dlasd8(d, z):
    """LAPACK dlasd8 (ICOMPQ = 0) on the secular problem of the poles d
    (ascending, distinct) and z: the roots omega, the recomputed z of
    Gu & Eisenstat with the signs of z, DIFL = omega - d and DIFR =
    omega - d shifted one pole up (its last entry undefined).  A
    LinAlgError when the root finder fails.  All of it is O(K) memory;
    LAPACK leaves the poles as they are on binary machines."""
    K = d.shape[0]
    # rows: DSIGMA, Z, D, VF, VL, DIFL, DIFR, then the 3K of WORK
    buf = np.zeros((10, K))
    buf[0] = d
    buf[1] = z
    ints = np.array([0, K, K, 0], dtype=np.intc)  # ICOMPQ, K, LDDIFR, INFO
    a, i = buf.ctypes.data, ints.ctypes.data
    row = 8 * K
    _DLASD8(i, i + 4, a + 2 * row, a + row, a + 3 * row, a + 4 * row,
            a + 5 * row, a + 6 * row, i + 8, a, a + 7 * row, i + 12)
    if ints[3] != 0:
        raise np.linalg.LinAlgError(f"dlasd8 failed (info={ints[3]})")
    # the roots outlive the call: a copy, so the workspace is freed
    return buf[2].copy(), buf[1], buf[5], buf[6]


def svd_small(H, prev=None, ahead=None):
    """SVD of the (k+1)-by-k projected matrix (ProjectedSvd).

    prev, when given, must be the SVD of H[:-1, :-1], the previous
    iteration's projected matrix.  If H only appends a column and a row
    to it (H[-1, :-1] == 0, true of the Hessenberg H and the bidiagonal
    B alike) and k is past the crossover, the SVD is extended from prev
    in O(k^2) work plus one k-by-k product for V and, for a column
    nonzero above its diagonal (H's, not B's), one for U's rows
    (extend_svd).  Otherwise, or if extend_svd cannot extend it (the
    secular solver fails, or prev keeps rows the new column cannot be
    read from), LAPACK computes it afresh in O(k^3), with a full U.
    The two routes agree to rounding, not bitwise.

    ahead, when given, holds the projected matrix's columns after H's
    last, H.shape[0] rows of each: the ones the SVD will later be
    extended by, in order.  Once they number fewer than k (from about
    the middle of the chain on), an extension keeps the probe rows of
    those columns (see ProjectedSvd) instead of a full U, and the next
    call must pass ahead without its first column.  In a reporting
    hybrid LSLU solve of tomo n=24 at 200 iterations this takes the last
    extension's old and new U, 0.64 MB, out of the tracemalloc peak.
    """
    H = finite_matrix(H, "H")
    if H.shape[1] < 1 or H.shape[0] != H.shape[1] + 1:
        raise InputError("H", "expected a (k+1)-by-k {name} with k >= 1")
    if ahead is not None:
        # not scanned for non-finite entries: a column reaches sigma, V
        # and ue1 only as U^T h once it is H's last, and H is scanned
        ahead = np.asarray(ahead, dtype=float)
        if ahead.ndim != 2 or ahead.shape[0] != H.shape[0]:
            raise InputError("ahead", "{name} must be a matrix with H's {rows} rows",
                             rows=H.shape[0])
    k = H.shape[1]
    if (prev is not None and k > _EXTEND_MIN_K and prev.k == k - 1
            and not np.any(H[-1, :-1])):
        try:
            return extend_svd(prev, H, ahead)
        except np.linalg.LinAlgError:
            pass
    U, s, Vh = np.linalg.svd(H, full_matrices=True)
    return ProjectedSvd(U=U, sigma=s, V=Vh.T)


def extend_svd(prev, H, ahead=None):
    """SVD of H = [[G, h], [0, eta]] from prev, the SVD of G (k+1 by k).

    With c = U^T h and a Givens rotation folding (c_k, eta) into rho,
    H = blockdiag(U, 1) R^T [C; 0] blockdiag(V, 1)^T, where the square
    core C = diag(sigma, 0) + z e_last^T, z = (c_0..c_{k-1}, rho), has
    C C^T = diag(sigma, 0)^2 + z z^T.  One LAPACK dlasd8 call finds the
    singular values of C from that secular equation and the
    Loewner-recomputed z (Gu & Eisenstat, SIAM J. Matrix Anal. Appl.
    16, 1995) that the vectors are built from, so they are orthogonal to
    working precision.  Tiny z_j and close singular values deflate as in
    LAPACK dlasd2, with tolerances relative to max(sigma_1, |z|).  The
    new U's rows and V are written a block of columns at a time, with no
    k-by-k temporary.

    U's rows come in the three forms of ProjectedSvd.  A row r^T U of
    prev, for a vector whose entry in H's new row is a, becomes
    (r^T U W, -g_s (r^T U)_k + a g_c) in the new U, where W is the
    Givens-adjusted block of the core's left vectors and the first part
    gains a g_s times W's row k; U's own rows have a = 0 and the new
    unit row a = 1.

    - prev keeps probe rows: c is their last row, which is dropped, and
      the rest are carried on; ahead must be the probed columns after
      h, each with H's rows, so the new probe rows read a from its
      last row.
    - h is nonzero above its last entry (the Hessenberg H): c = U^T h
      from prev's full U.  The new U is formed whole by one k-by-k
      product, or, when ahead is given and has at most k columns, the
      probe rows of ahead's columns are formed from prev's U first and
      carried as above: that costs one k-by-k-by-p product, and each
      later extension one (p+1)-by-k-by-k product instead of a k-by-k
      one.
    - h is zero there and not on the diagonal (the bidiagonal B,
      h = alpha e_k): c is alpha times U's last row and only the new
      U's first and last rows are formed, so V's is the one k-by-k
      product.  A zero h extends U as prev keeps it: a full U stays
      full, so a later dense column can still be extended from it.

    Raises LinAlgError when the secular solver fails, when h needs a
    full U and prev keeps two rows, or when prev keeps probe rows and
    ahead is not their remaining columns; svd_small then falls back to
    LAPACK.
    """
    k = prev.k
    n = k + 1
    h = H[:n, k]
    probes = prev.probes
    full = not probes and prev.U.shape[0] == n
    if probes:
        if ahead is None or ahead.shape[1] != prev.U.shape[0] - 2:
            raise np.linalg.LinAlgError("prev keeps probe rows of other columns "
                                        "than ahead's")
        c = prev.U[-1]
        rows = prev.U[:-1]  # the rows of the new U built from prev's
    elif np.any(h[:k]) or (full and h[k] == 0):
        if not full:
            raise np.linalg.LinAlgError("prev keeps two rows of U; the new "
                                        "column reaches others")
        c = prev.U.T @ h
        rows = prev.U
        if ahead is not None and ahead.shape[1] < n:
            probes = True
            rows = np.empty((ahead.shape[1] + 1, n))
            rows[0] = prev.U[0]
            np.matmul(ahead[:n, ::-1].T, prev.U, out=rows[1:])
    else:
        c = h[k] * prev.U[-1]
        rows = prev.U[:1]
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

    # the probed columns' entries in H's new row, in the probe rows' order
    new_row = ahead[n, ::-1] if probes else None
    U = np.empty((rows.shape[0] + (not probes), n + 1))
    body = U[:rows.shape[0]]
    V = np.empty((n, n))
    block = max(1, _BLOCK_ENTRIES // n)
    for p0 in range(0, n, block):
        out = slice(p0, min(n, p0 + block))
        idx = core.order[out]
        vec, norms = core.left_vectors(idx)
        last = gs * vec[:, k]
        vec[:, k] *= gc
        np.matmul(rows, vec.T, out=body[:, out])
        if probes:
            body[1:, out] += new_row[:, None] * last
        else:
            U[-1, out] = last
        core.left_to_right(vec, idx, norms)
        np.matmul(prev.V, vec[:, :k].T, out=V[:k, out])
        V[k, out] = vec[:, k]
        del vec, last  # before the next block's are made
    body[:, n] = -gs * rows[:, k]
    if probes:
        body[1:, n] += gc * new_row
    else:
        U[-1, n] = gc
    return ProjectedSvd(U=U, sigma=core.values[core.order] * scale, V=V,
                        probes=probes)


class _SecularCore:
    """SVD of the core diag(d) + z e_0^T, poles d ascending with d[0] = 0.

    Deflates as LAPACK dlasd2 does: a pole whose z_j is at most tol
    leaves with its d_j and a unit vector, and of two consecutive
    remaining poles within tol a rotation moves the first one's z into
    the second's and the first leaves; pole 0 always stays.  The last
    safeguards of dlasd2 follow (the smallest kept nonzero pole and z_0
    are at least tol/2 and tol), then one dlasd8 call solves the secular
    equation of the kept poles and recomputes their z.  Each root is
    kept as omega = base + tau with base its nearer pole (from dlasd8's
    distances DIFL and DIFR to the poles either side), so the gaps
    d_j^2 - omega^2 are rebuilt to full relative accuracy from O(k)
    numbers.  Vectors are rows over the columns of C: column n-1-a is
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
        zhat = self._roots(dk, zk)
        self.values = np.concatenate([self.omega, d[self.deflated]])
        self.order = np.argsort(-self.values, kind="stable")
        # poles and z over the columns of C; z is 0 at deflated poles
        self.d_cols = d[::-1].copy()
        self.d_cols[n - 1 - kept] = dk
        self.z_cols = np.zeros(n)
        self.z_cols[n - 1 - kept] = zhat

    def _roots(self, d, z):
        # one dlasd8 call; each root is kept as its nearer pole plus the
        # offset from it, the last root having no pole above
        omega, zhat, difl, difr = _dlasd8(d, z)
        upper = -difr < difl
        upper[-1] = False
        tau = np.where(upper, difr, difl)
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(tau))
                and np.all(np.isfinite(zhat))):
            raise np.linalg.LinAlgError("dlasd8 returned non-finite roots")
        self.omega, self.base, self.tau = omega, d[np.arange(d.shape[0]) + upper], tau
        return zhat

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
    """Minimizer of ||beta e_1 - H y||^2 + lam^2 ||y||^2 via the SVD.

    At lam = 0 it is the plain least-squares solution, rank-aware:
    singular values at or below _LS_RCOND * sigma_1 are cut.  At lam > 0
    the filter is formed in sigma / sigma_1 and lam / sigma_1, so it
    neither over- nor underflows when the projected problem is scaled;
    the filter factors of a zero matrix are all 0.
    """
    check_real(lam, "lam", positive=False)
    s, u = svd.sigma, svd.ue1[:svd.k]
    if lam == 0:
        filt = np.where(s > _LS_RCOND * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
        return svd.V @ (filt * (beta * u))
    if s[0] == 0:
        return np.zeros(svd.k)
    return svd.V @ (_filter(s / s[0], lam / s[0]) * ((beta / s[0]) * u))


def _filter(s, mu):
    # the Tikhonov filter s / (s^2 + mu^2) of singular values and a
    # parameter both relative to sigma_1; mu broadcasts against s
    return s / (s * s + mu * mu)


def ls_projected(svd, beta):
    """Plain least-squares solution min ||beta e_1 - H y||: lam = 0."""
    return tikhonov_projected(svd, beta, 0.0)


def _gcv_family(svd, omega, offset):
    """The GCV-family function of mu = lam / sigma_1, over its lam-free factor.

    It maps an array of mu to sum (f_i u_i)^2 plus the tail of U^T e_1,
    over the squared trace offset + omega sum f_i, with the filter
    complements f_i = mu^2 / (s_i^2 + mu^2) of s = sigma / sigma_1, so no
    square of sigma, beta or lam is taken.  Weighted GCV over k beta^2
    has offset 1 + k (1 - omega); the stopping function over n beta^2
    has omega 1 and offset m - k.  A zero matrix has every f_i = 1.  One
    (points x k) array per call.
    """
    k = svd.k
    s = svd.sigma / (svd.sigma[0] or 1.0)
    s2 = s * s
    u2 = svd.ue1[:k] ** 2
    tail = svd.ue1[k] ** 2

    def value(mu):
        mu2 = (mu * mu)[:, None]
        f = s2 + mu2
        np.divide(mu2, f, out=f)  # in place: the one (points x k) array
        trace = offset + omega * np.add.reduce(f, axis=1)
        f *= f
        return (f @ u2 + tail) / (trace * trace)

    return value


def _mu(svd, lam):
    # lam / sigma_1 for a finite lam >= 0, cut at 1e150 so that mu**2
    # stays finite: from about 1.3e8 on every filter complement
    # mu^2 / (s^2 + mu^2), s <= 1, rounds to 1, so the cut moves no value
    check_real(lam, "lam", positive=False)
    return min(float(lam) / float(svd.sigma[0] or 1.0), 1e150)


def wgcv_value(svd, beta, lam, omega):
    """Weighted-GCV function of the projected problem, k = svd.k.

    The omega weight only enters the trace denominator; omega=1 is the
    standard GCV function (same floating-point path, bit for bit).  It
    is the search's function of mu = lam / sigma_1 times k beta^2, so
    scaling the problem and lam by c scales the value by c^2 to
    rounding, and a value out of range reads inf or 0.  lam must be
    finite and positive, and large enough that mu**2 does not underflow;
    omega a real number in [0, 1].
    """
    mu = _mu(svd, lam)
    if not mu * mu > 0:
        # at a zero singular value the trace would be 0/0
        raise InputError("lam", "{name} must be positive with ({name} / sigma_1)**2 "
                         "not underflowing to 0, got {value!r}", value=lam)
    check_real(omega, "omega", positive=False)
    if omega > 1:
        raise InputError("omega", "{name} must lie in [0, 1], got {value!r}", value=omega)
    k = svd.k
    f = _gcv_family(svd, omega, 1.0 + k * (1.0 - omega))(np.array([mu]))
    return float(beta) * float(beta) * float(k * f[0])


def gcv_value(svd, beta, lam):
    """Standard GCV function of the projected problem."""
    return wgcv_value(svd, beta, lam, 1.0)


def ghat(svd, beta, lam, m, n):
    """Stopping function: projected GCV-in-k with the full problem's traces.

    The numerator carries the full-problem factor n; the trace in the
    denominator runs over all m rows, of which only k = svd.k are
    touched by the projected filter.  It is beta * beta times
    ghat(svd, 1.0, lam, m, n), bit for bit, and that beta-free factor is
    formed in sigma / sigma_1 and lam / sigma_1, so it keeps its value
    when the problem and lam are scaled; beta * beta alone reads inf or
    0 out of range, with no warning.  At lam = 0, or where
    (lam / sigma_1)**2 underflows, every filter complement is 0 and the
    value is the lam-free n beta^2 tail / (m - k)^2.
    """
    mu = _mu(svd, lam)
    k = svd.k
    if m <= k:
        raise ValueError("requires m > k")
    if mu * mu == 0:
        g = n * svd.ue1[k] ** 2 / (m - k) ** 2
    else:
        g = n * _gcv_family(svd, 1.0, m - k)(np.array([mu]))[0]
    return float(beta) * float(beta) * float(g)


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


@dataclass
class LambdaRule:
    """Regularization-parameter selection rule for the projected problem.

    kind 'fixed' uses value verbatim; 'gcv' and 'wgcv' minimize the
    corresponding function; 'optimal' minimizes the true solution error
    (diagnostic only; needs x_true, a finite 1-D vector).  Other kinds
    ignore value and x_true.  The searching kinds minimize over
    mu = lam / sigma_1 in [1e-6, 1], in three vectorized grid passes to
    within 7.5e-4 decades (golden_section_log), so the chosen lam scales
    with the projected matrix.
    """

    KINDS = ("fixed", "gcv", "wgcv", "optimal")

    kind: str = "wgcv"
    value: float | None = None
    x_true: np.ndarray | None = None

    def __post_init__(self):
        check_kind(self.kind, "kind", self.KINDS, "lambda rule ")
        if self.value is not None:
            check_real(self.value, "lambda_value", positive=False)
        if self.kind == "fixed" and self.value is None:
            raise InputError("lambda_value", "fixed rule needs a {name}")
        if self.kind == "optimal" and self.x_true is None:
            raise InputError("x_true", "optimal rule needs {name}")
        if self.x_true is not None:
            self.x_true = check_vector(self.x_true, "x_true")

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


#: The parameter search looks for mu = lam / sigma_1 in this window.
_MU_WINDOW = (1e-6, 1.0)
#: Its first pass, as fractions of the window's log10 width, and each
#: zoom pass, as multiples of the spacing of the pass before.
_GRID = np.linspace(0.0, 1.0, 41)
_ZOOM = np.linspace(-1.0, 1.0, 21)
_ZOOM_PASSES = 2


def golden_section_log(f, lo, hi):
    """Minimizer of f over [lo, hi] on a log10 abscissa, in three passes.

    f maps an array of points to an ndarray of their values.  The first
    pass evaluates 41 log-spaced points; each of two zoom passes
    evaluates 21 points spanning one spacing of the pass before either
    side of its best point, so the spacing shrinks tenfold a pass (0.15,
    0.015 and 0.0015 decades over six decades).  Points are clipped to
    [lo, hi], ties take the smallest point, and the last pass's best
    point is returned: within half a final spacing of the minimizer in
    the bracket the first pass chose, where f is unimodal there.  The
    name predates the grid passes; bench/tracing.py patches it to count
    the evaluations.
    """
    a, b = math.log10(lo), math.log10(hi)
    t = a + (b - a) * _GRID
    step = (b - a) * _GRID[1]
    for zoom in range(_ZOOM_PASSES + 1):
        points = np.minimum(np.maximum(10.0 ** t, lo), hi)
        best = int(f(points).argmin())
        if zoom == _ZOOM_PASSES:
            return points[best]
        t = math.log10(points[best]) + step * _ZOOM
        step *= _ZOOM[1] - _ZOOM[0]


def select_lambda(rule, svd, beta, m, *, basis=None, x0=None):
    """Pick the iteration's regularization parameter under the given rule.

    The searching rules minimize over mu = lam / sigma_1 in
    [1e-6, 1] (golden_section_log) and return sigma_1 times the best mu;
    their functions are formed in sigma / sigma_1 and mu, so the choice
    scales with the projected problem.  gcv and wgcv drop the factor
    k beta^2, which does not move the minimizer.  The wgcv weight is
    omega = (k+1)/m clamped to [0, 1], k = svd.k.  The optimal rule
    minimizes the distance of the reconstructed iterate to rule.x_true,
    one counted norm per point; it needs the current solution basis
    (n-by-k) and x0, and rejects an x_true not of length n.
    """
    if rule.kind == "fixed":
        return float(rule.value)
    sigma1 = svd.sigma[0]
    if not sigma1 > 0:
        raise ValueError("the projected matrix is zero: no search window for "
                         "the regularization parameter")

    if rule.kind in ("gcv", "wgcv"):
        omega = 1.0 if rule.kind == "gcv" else min(1.0, max(0.0, (svd.k + 1) / m))
        func = _gcv_family(svd, omega, 1.0 + svd.k * (1.0 - omega))
    else:
        if basis is None:
            raise InputError("basis", "optimal rule needs the solution {name}")
        if rule.x_true.shape[0] != basis.shape[0]:  # LambdaRule checked the rest
            check_vector(rule.x_true, "x_true", basis.shape[0])
        base = ((x0 if x0 is not None else 0.0) - rule.x_true)[:, None]
        s = svd.sigma[:, None] / sigma1
        coeff = ((beta / sigma1) * svd.ue1[:svd.k])[:, None]
        mapped = basis @ svd.V  # (n, k): one basis product, reused per pass

        def func(mu):
            # true-error evaluations: this rule is the one selector that
            # must take full-length norms, so they go through the counter
            errors = base + mapped @ (_filter(s, mu) * coeff)
            return np.array([reductions.norm2(e) for e in errors.T])

    return sigma1 * golden_section_log(func, *_MU_WINDOW)
