"""Matrix-free linear operators and desk-scale ill-posed test problems.

The solvers only ever apply an operator's forward and adjoint maps; they
never form the matrix.  The two generators build classic ill-posed
structure at sizes where dense oracles (SVD, pseudoinverse) stay cheap:
a square smooth-kernel integral equation and a rectangular sparse
parallel-beam tomography system.

A dense operator applies its matrix with one BLAS gemv per product.  A
square matrix known to be exactly symmetric (the gravity matrix, or a
symmetric matrix read by `load_dense_problem`) is applied with one
dsymv instead, for both maps: it reads one triangle, half the bytes of
a gemv, and uses each entry twice.  A symmetric matrix that is also
exactly Toeplitz (again the gravity matrix, or such a file) is fixed by
its first column, and from n = 512 on it is applied by FFT: a product
is two real FFTs of length about 2n against the spectrum of a circulant
that embeds the matrix, O(n log n) work that never reads the matrix.
Below 512 one dsymv is faster; near 512 the two are within about 10%
of each other, and from there on the FFT wins by a growing margin (per
product, dsymv against FFT, best of 5 x 200 calls on one core of a
2-vCPU x86-64 Xeon VM with one BLAS thread: 18.7 against 26.3 us at
n = 448, 29.3 against 26.3 us at n = 512, 214 against 39 us at
n = 1000, 4.85 against 0.135 ms at n = 4096).  The FFT rounds differently from dsymv, by about 1e-15
relative per product; on solves of gravity n = 512 to 4096 that moves
the iterates by up to about 2e-7 relative and leaves the stopping
iteration unchanged.  `op.matrix` stays the full dense array on every
path, and the generated problem data do not depend on the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import toeplitz
from scipy.linalg.blas import dsymv

from .hessenberg import check_maxiter


class LinearOperator:
    """An m-by-n linear map exposed through forward/adjoint application.

    Parameters
    ----------
    nrows, ncols : int
        Output and input dimensions (m and n).
    forward : callable
        Maps a length-n vector to a length-m vector (y = A x).
    adjoint : callable
        Maps a length-m vector to a length-n vector (x = A^T y).
    matrix : ndarray or sparse matrix, optional
        The explicit matrix when one exists; retained for oracle use
        and export, never touched by the iterative solvers.

    Instances are immutable after construction and safe to share
    between concurrently running solves.
    """

    def __init__(self, nrows, ncols, forward, adjoint, matrix=None):
        check_maxiter(nrows, "nrows")
        check_maxiter(ncols, "ncols")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self._forward = forward
        self._adjoint = adjoint
        self.matrix = matrix

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ncols,):
            raise ValueError(f"expected input of length {self.ncols}, got {x.shape}")
        y = np.asarray(self._forward(x), dtype=float)
        if y.shape != (self.nrows,):
            raise ValueError("forward map returned wrong length")
        return y

    def adjoint(self, y):
        y = np.asarray(y, dtype=float)
        if y.shape != (self.nrows,):
            raise ValueError(f"expected input of length {self.nrows}, got {y.shape}")
        x = np.asarray(self._adjoint(y), dtype=float)
        if x.shape != (self.ncols,):
            raise ValueError("adjoint map returned wrong length")
        return x

    def to_dense(self):
        """Explicit dense matrix (materialized column-by-column if needed)."""
        if self.matrix is not None:
            if sp.issparse(self.matrix):
                return self.matrix.toarray()
            return np.asarray(self.matrix, dtype=float)
        cols = np.eye(self.ncols)
        return np.column_stack([self.forward(cols[:, j]) for j in range(self.ncols)])


class CountingOperator(LinearOperator):
    """Wrapper that tallies forward/adjoint applications (test instrumentation)."""

    def __init__(self, op):
        super().__init__(op.nrows, op.ncols, op._forward, op._adjoint, op.matrix)
        self.n_forward = 0
        self.n_adjoint = 0

    def forward(self, x):
        self.n_forward += 1
        return super().forward(x)

    def adjoint(self, y):
        self.n_adjoint += 1
        return super().adjoint(y)


@dataclass
class InverseProblem:
    """A generated test instance: operator, truth, exact and noisy data.

    image_shapes maps 'solution'/'data' to 2-D shapes when those spaces
    are images; it is empty for 1-D problems.
    """

    op: LinearOperator
    x_true: np.ndarray
    b_exact: np.ndarray
    b: np.ndarray
    e: np.ndarray
    noise_level: float
    seed: int
    image_shapes: dict = field(default_factory=dict)


# entries per row block of the finiteness scan of a dense matrix (256 KB
# of float64), so that the scan makes no m-by-n temporary
_BLOCK_ENTRIES = 1 << 15


def _row_blocks(m, n):
    """Slices of consecutive rows covering an m-by-n matrix in cache-sized blocks."""
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


def _checked_dense(matrix):
    """The matrix as a 2-D float array, rejected if any entry is NaN or inf."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    m, n = matrix.shape
    if not all(np.isfinite(matrix[rows]).all() for rows in _row_blocks(m, n)):
        raise ValueError("matrix has non-finite entries")
    return matrix


def make_dense_operator(matrix):
    """Wrap an explicit dense matrix as a LinearOperator."""
    matrix = _checked_dense(matrix)
    m, n = matrix.shape
    return LinearOperator(m, n, lambda x: matrix @ x, lambda y: matrix.T @ y,
                          matrix=matrix)


def _make_symmetric_operator(matrix):
    """Wrap a finite square float matrix the caller knows to be exactly symmetric.

    Both maps are one dsymv that reads only the lower triangle.  The
    matrix is not checked, which would cost more than a product.
    """
    n = matrix.shape[0]
    # matrix.T is the same matrix in Fortran order, which dsymv takes
    # without a copy; dsymv allocates a new output on every call
    fortran = matrix.T
    apply = lambda x: dsymv(1.0, fortran, x)
    return LinearOperator(n, n, apply, apply, matrix=matrix)


def _make_toeplitz_operator(matrix):
    """Wrap a finite square float matrix the caller knows to be exactly
    symmetric and exactly Toeplitz.

    The matrix is the leading n-by-n block of the symmetric circulant
    whose first column is [c_0 ... c_{n-1}, 0 ..., c_{n-1} ... c_1], of a
    fast FFT length N >= 2n - 1.  The DFT diagonalizes a circulant, and a
    symmetric one has a real spectrum, so each product is one real FFT
    of x padded to N, a multiply by that spectrum, and one inverse real
    FFT cut back to n.  Both maps are that one function.  Calls share
    only the read-only spectrum.
    """
    n = matrix.shape[0]
    size = next_fast_len(2 * n - 1, real=True)
    column = np.zeros(size)
    column[:n] = matrix[:, 0]
    column[size - n + 1:] = matrix[n - 1:0:-1, 0]
    spectrum = rfft(column).real.copy()
    spectrum.flags.writeable = False

    def apply(x):
        # two temporaries per call: the transform, scaled in place, and
        # the inverse of length N, whose first n entries are returned as a view
        transform = rfft(x, size)
        transform *= spectrum
        return irfft(transform, size)[:n]

    return LinearOperator(n, n, apply, apply, matrix=matrix)


# the smallest order at which a symmetric Toeplitz matrix is applied by
# FFT rather than by dsymv: the measured crossover (module docstring)
_FFT_MIN_N = 512


def _select_operator(matrix, symmetric, toeplitz):
    """The operator with the fastest product for a finite float matrix.

    symmetric and toeplitz say whether the caller knows the matrix to be
    exactly so: a symmetric Toeplitz matrix of order at least _FFT_MIN_N
    is applied by FFT, any other symmetric one by dsymv, and the rest by
    gemv.
    """
    if symmetric and toeplitz and matrix.shape[0] >= _FFT_MIN_N:
        return _make_toeplitz_operator(matrix)
    if symmetric:
        return _make_symmetric_operator(matrix)
    return make_dense_operator(matrix)


def make_sparse_operator(matrix):
    """Wrap a scipy sparse matrix as a LinearOperator."""
    csr = sp.csr_matrix(matrix)
    # the stored values, duplicates of a COO input already summed
    if not np.isfinite(csr.data).all():
        raise ValueError("matrix has non-finite entries")
    csc_t = sp.csr_matrix(csr.T)
    m, n = csr.shape
    return LinearOperator(m, n, lambda x: csr @ x, lambda y: csc_t @ y, matrix=csr)


def _check_noise_level(noise_level):
    if not (math.isfinite(noise_level) and noise_level >= 0):
        raise ValueError(
            f"noise_level must be finite and nonnegative, got {noise_level!r}")


def add_noise(b_exact, noise_level, seed):
    """Perturb exact data with Gaussian-direction noise of exact relative size.

    The noise is e = noise_level * ||b_exact|| * g / ||g|| with g drawn
    standard normal from the seeded generator, so ||e|| / ||b_exact||
    equals noise_level by construction.
    """
    b_exact = np.asarray(b_exact, dtype=float)
    _check_noise_level(noise_level)
    if noise_level == 0:
        e = np.zeros_like(b_exact)
        return b_exact.copy(), e
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(b_exact)
    if not 0 < scale < math.inf:
        raise ValueError(f"cannot scale noise against exact data of norm {scale}")
    g = np.random.default_rng(seed).standard_normal(b_exact.shape[0])
    e = (noise_level * scale / np.linalg.norm(g)) * g
    return b_exact + e, e


def gravity_kernel_matrix(n, depth=0.25):
    """Midpoint-rule discretization of depth/(depth^2 + (s-t)^2)^{3/2} on [0,1]^2."""
    check_maxiter(n, "n")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not (math.isfinite(depth) and depth > 0):
        raise ValueError(f"depth must be finite and positive, got {depth!r}")
    # entry (i, j) is the kernel at the exact offset |i - j|/n (for n a power
    # of two, bit for bit the midpoints' difference); np.float64 squares a
    # huge depth to inf where a Python float raises, and the check rejects it
    with np.errstate(all="ignore"):
        kernel = depth * (np.float64(depth)**2 + (np.arange(n) / n)**2) ** -1.5 / n
    if not (np.isfinite(kernel).all() and kernel.all()):
        raise ValueError(f"depth {depth!r} over- or underflows the gravity kernel")
    return toeplitz(kernel)


def make_gravity_problem(n, depth=0.25, noise_level=1e-2, seed=0):
    """Square severely ill-posed smooth-kernel problem with a bimodal truth.

    The matrix is symmetric Toeplitz, so its operator applies it by FFT
    from n = 512 on and by dsymv below (see the module docstring); the
    FFT moves a solve by up to about 2e-7 relative and leaves its
    stopping iteration unchanged.  `op.matrix` is the full dense matrix
    either way, and the exact data are its product with the truth, so
    the problem data do not depend on the product.
    """
    _check_noise_level(noise_level)
    matrix = gravity_kernel_matrix(n, depth)
    # the kernel is symmetric in s and t, and so, bit for bit, is the
    # matrix; `toeplitz` builds it from its first column
    op = _select_operator(matrix, symmetric=True, toeplitz=True)
    t = (np.arange(n) + 0.5) / n
    x_true = np.sin(np.pi * t) + 0.5 * np.sin(2 * np.pi * t)
    with np.errstate(over="ignore"):
        b_exact = matrix @ x_true
        scale = np.linalg.norm(b_exact)
    if not 0 < scale < math.inf:
        raise ValueError(f"depth {depth!r} over- or underflows the exact data's norm")
    b, e = add_noise(b_exact, noise_level, seed)
    return InverseProblem(op, x_true, b_exact, b, e, noise_level, seed)


def trace_view(n, points, direction):
    """Exact intersection lengths of parallel rays with the cells of an n-by-n grid.

    The grid covers [0, n] x [0, n] with unit cells; cell (i, j) spans
    [j, j+1] x [i, i+1] and has flat index i*n + j.  Ray r starts from
    points[r] and every ray shares one direction.  Returns (rays, indices,
    lengths), one entry per crossed cell, ordered by ray and then along
    the ray.
    """
    points = np.asarray(points, dtype=float)
    direction = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(direction)
    if nd == 0:
        raise ValueError("ray direction must be nonzero")
    direction = direction / nd

    # Slab test for the bounding box, then all grid-line crossings inside it.
    hit = np.ones(points.shape[0], dtype=bool)
    t_lo = np.full(points.shape[0], -np.inf)
    t_hi = np.full(points.shape[0], np.inf)
    axes = []
    for ax in range(2):
        d, p = direction[ax], points[:, ax]
        if abs(d) < 1e-300:
            hit &= (p > 0) & (p < n)
        else:
            axes.append(ax)
            t0, t1 = (0.0 - p) / d, (n - p) / d
            t_lo = np.maximum(t_lo, np.minimum(t0, t1))
            t_hi = np.minimum(t_hi, np.maximum(t0, t1))
    hit &= t_hi > t_lo

    # A crossing outside the window is moved onto t_hi: it sorts to the end
    # of its ray and bounds only zero-length segments, which are dropped.
    taus = [t_lo[:, None], t_hi[:, None]]
    for ax in axes:
        crossings = (np.arange(n + 1) - points[:, ax, None]) / direction[ax]
        inside = (crossings > t_lo[:, None]) & (crossings < t_hi[:, None])
        taus.append(np.where(inside, crossings, t_hi[:, None]))
    taus = np.sort(np.concatenate(taus, axis=1), axis=1)

    lengths = np.diff(taus, axis=1)
    keep = (lengths > 1e-14) & hit[:, None]
    # per kept segment, in row-major order: its ray, its midpoint's
    # parameter, and the cell holding the midpoint on each axis
    counts = np.count_nonzero(keep, axis=1)
    rays = np.repeat(np.arange(points.shape[0]), counts)
    half = (0.5 * (taus[:, :-1] + taus[:, 1:]))[keep]
    cells = []
    for ax in range(2):
        cell = np.repeat(points[:, ax], counts)
        cell += half * direction[ax]
        cell = np.floor(cell, out=cell).astype(int)
        np.maximum(cell, 0, out=cell)
        cells.append(np.minimum(cell, n - 1, out=cell))
    return rays, cells[1] * n + cells[0], lengths[keep]


def make_tomo_problem(n, n_angles=None, n_detectors=None, noise_level=1e-2, seed=0):
    """Rectangular sparse parallel-beam tomography problem with a disk phantom.

    Rays are grouped by n_angles view angles spread over [0, pi); each view
    has n_detectors parallel rays with unit-ish spacing covering the grid
    diagonal.  Row i*n_detectors + d holds the exact cell-intersection
    lengths of detector d at angle i.
    """
    check_maxiter(n, "n")
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n}")
    if n_angles is None:
        n_angles = n
    if n_detectors is None:
        n_detectors = int(round(np.sqrt(2.0) * n))
    check_maxiter(n_angles, "n_angles")
    check_maxiter(n_detectors, "n_detectors")
    _check_noise_level(noise_level)
    m = n_angles * n_detectors
    center = np.array([n / 2.0, n / 2.0])
    spacing = n * np.sqrt(2.0) / n_detectors
    offsets = (np.arange(n_detectors) - (n_detectors - 1) / 2.0) * spacing

    rows_idx, cols_idx, vals = [], [], []
    for a in range(n_angles):
        theta = a * np.pi / n_angles
        direction = np.array([np.cos(theta), np.sin(theta)])
        offset_dir = np.array([-np.sin(theta), np.cos(theta)])
        rays, idx, lens = trace_view(n, center + offsets[:, None] * offset_dir,
                                     direction)
        rows_idx.append(a * n_detectors + rays)
        cols_idx.append(idx)
        vals.append(lens)
    # where a ray passes close to a grid corner, two of its segments can
    # land in one cell; the COO constructor sums them in triplet order
    matrix = sp.csr_matrix((np.concatenate(vals),
                            (np.concatenate(rows_idx), np.concatenate(cols_idx))),
                           shape=(m, n * n))
    op = make_sparse_operator(matrix)

    jj, ii = np.meshgrid(np.arange(n) + 0.5, np.arange(n) + 0.5)
    disk = (jj - n / 2.0) ** 2 + (ii - n / 2.0) ** 2 <= (n / 4.0) ** 2
    x_true = disk.astype(float).ravel()

    b_exact = matrix @ x_true
    b, e = add_noise(b_exact, noise_level, seed)
    shapes = {"solution": (n, n), "data": (n_angles, n_detectors)}
    return InverseProblem(op, x_true, b_exact, b, e, noise_level, seed, shapes)


def load_dense_problem(matrix_path, rhs_path):
    """Read a whitespace-separated dense matrix and right-hand side from disk."""
    matrix = _checked_dense(np.loadtxt(matrix_path, ndmin=2))
    b = np.loadtxt(rhs_path).ravel()
    symmetric = matrix.shape[0] == matrix.shape[1] and np.array_equal(matrix, matrix.T)
    op = _select_operator(matrix, symmetric, symmetric and np.array_equal(
        matrix[1:, 1:], matrix[:-1, :-1]))
    if b.shape[0] != op.nrows:
        raise ValueError("right-hand side length does not match matrix rows")
    return op, b


def export_dense_matrix(op, path):
    """Write the operator's dense matrix as whitespace-separated text."""
    np.savetxt(path, op.to_dense())
