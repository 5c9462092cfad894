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
iteration unchanged.

The gravity generator's FFT operator (n >= 512) forms the matrix only
when `op.matrix` is first read; it then has the bits it has on every
other path, and the operator keeps it.  `load_dense_problem` holds the
matrix read from its file from the start.  The gravity generator
computes the exact data, the matrix's product with the truth, without
the matrix: one gemv per row block, each block copied from the n kernel
values into one reused cache-sized buffer.  With an OpenBLAS x86-64
gemv kernel that takes rows 4 at a time (0.3.31's Haswell kernel), this
gives one whole-matrix gemv's bits on one thread, and for n up to about
30,000 the same bits whatever the BLAS thread count; so under those
conditions the generated problem data do not depend on the path.
Another BLAS may group rows otherwise and round the blocks differently.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import toeplitz
from scipy.linalg.blas import dsymv

from . import reductions
from .hessenberg import (InputError, _as_float, check_maxiter, check_real,
                         check_vector, finite_matrix)


class LinearOperator:
    """An m-by-n linear map exposed through forward/adjoint application.

    Parameters
    ----------
    nrows, ncols : int
        Output and input dimensions (m and n).
    forward : callable
        Maps a length-n vector to a real length-m vector (y = A x).
    adjoint : callable
        Maps a length-m vector to a real length-n vector (x = A^T y).
    matrix : ndarray, sparse matrix or _Deferred, optional
        The explicit matrix when one exists; retained for oracle use
        and export, never touched by the iterative solvers.  A
        _Deferred is formed on the first read of `matrix` and kept.

    Each product is counted in the active `reductions.track()`.  Apart
    from the one deferred formation of `matrix`, which a lock makes
    happen once, instances are immutable after construction and safe to
    share between concurrently running solves.
    """

    def __init__(self, nrows, ncols, forward, adjoint, matrix=None):
        check_maxiter(nrows, "nrows")
        check_maxiter(ncols, "ncols")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self._forward = forward
        self._adjoint = adjoint
        self._matrix = matrix

    @property
    def matrix(self):
        source = self._matrix
        return source.get() if isinstance(source, _Deferred) else source

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def forward(self, x):
        return _apply(self._forward, x, self.ncols, self.nrows, "forward")

    def adjoint(self, y):
        return _apply(self._adjoint, y, self.nrows, self.ncols, "adjoint")

    def to_dense(self):
        """Explicit dense matrix (materialized column-by-column if needed)."""
        if self.matrix is not None:
            if sp.issparse(self.matrix):
                return self.matrix.toarray()
            return np.asarray(self.matrix, dtype=float)
        cols = np.eye(self.ncols)
        return np.column_stack([self.forward(cols[:, j]) for j in range(self.ncols)])


def _apply(fn, v, size, out_size, name):
    """fn(v), with v and its image checked as real vectors of lengths size
    and out_size (by dtype alone: a complex or string input, named x or
    y, and a complex image are rejected unscanned), counted as name."""
    if type(v) is not np.ndarray or v.dtype != float:  # a float array passes as is
        v = _as_float(v, "x" if name == "forward" else "y")
    if v.shape != (size,):
        raise ValueError(f"expected input of length {size}, got {v.shape}")
    image = np.asarray(fn(v))
    if image.dtype.kind == "c":
        raise ValueError(f"{name} map must return real numbers, got {image.dtype} values")
    image = np.asarray(image, dtype=float)
    if image.shape != (out_size,):
        raise ValueError(f"{name} map returned wrong length")
    reductions.record_product(name)
    return image


class _Deferred:
    """An array formed by form() on the first call of get(), then kept.

    Concurrent first calls form it once, under a lock, and all return
    that one array.
    """

    def __init__(self, form):
        self._form = form
        self._lock = threading.Lock()
        self._value = None

    def get(self):
        if self._value is None:
            with self._lock:
                if self._value is None:
                    self._value = self._form()
                    self._form = None
        return self._value


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


# entries per row block of the scans and products over a dense matrix
# (512 KB of float64), so that none makes an m-by-n temporary; at
# n = 4096 (16 rows) the Toeplitz product below took about 10% less time
# than with 8 or 64 rows.  The tomography build traces its rays in
# chunks of as many entries of the rays-by-crossings table.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(m, n):
    """Slices of consecutive rows covering an m-by-n matrix in cache-sized blocks.

    Each block has a multiple of 8 rows, at least 8, except the last,
    and a last block of one row joins the one before it.  One gemv per
    such block rounds every row as one gemv over the whole matrix does
    on one thread with OpenBLAS 0.3.31's x86-64 (Haswell) kernel, which
    takes the rows 4 at a time and then the rest (blocks of 2, 3, 5, 6
    or 7 rows rounded differently, blocks of 4, 8, 12, ..., 40 did not),
    and numpy multiplies a single row by a dot product, which rounds
    differently too.  A BLAS that groups rows otherwise may not.
    """
    step = max(8, _BLOCK_ENTRIES // max(n, 1) // 8 * 8)
    bounds = list(range(0, m, step)) + [m]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(i, j) for i, j in zip(bounds, bounds[1:])]


def _blocks_equal(a, b):
    """np.array_equal(a, b) for two m-by-n arrays, compared by row blocks."""
    return all(np.array_equal(a[rows], b[rows]) for rows in _row_blocks(*a.shape))


def make_dense_operator(matrix):
    """Wrap an explicit dense matrix as a LinearOperator."""
    matrix = finite_matrix(matrix, "matrix")
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


def _make_toeplitz_operator(column, matrix):
    """Wrap the matrix, which the caller knows to be exactly symmetric
    and exactly Toeplitz with the given finite float first column.

    matrix (an array or a _Deferred) is only kept as `op.matrix`; the
    products need the column alone.  The matrix is the leading n-by-n
    block of the symmetric circulant whose first column is
    [c_0 ... c_{n-1}, 0 ..., c_{n-1} ... c_1], of a fast FFT length
    N >= 2n - 1.  The DFT diagonalizes a circulant, and a
    symmetric one has a real spectrum, so each product is one real FFT
    of x padded to N, a multiply by that spectrum, and one inverse real
    FFT cut back to n.  Both maps are that one function.  Calls share
    only the read-only spectrum.
    """
    n = column.shape[0]
    size = next_fast_len(2 * n - 1, real=True)
    embedding = np.zeros(size)
    embedding[:n] = column
    embedding[size - n + 1:] = column[:0:-1]
    spectrum = rfft(embedding).real.copy()
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


def _select_operator(matrix, symmetric, column=None):
    """The operator with the fastest product for a finite float matrix.

    symmetric says whether the caller knows the matrix to be exactly
    symmetric, and column, when given, that it is exactly symmetric
    Toeplitz with that first column: such a matrix of order at least
    _FFT_MIN_N is applied by FFT, any other symmetric one by dsymv, and
    the rest by gemv.  matrix may be a _Deferred: the FFT operator leaves
    it unformed until `op.matrix` is read, the other two form it now.
    """
    if column is not None and column.shape[0] >= _FFT_MIN_N:
        return _make_toeplitz_operator(column, matrix)
    if isinstance(matrix, _Deferred):
        matrix = matrix.get()
    if symmetric:
        return _make_symmetric_operator(matrix)
    return make_dense_operator(matrix)


def make_sparse_operator(matrix):
    """Wrap a scipy sparse matrix as a LinearOperator."""
    try:
        csr = sp.csr_matrix(matrix)
    except (TypeError, ValueError):  # scipy names the dtype, not the input
        raise InputError("matrix", "{name} must be a matrix of real numbers, got "
                         "{kind}", kind=type(matrix).__name__) from None
    check_vector(csr.data, "matrix")  # the stored values, a COO's duplicates summed
    # the CSC view csr.T gives the same bits but a 20-50% slower adjoint
    csc_t = sp.csr_matrix(csr.T)
    m, n = csr.shape
    return LinearOperator(m, n, lambda x: csr @ x, lambda y: csc_t @ y, matrix=csr)


def add_noise(b_exact, noise_level, seed):
    """Perturb exact data with Gaussian-direction noise of exact relative size.

    The noise is e = noise_level * ||b_exact|| * g / ||g|| with g drawn
    standard normal from the seeded generator, so ||e|| / ||b_exact||
    equals noise_level by construction.
    """
    b_exact = check_vector(b_exact, "b_exact")
    check_real(noise_level, "noise_level", positive=False)
    check_maxiter(seed, "seed", least=0)
    if noise_level == 0:
        return b_exact.copy(), np.zeros_like(b_exact)
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(b_exact)
    if not 0 < scale < math.inf:
        raise ValueError(f"cannot scale noise against exact data of norm {scale}")
    g = np.random.default_rng(seed).standard_normal(b_exact.shape[0])
    e = (noise_level * scale / np.linalg.norm(g)) * g
    return b_exact + e, e


def gravity_kernel_column(n, depth=0.25):
    """First column of gravity_kernel_matrix(n, depth), which it fixes."""
    check_maxiter(n, "n", least=2)
    check_real(depth, "depth", positive=True)
    # entry (i, j) is the kernel at the exact offset |i - j|/n (for n a power
    # of two, bit for bit the midpoints' difference); np.float64 squares a
    # huge depth to inf where a Python float raises, and the check rejects it
    with np.errstate(all="ignore"):
        kernel = depth * (np.float64(depth)**2 + (np.arange(n) / n)**2) ** -1.5 / n
    if not (np.isfinite(kernel).all() and kernel.all()):
        raise InputError("depth", "{name} {value!r} over- or underflows the gravity "
                         "kernel", value=depth)
    return kernel


def gravity_kernel_matrix(n, depth=0.25):
    """Midpoint-rule discretization of depth/(depth^2 + (s-t)^2)^{3/2} on [0,1]^2."""
    return toeplitz(gravity_kernel_column(n, depth))


def _toeplitz_product(column, x):
    """toeplitz(column) @ x without forming the matrix.

    With an OpenBLAS x86-64 gemv kernel that takes rows 4 at a time (see
    _row_blocks) the result equals one whole-matrix gemv on one thread
    bit for bit; another BLAS may round the blocks differently.

    Row i of the symmetric Toeplitz matrix is r[n-1-i : 2n-1-i] of
    r = [column reversed, column[1:]].  Each block of _row_blocks is
    copied from that strided view into one reused buffer and multiplied
    by one gemv.  Up to n of about 30,000 a block is small enough for
    OpenBLAS to run on one thread (with two threads, gemvs of up to
    278,528 entries gave one thread's bits), so the product has one
    thread's bits whatever the BLAS thread count (past n of about
    34,800 an 8-row block exceeds that size); one gemv over the
    whole matrix, split between two threads, rounded a row or two
    differently at n = 2049 or 4097.
    """
    n = column.shape[0]
    rows = sliding_window_view(np.concatenate((column[::-1], column[1:])), n)[::-1]
    blocks = _row_blocks(n, n)
    buffer = np.empty((max(b.stop - b.start for b in blocks), n))
    out = np.empty(n)
    for block in blocks:
        part = buffer[:block.stop - block.start]
        np.copyto(part, rows[block])
        np.matmul(part, x, out=out[block])
    return out


def make_gravity_problem(n, depth=0.25, noise_level=1e-2, seed=0):
    """Square severely ill-posed smooth-kernel problem with a bimodal truth.

    The matrix is symmetric Toeplitz, so its operator applies it by FFT
    from n = 512 on and by dsymv below (see the module docstring); the
    FFT moves a solve by up to about 2e-7 relative and leaves its
    stopping iteration unchanged.  From n = 512 on the matrix is formed
    only when `op.matrix` is first read; below, dsymv needs it at once.
    It is `gravity_kernel_matrix(n, depth)` bit for bit either way.  The
    exact data are its product with the truth, computed by row blocks
    (`_toeplitz_product`); with an OpenBLAS x86-64 gemv kernel that takes
    rows 4 at a time they have one whole-matrix gemv's bits on one BLAS
    thread, and for n up to about 30,000 the same bits on any thread
    count.  Under those conditions the problem data do not depend on
    the product.
    """
    column = gravity_kernel_column(n, depth)
    check_real(noise_level, "noise_level", positive=False)
    check_maxiter(seed, "seed", least=0)
    t = (np.arange(n) + 0.5) / n
    x_true = np.sin(np.pi * t) + 0.5 * np.sin(2 * np.pi * t)
    # before any matrix is formed, so that the product's block buffer
    # is freed by then and adds nothing to the peak below 512
    with np.errstate(over="ignore"):
        b_exact = _toeplitz_product(column, x_true)
        scale = np.linalg.norm(b_exact)
    if not 0 < scale < math.inf:
        raise InputError("depth", "{name} {value!r} over- or underflows the exact "
                         "data's norm", value=depth)
    # the kernel is symmetric in s and t, and so, bit for bit, is the
    # matrix `toeplitz` builds from its first column
    matrix = _Deferred(lambda: toeplitz(column))
    op = _select_operator(matrix, symmetric=True, column=column)
    b, e = add_noise(b_exact, noise_level, seed)
    return InverseProblem(op, x_true, b_exact, b, e, noise_level, seed)


def _trace_rays(n, points, directions):
    """Exact intersection lengths of rays with the cells of an n-by-n grid.

    Ray r starts from points[r] along the unit vector directions[r];
    both are finite float (rays, 2) arrays.  Returns (counts, indices,
    lengths): counts[r] cells are crossed by ray r, and indices and
    lengths hold one entry per crossed cell, ordered by ray and then
    along the ray.

    A direction component below 1e-300 in magnitude makes its axis
    parallel to the ray: the ray crosses none of that axis's grid lines
    and hits the grid only strictly between the two outer ones.  Such a
    component is replaced by 1 as a divisor and what it gives is masked
    out, so nothing is divided by zero; a unit direction has a component
    of at least 1/sqrt(2), so every ray's window is finite.
    """
    # Slab test for the bounding box, then all grid-line crossings inside it.
    parallel = np.abs(directions) < 1e-300
    divisors = np.where(parallel, 1.0, directions)
    hit = np.ones(points.shape[0], dtype=bool)
    t_lo = np.full(points.shape[0], -np.inf)
    t_hi = np.full(points.shape[0], np.inf)
    for ax in range(2):
        p, d, skip = points[:, ax], divisors[:, ax], parallel[:, ax]
        hit &= ~skip | ((p > 0) & (p < n))
        t0, t1 = (0.0 - p) / d, (n - p) / d
        t_lo = np.maximum(t_lo, np.where(skip, -np.inf, np.minimum(t0, t1)))
        t_hi = np.minimum(t_hi, np.where(skip, np.inf, np.maximum(t0, t1)))
    hit &= t_hi > t_lo

    # A crossing outside the window, or on a parallel axis, is moved onto
    # t_hi: it sorts to the end of its ray and bounds only zero-length
    # segments, which are dropped.
    taus = [t_lo[:, None], t_hi[:, None]]
    for ax in range(2):
        crossings = (np.arange(n + 1) - points[:, ax, None]) / divisors[:, ax, None]
        inside = (crossings > t_lo[:, None]) & (crossings < t_hi[:, None])
        inside &= ~parallel[:, ax, None]
        taus.append(np.where(inside, crossings, t_hi[:, None]))
    taus = np.sort(np.concatenate(taus, axis=1), axis=1)

    lengths = np.diff(taus, axis=1)
    keep = (lengths > 1e-14) & hit[:, None]
    # per kept segment, in row-major order: its midpoint's parameter, and
    # the cell holding the midpoint on each axis
    counts = np.count_nonzero(keep, axis=1)
    half = (0.5 * (taus[:, :-1] + taus[:, 1:]))[keep]
    cells = []
    for ax in range(2):
        cell = np.repeat(points[:, ax], counts)
        cell += half * np.repeat(directions[:, ax], counts)
        cell = np.floor(cell, out=cell).astype(int)
        np.maximum(cell, 0, out=cell)
        cells.append(np.minimum(cell, n - 1, out=cell))
    return counts, cells[1] * n + cells[0], lengths[keep]


def trace_view(n, points, direction):
    """Exact intersection lengths of parallel rays with the cells of an n-by-n grid.

    The grid covers [0, n] x [0, n] with unit cells; cell (i, j) spans
    [j, j+1] x [i, i+1] and has flat index i*n + j.  Ray r starts from
    points[r], a finite real (rays, 2) array, and every ray shares one
    direction, a finite nonzero 2-vector; an InputError names a bad one.
    Returns (rays, indices, lengths), one entry per crossed cell, ordered
    by ray and then along the ray.  The direction is normalized once and
    the rays are traced by the routine that builds the tomography matrix.
    """
    check_maxiter(n, "n")
    points = finite_matrix(points, "points")
    if points.shape[1] != 2:
        raise InputError("points", "{name} must have two columns (x, y), got shape "
                         "{shape}", shape=points.shape)
    direction = check_vector(direction, "direction", 2, axis=None)
    with np.errstate(over="ignore"):
        nd = np.linalg.norm(direction)
    if not 0 < nd < math.inf:
        raise InputError("direction", "{name} must be nonzero, with a norm in the "
                         "float range, got {value}", value=direction.tolist())
    directions = np.broadcast_to(direction / nd, points.shape)
    counts, indices, lengths = _trace_rays(n, points, directions)
    return np.repeat(np.arange(points.shape[0]), counts), indices, lengths


def make_tomo_problem(n, n_angles=None, n_detectors=None, noise_level=1e-2, seed=0):
    """Rectangular sparse parallel-beam tomography problem with a disk phantom.

    Rays are grouped by n_angles view angles spread over [0, pi); each view
    has n_detectors parallel rays with unit-ish spacing covering the grid
    diagonal.  Row i*n_detectors + d holds the exact cell-intersection
    lengths of detector d at angle i.

    All rays are traced view-major by one routine, in chunks of about
    _BLOCK_ENTRIES entries of the rays-by-crossings table, and the CSR
    matrix is assembled straight from its output: the per-ray counts
    give the row pointers, the cells and lengths the indices and data.
    Where a ray passes close to a grid corner, two of its segments can
    land in one cell; `sum_duplicates` adds them.  The matrix equals the
    one a per-ray reference tracer builds, bit for bit.
    """
    check_maxiter(n, "n", least=4)
    n_angles = n if n_angles is None else n_angles
    n_detectors = int(round(np.sqrt(2.0) * n)) if n_detectors is None else n_detectors
    check_maxiter(n_angles, "n_angles")
    check_maxiter(n_detectors, "n_detectors")
    check_real(noise_level, "noise_level", positive=False)
    check_maxiter(seed, "seed", least=0)
    m = n_angles * n_detectors
    center = np.array([n / 2.0, n / 2.0])
    spacing = n * np.sqrt(2.0) / n_detectors
    offsets = (np.arange(n_detectors) - (n_detectors - 1) / 2.0) * spacing

    # each view's unit direction and the normal its detectors lie along
    directions, normals = np.empty((n_angles, 2)), np.empty((n_angles, 2))
    for a in range(n_angles):
        theta = a * np.pi / n_angles
        direction = np.array([np.cos(theta), np.sin(theta)])
        directions[a] = direction / np.linalg.norm(direction)
        normals[a] = -np.sin(theta), np.cos(theta)
    points = (center + offsets[:, None] * normals[:, None]).reshape(m, 2)
    directions = np.repeat(directions, n_detectors, axis=0)

    # a ray's row of the table holds its 2n + 4 window ends and crossings;
    # scipy keeps 32-bit indices while they fit, so each chunk's are cast
    # at once and no 64-bit copy of them all is made
    step = max(1, _BLOCK_ENTRIES // (2 * n + 4))
    index_dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    counts, indices, data = [], [], []
    for i in range(0, m, step):
        ray_counts, ray_indices, ray_lengths = _trace_rays(
            n, points[i:i + step], directions[i:i + step])
        counts.append(ray_counts)
        indices.append(ray_indices.astype(index_dtype))
        data.append(ray_lengths)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    data, indices = np.concatenate(data), np.concatenate(indices)
    matrix = sp.csr_matrix((data, indices, indptr), shape=(m, n * n))
    matrix.sum_duplicates()
    op = make_sparse_operator(matrix)

    jj, ii = np.meshgrid(np.arange(n) + 0.5, np.arange(n) + 0.5)
    disk = (jj - n / 2.0) ** 2 + (ii - n / 2.0) ** 2 <= (n / 4.0) ** 2
    x_true = disk.astype(float).ravel()

    b_exact = matrix @ x_true
    b, e = add_noise(b_exact, noise_level, seed)
    shapes = {"solution": (n, n), "data": (n_angles, n_detectors)}
    return InverseProblem(op, x_true, b_exact, b, e, noise_level, seed, shapes)


def load_dense_problem(matrix_path, rhs_path):
    """Read a whitespace-separated dense matrix and a right-hand side of
    one row or column from disk; an InputError names a file of bad contents."""
    matrix = finite_matrix(np.loadtxt(matrix_path, ndmin=2), "matrix_path")
    b = check_vector(np.loadtxt(rhs_path, ndmin=1), "rhs_path", matrix.shape[0], "rows")
    # both structure tests compare by row blocks, making no n-by-n temporary
    symmetric = matrix.shape[0] == matrix.shape[1] and _blocks_equal(matrix, matrix.T)
    is_toeplitz = symmetric and _blocks_equal(matrix[1:, 1:], matrix[:-1, :-1])
    op = _select_operator(matrix, symmetric, matrix[:, 0] if is_toeplitz else None)
    return op, b


def export_dense_matrix(op, path):
    """Write the operator's dense matrix as whitespace-separated text."""
    np.savetxt(path, op.to_dense())
