import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.blas import dsymv

import lslu
from lslu import (LinearOperator, SolverConfig, add_noise, export_dense_matrix,
                  load_dense_problem, make_dense_operator, make_gravity_problem,
                  make_sparse_operator, make_tomo_problem, reductions, solve,
                  trace_view)
from lslu.operators import (_blocks_equal, _make_toeplitz_operator,
                            gravity_kernel_matrix)
from lslu.solvers import METHODS


class TestLinearOperator:
    @pytest.mark.parametrize("dims, message", [
        ((3.7, 2), "nrows must be an integer, got 3.7"),
        ((3, 2.0), "ncols must be an integer, got 2.0"),
        ((True, 2), "nrows must be an integer, got True"),
        ((0, 2), "nrows must be at least 1, got 0"),
        ((3, -1), "ncols must be at least 1, got -1"),
    ])
    def test_bad_dimensions_named(self, dims, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LinearOperator(*dims, lambda x: x, lambda y: y)

    def test_numpy_integer_dimensions_accepted(self):
        op = LinearOperator(np.int64(3), np.int32(2), lambda x: x, lambda y: y)
        assert op.shape == (3, 2) and type(op.nrows) is int

    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize("spoil, message", [
        (lambda v: v * (1 + 1j), "must return real numbers, got complex128 values"),
        (lambda v: v.astype(np.complex64), "must return real numbers, got complex64 "
                                           "values"),
        (lambda v: v[:-1], "returned wrong length"),
        (lambda v: np.append(v, 1.0), "returned wrong length"),
    ], ids=["complex", "complex-zero-imaginary", "short", "long"])
    def test_bad_image_names_its_map(self, side, spoil, message):
        # rejected by dtype and shape alone, with no ComplexWarning, and
        # not counted as a product
        op = _spoiled_operator(side, spoil)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with reductions.track() as counter, pytest.raises(
                    ValueError, match=f"^{side} map {message}$"):
                getattr(op, side)(np.ones(op.ncols if side == "forward" else op.nrows))
        assert (counter.forward, counter.adjoint) == (0, 0)

    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize("method", METHODS)
    def test_solve_rejects_a_complex_image(self, side, method):
        # the first product with a complex image ends the solve, with no
        # ComplexWarning and no iteration on the image's real part
        op = _spoiled_operator(side, lambda v: v * (1 + 1j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{side} map must return real"):
                solve(op, np.arange(1.0, 7.0), SolverConfig(method, maxiter=4))

    @pytest.mark.parametrize("side", ["forward", "adjoint"])
    @pytest.mark.parametrize("value, kind", [
        (np.array([1 + 2j, 0, 0]), "complex128 values"),
        (np.zeros(3, dtype=complex), "complex128 values"),
        (np.array(["1", "2", "3"]), "<U1 values"),
        (["1", "2", "3"], "<U1 values"),
    ], ids=["complex", "complex-zero-imaginary", "strings", "list-of-strings"])
    def test_bad_input_named(self, side, value, kind):
        # rejected by dtype alone, with no ComplexWarning, and not counted
        op = make_dense_operator(np.eye(3))
        name = "x" if side == "forward" else "y"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with reductions.track() as counter, pytest.raises(
                    lslu.InputError,
                    match=f"^{name} must be an array of real numbers, got {kind}$"):
                getattr(op, side)(value)
        assert (counter.forward, counter.adjoint) == (0, 0)

    @pytest.mark.parametrize("value", [[1, 2, 3], np.arange(1, 4),
                                       np.arange(1.0, 4.0, dtype=np.float32)])
    def test_real_input_of_any_dtype_is_cast(self, value):
        op = make_dense_operator(np.eye(3))
        for side in ("forward", "adjoint"):
            image = getattr(op, side)(value)
            assert image.dtype == float
            np.testing.assert_array_equal(image, [1.0, 2.0, 3.0])

    def test_to_dense_without_a_matrix(self):
        # one forward product per column
        matrix = np.arange(1.0, 7.0).reshape(3, 2)
        op = LinearOperator(3, 2, lambda x: matrix @ x, lambda y: matrix.T @ y)
        with reductions.track() as counter:
            dense = op.to_dense()
        np.testing.assert_array_equal(dense, matrix)
        assert (counter.forward, counter.adjoint) == (2, 0)


def _spoiled_operator(side, spoil):
    """A 6-by-4 operator whose side map applies spoil to its image."""
    matrix = np.random.default_rng(5).standard_normal((6, 4))
    maps = {"forward": lambda x: matrix @ x, "adjoint": lambda y: matrix.T @ y}
    good = maps[side]
    maps[side] = lambda v: spoil(good(v))
    return LinearOperator(6, 4, maps["forward"], maps["adjoint"])


class TestDenseOperator:
    def test_forward_column_extraction(self):
        op = make_dense_operator([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(op.forward([1.0, 0.0]), [1.0, 3.0])

    def test_adjoint_column_sums(self):
        op = make_dense_operator([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(op.adjoint([1.0, 1.0]), [4.0, 6.0])

    def test_one_by_one(self):
        op = make_dense_operator([[5.0]])
        np.testing.assert_array_equal(op.forward([2.0]), [10.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_dense_operator([[1.0, np.nan], [0.0, 1.0]])

    # the check runs block by block over rows: a bad entry in the first
    # or the (partial) last block, and in a single row or column, is seen
    @pytest.mark.parametrize("shape, where", [
        ((100, 1000), (0, 0)), ((100, 1000), (99, 999)), ((100, 1000), (70, 5)),
        ((1, 70000), (0, 0)), ((1, 70000), (0, 69999)),
        ((70000, 1), (0, 0)), ((70000, 1), (69999, 0)),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_in_every_row_block(self, shape, where, bad):
        matrix = np.ones(shape)
        matrix[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            make_dense_operator(matrix)

    def test_check_makes_no_matrix_sized_temporary(self):
        # one isfinite over a 1000-by-1000 matrix would allocate 1 MB of
        # bools; the scan's row blocks take 64 KB
        matrix = np.ones((1000, 1000))
        _, peak = _traced_peak(lambda: make_dense_operator(matrix))
        assert peak < 256 * 1024

    def test_shape_validation(self):
        op = make_dense_operator([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(ValueError):
            op.forward([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            op.adjoint([1.0, 2.0])


class TestSparseOperator:
    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, fmt, bad):
        # rejected when built, before any product
        matrix = sp.random(30, 20, density=0.2, random_state=3, format="coo")
        matrix.data[7] = bad
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            make_sparse_operator(matrix.asformat(fmt))

    @pytest.mark.parametrize("bad", ["abc", None, [[1.0, "a"]]])
    def test_non_numeric_matrix_named(self, bad):
        with pytest.raises(lslu.InputError, match="^matrix must be a matrix of real "
                           "numbers, got (str|NoneType|list)$") as info:
            make_sparse_operator(bad)
        assert info.value.name == "matrix"

    def test_finite_matrix_matches_dense(self):
        matrix = sp.random(30, 20, density=0.2, random_state=3, format="csc")
        op = make_sparse_operator(matrix)
        x, y = np.arange(20.0), np.arange(30.0)
        np.testing.assert_allclose(op.forward(x), matrix.toarray() @ x)
        np.testing.assert_allclose(op.adjoint(y), matrix.toarray().T @ y)


def _adjoint_consistency(op, seed, trials=20):
    rng = np.random.default_rng(seed)
    scale = np.linalg.norm(op.to_dense(), "fro")
    for _ in range(trials):
        x = rng.standard_normal(op.ncols)
        y = rng.standard_normal(op.nrows)
        lhs = np.dot(op.forward(x), y)
        rhs = np.dot(x, op.adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y) * scale


def test_adjoint_consistency_all_generators(gravity32, tomo16):
    rng = np.random.default_rng(5)
    dense = make_dense_operator(rng.standard_normal((23, 17)))
    for i, op in enumerate([dense, gravity32.op, tomo16.op]):
        _adjoint_consistency(op, seed=100 + i)


def test_operator_determinism(gravity32):
    x = np.random.default_rng(9).standard_normal(32)
    y1 = gravity32.op.forward(x)
    y2 = gravity32.op.forward(x)
    np.testing.assert_array_equal(y1, y2)


def _midpoint_matrix(n, depth):
    """The gravity kernel at the rounded differences of the midpoints (i + 0.5)/n."""
    pts = (np.arange(n) + 0.5) / n
    return depth * (depth**2 + (pts[:, None] - pts[None, :])**2) ** (-1.5) / n


class TestGravity:
    def test_kernel_entry_n2(self):
        # direct kernel evaluation: s=t=0.25, depth=0.25, weight 1/2
        matrix = gravity_kernel_matrix(2, depth=0.25)
        assert matrix[0, 0] == pytest.approx(8.0, abs=1e-12)

    def test_zero_noise(self):
        prob = make_gravity_problem(16, noise_level=0.0, seed=0)
        np.testing.assert_array_equal(prob.b, prob.b_exact)
        np.testing.assert_array_equal(prob.e, np.zeros(16))

    def test_ill_posed_condition(self):
        matrix = gravity_kernel_matrix(32)
        s = np.linalg.svd(matrix, compute_uv=False)
        assert s[0] / s[-1] > 1e6

    def test_singular_values_strictly_decreasing(self):
        matrix = gravity_kernel_matrix(24)
        s = np.linalg.svd(matrix, compute_uv=False)
        above = s[s > 1e-14 * s[0]]
        assert np.all(np.diff(above) < 0)

    # the kernel at the exact offsets |i - j|/n, for n a power of two or not
    @pytest.mark.parametrize("n, depth", [(2, 0.25), (257, 0.25), (64, 0.1),
                                          (1000, 0.25)])
    def test_kernel_matches_expression(self, n, depth):
        offsets = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) / n
        expected = depth * (depth**2 + offsets**2) ** (-1.5) / n
        np.testing.assert_array_equal(gravity_kernel_matrix(n, depth), expected)

    # for n a power of two the midpoints (i + 0.5)/n are exact, so the
    # kernel at the midpoints' rounded differences is the same matrix bit
    # for bit: the benchmark's n=256 and n=4096 problems stay as they were
    @pytest.mark.parametrize("n", [2, 64, 256, 1024])
    @pytest.mark.parametrize("depth", [0.25, 0.1, 0.0137, 3.0])
    def test_power_of_two_matches_midpoint_differences(self, n, depth):
        np.testing.assert_array_equal(gravity_kernel_matrix(n, depth),
                                      _midpoint_matrix(n, depth))

    # for other n the midpoints' difference is off by up to an ulp of 1,
    # which moves k(s) = depth (depth^2 + s^2)^-1.5 by a relative
    # 3 s eps / (depth^2 + s^2) <= 1.5 eps / depth
    @pytest.mark.parametrize("n", [3, 257, 1000])
    @pytest.mark.parametrize("depth", [0.25, 0.0137])
    def test_other_n_within_midpoint_rounding(self, n, depth):
        np.testing.assert_allclose(gravity_kernel_matrix(n, depth),
                                   _midpoint_matrix(n, depth),
                                   rtol=4 * np.finfo(float).eps / depth, atol=0)

    def test_problem_data_match_midpoint_matrix(self):
        # the data of the n=256 problem (1% noise) are the midpoint
        # matrix's, so every solve on it is too
        prob = make_gravity_problem(256, seed=3)
        matrix = _midpoint_matrix(256, 0.25)
        b_exact = matrix @ prob.x_true
        b, e = add_noise(b_exact, 1e-2, seed=3)
        for got, want in ((prob.op.matrix, matrix), (prob.b_exact, b_exact),
                          (prob.b, b), (prob.e, e)):
            np.testing.assert_array_equal(got, want)

    def test_build_allocates_only_the_matrix(self):
        # below 512 dsymv needs the matrix at once: an n-by-n temporary,
        # even of bools, or an index array would show
        make_gravity_problem(511)
        tracemalloc.start()
        try:
            prob = make_gravity_problem(511)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - prob.op.matrix.nbytes < prob.op.matrix.nbytes // 16

    # the kernel overflows (tiny depth) or vanishes (huge depth), or the
    # norm of the exact data does
    @pytest.mark.parametrize("depth, what", [
        (1e200, "the gravity kernel"), (1e-200, "the gravity kernel"),
        (1e-160, "the gravity kernel"), (1e100, "the exact data's norm"),
        (1e-100, "the exact data's norm")])
    @pytest.mark.parametrize("noise_level", [1e-2, 0.0])
    def test_extreme_depth_named(self, depth, what, noise_level):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"depth {depth!r} over- or underflows {what}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make_gravity_problem(32, depth=depth, noise_level=noise_level)

    @pytest.mark.parametrize("depth", [0.0, -1.0, np.inf, np.nan])
    def test_bad_depth_named(self, depth):
        with pytest.raises(ValueError, match="depth must be finite and positive"):
            make_gravity_problem(16, depth=depth)

    @pytest.mark.parametrize("n", [1, 2.5, True])
    def test_bad_size_named(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            make_gravity_problem(n)

    def test_symmetric_positive_entries(self):
        # the operator applies the matrix as symmetric, so it must be so
        # bit for bit; it is Toeplitz too, for n a power of two or not
        for n in (2, 3, 20, 257, 1000):
            for depth in (0.25, 0.0137):
                matrix = gravity_kernel_matrix(n, depth)
                assert np.all(matrix > 0), (n, depth)
                np.testing.assert_array_equal(matrix, matrix.T, err_msg=f"{n}, {depth}")
                np.testing.assert_array_equal(matrix[1:, 1:], matrix[:-1, :-1],
                                              err_msg=f"{n}, {depth}")


class TestSymmetricOperator:
    # gravity64 is applied by dsymv; from n = 512 on, a prime n included,
    # the gravity matrix is applied by FFT
    def test_forward_equals_adjoint_and_matrix_product(self, gravity64):
        ops = [gravity64.op] + [make_gravity_problem(n).op for n in (512, 521, 1000)]
        rng = np.random.default_rng(11)
        for op in ops:
            for _ in range(5):
                x = rng.standard_normal(op.ncols)
                y = op.forward(x)
                np.testing.assert_array_equal(op.adjoint(x), y)
                exact = op.matrix @ x
                assert (np.linalg.norm(y - exact)
                        <= 1e-13 * np.linalg.norm(exact)), op.ncols

    def test_product_selected_by_order(self):
        # below 512 the gravity operator's output is dsymv's bit for bit,
        # from 512 on it is the FFT product's, which rounds differently
        x = np.random.default_rng(15).standard_normal(512)
        below = make_gravity_problem(511)
        np.testing.assert_array_equal(below.op.forward(x[:511]),
                                      dsymv(1.0, below.op.matrix.T, x[:511]))
        at = make_gravity_problem(512)
        fft = _make_toeplitz_operator(at.op.matrix[:, 0], at.op.matrix).forward(x)
        np.testing.assert_array_equal(at.op.forward(x), fft)
        assert not np.array_equal(fft, dsymv(1.0, at.op.matrix.T, x))

    def test_product_does_not_copy_matrix(self):
        # a copy of the 2 MB matrix on the way into BLAS, or an n-by-n
        # temporary on the FFT path, would show here
        for n in (511, 512):
            op = make_gravity_problem(n).op
            x = np.random.default_rng(12).standard_normal(n)
            op.forward(x)
            tracemalloc.start()
            try:
                op.forward(x)
                op.adjoint(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < op.matrix.nbytes // 16, n

    def test_concurrent_products_share_nothing(self):
        # four threads apply one operator at once and keep every output:
        # each output is its own array, with the bits of a product run
        # alone, by dsymv (n = 200) and by FFT (n = 600)
        for n in (200, 600):
            op = make_gravity_problem(n).op
            xs = np.random.default_rng(13).standard_normal((6, n))
            alone = [op.forward(x).tobytes() for x in xs]
            together = [None] * 4

            def run(i):
                outs = [f(x) for _ in range(5) for f in (op.forward, op.adjoint)
                        for x in xs]
                together[i] = outs

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            outs = [y for run in together for y in run]
            assert [y.tobytes() for y in outs] == alone * (len(outs) // len(alone))
            assert len({y.ctypes.data for y in outs}) == len(outs)

    def test_symmetric_file_solves_as_in_memory(self, gravity64, tmp_path):
        # a square, exactly symmetric and Toeplitz file takes the product
        # the generator's operator takes: dsymv at n = 64, FFT at n = 512
        mpath, bpath = tmp_path / "A.txt", tmp_path / "b.txt"
        for prob in (gravity64, make_gravity_problem(512)):
            export_dense_matrix(prob.op, mpath)
            np.savetxt(bpath, prob.b)
            op, b = load_dense_problem(mpath, bpath)
            np.testing.assert_array_equal(op.matrix, prob.op.matrix)
            np.testing.assert_array_equal(b, prob.b)
            config = SolverConfig(method="hybrid_lslu", maxiter=12)
            loaded, built = solve(op, b, config), solve(prob.op, prob.b, config)
            for name in ("x_final", "lambdas", "ghats", "residual_norms"):
                np.testing.assert_array_equal(getattr(loaded, name),
                                              getattr(built, name))

    def test_symmetric_non_toeplitz_file_keeps_dsymv(self, tmp_path):
        # one symmetric pair off the diagonals: the FFT would apply the
        # Toeplitz matrix of the first column instead
        matrix = gravity_kernel_matrix(512)
        matrix[3, 5] = matrix[5, 3] = 2 * matrix[3, 5]
        mpath, bpath = tmp_path / "A.txt", tmp_path / "b.txt"
        np.savetxt(mpath, matrix)
        np.savetxt(bpath, np.ones(512))
        op, _ = load_dense_problem(mpath, bpath)
        np.testing.assert_array_equal(op.matrix, matrix)
        x = np.random.default_rng(16).standard_normal(512)
        np.testing.assert_array_equal(op.forward(x), dsymv(1.0, matrix.T, x))
        np.testing.assert_array_equal(op.adjoint(x), op.forward(x))

    # a square, exactly symmetric file with a NaN or inf, and one that is
    # not symmetric, are both rejected when read
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_file_rejected(self, tmp_path, symmetric, bad):
        matrix = gravity_kernel_matrix(16)
        matrix[3, 5] = matrix[5, 3] = bad
        if not symmetric:
            matrix[0, 1] *= 2
        mpath, bpath = tmp_path / "A.txt", tmp_path / "b.txt"
        np.savetxt(mpath, matrix)
        np.savetxt(bpath, np.ones(16))
        with pytest.raises(ValueError, match="^matrix_path has non-finite entries$"):
            load_dense_problem(mpath, bpath)

    def test_nonsymmetric_file_keeps_gemv(self, tmp_path):
        matrix = gravity_kernel_matrix(16)
        matrix[3, 5] *= 1 + 1e-15
        mpath, bpath = tmp_path / "A.txt", tmp_path / "b.txt"
        np.savetxt(mpath, matrix)
        np.savetxt(bpath, np.ones(16))
        op, _ = load_dense_problem(mpath, bpath)
        np.testing.assert_array_equal(op.matrix, matrix)
        x = np.random.default_rng(14).standard_normal(16)
        np.testing.assert_array_equal(op.forward(x), matrix @ x)
        np.testing.assert_array_equal(op.adjoint(x), matrix.T @ x)


def _traced_peak(fn):
    """(fn(), peak bytes tracemalloc saw allocated while fn ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_DATA_SIZES = (2, 25, 41, 257, 511, 512, 513, 521, 777, 1025, 4095, 4096, 4097)
_DATA_DEPTHS = (0.25, 0.0137)

# the exact data of the dense reference: one gemv over the whole matrix,
# run with one BLAS thread, since a multithreaded gemv splits the rows
# between its threads and then rounds a row or two differently at some
# n (4097 among these, with two threads)
_REFERENCE_SCRIPT = """
import sys
import numpy as np
from lslu.operators import gravity_kernel_matrix
out = {}
for n in map(int, sys.argv[2].split(",")):
    for depth in map(float, sys.argv[3].split(",")):
        t = (np.arange(n) + 0.5) / n
        x_true = np.sin(np.pi * t) + 0.5 * np.sin(2 * np.pi * t)
        out[f"{n}_{depth}"] = gravity_kernel_matrix(n, depth) @ x_true
np.savez(sys.argv[1], **out)
"""


@pytest.fixture(scope="module")
def one_thread_b_exact(tmp_path_factory):
    path = tmp_path_factory.mktemp("reference") / "b_exact.npz"
    src = os.path.dirname(os.path.dirname(lslu.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", _REFERENCE_SCRIPT, str(path),
                    ",".join(map(str, _DATA_SIZES)), ",".join(map(str, _DATA_DEPTHS))],
                   env=env, check=True)
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


class TestDeferredMatrix:
    # from n = 512 on the gravity problem keeps n kernel values, not its
    # n-by-n matrix, which is formed on the first read of op.matrix

    @pytest.mark.parametrize("n", _DATA_SIZES)
    @pytest.mark.parametrize("depth", _DATA_DEPTHS)
    def test_data_equal_dense_reference(self, n, depth, one_thread_b_exact):
        # b_exact by row blocks has the bits of one gemv over the matrix,
        # whatever the BLAS thread count of this process: a one-row
        # block, or blocks out of step with the BLAS kernel's row groups,
        # would round some rows differently.  This holds for OpenBLAS's
        # x86-64 gemv kernel, which takes rows 4 at a time; a BLAS that
        # groups rows otherwise may round the blocks differently
        prob = make_gravity_problem(n, depth=depth, seed=4)
        t = (np.arange(n) + 0.5) / n
        x_true = np.sin(np.pi * t) + 0.5 * np.sin(2 * np.pi * t)
        b_exact = one_thread_b_exact[f"{n}_{depth}"]
        b, e = add_noise(b_exact, 1e-2, seed=4)
        for got, want in ((prob.x_true, x_true), (prob.b_exact, b_exact),
                          (prob.b, b), (prob.e, e),
                          (prob.op.matrix, gravity_kernel_matrix(n, depth))):
            np.testing.assert_array_equal(got, want)

    def test_build_keeps_no_matrix(self):
        # the 128 MB matrix, or any n-by-n temporary, would show
        make_gravity_problem(4096)
        prob, peak = _traced_peak(lambda: make_gravity_problem(4096))
        assert peak < 2 << 20
        matrix = prob.op.matrix
        np.testing.assert_array_equal(matrix, gravity_kernel_matrix(4096))
        assert prob.op.matrix is matrix

    def test_concurrent_first_reads_and_solves(self):
        # two threads form the matrix at once while two solves run on the
        # operator: the readers get one array, the solves their bits alone
        prob = make_gravity_problem(4096)
        config = SolverConfig(method="hybrid_lslu", maxiter=10)
        alone = solve(prob.op, prob.b, config).x_final
        assert prob.op._matrix._value is None
        barrier = threading.Barrier(4)
        out = [None] * 4

        def read(i):
            barrier.wait()
            out[i] = prob.op.matrix

        def run(i):
            barrier.wait()
            out[i] = solve(prob.op, prob.b, config).x_final

        threads = [threading.Thread(target=f, args=(i,))
                   for i, f in enumerate((read, read, run, run))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert out[0] is out[1]
        np.testing.assert_array_equal(out[0], gravity_kernel_matrix(4096))
        for x in out[2:]:
            np.testing.assert_array_equal(x, alone)

    def test_scale_beyond_dense_memory(self):
        # the n = 8192 matrix would take 512 MB
        prob, peak = _traced_peak(lambda: make_gravity_problem(8192))
        assert peak < 2 << 20
        result = solve(prob.op, prob.b,
                       SolverConfig(method="hybrid_lslu", maxiter=10, pure=True))
        assert result.state.k == 10
        assert np.all(np.isfinite(result.x_final))
        assert prob.op._matrix._value is None

    @pytest.mark.parametrize("n", [1, 7, 9, 600])
    def test_block_comparison_equals_whole(self, n):
        # the symmetry and Toeplitz checks of a read file, by row blocks,
        # find one changed entry wherever it is
        matrix = gravity_kernel_matrix(max(n, 2))[:n, :n]
        assert _blocks_equal(matrix, matrix.T)
        assert _blocks_equal(matrix[1:, 1:], matrix[:-1, :-1])
        for i, j in {(0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 2, 3 % n)}:
            changed = matrix.copy()
            changed[i, j] *= 2
            for a, b in ((changed, changed.T), (changed[1:, 1:], changed[:-1, :-1])):
                assert _blocks_equal(a, b) == np.array_equal(a, b), (i, j)

    def test_block_comparison_makes_no_square_temporary(self):
        matrix = gravity_kernel_matrix(2048)
        for a, b in ((matrix, matrix.T), (matrix[1:, 1:], matrix[:-1, :-1])):
            equal, peak = _traced_peak(lambda: _blocks_equal(a, b))
            assert equal
            assert peak < matrix.size // 16


def _reference_trace_ray(n, point, direction):
    """Per-ray tracer with one Python pass per ray (test reference)."""
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    t_lo, t_hi = -np.inf, np.inf
    for ax in range(2):
        d, p = direction[ax], point[ax]
        if abs(d) < 1e-300:
            if p <= 0 or p >= n:
                return np.empty(0, dtype=int), np.empty(0)
        else:
            t0, t1 = (0.0 - p) / d, (n - p) / d
            t_lo = max(t_lo, min(t0, t1))
            t_hi = min(t_hi, max(t0, t1))
    if t_hi <= t_lo:
        return np.empty(0, dtype=int), np.empty(0)

    taus = [np.array([t_lo, t_hi])]
    for ax in range(2):
        d, p = direction[ax], point[ax]
        if abs(d) >= 1e-300:
            crossings = (np.arange(n + 1) - p) / d
            taus.append(crossings[(crossings > t_lo) & (crossings < t_hi)])
    taus = np.unique(np.concatenate(taus))

    lengths = np.diff(taus)
    mids = point[None, :] + 0.5 * (taus[:-1] + taus[1:])[:, None] * direction[None, :]
    cols = np.clip(np.floor(mids[:, 0]).astype(int), 0, n - 1)
    rows = np.clip(np.floor(mids[:, 1]).astype(int), 0, n - 1)
    keep = lengths > 1e-14
    return (rows * n + cols)[keep], lengths[keep]


def _reference_tomo_matrix(n, n_angles, n_detectors):
    """The tomography matrix built ray by ray from _reference_trace_ray."""
    center = np.array([n / 2.0, n / 2.0])
    spacing = n * np.sqrt(2.0) / n_detectors
    rows_idx, cols_idx, vals = [], [], []
    for a in range(n_angles):
        theta = a * np.pi / n_angles
        direction = np.array([np.cos(theta), np.sin(theta)])
        offset_dir = np.array([-np.sin(theta), np.cos(theta)])
        for d in range(n_detectors):
            s = (d - (n_detectors - 1) / 2.0) * spacing
            idx, lens = _reference_trace_ray(n, center + s * offset_dir, direction)
            row = a * n_detectors + d
            rows_idx.extend([row] * len(idx))
            cols_idx.extend(idx.tolist())
            vals.extend(lens.tolist())
    return sp.csr_matrix((vals, (rows_idx, cols_idx)),
                         shape=(n_angles * n_detectors, n * n))


class TestTomo:
    # default geometry (n angles: even, and odd for n=5), odd and even
    # angle counts (even ones include theta = pi/2), and many detectors;
    # at n=128 the diagonal views cross cells twice (summed entries)
    @pytest.mark.parametrize("n, n_angles, n_detectors", [
        *[(n, n_angles, n_detectors) for n in (4, 5, 8, 16)
          for n_angles, n_detectors in ((None, None), (7, 11), (6, 3 * n))],
        (24, None, None),
        (128, 4, 181),
    ])
    def test_matrix_matches_per_ray_reference(self, n, n_angles, n_detectors):
        prob = make_tomo_problem(n, n_angles, n_detectors)
        n_angles, n_detectors = prob.image_shapes["data"]
        expected = _reference_tomo_matrix(n, n_angles, n_detectors)
        matrix = prob.op.matrix
        for name in ("data", "indices", "indptr"):
            got, want = getattr(matrix, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        # the edge rays of the axis-aligned views miss the grid
        assert np.any(np.diff(matrix.indptr) == 0)
        np.testing.assert_array_equal(prob.b_exact, expected @ prob.x_true)

    # chunks of 1 and 3 rays end inside the 11-ray views of n = 8, whose
    # first view is the axis-parallel theta = 0, and 10**6 rays make one
    # chunk of every view; 50 rays end inside the 181-ray views of
    # (128, 4, 181), whose diagonal views sum duplicate cells
    @pytest.mark.parametrize("n, n_angles, n_detectors, rays", [
        (8, None, None, 1), (8, None, None, 3), (8, None, None, 10**6),
        (128, 4, 181, 50),
    ])
    def test_chunks_ending_inside_views(self, monkeypatch, n, n_angles, n_detectors,
                                        rays):
        default = make_tomo_problem(n, n_angles, n_detectors).op.matrix
        # a chunk holds _BLOCK_ENTRIES // (2n + 4) rays
        monkeypatch.setattr(lslu.operators, "_BLOCK_ENTRIES", rays * (2 * n + 4))
        prob = make_tomo_problem(n, n_angles, n_detectors)
        matrix = prob.op.matrix
        expected = _reference_tomo_matrix(n, *prob.image_shapes["data"])
        for name in ("data", "indices", "indptr"):
            got = getattr(matrix, name)
            for want in (getattr(default, name), getattr(expected, name)):
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)

    def test_construction_peak_below_matrix_bytes(self):
        # beyond the problem it returns, the build's peak stays within the
        # bytes of the matrix and its transposed copy
        tracemalloc.start()
        try:
            prob = make_tomo_problem(64)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = prob.op.matrix
        size = sum(a.nbytes for csr in (matrix, sp.csr_matrix(matrix.T))
                   for a in (csr.data, csr.indices, csr.indptr))
        assert peak - kept <= size

    @pytest.mark.parametrize("point, direction", [
        ([-1.0, 5.5], [1.0, 0.0]),    # parallel to the x axis, above the grid
        ([4.0, 1.0], [0.0, -1.0]),    # along the grid's right edge
        ([10.0, 0.0], [1.0, 1.0]),    # oblique, passes beside the grid
    ])
    def test_ray_missing_grid_is_empty(self, point, direction):
        _, idx, lens = trace_view(4, [point], direction)
        assert idx.shape == lens.shape == (0,)
        assert idx.dtype.kind == "i" and lens.dtype == float

    @pytest.mark.parametrize("point, direction, cells", [
        ([0.0, 0.0], [2.0, 1.0], [0, 1, 6, 7]),
        ([4.0, 0.0], [-1.0, 1.0], [3, 6, 9, 12]),
        ([0.0, 1.0], [1.0, 1.0], [4, 9, 14]),
    ])
    def test_ray_through_grid_corners(self, point, direction, cells):
        # x and y crossings coincide at every corner the ray passes through
        _, idx, lens = trace_view(4, [point], direction)
        assert idx.tolist() == cells
        # each segment spans one unit along the ray's longer axis
        step = np.linalg.norm(direction) / np.max(np.abs(direction))
        np.testing.assert_allclose(lens, np.full(len(cells), step), rtol=0, atol=1e-12)
        ref_idx, ref_lens = _reference_trace_ray(4, point, direction)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(lens, ref_lens)

    def test_axis_aligned_ray_unit_lengths(self):
        # a horizontal ray strictly inside a row crosses 4 unit cells
        _, idx, lens = trace_view(4, [[-1.0, 1.5]], [1.0, 0.0])
        assert len(idx) == 4
        np.testing.assert_allclose(lens, np.ones(4), rtol=0, atol=1e-12)
        assert sorted(idx.tolist()) == [4, 5, 6, 7]  # row 1
        assert float(np.sum(lens)) == pytest.approx(4.0, abs=1e-12)

    def test_diagonal_ray_sqrt2(self):
        _, idx, lens = trace_view(2, [[0.0, 0.0]], [1.0, 1.0])
        np.testing.assert_allclose(lens, np.sqrt(2.0) * np.ones(2), atol=1e-12)
        assert sorted(idx.tolist()) == [0, 3]

    def test_operator_has_unit_row(self, tomo16):
        # angle-0 block: horizontal rays carry exact unit intersections
        matrix = tomo16.op.matrix
        detectors = matrix.shape[0] // 16
        found = False
        for d in range(detectors):
            row = matrix.getrow(d)
            if row.nnz == 16 and np.allclose(row.data, 1.0, atol=1e-12):
                found = True
        assert found

    def test_row_sums_bounded(self, tomo16):
        sums = np.asarray(tomo16.op.matrix.sum(axis=1)).ravel()
        assert np.all(sums <= 16 * np.sqrt(2.0) + 1e-9)

    def test_noise_level_exact(self):
        prob = make_tomo_problem(16, n_angles=12, n_detectors=16,
                                 noise_level=1e-2, seed=4)
        assert prob.op.shape == (12 * 16, 256)
        ratio = np.linalg.norm(prob.e) / np.linalg.norm(prob.b_exact)
        assert ratio == pytest.approx(1e-2, abs=1e-12)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_angles": 0}, "n_angles must be at least 1"),
        ({"n_angles": 2.5}, "n_angles must be an integer"),
        ({"n_angles": True}, "n_angles must be an integer"),
        ({"n_detectors": 0}, "n_detectors must be at least 1"),
        ({"n_detectors": -3}, "n_detectors must be at least 1"),
        ({"n_detectors": 11.0}, "n_detectors must be an integer"),
        ({"n_detectors": False}, "n_detectors must be an integer"),
        ({"noise_level": np.nan}, "noise_level must be finite and nonnegative"),
        ({"noise_level": np.inf}, "noise_level must be finite and nonnegative"),
        ({"noise_level": -0.1}, "noise_level must be finite and nonnegative"),
    ])
    def test_bad_input_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make_tomo_problem(8, **kwargs)

    @pytest.mark.parametrize("n", [3, 8.5, True])
    def test_bad_size_named(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            make_tomo_problem(n)

    def test_phantom_is_binary_disk(self, tomo16):
        vals = np.unique(tomo16.x_true)
        assert set(vals.tolist()) <= {0.0, 1.0}
        assert tomo16.x_true.sum() > 0


def test_problem_data_decomposition(gravity32, tomo16):
    for prob in (gravity32, tomo16):
        np.testing.assert_array_equal(prob.b, prob.b_exact + prob.e)
        np.testing.assert_allclose(prob.b_exact,
                                   prob.op.forward(prob.x_true), atol=1e-12)


def test_dense_export_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    matrix = rng.standard_normal((5, 4))
    b = rng.standard_normal(5)
    op = make_dense_operator(matrix)
    mpath, bpath = tmp_path / "A.txt", tmp_path / "b.txt"
    export_dense_matrix(op, mpath)
    np.savetxt(bpath, b)
    op2, b2 = load_dense_problem(mpath, bpath)
    np.testing.assert_allclose(op2.to_dense(), matrix, atol=1e-12)
    np.testing.assert_allclose(b2, b, atol=1e-12)


def test_sparse_export(tomo16, tmp_path):
    path = tmp_path / "T.txt"
    export_dense_matrix(tomo16.op, path)
    dense = np.loadtxt(path)
    assert dense.shape == tomo16.op.shape


class TestAddNoise:
    def test_zero_level(self):
        b, e = add_noise(np.array([1.0, 2.0]), 0.0, seed=0)
        np.testing.assert_array_equal(e, [0.0, 0.0])
        np.testing.assert_array_equal(b, [1.0, 2.0])

    def test_exact_relative_norm(self):
        b_exact = np.random.default_rng(2).standard_normal(50)
        _, e = add_noise(b_exact, 1e-2, seed=3)
        assert np.linalg.norm(e) / np.linalg.norm(b_exact) == pytest.approx(
            1e-2, abs=1e-12)

    def test_same_seed_same_noise(self):
        b_exact = np.arange(1.0, 9.0)
        _, e1 = add_noise(b_exact, 0.1, seed=11)
        _, e2 = add_noise(b_exact, 0.1, seed=11)
        np.testing.assert_array_equal(e1, e2)

    def test_zero_data_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(4), 0.1, seed=0)

    # data whose norm overflows would make the noise, and so b, infinite;
    # an infinite entry is named as non-finite data
    @pytest.mark.parametrize("value", [1e200, np.inf])
    def test_data_of_infinite_norm_rejected(self, value):
        message = ("b_exact has non-finite entries" if value == np.inf
                   else "cannot scale noise against exact data of norm inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                add_noise(np.array([1.0, value]), 0.1, seed=0)

    @pytest.mark.parametrize("bad", [[1.0, np.nan], "abc", np.ones((2, 2))])
    def test_bad_data_named(self, bad):
        with pytest.raises(lslu.InputError) as info:
            add_noise(bad, 0.1, seed=0)
        assert info.value.name == "b_exact"

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf, -1e-3])
    def test_bad_level_named(self, level):
        with pytest.raises(ValueError,
                           match="noise_level must be finite and nonnegative"):
            add_noise(np.ones(4), level, seed=0)
