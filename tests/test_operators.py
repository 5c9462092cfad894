import numpy as np
import pytest
import scipy.sparse as sp

from lslu import (add_noise, make_dense_operator, make_gravity_problem,
                  make_tomo_problem, trace_view)
from lslu.operators import gravity_kernel_matrix


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

    def test_shape_validation(self):
        op = make_dense_operator([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(ValueError):
            op.forward([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            op.adjoint([1.0, 2.0])


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

    # n=1000 assembles in row blocks whose last one is partial
    @pytest.mark.parametrize("n, depth", [(2, 0.25), (257, 0.25), (64, 0.1),
                                          (1000, 0.25)])
    def test_kernel_matches_expression(self, n, depth):
        pts = (np.arange(n) + 0.5) / n
        diff = pts[:, None] - pts[None, :]
        expected = depth * (depth**2 + diff**2) ** (-1.5) / n
        np.testing.assert_array_equal(gravity_kernel_matrix(n, depth), expected)

    @pytest.mark.parametrize("depth", [0.0, -1.0, np.inf, np.nan])
    def test_bad_depth_named(self, depth):
        with pytest.raises(ValueError, match="depth must be finite and positive"):
            make_gravity_problem(16, depth=depth)

    @pytest.mark.parametrize("n", [1, 2.5, True])
    def test_bad_size_named(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            make_gravity_problem(n)

    def test_symmetric_positive_entries(self):
        matrix = gravity_kernel_matrix(20)
        assert np.all(matrix > 0)
        np.testing.assert_allclose(matrix, matrix.T, rtol=0, atol=1e-15)


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
    from lslu import export_dense_matrix, load_dense_problem
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
    from lslu import export_dense_matrix
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

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf, -1e-3])
    def test_bad_level_named(self, level):
        with pytest.raises(ValueError,
                           match="noise_level must be finite and nonnegative"):
            add_noise(np.ones(4), level, seed=0)
