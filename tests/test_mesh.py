"""Mesh and operator assembly: exact identities and quadrature oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from acdyn.mesh import MAX_NODES, Domain, assemble, build_domain, coupled_matrix, inner_H

from helpers import (
    _mass_1d_consistent,
    _stiffness_1d,
    make_interval,
    make_rectangle,
    normal_flux,
)


class TestBuildDomain:
    def test_interval_counts(self):
        d = build_domain("interval", [1.0], [4])
        assert d.n_nodes == 5
        assert list(d.boundary_idx) == [0, 4]

    def test_small_rectangle(self):
        d = build_domain("rectangle", [1.0, 1.0], [2, 2])
        assert d.n_nodes == 9
        assert d.n_boundary == 8
        center = 1 * 3 + 1
        assert center not in set(d.boundary_idx)

    def test_rectangle_perimeter_oracle(self):
        # enumeration oracle: nodes with ix in {0,nx} or iy in {0,ny}
        nx, ny = 4, 2
        d = build_domain("rectangle", [2.0, 1.0], [nx, ny])
        assert d.n_nodes == (nx + 1) * (ny + 1)
        expected = {
            iy * (nx + 1) + ix
            for iy in range(ny + 1)
            for ix in range(nx + 1)
            if ix in (0, nx) or iy in (0, ny)
        }
        assert set(d.boundary_idx) == expected
        assert d.n_boundary == len(expected) == 12

    def test_boundary_loop_closed_no_duplicates(self):
        d = build_domain("rectangle", [1.0, 2.0], [3, 5])
        loop = d.boundary_idx
        assert len(set(loop)) == len(loop)
        pts = d.coords[loop]
        steps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        # consecutive nodes (wrapping) are mesh neighbors along the perimeter
        assert np.all(steps <= max(1.0 / 3, 2.0 / 5) + 1e-12)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            build_domain("interval", [1.0], [1])
        with pytest.raises(ValueError):
            build_domain("rectangle", [1.0, 1.0], [2, 1])

    @pytest.mark.parametrize(
        "kind, sizes, resolution, n_nodes",
        [
            ("interval", [1.0], [2**63], 2**63 + 1),
            ("interval", [1.0], [MAX_NODES], MAX_NODES + 1),
            ("rectangle", [1.0, 1.0], [2047, 2048], 2048 * 2049),
            ("rectangle", [1.0, 1.0], [10**6, 10**6], (10**6 + 1) ** 2),
        ],
    )
    def test_node_count_cap(self, kind, sizes, resolution, n_nodes):
        # counted in Python integers, so 2**63 cells neither wraps around
        # nor reaches np.linspace
        with pytest.raises(ValueError, match=f"^the mesh would have {n_nodes} nodes, more than"):
            build_domain(kind, sizes, resolution)


# a rectangle with hx**2 == 2*hy**2, where the bilinear stiffness of a
# horizontal neighbour pair is an exact zero
EXACT_ZERO_RECT = ([0.565685424949238, 1.0], [2, 5])


def assert_same_bits(a, ref):
    """The same sparse format, shape and arrays, dtypes and data bits included."""
    assert a.format == ref.format and a.shape == ref.shape
    assert a.data.dtype == ref.data.dtype
    assert np.array_equal(a.data.view(np.int64), ref.data.view(np.int64))
    for name in ("indices", "indptr"):
        arr, ref_arr = getattr(a, name), getattr(ref, name)
        assert arr.dtype == ref_arr.dtype and np.array_equal(arr, ref_arr)
    assert a.has_canonical_format and ref.has_canonical_format


def assert_symmetric_bits(mat):
    """The CSC matrix equals its transpose bit for bit, so that its three
    arrays read as CSR are the same matrix."""
    assert_same_bits(mat, mat.T.tocsc())


def kron_bulk_stiffness(nx, ny, lx, ly):
    """The bilinear stiffness as the data of two CSR Kronecker products of
    1d stiffness and consistent 1d mass, added on their common pattern."""
    hx, hy = lx / nx, ly / ny
    ref = sp.kron(_mass_1d_consistent(ny, hy), _stiffness_1d(nx, hx), format="csr")
    ref.data += sp.kron(_stiffness_1d(ny, hy), _mass_1d_consistent(nx, hx), format="csr").data
    return ref


def coo_perimeter_stiffness(domain):
    """The perimeter stiffness as a COO sum of the four entries of each
    edge along the loop, converted to CSR."""
    loop = domain.boundary_idx
    nb = loop.size
    pts = domain.coords[loop]
    i, j = np.arange(nb), np.roll(np.arange(nb), -1)
    w = 1.0 / np.linalg.norm(pts[j] - pts, axis=1)
    rows = np.stack([i, j, i, j], axis=1).ravel()
    cols = np.stack([i, j, j, i], axis=1).ravel()
    vals = np.stack([w, w, -w, -w], axis=1).ravel()
    return sp.csr_matrix((vals, (rows, cols)), shape=(nb, nb))


RECTANGLES = pytest.mark.parametrize(
    "nx, ny, lx, ly",
    [(128, 128, 1.0, 1.0), (32, 32, 1.0, 1.0), (7, 13, 0.3, 0.7), (5, 12, 1.0, 0.728),
     (*EXACT_ZERO_RECT[1], *EXACT_ZERO_RECT[0])],
    ids=["rect128", "rect32", "rect7x13", "rect5x12", "exact-zero"],
)


class TestAssemble:
    @pytest.mark.parametrize(
        "nx, ny, lx, ly",
        [(128, 128, 1.0, 1.0), (32, 32, 1.0, 1.0), (7, 13, 0.3, 0.7), (5, 12, 1.0, 0.728),
         (*EXACT_ZERO_RECT[1], *EXACT_ZERO_RECT[0])],
        ids=["rect128", "rect32", "rect7x13", "rect5x12", "exact-zero"],
    )
    def test_bulk_stiffness_bits_match_two_csr_products(self, nx, ny, lx, ly):
        # the data of two CSR Kronecker products on the same pattern, added;
        # the exact zeros of the sum are kept
        _, s = make_rectangle(nx, ny, lx=lx, ly=ly)
        hx, hy = lx / nx, ly / ny
        ref = sp.kron(_mass_1d_consistent(ny, hy), _stiffness_1d(nx, hx), format="csr")
        ref.data += sp.kron(_stiffness_1d(ny, hy), _mass_1d_consistent(nx, hx), format="csr").data
        a = s.A_bulk
        assert a.format == "csr" and a.shape == ref.shape
        assert np.array_equal(a.data.view(np.int64), ref.data.view(np.int64))
        assert np.array_equal(a.indices, ref.indices)
        assert np.array_equal(a.indptr, ref.indptr)
        assert a.has_canonical_format and ref.has_canonical_format

    @RECTANGLES
    def test_boundary_stiffness_bits_match_the_coo_sum(self, nx, ny, lx, ly):
        d, s = make_rectangle(nx, ny, lx=lx, ly=ly)
        assert_same_bits(s.A_bnd, coo_perimeter_stiffness(d))

    @pytest.mark.parametrize("nx, lx", [(64, 1.0), (2, 1.0), (7, 1.0), (5, 3.0)])
    def test_interval_stiffness_bits_match_the_diagonals(self, nx, lx):
        _, s = make_interval(nx, lx=lx)
        assert_same_bits(s.A_bulk, _stiffness_1d(nx, lx / nx))

    @pytest.mark.parametrize("nx, ny", [(128, 128), (9, 5), (2, 2)])
    def test_rectangle_stiffness_at_exact_size(self, nx, ny):
        # the sum of the two Kronecker products, with the explicit zeros
        # that the BSR product of small factors stores dropped
        _, s = make_rectangle(nx, ny, ly=0.7)
        hx, hy = 1.0 / nx, 0.7 / ny
        old = (sp.kron(_mass_1d_consistent(ny, hy), _stiffness_1d(nx, hx))
               + sp.kron(_stiffness_1d(ny, hy), _mass_1d_consistent(nx, hx))).tocsr()
        old.eliminate_zeros()
        a = s.A_bulk
        assert np.array_equal(a.indptr, old.indptr)
        assert np.array_equal(a.indices, old.indices)
        assert a.data.tobytes() == old.data.tobytes()
        assert a.nnz == 9 * (nx + 1) * (ny + 1) - 6 * (nx + 1) - 6 * (ny + 1) + 4
        for arr in (a.data, a.indices):
            assert (arr if arr.base is None else arr.base).nbytes == arr.itemsize * a.nnz

    def test_boundary_loop_of_mesh_neighbours(self):
        # a loop that jumps across the rectangle has an edge outside the
        # 9-point pattern, where no coupled matrix can add its stiffness
        d = build_domain("rectangle", [1.0, 1.0], [3, 2])
        loop = d.boundary_idx.copy()
        loop[[1, 5]] = loop[[5, 1]]
        with pytest.raises(ValueError, match="outside the bulk stiffness pattern"):
            assemble(Domain(d.kind, d.sizes, d.resolution, d.coords, loop))

    @pytest.mark.parametrize("maker", [lambda: make_interval(4), lambda: make_rectangle(3, 2)])
    def test_bulk_stiffness_is_read_only(self, maker):
        # every coupled matrix shares its index arrays
        _, s = maker()
        for arr in (s.A_bulk.data, s.A_bulk.indices, s.A_bulk.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_interval_matrix_entries(self):
        _, s = make_interval(2)
        expected = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
        assert np.array_equal(s.A_bulk.toarray(), expected)
        assert np.allclose(s.A_bulk.toarray().sum(axis=1), 0.0)

    @pytest.mark.parametrize(
        "maker,area,perimeter",
        [
            (lambda: make_interval(7), 1.0, 2.0),
            (lambda: make_interval(5, lx=3.0), 3.0, 2.0),
            (lambda: make_rectangle(4, 4), 1.0, 4.0),
            (lambda: make_rectangle(6, 3, lx=2.0, ly=1.0), 2.0, 6.0),
        ],
    )
    def test_mass_totals(self, maker, area, perimeter):
        _, s = maker()
        assert s.M_bulk.sum() == pytest.approx(area, abs=1e-12)
        assert s.M_bnd.sum() == pytest.approx(perimeter, abs=1e-12)
        assert np.all(s.M_bulk > 0) and np.all(s.M_bnd > 0)

    @pytest.mark.parametrize("maker", [lambda: make_interval(9), lambda: make_rectangle(5, 4)])
    def test_symmetry_kernel_nonnegativity(self, maker):
        _, s = maker()
        for a in (s.A_bulk, s.A_bnd):
            dense = a.toarray()
            assert np.array_equal(dense, dense.T)
            if dense.size:
                assert np.max(np.abs(dense.sum(axis=1))) <= 1e-12
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.standard_normal(s.n_bulk)
            assert v @ (s.A_bulk @ v) >= -1e-12
            vb = rng.standard_normal(s.n_bnd)
            assert vb @ (s.A_bnd @ vb) >= -1e-12

    def test_neumann_eigenvalue(self):
        _, s = make_rectangle(8, 8)
        w = sla.eigh(s.A_bulk.toarray(), np.diag(s.M_bulk), eigvals_only=True)
        w.sort()
        assert abs(w[0]) <= 1e-10
        assert abs(w[1] - np.pi**2) / np.pi**2 <= 0.05

    def test_boundary_stiffness_periodic_eigenvalue(self):
        # perimeter chain of the unit square: circle of length 4
        _, s = make_rectangle(16, 16)
        w = sla.eigh(s.A_bnd.toarray(), np.diag(s.M_bnd), eigvals_only=True)
        w.sort()
        assert abs(w[0]) <= 1e-10
        # first closed-curve eigenvalue (2*pi/L)^2 with L=4
        target = (2 * np.pi / 4.0) ** 2
        assert abs(w[1] - target) / target <= 0.05


def coupled_diag(s, d_scale):
    """The coupled diagonal d_scale*M_bulk with d_scale*M_bnd added at the trace nodes."""
    diag = d_scale * s.M_bulk
    diag[s.bidx] += d_scale * s.M_bnd
    return diag


def summed_coupled_matrix(s, diag, c_bulk, c_bnd):
    """The coupled matrix as sparse sums, which drop the exact zeros they make."""
    n, bidx = s.n_bulk, s.bidx
    g = s.A_bnd.tocoo()
    bnd = sp.csr_matrix((c_bnd * g.data, (bidx[g.row], bidx[g.col])), shape=(n, n))
    mat = (c_bulk * s.A_bulk + bnd + sp.diags(diag, format="csr")).tocsc()
    mat.sum_duplicates()
    return mat


def assert_sums_bits(mat, s, diag, c_bulk, c_bnd):
    """``mat`` is a CSC on A_bulk's index arrays whose diagonal lies at
    ``s.diag_pos``, and, its exact zeros dropped from a copy, the sparse
    sums bit for bit."""
    ref = summed_coupled_matrix(s, diag, c_bulk, c_bnd)
    assert mat.format == "csc" and mat.nnz == s.A_bulk.nnz
    assert np.shares_memory(mat.indices, s.A_bulk.indices)
    assert np.shares_memory(mat.indptr, s.A_bulk.indptr)
    assert np.array_equal(mat.data[s.diag_pos].view(np.int64), ref.diagonal().view(np.int64))
    dropped = mat.copy()
    dropped.eliminate_zeros()
    assert_same_bits(dropped, ref)


COUPLED_MESHES = pytest.mark.parametrize(
    "maker",
    [
        lambda: make_interval(64),
        lambda: make_rectangle(128, 128),
        lambda: make_rectangle(7, 13, lx=0.3, ly=0.7),
        lambda: make_rectangle(5, 12, ly=0.728),
        lambda: make_rectangle(*EXACT_ZERO_RECT[1], *EXACT_ZERO_RECT[0]),
    ],
    ids=["interval", "rect128", "rect7x13", "rect5x12", "exact-zero"],
)
# the step operator's call (c = 1/tau + eps) and density's call
COUPLED_CALLS = pytest.mark.parametrize(
    "c_bulk, c_bnd, d_scale",
    [(1.0, 1.0, 1.0 / 0.01 + 0.05), (1.0 / 7, 0.0, 1.0)],
    ids=["step", "density"],
)


class TestCoupledMatrix:
    @COUPLED_MESHES
    @COUPLED_CALLS
    def test_bits_match_the_sparse_sums(self, maker, c_bulk, c_bnd, d_scale):
        _, s = maker()
        diag = coupled_diag(s, d_scale)
        mat = coupled_matrix(s, diag, c_bulk=c_bulk, c_bnd=c_bnd)
        assert_sums_bits(mat, s, diag, c_bulk, c_bnd)

    @COUPLED_MESHES
    @COUPLED_CALLS
    def test_symmetric_bit_for_bit(self, maker, c_bulk, c_bnd, d_scale):
        # the step operator reads K0's CSC arrays as its CSR arrays
        _, s = maker()
        mat = coupled_matrix(s, coupled_diag(s, d_scale), c_bulk=c_bulk, c_bnd=c_bnd)
        assert_symmetric_bits(mat)

    def test_shares_the_bulk_index_arrays(self):
        _, s = make_rectangle(6, 4)
        mat = coupled_matrix(s, coupled_diag(s, 1.0))
        assert np.shares_memory(mat.indices, s.A_bulk.indices)
        assert np.shares_memory(mat.indptr, s.A_bulk.indptr)
        assert not np.shares_memory(mat.data, s.A_bulk.data)

    def test_exact_zeros_kept_on_the_bulk_pattern(self):
        # A_bulk stores 24 exact zeros; the perimeter stiffness fills 8 of
        # them, and K0 keeps the other 16 on A_bulk's own index arrays
        _, s = make_rectangle(*EXACT_ZERO_RECT[1], *EXACT_ZERO_RECT[0])
        assert s.A_bulk.nnz == 112 and np.count_nonzero(s.A_bulk.data == 0.0) == 24
        mat = coupled_matrix(s, coupled_diag(s, 1.0 / 0.01 + 0.05))
        assert mat.nnz == 112 and np.count_nonzero(mat.data == 0.0) == 16
        assert np.shares_memory(mat.indices, s.A_bulk.indices)
        assert np.shares_memory(mat.indptr, s.A_bulk.indptr)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    nx=st.integers(2, 24),
    ny=st.integers(2, 24),
    lx=st.floats(1e-3, 1e3),
    ly=st.floats(1e-3, 1e3),
)
def test_rectangle_operators_match_the_reference_formulas(nx, ny, lx, ly):
    # every array the step matrix is made of, on drawn cells and sizes
    d, s = make_rectangle(nx, ny, lx=lx, ly=ly)
    bulk = kron_bulk_stiffness(nx, ny, lx, ly)
    assert_same_bits(s.A_bulk, bulk)
    assert_same_bits(s.A_bnd, coo_perimeter_stiffness(d))
    row_of = np.repeat(np.arange(s.n_bulk), np.diff(bulk.indptr))
    assert np.array_equal(s.diag_pos, np.flatnonzero(bulk.indices == row_of))
    diag = coupled_diag(s, 1.0 / 0.01 + 0.05)
    mat = coupled_matrix(s, diag)
    assert_sums_bits(mat, s, diag, 1.0, 1.0)
    assert_symmetric_bits(mat)


class TestInnerProduct:
    def test_unit_constants(self):
        _, s = make_interval(4)
        ones = s.constant_field(1.0)
        assert inner_H(s, ones, ones) == pytest.approx(3.0, abs=1e-12)  # |Omega|+|Gamma|

    def test_zero(self):
        _, s = make_interval(4)
        z = s.field(np.zeros(s.n_bulk), np.zeros(s.n_bnd))
        assert inner_H(s, z, s.constant_field(1.0)) == 0.0

    def test_random_against_direct_summation(self):
        _, s = make_rectangle(4, 4)
        rng = np.random.default_rng(11)
        a = s.field(rng.standard_normal(s.n_bulk), rng.standard_normal(s.n_bnd))
        b = s.field(rng.standard_normal(s.n_bulk), rng.standard_normal(s.n_bnd))
        direct = 0.0
        for i in range(s.n_bulk):
            direct += s.M_bulk[i] * a.bulk[i] * b.bulk[i]
        for j in range(s.n_bnd):
            direct += s.M_bnd[j] * a.bnd[j] * b.bnd[j]
        assert inner_H(s, a, b) == pytest.approx(direct, abs=1e-12)

    def test_dimension_mismatch(self):
        _, s = make_interval(4)
        _, s2 = make_interval(5)
        with pytest.raises(ValueError):
            inner_H(s, s2.constant_field(1.0), s.constant_field(1.0))

    def test_trace_identification(self):
        _, s = make_rectangle(3, 3)
        rng = np.random.default_rng(5)
        u = s.field_from_bulk(rng.standard_normal(s.n_bulk))
        assert s.check_trace(u)
        # boundary part through boundary indexing equals bulk indexing
        assert np.array_equal(u.bnd, u.bulk[s.bidx])


class TestNormalFlux:
    def test_constant_zero(self):
        _, s = make_interval(8)
        flux = normal_flux(s, s.constant_field(3.7))
        assert np.max(np.abs(flux)) <= 1e-12

    def test_interval_linear(self):
        d, s = make_interval(16)
        u = s.field_from_bulk(d.coords[:, 0].copy())
        flux = normal_flux(s, u)
        assert flux[0] == pytest.approx(-1.0, abs=1e-12)
        assert flux[1] == pytest.approx(1.0, abs=1e-12)

    def test_rectangle_linear_oracle(self):
        d, s = make_rectangle(8, 8)
        u = s.field_from_bulk(d.coords[:, 0].copy())
        flux = normal_flux(s, u)
        pts = d.coords[d.boundary_idx]
        on_left = np.isclose(pts[:, 0], 0.0)
        on_right = np.isclose(pts[:, 0], 1.0)
        corner = (np.isclose(pts[:, 1], 0.0) | np.isclose(pts[:, 1], 1.0)) & (
            on_left | on_right
        )
        assert np.max(np.abs(flux[on_left & ~corner] + 1.0)) <= 1e-12
        assert np.max(np.abs(flux[on_right & ~corner] - 1.0)) <= 1e-12
        horiz = ~(on_left | on_right)
        assert np.max(np.abs(flux[horiz])) <= 1e-12

    def test_requires_trace_consistency(self):
        _, s = make_interval(4)
        bad = s.field(np.arange(5.0), np.array([10.0, 20.0]))
        with pytest.raises(ValueError):
            normal_flux(s, bad)


def test_green_identity_by_construction():
    # pairing of A u against any test split: interior part + flux part
    d, s = make_rectangle(5, 4)
    rng = np.random.default_rng(8)
    u = s.field_from_bulk(rng.standard_normal(s.n_bulk))
    v = rng.standard_normal(s.n_bulk)
    au = s.A_bulk @ u.bulk
    interior = np.ones(s.n_bulk, dtype=bool)
    interior[s.bidx] = False
    lap = au[interior] / s.M_bulk[interior]
    flux = normal_flux(s, u)
    lhs = float(v @ au)
    rhs = float(np.dot(s.M_bulk[interior] * v[interior], lap)) + float(
        np.dot(s.M_bnd * v[s.bidx], flux)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
