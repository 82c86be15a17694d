"""Structured discretization of the bulk domain and its boundary.

Two geometries are supported: an interval, whose boundary is the pair of
endpoints with counting measure, and an axis-aligned rectangle, whose
boundary is a closed perimeter polyline.  Bulk operators use piecewise
linear elements (bilinear on rectangle cells); the boundary operator is
the periodic piecewise linear stiffness along the perimeter, with
arc-length weights.  Every boundary node is a bulk node, so traces are
index lookups, never interpolation.  Mass forms are lumped (row sums),
which keeps them diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Domain",
    "CoupledField",
    "DiscreteSystem",
    "build_domain",
    "MAX_NODES",
    "assemble",
    "coupled_matrix",
    "SPD_SPLU",
    "inner_H",
]


# the most nodes a mesh may have (2048 x 2048), checked on the resolution
# before any array is built; the largest mesh of the shipped scenarios,
# the tests and the benchmark workloads has 129 x 129
MAX_NODES = 2**22


@dataclass(frozen=True)
class Domain:
    """Node layout of the mesh with an ordered boundary traversal."""

    kind: str                      # "interval" or "rectangle"
    sizes: tuple[float, ...]       # (Lx,) or (Lx, Ly)
    resolution: tuple[int, ...]    # (nx,) or (nx, ny)
    coords: np.ndarray             # (n_nodes, dim)
    boundary_idx: np.ndarray       # ordered traversal of the boundary

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_idx.size


@dataclass
class CoupledField:
    """A bulk field paired with a boundary field, not necessarily its trace."""

    bulk: np.ndarray
    bnd: np.ndarray

    def copy(self) -> "CoupledField":
        return CoupledField(self.bulk.copy(), self.bnd.copy())

    def __add__(self, other: "CoupledField") -> "CoupledField":
        return CoupledField(self.bulk + other.bulk, self.bnd + other.bnd)

    def __sub__(self, other: "CoupledField") -> "CoupledField":
        return CoupledField(self.bulk - other.bulk, self.bnd - other.bnd)

    def __mul__(self, a: float) -> "CoupledField":
        return CoupledField(a * self.bulk, a * self.bnd)

    __rmul__ = __mul__


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled operators of the coupled bulk/boundary weak form."""

    domain: Domain
    A_bulk: sp.csr_matrix          # bulk stiffness, symmetric PSD
    M_bulk: np.ndarray             # lumped bulk mass (diagonal)
    A_bnd: sp.csr_matrix           # boundary stiffness along the perimeter
    M_bnd: np.ndarray              # lumped boundary mass (diagonal)

    @property
    def bidx(self) -> np.ndarray:
        return self.domain.boundary_idx

    @property
    def n_bulk(self) -> int:
        return self.domain.n_nodes

    @property
    def n_bnd(self) -> int:
        return self.domain.n_boundary

    def field_from_bulk(self, bulk: np.ndarray) -> CoupledField:
        """Trace-consistent field whose boundary part is the trace."""
        bulk = np.asarray(bulk, dtype=float)
        return CoupledField(bulk, bulk[self.bidx].copy())

    def field(self, bulk, bnd) -> CoupledField:
        return CoupledField(np.asarray(bulk, dtype=float), np.asarray(bnd, dtype=float))

    def constant_field(self, value: float) -> CoupledField:
        return self.field_from_bulk(np.full(self.n_bulk, float(value)))

    def check_trace(self, u: CoupledField) -> bool:
        return bool(np.array_equal(u.bulk[self.bidx], u.bnd))


def build_domain(kind: str, sizes, resolution) -> Domain:
    """Create an interval or rectangle mesh with ordered boundary nodes."""
    if not isinstance(kind, str):
        raise ValueError(f"domain kind must be a string, got {kind!r}")
    sizes, res = [float(s) for s in sizes], [float(r) for r in resolution]
    if not all(0.0 < s < math.inf for s in sizes):
        raise ValueError(f"sizes must be positive and finite, got {sizes}")
    if not all(r.is_integer() for r in res):
        raise ValueError(f"resolution must hold integers, got {resolution!r}")
    kind = kind.lower()
    if kind == "interval":
        (lx,) = sizes
        (nx,) = map(int, res)
        if nx < 2:
            raise ValueError("interval needs nx >= 2")
        _check_node_count(nx + 1)
        coords = np.linspace(0.0, lx, nx + 1).reshape(-1, 1)
        boundary = np.array([0, nx], dtype=int)
        return Domain("interval", (lx,), (nx,), coords, boundary)
    if kind == "rectangle":
        lx, ly = sizes
        nx, ny = map(int, res)
        if nx < 2 or ny < 2:
            raise ValueError("rectangle needs nx >= 2 and ny >= 2")
        _check_node_count((nx + 1) * (ny + 1))
        xs = np.linspace(0.0, lx, nx + 1)
        ys = np.linspace(0.0, ly, ny + 1)
        xx, yy = np.meshgrid(xs, ys)            # row-major: node = iy*(nx+1)+ix
        coords = np.column_stack([xx.ravel(), yy.ravel()])
        boundary = _perimeter_loop(nx, ny)
        return Domain("rectangle", (lx, ly), (nx, ny), coords, boundary)
    raise ValueError(f"unknown domain kind {kind!r}")


def _check_node_count(n_nodes: int) -> None:
    if n_nodes > MAX_NODES:
        raise ValueError(f"the mesh would have {n_nodes} nodes, more than {MAX_NODES}")


def _perimeter_loop(nx: int, ny: int) -> np.ndarray:
    """Closed counterclockwise traversal of the rectangle perimeter."""

    def node(ix: int, iy: int) -> int:
        return iy * (nx + 1) + ix

    loop = []
    loop.extend(node(ix, 0) for ix in range(nx + 1))
    loop.extend(node(nx, iy) for iy in range(1, ny + 1))
    loop.extend(node(ix, ny) for ix in range(nx - 1, -1, -1))
    loop.extend(node(0, iy) for iy in range(ny - 1, 0, -1))
    return np.array(loop, dtype=int)


def _stiffness_1d(n_cells: int, h: float) -> sp.csr_matrix:
    main = np.full(n_cells + 1, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n_cells, -1.0 / h)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _mass_1d_consistent(n_cells: int, h: float) -> sp.csr_matrix:
    main = np.full(n_cells + 1, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    off = np.full(n_cells, h / 6.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _mass_1d_lumped(n_cells: int, h: float) -> np.ndarray:
    m = np.full(n_cells + 1, h)
    m[0] = m[-1] = h / 2.0
    return m


def assemble(domain: Domain) -> DiscreteSystem:
    """Assemble stiffness and lumped mass operators for a domain.

    The rectangle stiffness is the exact bilinear-element operator,
    written as a sum of Kronecker products of 1d stiffness and
    consistent 1d mass.  The boundary stiffness of the rectangle is the
    periodic piecewise linear stiffness along the perimeter polyline;
    the interval boundary carries no stiffness and unit point weights.
    """
    if domain.kind == "interval":
        (lx,) = domain.sizes
        (nx,) = domain.resolution
        h = lx / nx
        A_bulk = _stiffness_1d(nx, h)
        M_bulk = _mass_1d_lumped(nx, h)
        A_bnd = sp.csr_matrix((2, 2))
        M_bnd = np.ones(2)
    else:
        lx, ly = domain.sizes
        nx, ny = domain.resolution
        hx, hy = lx / nx, ly / ny
        Ax = _stiffness_1d(nx, hx)
        Ay = _stiffness_1d(ny, hy)
        Mx = _mass_1d_consistent(nx, hx)
        My = _mass_1d_consistent(ny, hy)
        # both products have the 9-point pattern in the same COO order, so
        # their sum is one add of data arrays and one conversion to CSR
        A_bulk = sp.kron(My, Ax, format="coo")
        A_bulk.data += sp.kron(Ay, Mx, format="coo").data
        A_bulk = A_bulk.tocsr()
        M_bulk = np.kron(_mass_1d_lumped(ny, hy), _mass_1d_lumped(nx, hx))

        loop = domain.boundary_idx
        nb = loop.size
        # arc length of the edge leaving each boundary node along the loop
        pts = domain.coords[loop]
        i, j = np.arange(nb), np.roll(np.arange(nb), -1)
        edge_len = np.linalg.norm(pts[j] - pts, axis=1)
        # the entries of edge (i, j) in turn, so that duplicates sum in edge order
        w = 1.0 / edge_len
        rows = np.stack([i, j, i, j], axis=1).ravel()
        cols = np.stack([i, j, j, i], axis=1).ravel()
        vals = np.stack([w, w, -w, -w], axis=1).ravel()
        A_bnd = sp.csr_matrix((vals, (rows, cols)), shape=(nb, nb))
        M_bnd = 0.5 * (edge_len + np.roll(edge_len, 1))
    # coupled_matrix builds every K0 from these arrays and shares the index
    # arrays with it, so none of them may change
    for arr in (A_bulk.data, A_bulk.indices, A_bulk.indptr):
        arr.flags.writeable = False
    return DiscreteSystem(domain, A_bulk, M_bulk, A_bnd, M_bnd)


# SuperLU arguments for a symmetric positive definite matrix: order the
# columns on the pattern of A + A^T and take the diagonal pivots, which
# need no row exchanges.  Pass as splu(mat, **SPD_SPLU).
SPD_SPLU = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


def coupled_matrix(
    sys: DiscreteSystem,
    d_bulk: np.ndarray,
    d_bnd: np.ndarray,
    c_bulk: float = 1.0,
    c_bnd: float = 1.0,
) -> tuple[sp.csc_matrix, np.ndarray]:
    """Coupled operator on the bulk nodes, with the data positions of its diagonal.

    The matrix is ``diag(d_bulk) + c_bulk*A_bulk`` plus the boundary
    block ``diag(d_bnd) + c_bnd*A_bnd`` scattered to the trace rows and
    columns, summed in that order.  ``A_bulk`` is symmetric bit for bit
    and its CSR is canonical, so the matrix is a CSC on its pattern that
    shares its ``indices`` and ``indptr``; that pattern holds every
    diagonal entry and perimeter edge, so a diagonal update is a write to
    ``data[diag_pos]``.  Exact zeros of the sum are dropped, as a sparse
    add drops them, from copies of the index arrays.
    """
    n, bidx, A = sys.n_bulk, sys.bidx, sys.A_bulk
    g = sys.A_bnd.tocoo()
    diag = np.array(d_bulk, dtype=float)
    diag[bidx] += d_bnd
    # entry (row, col) sits at the rank of the key col*n + row
    keys = np.repeat(np.arange(n), np.diff(A.indptr)) * n + A.indices
    want = np.concatenate([bidx[g.col] * n + bidx[g.row], np.arange(n) * (n + 1)])
    pos = np.searchsorted(keys, want)
    if not np.array_equal(keys[np.minimum(pos, keys.size - 1)], want):
        raise ValueError("a boundary or diagonal entry lies outside the bulk stiffness pattern")
    data = c_bulk * A.data
    data[pos[: g.nnz]] += c_bnd * g.data
    data[pos[g.nnz :]] += diag
    if data.all():
        return sp.csc_matrix((data, A.indices, A.indptr), shape=(n, n)), pos[g.nnz :]
    mat = sp.csc_matrix((data, A.indices.copy(), A.indptr.copy()), shape=(n, n))
    mat.eliminate_zeros()
    col_of = np.repeat(np.arange(n), np.diff(mat.indptr))
    return mat, np.flatnonzero(mat.indices == col_of)


def inner_H(sys: DiscreteSystem, a: CoupledField, b: CoupledField) -> float:
    """Weighted inner product: bulk mass pairing plus boundary mass pairing."""
    if a.bulk.shape != (sys.n_bulk,) or b.bulk.shape != (sys.n_bulk,):
        raise ValueError("bulk field size does not match the system")
    if a.bnd.shape != (sys.n_bnd,) or b.bnd.shape != (sys.n_bnd,):
        raise ValueError("boundary field size does not match the system")
    return float(
        np.dot(a.bulk * sys.M_bulk, b.bulk) + np.dot(a.bnd * sys.M_bnd, b.bnd)
    )
