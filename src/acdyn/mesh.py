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

    def __add__(self, other: "CoupledField") -> "CoupledField":
        return CoupledField(self.bulk + other.bulk, self.bnd + other.bnd)

    def __sub__(self, other: "CoupledField") -> "CoupledField":
        return CoupledField(self.bulk - other.bulk, self.bnd - other.bnd)

    def __mul__(self, a: float) -> "CoupledField":
        return CoupledField(a * self.bulk, a * self.bnd)

    __rmul__ = __mul__


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled operators of the coupled bulk/boundary weak form.  A coupled
    vector lives on the bulk nodes, its boundary part added at the trace."""

    domain: Domain
    A_bulk: sp.csr_matrix          # bulk stiffness, symmetric PSD
    M_bulk: np.ndarray             # lumped bulk mass (diagonal)
    A_bnd: sp.csr_matrix           # boundary stiffness along the perimeter
    M_bnd: np.ndarray              # lumped boundary mass (diagonal)
    diag_pos: np.ndarray           # data positions of A_bulk's diagonal
    bnd_pos: np.ndarray            # data positions in A_bulk of A_bnd's entries,
                                   # at the trace nodes
    H: np.ndarray                  # coupled lumped mass: M_bulk, M_bnd added at the trace
    interior: np.ndarray           # mask of the bulk nodes that are not trace nodes

    @property
    def bidx(self) -> np.ndarray:
        return self.domain.boundary_idx

    @property
    def n_bulk(self) -> int:
        return self.domain.n_nodes

    @property
    def n_bnd(self) -> int:
        return self.domain.n_boundary

    def add_at_trace(self, bulk: np.ndarray, bnd: np.ndarray) -> np.ndarray:
        """Add ``bnd`` at the trace nodes of ``bulk``, in place; return ``bulk``."""
        bulk[self.bidx] += bnd
        return bulk

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


def build_domain(kind: str, sizes: list[float], resolution: list[int]) -> Domain:
    """Create an interval or rectangle mesh with ordered boundary nodes."""
    if not isinstance(kind, str):
        raise ValueError(f"domain kind must be a string, got {kind!r}")
    if not all(0.0 < s < math.inf for s in sizes):
        raise ValueError(f"sizes must be positive and finite, got {sizes}")
    kind = kind.lower()
    if kind == "interval":
        (lx,) = sizes
        (nx,) = resolution
        if nx < 2:
            raise ValueError("interval needs nx >= 2")
        _check_node_count(nx + 1)
        coords = np.linspace(0.0, lx, nx + 1).reshape(-1, 1)
        boundary = np.array([0, nx], dtype=int)
        return Domain("interval", (lx,), (nx,), coords, boundary)
    if kind == "rectangle":
        lx, ly = sizes
        nx, ny = resolution
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
    w = nx + 1  # node = iy*w + ix
    return np.concatenate([
        np.arange(nx + 1),                       # bottom, left to right
        np.arange(1, ny + 1) * w + nx,           # right, upwards
        ny * w + np.arange(nx - 1, -1, -1),      # top, right to left
        np.arange(ny - 1, 0, -1) * w,            # left, downwards
    ])


def _bands_1d(n_cells: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows ``(T[i,i-1], T[i,i], T[i,i+1])`` of the 1d stiffness and of
    the consistent 1d mass, each of shape (n_cells + 1, 3), and the mask of
    the slots inside the matrix, each repeated from the rows of the first,
    an interior and the last node.

    The two slots outside it hold 1.0, which no product or sum turns into
    a floating-point flag: under ``np.errstate`` an operator built from
    these rows raises for the arithmetic of its entries only.
    """
    rows = [1, n_cells - 1, 1]
    stiff = np.array([[1.0, 1.0 / h, -1.0 / h],
                      [-1.0 / h, 2.0 / h, -1.0 / h],
                      [-1.0 / h, 1.0 / h, 1.0]]).repeat(rows, axis=0)
    mass = np.array([[1.0, h / 3.0, h / 6.0],
                     [h / 6.0, 2.0 * h / 3.0, h / 6.0],
                     [h / 6.0, h / 3.0, 1.0]]).repeat(rows, axis=0)
    inside = np.array([[False, True, True], [True, True, True], [True, True, False]]).repeat(rows, axis=0)
    return stiff, mass, inside


def _stencil_csr(vals: np.ndarray, inside: np.ndarray, offsets: np.ndarray, row_len: np.ndarray):
    """The CSR matrix whose row i holds ``vals[i, k]`` at column
    ``i + offsets[k]`` for each slot k inside it, ``row_len[i]`` of them.
    The offsets ascend, so the columns of each row are sorted; exact
    zeros among the values stay."""
    n = row_len.size
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(row_len, out=indptr[1:])
    keep = inside.ravel()
    cols = (np.arange(n, dtype=np.int32)[:, None] + offsets.astype(np.int32)).ravel()
    return sp.csr_matrix((vals.ravel()[keep], cols[keep], indptr), shape=(n, n))


def _slots_before(inside: np.ndarray) -> np.ndarray:
    """The number of slots inside the matrix before each slot of its row."""
    return np.cumsum(inside, axis=1) - inside


def _mass_1d_lumped(n_cells: int, h: float) -> np.ndarray:
    m = np.full(n_cells + 1, h)
    m[0] = m[-1] = h / 2.0
    return m


def assemble(domain: Domain) -> DiscreteSystem:
    """Assemble stiffness and lumped mass operators for a domain.

    Each stiffness is written straight into its CSR arrays.  The interval
    stiffness is tridiagonal.  The rectangle stiffness is the exact
    bilinear-element operator ``kron(My, Ax) + kron(Ay, Mx)`` of 1d
    stiffness and consistent 1d mass: their band rows are broadcast over
    the 9-point stencil, with the products and their sum in that order.
    Its pattern is the stencil's, so an entry that sums to an exact zero
    is stored, and every coupled matrix keeps it.  The boundary
    stiffness of the rectangle is the periodic piecewise linear stiffness
    along the perimeter polyline, with the columns of each row sorted; the
    interval boundary carries no stiffness and unit point weights.  The
    data positions in ``A_bulk`` of its diagonal and of the boundary
    stiffness scattered to the trace nodes are found here, once per mesh,
    for ``coupled_matrix`` and every write to a coupled diagonal, and so
    are the coupled lumped mass ``H`` and the interior mask.
    """
    if domain.kind == "interval":
        (lx,) = domain.sizes
        (nx,) = domain.resolution
        h = lx / nx
        stiff, _, inside = _bands_1d(nx, h)
        A_bulk = _stencil_csr(stiff, inside, np.arange(-1, 2), inside.sum(axis=1))
        diag_pos = A_bulk.indptr[:-1] + _slots_before(inside)[:, 1]
        M_bulk = _mass_1d_lumped(nx, h)
        A_bnd = sp.csr_matrix((2, 2))
        bnd_pos = np.zeros(0, dtype=int)
        M_bnd = np.ones(2)
    else:
        lx, ly = domain.sizes
        nx, ny = domain.resolution
        hx, hy = lx / nx, ly / ny
        Ax, Mx, in_x = _bands_1d(nx, hx)
        Ay, My, in_y = _bands_1d(ny, hy)
        # slot 3*dy + dx of node (iy, ix) holds My[iy, dy]*Ax[ix, dx] +
        # Ay[iy, dy]*Mx[ix, dx]: the y factors repeat over dx and the x
        # factors over dy, which keeps the broadcast's inner loop 9 long
        def y9(a):
            return a.take(np.arange(9) // 3, axis=1)[:, None]

        def x9(a):
            return a.take(np.arange(9) % 3, axis=1)

        vals = y9(My) * x9(Ax)
        vals += y9(Ay) * x9(Mx)
        n, w = domain.n_nodes, nx + 1
        offsets = (w * np.arange(-1, 2)[:, None] + np.arange(-1, 2)).ravel()
        len_y, len_x = in_y.sum(axis=1), in_x.sum(axis=1)
        A_bulk = _stencil_csr(
            vals.reshape(n, 9), y9(in_y) & x9(in_x), offsets, np.outer(len_y, len_x).ravel()
        )
        # the data position of slot (dy, dx) of node (iy, ix) is the row's
        # start, plus the whole stencil rows above dy, plus the slots left
        # of dx; the diagonal is slot (1, 1) of every node
        before_y, before_x = _slots_before(in_y), _slots_before(in_x)
        diag_pos = A_bulk.indptr[:-1] + (before_y[:, 1, None] * len_x + before_x[:, 1]).ravel()
        M_bulk = np.outer(_mass_1d_lumped(ny, hy), _mass_1d_lumped(nx, hx)).ravel()

        loop = domain.boundary_idx
        nb = loop.size
        # arc lengths of the edges along the closed loop: the edge into
        # node 0, then the edge leaving each node
        pts = domain.coords[np.concatenate([loop[-1:], loop, loop[:1]])]
        edge_len = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
        weight = 1.0 / edge_len
        w_in, w_out = weight[:-1], weight[1:]
        # row i holds columns i-1, i, i+1 along the loop; the rows of its
        # two ends wrap around, and their columns are rotated into order
        vals = np.stack([-w_in, w_out + w_in, -w_out], axis=1)
        cols = (np.arange(nb, dtype=np.int32)[:, None] + np.arange(-1, 2, dtype=np.int32)) % nb
        for row, order in ((0, [1, 2, 0]), (-1, [2, 0, 1])):
            vals[row], cols[row] = vals[row, order], cols[row, order]
        indptr = np.arange(0, 3 * nb + 1, 3, dtype=np.int32)
        A_bnd = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(nb, nb))
        M_bnd = 0.5 * (edge_len[1:] + edge_len[:-1])

        # entry (i, j) of A_bnd lies at the bulk entry (loop[i], loop[j])
        r, c = np.repeat(loop, 3), loop[A_bnd.indices]
        (ry, rx), (cy, cx) = np.divmod(r, w), np.divmod(c, w)
        dy, dx = cy - ry + 1, cx - rx + 1
        if not np.all((0 <= dy) & (dy <= 2) & (0 <= dx) & (dx <= 2)):
            raise ValueError("a boundary entry lies outside the bulk stiffness pattern")
        bnd_pos = A_bulk.indptr[r] + before_y[ry, dy] * len_x[rx] + before_x[rx, dx]
    bidx = domain.boundary_idx
    H = M_bulk.copy()
    H[bidx] += M_bnd
    interior = np.ones(domain.n_nodes, dtype=bool)
    interior[bidx] = False
    # coupled_matrix builds every K0 from these arrays and shares the index
    # arrays with it, and every run reads H and the mask, so none may change
    for arr in (A_bulk.data, A_bulk.indices, A_bulk.indptr, diag_pos, bnd_pos, H, interior):
        arr.flags.writeable = False
    return DiscreteSystem(domain, A_bulk, M_bulk, A_bnd, M_bnd, diag_pos, bnd_pos, H, interior)


# SuperLU arguments for a symmetric positive definite matrix: order the
# columns on the pattern of A + A^T and take the diagonal pivots, which
# need no row exchanges.  Pass as splu(mat, **SPD_SPLU).
SPD_SPLU = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


def coupled_matrix(
    sys: DiscreteSystem, diag: np.ndarray, c_bulk: float = 1.0, c_bnd: float = 1.0
) -> sp.csc_matrix:
    """Coupled operator on the bulk nodes: ``c_bulk*A_bulk``, plus
    ``c_bnd*A_bnd`` scattered to the trace rows and columns, plus
    ``diag(diag)``, summed in that order.  ``diag`` is the caller's coupled
    diagonal, its boundary part already added at the trace nodes.

    ``A_bulk`` is symmetric bit for bit and its CSR is canonical, so the
    matrix is a CSC on its pattern that shares its ``indices`` and
    ``indptr``.  That pattern holds every diagonal entry and perimeter
    edge, at the positions ``sys.diag_pos`` and ``sys.bnd_pos`` that
    ``assemble`` found, so the matrix is three vector operations on a copy
    of ``A_bulk.data``, and a diagonal update is a write to
    ``data[sys.diag_pos]``.  Exact zeros of the sum stay stored, as
    ``A_bulk`` keeps its own.
    """
    n, A = sys.n_bulk, sys.A_bulk
    data = c_bulk * A.data
    data[sys.bnd_pos] += c_bnd * sys.A_bnd.data
    data[sys.diag_pos] += diag
    return sp.csc_matrix((data, A.indices, A.indptr), shape=(n, n))


def inner_H(sys: DiscreteSystem, a: CoupledField, b: CoupledField) -> float:
    """Weighted inner product: bulk mass pairing plus boundary mass pairing."""
    if a.bulk.shape != (sys.n_bulk,) or b.bulk.shape != (sys.n_bulk,):
        raise ValueError("bulk field size does not match the system")
    if a.bnd.shape != (sys.n_bnd,) or b.bnd.shape != (sys.n_bnd,):
        raise ValueError("boundary field size does not match the system")
    return float(
        np.dot(a.bulk * sys.M_bulk, b.bulk) + np.dot(a.bnd * sys.M_bnd, b.bnd)
    )
