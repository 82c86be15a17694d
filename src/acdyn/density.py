"""Elliptic Robin approximation of arbitrary bulk/boundary pairs.

Any pair of square-integrable bulk and boundary data, not necessarily
trace compatible, is approximated by the solution of a screened elliptic
problem with a Robin boundary condition whose penalty grows with n.
The approximants are trace consistent by construction and converge to
the data pair strongly as n grows; the study tabulates both errors over
an increasing list of n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .mesh import SPD_SPLU, CoupledField, DiscreteSystem, coupled_matrix

__all__ = ["DensityRun", "robin_approx", "density_study"]


def _check_n(n_list: list) -> None:
    """Raise ValueError unless every penalty level n in the list is >= 1."""
    if not all(n >= 1 for n in n_list):
        raise ValueError(f"n values must be positive, got {n_list!r}")


@dataclass
class DensityRun:
    """Error and norm tables of the Robin approximation study."""

    n_list: list[int]
    err_bulk: list[float]
    err_bnd: list[float]
    norm_sq: list[float]        # |v_n|^2 + |(v_n)_bnd|^2, paired with input_norm_sq
    energy_lhs: list[float]     # 0.5|v|^2 + (1/n)|grad v|^2 + 0.5|v_bnd|^2
    energy_rhs: float           # 0.5|u|^2 + 0.5|u_bnd|^2
    input_norm_sq: float


def robin_approx(sys: DiscreteSystem, u: CoupledField, n: int) -> CoupledField:
    """Solve the screened Robin problem at penalty level n.

    The system matrix is symmetric positive definite: lumped bulk mass
    plus the scaled stiffness plus the boundary mass on trace rows.  The
    right side pairs the bulk datum with the bulk mass and the boundary
    datum with the boundary mass.
    """
    _check_n([n])
    rhs = sys.add_at_trace(sys.M_bulk * u.bulk, sys.M_bnd * u.bnd)
    mat = coupled_matrix(sys, sys.H, c_bulk=1.0 / n, c_bnd=0.0)
    v = splu(mat, **SPD_SPLU).solve(rhs)
    return sys.field_from_bulk(v)


def density_study(sys: DiscreteSystem, u: CoupledField, n_list) -> DensityRun:
    """Tabulate approximation errors over a strictly increasing list of
    positive integers n; the list is checked before the first solve."""
    n_list = [int(n) for n in n_list]
    _check_n(n_list)
    if any(b <= a for a, b in zip(n_list[:-1], n_list[1:])):
        raise ValueError(f"n must be strictly increasing, got {n_list!r}")
    Mb, Mg = sys.M_bulk, sys.M_bnd
    rhs_energy = 0.5 * float(np.dot(Mb, u.bulk**2)) + 0.5 * float(np.dot(Mg, u.bnd**2))
    input_norm = float(np.dot(Mb, u.bulk**2)) + float(np.dot(Mg, u.bnd**2))
    err_bulk, err_bnd, norms, lhs = [], [], [], []
    for n in n_list:
        v = robin_approx(sys, u, n)
        err_bulk.append(float(np.sqrt(np.dot(Mb, (v.bulk - u.bulk) ** 2))))
        err_bnd.append(float(np.sqrt(np.dot(Mg, (v.bnd - u.bnd) ** 2))))
        norms.append(float(np.dot(Mb, v.bulk**2)) + float(np.dot(Mg, v.bnd**2)))
        lhs.append(
            0.5 * float(np.dot(Mb, v.bulk**2))
            + (1.0 / n) * float(v.bulk @ (sys.A_bulk @ v.bulk))
            + 0.5 * float(np.dot(Mg, v.bnd**2))
        )
    return DensityRun(
        n_list=n_list,
        err_bulk=err_bulk,
        err_bnd=err_bnd,
        norm_sq=norms,
        energy_lhs=lhs,
        energy_rhs=rhs_energy,
        input_norm_sq=input_norm,
    )
