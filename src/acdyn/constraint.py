"""Weighted mass functional and the scalar two-barrier constraint.

The constraint restricts the weighted mass of a coupled field to the
band [k_lo, k_hi].  Infinite barriers are accepted and recover the
unconstrained problem.  The multiplier conventions follow the normal
cone of the band: zero strictly inside, nonnegative at the upper
barrier, nonpositive at the lower one, unrestricted when the band is a
single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import CoupledField, DiscreteSystem, inner_H

__all__ = [
    "ConstraintSpec",
    "constraint_errors",
    "make_constraint",
    "mass",
    "mass_tolerance",
    "multiplier_sign_ok",
]


@dataclass(frozen=True)
class ConstraintSpec:
    """Weights and barriers of the mass band."""

    w: CoupledField
    k_lo: float
    k_hi: float

    @property
    def is_equality(self) -> bool:
        return self.k_lo == self.k_hi


def _total_weight(sys: DiscreteSystem, w: CoupledField) -> float:
    return inner_H(sys, w, sys.field(np.ones(sys.n_bulk), np.ones(sys.n_bnd)))


def constraint_errors(
    sys: DiscreteSystem, w: CoupledField, k_lo: float, k_hi: float
) -> list[str]:
    """The rules the weights and barriers violate, labelled: (finite) a
    weight that is not finite, (p2) a negative weight or a total weight
    that is not positive, (constraint) k_lo above k_hi."""
    bad = [name for name, v in (("w", w.bulk), ("w_gamma", w.bnd)) if not np.all(np.isfinite(v))]
    if bad:
        errors = [f"(finite) non-finite node values in {', '.join(bad)}"]
    elif np.any(w.bulk < 0.0) or np.any(w.bnd < 0.0):
        errors = ["(p2) weights must be nonnegative"]
    elif (sigma0 := _total_weight(sys, w)) <= 0.0:
        errors = [f"(p2) total weight {sigma0} is not positive (degenerate weights)"]
    else:
        errors = []
    if not k_lo <= k_hi:
        errors.append(f"(constraint) k_lo={k_lo} exceeds k_hi={k_hi}")
    return errors


def make_constraint(
    sys: DiscreteSystem, w: CoupledField, k_lo: float, k_hi: float
) -> ConstraintSpec:
    """The constraint; ValueError with the violations of :func:`constraint_errors`."""
    if errors := constraint_errors(sys, w, k_lo, k_hi):
        raise ValueError("; ".join(errors))
    return ConstraintSpec(w=w, k_lo=float(k_lo), k_hi=float(k_hi))


def mass(sys: DiscreteSystem, c: ConstraintSpec, u: CoupledField) -> float:
    """Weighted mass of a field: the pairing of the weights with u."""
    return inner_H(sys, c.w, u)


def mass_tolerance(c: ConstraintSpec) -> float:
    """Absolute band used to decide constraint activity in floating point."""
    scale = 1.0
    for k in (c.k_lo, c.k_hi):
        if math.isfinite(k):
            scale = max(scale, abs(k))
    return 1e-10 * scale


def multiplier_sign_ok(c: ConstraintSpec, k: float, lam: float) -> bool:
    """Check the normal-cone sign condition for the multiplier at mass k, within mass_tolerance."""
    tol = mass_tolerance(c)
    if k < c.k_lo - tol or k > c.k_hi + tol:
        raise ValueError(f"mass {k} violates the constraint band [{c.k_lo}, {c.k_hi}]")
    if c.is_equality:
        return True
    at_hi = math.isfinite(c.k_hi) and k >= c.k_hi - tol
    at_lo = math.isfinite(c.k_lo) and k <= c.k_lo + tol
    if at_hi and at_lo:
        return True
    if at_hi:
        return lam >= -tol
    if at_lo:
        return lam <= tol
    return abs(lam) <= tol
