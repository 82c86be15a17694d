"""Scalar maximal monotone graphs and their resolvent-based smoothing.

A graph here is a monotone, possibly multivalued relation on the reals,
given as the subdifferential of a nonnegative convex primitive that
vanishes at the origin.  Three concrete kinds are provided:

* :class:`PowerOdd` with ``beta(r) = a*r**p`` for odd ``p`` (``p = 1`` is
  the linear graph, the cubic ``p = 3`` resolvent is in closed form,
  higher powers use safeguarded Newton),
* :class:`Obstacle`, the subdifferential of the indicator of an interval
  ``[lo, hi]`` containing zero (vertical segments at the endpoints),
* :class:`PiecewiseLinear`, a monotone polyline in the plane that may
  contain vertical segments.

Each graph has one array kernel per job: the resolvent
``J = (I + eps_eff*beta)^{-1}``, which is single valued even when the
graph is not, the primitive, the slope of the smoothed map at a point
whose resolvent is known, and the set of values at a point.  The module
functions derive the smoothed map, its slope and the smoothed envelope
from these.  They take ``eps_eff`` itself: the stepper passes ``eps``
for the bulk graph and ``eps*rho`` for the boundary graph.  Array input
gives arrays back and scalar input 0-d values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GraphDomainError",
    "ResolventError",
    "MonotoneGraph",
    "PowerOdd",
    "Obstacle",
    "PiecewiseLinear",
    "GraphPair",
    "resolvent",
    "yosida",
    "yosida_and_slope",
    "moreau",
    "minimal_section",
    "graph_from_config",
]


class GraphDomainError(ValueError):
    """Raised when a point lies outside the domain of a graph."""


class ResolventError(RuntimeError):
    """Raised when the scalar resolvent solve fails to converge."""


class MonotoneGraph:
    """Base interface for scalar maximal monotone graphs.

    The domain is the whole line except for :class:`Obstacle`.
    """

    def resolvent_eff(self, r, eps_eff):
        """J(r) = (I + eps_eff*beta)^{-1}(r)."""
        raise NotImplementedError

    def primitive(self, r):
        """The convex primitive, zero at the origin and inf off the domain."""
        raise NotImplementedError

    def yosida_slope(self, r, eps_eff, j):
        """Generalized derivative of the smoothed map at ``r`` (left limit
        at kinks), where ``j`` is the resolvent at ``r``."""
        raise NotImplementedError

    def section_bounds(self, r: float) -> tuple[float, float]:
        """Interval of graph values at ``r``; raises outside the domain."""
        raise NotImplementedError


@dataclass(frozen=True)
class PowerOdd(MonotoneGraph):
    """beta(r) = a*r**p with finite a >= 0 and odd integer exponent p >= 1.

    ``p = 1`` is the linear graph, and ``a = 0`` the zero graph.  The
    resolvent is exact division for p = 1, a closed-form root for p = 3
    (:func:`_cubic_resolvent`) and safeguarded Newton for p >= 5
    (:func:`_power_resolvent`).
    """

    a: float
    p: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.a < math.inf:
            raise ValueError(f"coefficient must be finite and nonnegative, got {self.a!r}")
        if self.p < 1 or self.p % 2 == 0:
            raise ValueError("exponent must be an odd integer >= 1")

    def resolvent_eff(self, r, eps_eff):
        if self.a == 0.0 or self.p == 1:
            return np.divide(r, 1.0 + eps_eff * self.a)
        if self.p == 3:
            return _cubic_resolvent(r, eps_eff * self.a)
        return _power_resolvent(r, eps_eff * self.a, self.p)

    def primitive(self, r):
        return self.a * np.power(r, self.p + 1) / (self.p + 1)

    def yosida_slope(self, r, eps_eff, j):
        g = self.a * self.p * np.abs(j) ** (self.p - 1)
        return g / (1.0 + eps_eff * g)

    def section_bounds(self, r):
        v = self.a * r**self.p
        return (v, v)


def _cubic_resolvent(r: np.ndarray, c: float) -> np.ndarray:
    """Solve x + c*x**3 = r elementwise for c > 0, in closed form.

    Substituting x = (2/k)*sinh(t) with k = sqrt(3c) turns the equation
    into sinh(3t) = 1.5*k*r, so the one real root is
    (2/k)*sinh(arcsinh(1.5*k*r)/3).  Both functions are accurate near 0,
    so unlike Cardano's algebraic form there is no cancellation for
    small |r| and no overflow of the cubed coefficient for small c.  The
    sign is copied from r, which makes the map exactly odd.
    """
    k = math.sqrt(3.0 * c)
    x = (2.0 / k) * np.sinh(np.arcsinh((1.5 * k) * np.abs(r)) / 3.0)
    return np.copysign(x, r)


def _power_resolvent(r: np.ndarray, c: float, p: int) -> np.ndarray:
    """Solve x + c*x**p = r elementwise for odd p >= 3 and c > 0.

    By odd symmetry it suffices to solve for r >= 0, where the residual
    is increasing and convex.  The root lies below both r and
    (r/c)**(1/p), so Newton started at the smaller of the two decreases
    monotonically to it in a few steps, also for huge r.  With s the
    p-th root of c, c*x**p is evaluated as (s*x)**p, which stays below
    r for x at or below that start: nothing overflows, even where r/c
    exceeds the float range.  A bisection bracket [0, r] is kept as a
    safeguard.
    """
    sign = np.sign(r)
    b = np.abs(r).astype(float)
    s = c ** (1.0 / p)
    x = np.minimum(b, b ** (1.0 / p) / s)
    lo = np.zeros_like(b)
    hi = b.copy()
    tol = 1e-14 * np.maximum(1.0, b)
    for _ in range(200):
        f = x + (s * x) ** p - b
        if np.all(np.abs(f) <= tol):
            break
        hi = np.where(f > 0, np.minimum(hi, x), hi)
        lo = np.where(f < 0, np.maximum(lo, x), lo)
        step = f / (1.0 + p * s * (s * x) ** (p - 1))
        xn = x - step
        bad = (xn < lo) | (xn > hi) | ~np.isfinite(xn)
        x = np.where(bad, 0.5 * (lo + hi), xn)
    else:
        f = x + (s * x) ** p - b
        if not np.all(np.abs(f) <= 10 * tol):
            raise ResolventError("scalar resolvent solve did not converge")
    return sign * x


@dataclass(frozen=True)
class Obstacle(MonotoneGraph):
    """Subdifferential of the indicator of [lo, hi] with lo <= 0 <= hi.

    Infinite bounds are allowed.  The resolvent clamps to the interval, so
    the smoothed operations are defined on the whole line even though the
    graph itself is not.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= 0.0 <= self.hi:
            raise ValueError("obstacle interval must satisfy lo <= 0 <= hi")

    def resolvent_eff(self, r, eps_eff):
        return np.clip(r, self.lo, self.hi)

    def primitive(self, r):
        return np.where((r >= self.lo) & (r <= self.hi), 0.0, math.inf)

    def yosida_slope(self, r, eps_eff, j):
        return np.where((r <= self.lo) | (r > self.hi), 1.0 / eps_eff, 0.0)

    def section_bounds(self, r):
        if r < self.lo or r > self.hi:
            raise GraphDomainError(
                f"point {r} outside obstacle domain [{self.lo}, {self.hi}]"
            )
        lo_v = -math.inf if r == self.lo else 0.0
        hi_v = math.inf if r == self.hi else 0.0
        return (lo_v, hi_v)


@dataclass(frozen=True)
class PiecewiseLinear(MonotoneGraph):
    """Monotone polyline graph, possibly with vertical segments.

    ``vertices`` lists the polyline corners (x, y), finite and with both
    coordinates nondecreasing along the list; a repeated x with increasing
    y encodes a vertical segment.  Beyond the first and last vertex the
    graph continues with the finite slopes ``slope_left`` and
    ``slope_right``.  The curve must pass through a point (0, y) with
    y = 0 admissible, so that the primitive vanishes at the origin.

    The polyline is tabulated once.  With n vertices, segment k joins
    vertex k-1 to vertex k for 0 < k < n; segment 0 is the left extension
    and segment n the right one.  Each segment keeps its increments
    (dx, dy), with (1, slope) for the extensions, and an anchor: its left
    vertex, or vertex 0 for the left extension, with the primitive there.
    Each operation is a search in these tables.
    """

    vertices: tuple[tuple[float, float], ...]
    slope_left: float = 0.0
    slope_right: float = 0.0

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.vertices)
        if not pts:
            raise ValueError("at least one vertex is required")
        vx = np.array([x for x, _ in pts])
        vy = np.array([y for _, y in pts])
        if not (np.all(np.isfinite(vx)) and np.all(np.isfinite(vy))):
            raise ValueError("vertices must be finite")
        if not (0.0 <= self.slope_left < math.inf and 0.0 <= self.slope_right < math.inf):
            raise ValueError("extension slopes must be finite and nonnegative")
        dx, dy = np.diff(vx), np.diff(vy)
        if np.any(dx < 0) or np.any(dy < 0):
            raise ValueError("vertices must be nondecreasing in both coordinates")
        if np.any((dx == 0) & (dy == 0)):
            raise ValueError("repeated vertices are not allowed")
        # cumulative trapezoids: the primitive at each vertex, up to a constant
        area = np.concatenate([[0.0], np.cumsum(0.5 * (vy[1:] + vy[:-1]) * dx)])
        dx = np.concatenate([[1.0], dx, [1.0]])
        dy = np.concatenate([[self.slope_left], dy, [self.slope_right]])
        tables = {
            "vertices": pts, "_vx": vx, "_vy": vy, "_dx": dx, "_dy": dy,
            "_x0": np.concatenate([vx[:1], vx]),
            "_y0": np.concatenate([vy[:1], vy]),
            "_p0": np.concatenate([area[:1], area]),
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)
        lo, hi = self.section_bounds(0.0)
        if lo > 0.0 or hi < 0.0:
            raise ValueError("graph must contain the origin (0 in beta(0))")
        object.__setattr__(self, "_p0", self._p0 - self.primitive(0.0))

    def resolvent_eff(self, r, eps_eff):
        # x + eps_eff*beta(x) is the polyline through (vx + eps_eff*vy, vx)
        # read backwards, continued by the two extensions
        phi = self._vx + eps_eff * self._vy
        left = np.minimum(r - phi[0], 0.0) / (1.0 + eps_eff * self.slope_left)
        right = np.maximum(r - phi[-1], 0.0) / (1.0 + eps_eff * self.slope_right)
        return np.interp(r, phi, self._vx) + left + right

    def _on_segment(self, r):
        """The segment holding ``r`` (the right one at a vertex abscissa),
        the offset of ``r`` from its anchor and the graph value there.  A
        vertical segment holds no point, so its dx = 0 is never divided by."""
        k = np.searchsorted(self._vx, r, side="right")
        t = r - self._x0[k]
        return k, t, self._y0[k] + t / self._dx[k] * self._dy[k]

    def primitive(self, r):
        k, t, v = self._on_segment(r)
        return self._p0[k] + 0.5 * t * (self._y0[k] + v)

    def yosida_slope(self, r, eps_eff, j):
        # left-limit convention: a kink belongs to the segment ending there;
        # a vertical segment (dx = 0) gives 1/eps_eff
        k = np.searchsorted(self._vx + eps_eff * self._vy, r, side="left")
        return (self._dy / (self._dx + eps_eff * self._dy))[k]

    def section_bounds(self, r):
        i = np.searchsorted(self._vx, r, side="left")
        k, _, v = self._on_segment(r)
        if i < k:  # r is the abscissa of vertices i..k-1
            return (self._vy[i], self._vy[k - 1])
        return (v, v)


@dataclass(frozen=True)
class GraphPair:
    """Bulk and boundary graphs used together by the flow."""

    bulk: MonotoneGraph
    bnd: MonotoneGraph


def resolvent(g: MonotoneGraph, eps_eff: float, r):
    """Evaluate J(r) = (I + eps_eff*beta)^{-1}(r)."""
    return g.resolvent_eff(r, eps_eff)


def yosida(g: MonotoneGraph, eps_eff: float, r):
    """Evaluate the smoothed map (r - J(r)) / eps_eff."""
    return (r - g.resolvent_eff(r, eps_eff)) / eps_eff


def moreau(g: MonotoneGraph, eps_eff: float, r):
    """Evaluate the smoothed envelope of the primitive.

    Uses the closed identity: half the squared residual of the resolvent
    scaled by 1/eps_eff, plus the primitive at the resolvent point.
    """
    j = g.resolvent_eff(r, eps_eff)
    return 0.5 * (r - j) ** 2 / eps_eff + g.primitive(j)


def yosida_and_slope(g: MonotoneGraph, eps_eff: float, r):
    """The smoothed map and its generalized derivative at r, as a pair.

    One resolvent serves both; the value is that of :func:`yosida`.
    """
    j = g.resolvent_eff(r, eps_eff)
    return (r - j) / eps_eff, g.yosida_slope(r, eps_eff, j)


def minimal_section(g: MonotoneGraph, r: float) -> float:
    """Element of beta(r) with least absolute value.

    Raises :class:`GraphDomainError` outside the graph domain (only
    possible for :class:`Obstacle`).
    """
    lo, hi = g.section_bounds(float(r))
    if lo <= 0.0 <= hi:
        return 0.0
    return lo if lo > 0.0 else hi


_GRAPH_KINDS = {"zero", "linear", "power_odd", "obstacle", "piecewise_linear"}


def graph_from_config(cfg: dict) -> MonotoneGraph:
    """Build a graph from a scenario config block.

    The ``zero`` and ``linear`` kinds are :class:`PowerOdd` graphs with
    ``p = 1``.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"a graph must be an object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind == "zero":
        return PowerOdd(a=0.0, p=1)
    if kind == "linear":
        return PowerOdd(a=float(cfg["slope"]), p=1)
    if kind == "power_odd":
        p = float(cfg["exponent"])
        if not p.is_integer():
            raise ValueError(f"exponent must be an integer, got {cfg['exponent']!r}")
        return PowerOdd(a=float(cfg["coefficient"]), p=int(p))
    if kind == "obstacle":
        return Obstacle(lo=float(cfg["lo"]), hi=float(cfg["hi"]))
    if kind == "piecewise_linear":
        return PiecewiseLinear(
            vertices=tuple((float(x), float(y)) for x, y in cfg["vertices"]),
            slope_left=float(cfg.get("slope_left", 0.0)),
            slope_right=float(cfg.get("slope_right", 0.0)),
        )
    raise ValueError(f"unknown graph kind {kind!r}; expected one of {sorted(_GRAPH_KINDS)}")
