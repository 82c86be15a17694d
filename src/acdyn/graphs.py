"""Scalar maximal monotone graphs and their resolvent-based smoothing.

A graph here is a monotone, possibly multivalued relation on the reals,
given as the subdifferential of a nonnegative convex primitive that
vanishes at the origin.  Four concrete kinds are provided:

* :class:`Linear` with ``beta(r) = a*r``,
* :class:`PowerOdd` with ``beta(r) = a*r**p`` for odd ``p`` (the cubic
  ``p = 3`` resolvent in closed form, higher powers by safeguarded Newton),
* :class:`Obstacle`, the subdifferential of the indicator of an interval
  ``[lo, hi]`` containing zero (vertical segments at the endpoints),
* :class:`PiecewiseLinear`, a monotone polyline in the plane that may
  contain vertical segments.

All smoothing operations are expressed through the resolvent
``J = (I + eps_eff*beta)^{-1}``, which is single valued even when the
graph is not.  The functions below take ``eps_eff`` itself: the
stepper passes ``eps`` for the bulk graph and ``eps*rho`` for the
boundary graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphDomainError",
    "ResolventError",
    "MonotoneGraph",
    "Linear",
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


def _as_array(r) -> tuple[np.ndarray, bool]:
    arr = np.asarray(r, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


class MonotoneGraph:
    """Base interface for scalar maximal monotone graphs.

    Subclasses provide the resolvent, the convex primitive, the set of
    values at a point, and the generalized slope of the smoothed map.
    The domain is the whole line except for :class:`Obstacle`.
    """

    def resolvent_eff(self, r: np.ndarray, eps_eff: float) -> np.ndarray:
        raise NotImplementedError

    def primitive(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def section_bounds(self, r: float) -> tuple[float, float]:
        """Interval of graph values at ``r``; raises outside the domain."""
        raise NotImplementedError

    def yosida_slope(
        self, r: np.ndarray, eps_eff: float, j: np.ndarray | None = None
    ) -> np.ndarray:
        """Generalized derivative of the smoothed map (left limit at kinks).

        ``j``, when given, is the resolvent at ``r``; graphs whose slope
        is a function of the resolvent use it instead of solving again.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Linear(MonotoneGraph):
    """beta(r) = a*r with slope a >= 0."""

    a: float

    def __post_init__(self) -> None:
        if self.a < 0.0:
            raise ValueError("slope must be nonnegative")

    def resolvent_eff(self, r, eps_eff):
        arr, scalar = _as_array(r)
        return _ret(arr / (1.0 + eps_eff * self.a), scalar)

    def primitive(self, r):
        arr, scalar = _as_array(r)
        return _ret(0.5 * self.a * arr * arr, scalar)

    def section_bounds(self, r):
        v = self.a * r
        return (v, v)

    def yosida_slope(self, r, eps_eff, j=None):
        arr, scalar = _as_array(r)
        s = self.a / (1.0 + eps_eff * self.a)
        return _ret(np.full_like(arr, s), scalar)


@dataclass(frozen=True)
class PowerOdd(MonotoneGraph):
    """beta(r) = a*r**p with a >= 0 and odd integer exponent p >= 1.

    The resolvent is exact division for p = 1, a closed-form root for
    p = 3 (:func:`_cubic_resolvent`) and safeguarded Newton for p >= 5
    (:func:`_power_resolvent`).
    """

    a: float
    p: int

    def __post_init__(self) -> None:
        if self.a < 0.0:
            raise ValueError("coefficient must be nonnegative")
        if self.p < 1 or self.p % 2 == 0:
            raise ValueError("exponent must be an odd integer >= 1")

    def resolvent_eff(self, r, eps_eff):
        arr, scalar = _as_array(r)
        if self.a == 0.0 or self.p == 1:
            return _ret(arr / (1.0 + eps_eff * self.a), scalar)
        if self.p == 3:
            return _ret(_cubic_resolvent(arr, eps_eff * self.a), scalar)
        out = _power_resolvent(np.atleast_1d(arr), eps_eff * self.a, self.p)
        return _ret(out.reshape(arr.shape), scalar)

    def primitive(self, r):
        arr, scalar = _as_array(r)
        return _ret(self.a * arr ** (self.p + 1) / (self.p + 1), scalar)

    def section_bounds(self, r):
        v = self.a * r**self.p
        return (v, v)

    def yosida_slope(self, r, eps_eff, j=None):
        arr, scalar = _as_array(r)
        j = np.asarray(self.resolvent_eff(arr, eps_eff) if j is None else j)
        g = self.a * self.p * np.abs(j) ** (self.p - 1)
        return _ret(g / (1.0 + eps_eff * g), scalar)


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

    The resolvent clamps to the interval, so the smoothed operations are
    defined on the whole line even though the graph itself is not.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= 0.0 <= self.hi) or self.lo > self.hi:
            raise ValueError("obstacle interval must satisfy lo <= 0 <= hi")

    def resolvent_eff(self, r, eps_eff):
        arr, scalar = _as_array(r)
        return _ret(np.clip(arr, self.lo, self.hi), scalar)

    def primitive(self, r):
        arr, scalar = _as_array(r)
        out = np.where((arr >= self.lo) & (arr <= self.hi), 0.0, math.inf)
        return _ret(out, scalar)

    def section_bounds(self, r):
        if r < self.lo or r > self.hi:
            raise GraphDomainError(
                f"point {r} outside obstacle domain [{self.lo}, {self.hi}]"
            )
        lo_v = -math.inf if r == self.lo else 0.0
        hi_v = math.inf if r == self.hi else 0.0
        return (lo_v, hi_v)

    def yosida_slope(self, r, eps_eff, j=None):
        arr, scalar = _as_array(r)
        out = np.where((arr <= self.lo) | (arr > self.hi), 1.0 / eps_eff, 0.0)
        return _ret(out, scalar)


@dataclass(frozen=True)
class PiecewiseLinear(MonotoneGraph):
    """Monotone polyline graph, possibly with vertical segments.

    ``vertices`` lists the polyline corners (x, y) with both coordinates
    nondecreasing along the list; a repeated x with increasing y encodes
    a vertical segment.  Beyond the first and last vertex the graph
    continues with slopes ``slope_left`` and ``slope_right``.  The curve
    must pass through a point (0, y) with y = 0 admissible, so that the
    primitive vanishes at the origin.
    """

    vertices: tuple[tuple[float, float], ...]
    slope_left: float = 0.0
    slope_right: float = 0.0

    # derived arrays, filled in __post_init__
    _vx: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _vy: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _xs: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _prim_at_knot: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _y_right: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _slope_seg: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.vertices)
        if not pts:
            raise ValueError("at least one vertex is required")
        vx = np.array([p[0] for p in pts])
        vy = np.array([p[1] for p in pts])
        if np.any(np.diff(vx) < 0) or np.any(np.diff(vy) < 0):
            raise ValueError("vertices must be nondecreasing in both coordinates")
        if np.any((np.diff(vx) == 0) & (np.diff(vy) == 0)):
            raise ValueError("repeated vertices are not allowed")
        if self.slope_left < 0 or self.slope_right < 0:
            raise ValueError("extension slopes must be nonnegative")
        object.__setattr__(self, "vertices", pts)
        object.__setattr__(self, "_vx", vx)
        object.__setattr__(self, "_vy", vy)
        lo, hi = self._value_interval(0.0)
        if lo > 0.0 or hi < 0.0:
            raise ValueError("graph must contain the origin (0 in beta(0))")
        self._build_primitive_table()

    def _build_primitive_table(self) -> None:
        # per distinct abscissa: value just right of it, slope to the next
        # one, and the primitive accumulated from the origin
        xs = np.unique(self._vx)
        m = xs.size
        y_right = np.empty(m)
        slope_seg = np.empty(m)
        for k, x in enumerate(xs):
            y_right[k] = self._value_interval(float(x))[1]
            if k + 1 < m:
                mid = 0.5 * (x + xs[k + 1])
                y_mid = self._value_interval(float(mid))[0]
                slope_seg[k] = 2.0 * (y_mid - y_right[k]) / (xs[k + 1] - x)
            else:
                slope_seg[k] = self.slope_right
        prim = np.zeros(m)
        for k in range(m - 1):
            t = xs[k + 1] - xs[k]
            prim[k + 1] = prim[k] + y_right[k] * t + 0.5 * slope_seg[k] * t * t
        # shift so the primitive vanishes at the origin
        prim -= self._segment_integral(xs, prim, y_right, slope_seg, np.array([0.0]))[0]
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_prim_at_knot", prim)
        object.__setattr__(self, "_y_right", y_right)
        object.__setattr__(self, "_slope_seg", slope_seg)

    def _segment_integral(self, xs, prim, y_right, slope_seg, r: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(xs, r, side="right") - 1
        out = np.empty_like(r)
        left = idx < 0
        if np.any(left):
            t = r[left] - xs[0]
            y_left0 = self._value_interval(float(xs[0]))[0]
            out[left] = prim[0] + y_left0 * t + 0.5 * self.slope_left * t * t
        inside = ~left
        if np.any(inside):
            k = idx[inside]
            t = r[inside] - xs[k]
            out[inside] = prim[k] + y_right[k] * t + 0.5 * slope_seg[k] * t * t
        return out

    # single-valued branch used a.e. (vertical segments have measure zero)
    def _value_interval(self, r: float) -> tuple[float, float]:
        vx, vy = self._vx, self._vy
        if r < vx[0]:
            v = vy[0] + self.slope_left * (r - vx[0])
            return (v, v)
        if r > vx[-1]:
            v = vy[-1] + self.slope_right * (r - vx[-1])
            return (v, v)
        mask = vx == r
        if np.any(mask):
            return (float(vy[mask].min()), float(vy[mask].max()))
        k = int(np.searchsorted(vx, r) - 1)
        t = (r - vx[k]) / (vx[k + 1] - vx[k])
        v = float(vy[k] + t * (vy[k + 1] - vy[k]))
        return (v, v)

    def resolvent_eff(self, r, eps_eff):
        arr, scalar = _as_array(r)
        e = eps_eff
        vx, vy = self._vx, self._vy
        phi = vx + e * vy
        flat = np.atleast_1d(arr).astype(float)
        out = np.empty_like(flat)
        left = flat < phi[0]
        right = flat > phi[-1]
        mid = ~(left | right)
        out[left] = (flat[left] - e * (vy[0] - self.slope_left * vx[0])) / (
            1.0 + e * self.slope_left
        )
        out[right] = (flat[right] - e * (vy[-1] - self.slope_right * vx[-1])) / (
            1.0 + e * self.slope_right
        )
        if np.any(mid):
            k = np.clip(np.searchsorted(phi, flat[mid], side="right") - 1, 0, len(phi) - 2)
            denom = phi[k + 1] - phi[k]
            t = np.where(denom > 0, (flat[mid] - phi[k]) / np.where(denom > 0, denom, 1.0), 0.0)
            out[mid] = vx[k] + t * (vx[k + 1] - vx[k])
        return _ret(out.reshape(arr.shape), scalar)

    def primitive(self, r):
        arr, scalar = _as_array(r)
        flat = np.atleast_1d(arr).astype(float).ravel()
        out = self._segment_integral(
            self._xs, self._prim_at_knot, self._y_right, self._slope_seg, flat
        )
        return _ret(out.reshape(arr.shape), scalar)

    def section_bounds(self, r):
        return self._value_interval(float(r))

    def yosida_slope(self, r, eps_eff, j=None):
        arr, scalar = _as_array(r)
        e = eps_eff
        vx, vy = self._vx, self._vy
        phi = vx + e * vy
        flat = np.atleast_1d(arr).astype(float)
        out = np.empty_like(flat)
        left = flat <= phi[0]
        right = flat > phi[-1]
        mid = ~(left | right)
        out[left] = self.slope_left / (1.0 + e * self.slope_left)
        out[right] = self.slope_right / (1.0 + e * self.slope_right)
        if np.any(mid):
            # left-limit convention: pick the segment ending at phi[k+1] >= r
            k = np.clip(np.searchsorted(phi, flat[mid], side="left") - 1, 0, len(phi) - 2)
            dx = vx[k + 1] - vx[k]
            dy = vy[k + 1] - vy[k]
            vertical = dx == 0.0
            safe_dx = np.where(vertical, 1.0, dx)
            s = dy / safe_dx
            out[mid] = np.where(vertical, 1.0 / e, s / (1.0 + e * s))
        return _ret(out.reshape(arr.shape), scalar)


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
    arr, scalar = _as_array(r)
    j = np.asarray(g.resolvent_eff(arr, eps_eff))
    return _ret((arr - j) / eps_eff, scalar)


def moreau(g: MonotoneGraph, eps_eff: float, r):
    """Evaluate the smoothed envelope of the primitive.

    Uses the closed identity: half the squared residual of the resolvent
    scaled by 1/eps_eff, plus the primitive at the resolvent point.
    """
    arr, scalar = _as_array(r)
    j = np.asarray(g.resolvent_eff(arr, eps_eff))
    val = 0.5 * (arr - j) ** 2 / eps_eff + np.asarray(g.primitive(j))
    return _ret(val, scalar)


def yosida_slope(g: MonotoneGraph, eps_eff: float, r):
    """Generalized derivative of the smoothed map at r."""
    return g.yosida_slope(r, eps_eff)


def yosida_and_slope(g: MonotoneGraph, eps_eff: float, r):
    """The smoothed map and its generalized derivative at r, as a pair.

    One resolvent serves both; the results are those of :func:`yosida`
    and :func:`yosida_slope`.
    """
    arr, scalar = _as_array(r)
    j = np.asarray(g.resolvent_eff(arr, eps_eff))
    return _ret((arr - j) / eps_eff, scalar), g.yosida_slope(arr, eps_eff, j)


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
    """Build a graph from a scenario config block."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a graph must be an object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind == "zero":
        return Linear(a=0.0)
    if kind == "linear":
        return Linear(a=float(cfg["slope"]))
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
