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
graph is not, the primitive, and the slope of the smoothed map at a
point whose resolvent is known.  The module functions derive the
smoothed map, its slope and the smoothed envelope from these, taking
``eps_eff`` itself (``eps`` for the bulk graph, ``eps*rho`` for the
boundary one).  Array input gives arrays back, scalar input 0-d values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResolventError",
    "MonotoneGraph",
    "PowerOdd",
    "Obstacle",
    "PiecewiseLinear",
    "GraphPair",
    "resolvent",
    "smoothed",
    "envelope",
    "graph_from_config",
]


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
            return _cubic_resolvent(r, eps_eff, self.a)
        return _power_resolvent(r, eps_eff, self.a, self.p)

    def primitive(self, r):
        """a*|r|**(p+1)/(p+1), and exact zeros for the zero graph.

        The even power is taken of |r|, not of r.  It is the same
        function, but numpy's power loop runs its vectorized path on
        nonnegative bases only and calls the scalar routine for each
        negative one, which costs about 30 times as much per element
        and can round 1 ULP away from the vectorized value; on |r| the
        primitive is exactly even.  The zero graph returns zeros, with
        no warning, also where the power overflows and 0*inf is nan.
        """
        if self.a == 0.0:
            return np.zeros(np.shape(r))
        return self.a * np.power(np.abs(r), self.p + 1) / (self.p + 1)

    def yosida_slope(self, r, eps_eff, j):
        # g = a*p*|j|**(p-1), capped at 2**53/eps_eff, past which the slope
        # g/(1 + eps_eff*g) is 1/eps_eff to rounding; a multiplies last, so
        # that neither g nor eps_eff*g overflows for any finite a
        cap = 2.0**53 / eps_eff / self.a if self.a > 0.0 else math.inf
        g = self.a * np.minimum(self.p * np.abs(j) ** (self.p - 1), cap)
        return g / (1.0 + eps_eff * g)


def _cubic_resolvent(r: np.ndarray, eps_eff: float, a: float) -> np.ndarray:
    """Solve x + c*x**3 = r elementwise for c = eps_eff*a > 0, in closed form.

    Substituting x = (2/k)*sinh(t) with k = sqrt(3c) turns the equation
    into sinh(3t) = 1.5*k*r, so the one real root is
    (2/k)*sinh(arcsinh(1.5*k*r)/3).  Both functions are accurate near 0,
    so unlike Cardano's algebraic form there is no cancellation for
    small |r| and no overflow of the cubed coefficient for small c.  The
    sign is copied from r, which makes the map exactly odd.  Where 3c
    overflows, k is the product of the square roots of 3, eps_eff and a.
    """
    k = math.sqrt(3.0 * (eps_eff * a))
    if k == math.inf:
        k = math.sqrt(3.0) * math.sqrt(eps_eff) * math.sqrt(a)
    mag = np.abs(r)
    if (1.5 * k) * float(mag.max(initial=0.0)) < math.inf:
        x = (2.0 / k) * np.sinh(np.arcsinh((1.5 * k) * mag) / 3.0)
    else:  # where z = 1.5*k*|r| overflows, arcsinh(z) is log(2z) to rounding
        with np.errstate(over="ignore"):
            z = (1.5 * k) * mag
        root = np.cbrt(3.0) * np.cbrt(k) * np.cbrt(mag) / k  # (2z)**(1/3)/k
        x = np.where(np.isinf(z), root, (2.0 / k) * np.sinh(np.arcsinh(z) / 3.0))
    return np.copysign(x, r)


def _power_resolvent(r: np.ndarray, eps_eff: float, a: float, p: int) -> np.ndarray:
    """Solve x + c*x**p = r elementwise for odd p >= 3 and c = eps_eff*a > 0.

    By odd symmetry it suffices to solve for r >= 0, where the residual
    is increasing and convex.  The root lies below both r and
    (r/c)**(1/p), so Newton started at the smaller of the two decreases
    monotonically to it in a few steps, also for huge r.  With s the
    p-th root of c, c*x**p is evaluated as (s*x)**p, which stays below
    r for x at or below that start: nothing overflows, even where r/c
    exceeds the float range.  Where c overflows, s is the product of the
    p-th roots of eps_eff and a.  A bisection bracket [0, r] is kept as a
    safeguard.
    """
    sign = np.sign(r)
    b = np.abs(r).astype(float)
    s = (eps_eff * a) ** (1.0 / p)
    if s == math.inf:
        s = eps_eff ** (1.0 / p) * a ** (1.0 / p)
    x = np.minimum(b, b ** (1.0 / p) / s)
    # the slope p*s*(s*x)**(p-1) can pass the float maximum where the
    # Newton step is about 0; capping (s*x)**(p-1) at half of max/(p*s)
    # keeps it finite (at max/(p*s) the product can round up to inf)
    ps = p * s
    cap = 0.5 * np.finfo(float).max / ps if ps > 1.0 else math.inf
    lo = np.zeros_like(b)
    hi = b.copy()
    tol = 1e-14 * np.maximum(1.0, b)
    for _ in range(200):
        f = x + (s * x) ** p - b
        if np.all(np.abs(f) <= tol):
            break
        hi = np.where(f > 0, np.minimum(hi, x), hi)
        lo = np.where(f < 0, np.maximum(lo, x), lo)
        step = f / (1.0 + ps * np.minimum((s * x) ** (p - 1), cap))
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


@dataclass(frozen=True)
class PiecewiseLinear(MonotoneGraph):
    """Monotone polyline graph, possibly with vertical segments.

    ``vertices`` lists the polyline corners (x, y), finite and with both
    coordinates nondecreasing along the list; a repeated x with increasing
    y encodes a vertical segment.  Beyond the first and last vertex the
    graph continues with the finite slopes ``slope_left`` and
    ``slope_right``.  The curve must pass through a point (0, y) with
    y = 0 admissible, so that the primitive vanishes at the origin; a
    sloped segment whose value at 0 is zero up to a few ulps gets the
    origin as a vertex.

    The polyline is tabulated once.  With n vertices, segment k joins
    vertex k-1 to vertex k for 0 < k < n; segment 0 is the left extension
    and segment n the right one.  Each segment keeps its increments
    (dx, dy), with (1, slope) for the extensions, and an anchor: its end
    nearer to x = 0, with the primitive there summed outward from 0, so
    that no term of the primitive is negative.  Each operation is a
    search in these tables.
    """

    vertices: tuple[tuple[float, float], ...]
    slope_left: float = 0.0
    slope_right: float = 0.0

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.vertices)
        if not pts:
            raise ValueError("at least one vertex is required")
        vx, vy = np.array(pts).T.copy()
        if not (np.all(np.isfinite(vx)) and np.all(np.isfinite(vy))):
            raise ValueError("vertices must be finite")
        if not (0.0 <= self.slope_left < math.inf and 0.0 <= self.slope_right < math.inf):
            raise ValueError("extension slopes must be finite and nonnegative")
        dx, dy = np.diff(vx), np.diff(vy)
        if np.any(dx < 0) or np.any(dy < 0):
            raise ValueError("vertices must be nondecreasing in both coordinates")
        if np.any((dx == 0) & (dy == 0)):
            raise ValueError("repeated vertices are not allowed")
        i = int(np.searchsorted(vx, 0.0))
        if i == vx.size or vx[i] > 0.0:  # x = 0 lies inside segment i
            a = max(i - 1, 0)
            s = self.slope_left if i == 0 else self.slope_right if i == vx.size else dy[a] / dx[a]
            y, ys = vy[a], vx[a] * s  # the value at 0 is y - ys
            if (abs(y - ys) <= 4 * np.finfo(float).eps * (abs(y) + abs(ys))
                    and vy[:i].max(initial=0.0) <= 0.0 <= vy[i:].min(initial=0.0)):
                vx, vy = np.insert(vx, i, 0.0), np.insert(vy, i, 0.0)
        n, lo, hi = vx.size, np.searchsorted(vx, 0.0), np.searchsorted(vx, 0.0, side="right")
        if lo == hi or vy[lo] > 0.0 or vy[hi - 1] < 0.0:
            raise ValueError("graph must contain the origin (0 in beta(0))")
        # the primitive at each vertex: trapezoids summed outward from x = 0
        trap = 0.5 * (vy[1:] + vy[:-1]) * np.diff(vx)
        prim = np.zeros(n)
        prim[hi:] = np.cumsum(trap[hi - 1:])
        prim[:lo] = np.cumsum(-trap[:lo][::-1])[::-1]
        k = np.minimum(np.arange(n + 1), n - 1)
        anchor = np.where(vx[k] <= 0.0, k, np.arange(-1, n))
        tables = {
            "vertices": pts, "_vx": vx, "_vy": vy,
            "_dx": np.concatenate([[1.0], np.diff(vx), [1.0]]),
            "_dy": np.concatenate([[self.slope_left], np.diff(vy), [self.slope_right]]),
            "_x0": vx[anchor], "_y0": vy[anchor], "_p0": prim[anchor],
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    def resolvent_eff(self, r, eps_eff):
        # x + eps_eff*beta(x) is the polyline through (vx + eps_eff*vy, vx)
        # read backwards, continued by the two extensions
        phi = self._vx + eps_eff * self._vy
        left = np.minimum(r - phi[0], 0.0) / (1.0 + eps_eff * self.slope_left)
        right = np.maximum(r - phi[-1], 0.0) / (1.0 + eps_eff * self.slope_right)
        return np.interp(r, phi, self._vx) + left + right

    def primitive(self, r):
        # the segment holding r (the right one at a vertex abscissa), the
        # offset t of r from its anchor and the graph value v there; a
        # vertical segment holds no point, so its dx = 0 is never divided by
        k = np.searchsorted(self._vx, r, side="right")
        t = r - self._x0[k]
        v = self._y0[k] + t / self._dx[k] * self._dy[k]
        return self._p0[k] + 0.5 * t * (self._y0[k] + v)

    def yosida_slope(self, r, eps_eff, j):
        # left-limit convention: a kink belongs to the segment ending there;
        # a vertical segment (dx = 0) gives 1/eps_eff
        k = np.searchsorted(self._vx + eps_eff * self._vy, r, side="left")
        return (self._dy / (self._dx + eps_eff * self._dy))[k]


@dataclass(frozen=True)
class GraphPair:
    """Bulk and boundary graphs used together by the flow."""

    bulk: MonotoneGraph
    bnd: MonotoneGraph


def resolvent(g: MonotoneGraph, eps_eff: float, r):
    """Evaluate J(r) = (I + eps_eff*beta)^{-1}(r)."""
    return g.resolvent_eff(r, eps_eff)


def envelope(g: MonotoneGraph, eps_eff: float, r, j):
    """The smoothed envelope of the primitive at r, whose resolvent is j: half
    the squared residual of j scaled by 1/eps_eff, plus the primitive at j."""
    return 0.5 * (r - j) ** 2 / eps_eff + g.primitive(j)


def smoothed(g: MonotoneGraph, eps_eff: float, r):
    """The resolvent J(r), and the smoothed map (r - J(r)) / eps_eff and its
    generalized derivative at r read from it, as a triple."""
    j = g.resolvent_eff(r, eps_eff)
    return j, (r - j) / eps_eff, g.yosida_slope(r, eps_eff, j)


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
