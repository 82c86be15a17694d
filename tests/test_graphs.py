"""Graph operations: frozen examples, sampled laws, the smoothed maps."""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acdyn.constraint import make_constraint
from acdyn.graphs import GraphPair, Obstacle, PiecewiseLinear, PowerOdd, smoothed
from acdyn.graphs import _cubic_resolvent, _power_resolvent
from acdyn.mesh import build_domain
from acdyn.stepper import PerturbationSpec, Problem, SolverConfig, simulate

from helpers import (
    GraphDomainError,
    make_interval,
    minimal_section,
    moreau,
    section_bounds,
    yosida,
    zero_field,
)

CATALOG_PWL = PiecewiseLinear(
    vertices=((-1.0, -1.0), (-1.0, 0.0), (1.0, 0.0), (1.0, 1.0)),
    slope_left=1.0,
    slope_right=1.0,
)

# keyed by test id; the p = 1 powers are the linear graphs
GRAPHS_BY_ID = {
    "Linear0.0": PowerOdd(0.0, 1),
    "Linear1.0": PowerOdd(1.0, 1),
    "PowerOdd1.0": PowerOdd(1.0, 3),
    "PowerOdd0.5": PowerOdd(0.5, 5),
    "Obstacle''": Obstacle(-1.0, 1.0),
    "PiecewiseLinear''": CATALOG_PWL,
    # asymmetric polylines: a kink at the origin, a flat piece followed
    # by a vertical segment, a vertical segment through the origin
    "PiecewiseLinear_kink": PiecewiseLinear(((0.0, 0.0),), 0.5, 2.0),
    "PiecewiseLinear_flat_jump": PiecewiseLinear(
        ((-1.0, -1.0), (0.0, 0.0), (0.5, 0.0), (0.5, 0.7), (2.0, 3.0)), 0.3, 2.0
    ),
    "PiecewiseLinear_offset_jump": PiecewiseLinear(
        ((-0.2, -0.5), (0.0, -0.5), (0.0, 0.25), (1.5, 0.25)), 0.0, 4.0
    ),
}
GRAPHS = list(GRAPHS_BY_ID.values())
GRAPH_IDS = list(GRAPHS_BY_ID)

EPS_VALUES = [1.0, 0.5, 0.1, 0.01]

NEGATE = PerturbationSpec(bulk_kind="negate", bnd_kind="negate")


def kink_points(g, eps_eff: float) -> np.ndarray:
    """Abscissas where the smoothed map may lose differentiability."""
    if isinstance(g, Obstacle):
        return np.array([g.lo, g.hi])
    if isinstance(g, PiecewiseLinear):
        vx = np.array([v[0] for v in g.vertices])
        vy = np.array([v[1] for v in g.vertices])
        return vx + eps_eff * vy
    return np.array([])


class TestExamples:
    def test_resolvent(self):
        assert Obstacle(-1, 1).resolvent_eff(2.0, 0.5) == pytest.approx(1.0, abs=1e-14)
        assert PowerOdd(1.0, 1).resolvent_eff(1.0, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert PowerOdd(1.0, 3).resolvent_eff(2.0, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_yosida(self):
        assert yosida(Obstacle(-1, 1), 0.5, 2.0) == pytest.approx(2.0, abs=1e-13)
        assert yosida(PowerOdd(1.0, 1), 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert yosida(PowerOdd(1.0, 3), 1.0, 2.0) == pytest.approx(1.0, abs=1e-13)

    def test_moreau(self):
        for r in np.linspace(-1, 1, 9):
            assert moreau(Obstacle(-1, 1), 0.5, float(r)) == 0.0
        assert moreau(Obstacle(-1, 1), 0.5, 2.0) == pytest.approx(1.0, abs=1e-14)
        assert moreau(PowerOdd(1.0, 1), 1.0, 1.0) == pytest.approx(0.25, abs=1e-14)

    def test_minimal_section(self):
        assert minimal_section(PowerOdd(1.0, 3), 2.0) == pytest.approx(8.0)
        assert minimal_section(Obstacle(-1, 1), 0.3) == 0.0
        assert minimal_section(Obstacle(-1, 1), 1.0) == 0.0
        jump = PiecewiseLinear(vertices=((0.0, -1.0), (0.0, 2.0)))
        assert minimal_section(jump, 0.0) == 0.0
        with pytest.raises(GraphDomainError):
            minimal_section(Obstacle(-1, 1), 1.5)

    def test_boundary_scaling(self):
        # the boundary graph is smoothed with eps*rho (here 0.5*2)
        g = PowerOdd(1.0, 1)
        assert g.resolvent_eff(1.0, 0.5 * 2.0) == pytest.approx(0.5)  # 1/(1 + 0.5*2)
        assert yosida(g, 0.5 * 2.0, 1.0) == pytest.approx(0.5)

    def test_powerodd_resolvent_residual(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(-50, 50, size=200)
        for exponent in (5, 3):
            j = np.asarray(PowerOdd(0.7, exponent).resolvent_eff(r, 0.3))
            res = j + 0.3 * 0.7 * j**exponent - r
            assert np.max(np.abs(res)) <= 1e-13 * np.maximum(1.0, np.abs(r)).max()


@pytest.mark.parametrize("g", GRAPHS, ids=GRAPH_IDS)
@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("role", ["bulk", "boundary"])
def test_sampled_laws(g, eps, role):
    # the boundary graph is smoothed with eps*rho, here rho = 0.7
    eps_eff = eps * 0.7 if role == "boundary" else eps
    grid = np.linspace(-3, 3, 201)
    j = np.asarray(g.resolvent_eff(grid, eps_eff))
    y = np.asarray(yosida(g, eps_eff, grid))
    env = np.asarray(moreau(g, eps_eff, grid))
    prim = np.asarray(g.primitive(grid))

    # resolvent nonexpansive and yosida Lipschitz with 1/eps_eff
    dj = np.abs(np.diff(j))
    dr = np.diff(grid)
    assert np.all(dj <= dr + 1e-12)
    dy = np.abs(np.diff(y))
    assert np.all(dy <= dr / eps_eff + 1e-9)

    # monotone, zero at zero
    assert np.all(np.diff(y) >= -1e-12)
    assert abs(float(yosida(g, eps_eff, 0.0))) <= 1e-14

    # envelope bounds and the squared-map bound
    assert np.all(env >= -1e-15)
    assert np.all(env <= prim + 1e-12)
    assert np.all(y**2 <= (2.0 / eps_eff) * env + 1e-10)

    # smoothed map bounded by the minimal section on the domain
    for r in grid:
        try:
            m = minimal_section(g, float(r))
        except GraphDomainError:
            continue
        yr = float(yosida(g, eps_eff, float(r)))
        assert abs(yr) <= abs(m) + 1e-12


@pytest.mark.parametrize("g", GRAPHS, ids=GRAPH_IDS)
@pytest.mark.parametrize("eps", EPS_VALUES)
def test_envelope_derivative_matches_map(g, eps):
    # central differences at h=1e-5, away from kinks of the smoothed map
    h = 1e-5
    grid = np.linspace(-3, 3, 201)
    kinks = kink_points(g, eps)
    if kinks.size:
        keep = np.min(np.abs(grid[:, None] - kinks[None, :]), axis=1) > 0.02
        grid = grid[keep]
    fd = (np.asarray(moreau(g, eps, grid + h)) - np.asarray(moreau(g, eps, grid - h))) / (2 * h)
    y = np.asarray(yosida(g, eps, grid))
    tol = 100.0 * h**2 / eps + 1e-9
    assert np.max(np.abs(fd - y)) <= tol


@pytest.mark.parametrize("g", GRAPHS, ids=GRAPH_IDS)
@pytest.mark.parametrize("eps", EPS_VALUES)
def test_slope_is_left_derivative_of_map(g, eps):
    # backward differences at h=1e-7, kinks included, where the slope is
    # the left limit; points just right of a kink are left out
    h = 1e-7
    kinks = kink_points(g, eps)
    grid = np.linspace(-3, 3, 121)
    if kinks.size:
        gap = grid[:, None] - kinks[None, :]
        grid = grid[~np.any((gap > 0) & (gap <= 2 * h), axis=1)]
    r = np.concatenate([grid, kinks])
    _, value, slope = smoothed(g, eps, r)
    fd = (value - yosida(g, eps, r - h)) / h
    assert np.max(np.abs(fd - slope)) <= 1e-5 * (1.0 + 1.0 / eps)


@pytest.mark.parametrize("g", GRAPHS, ids=GRAPH_IDS)
def test_origin_and_section_monotonicity(g):
    # the graph passes through the origin with a vanishing primitive
    lo0, hi0 = section_bounds(g, 0.0)
    assert lo0 <= 0.0 <= hi0
    assert float(np.asarray(g.primitive(0.0))) == 0.0
    assert np.all(np.asarray(g.primitive(np.linspace(-0.9, 0.9, 31))) >= 0.0)
    # every value at r stays below every value at s > r
    samples = np.linspace(-0.95, 0.95, 41)
    for r, s in zip(samples[:-1], samples[1:]):
        _, hi_r = section_bounds(g, float(r))
        lo_s, _ = section_bounds(g, float(s))
        assert hi_r <= lo_s + 1e-12


@pytest.mark.parametrize("vertices", [((-0.1, -0.3), (0.2, 0.6)), ((-0.3, -0.1), (0.6, 0.2))],
                         ids=["y=3x", "y=x/3"])
def test_line_through_origin_accepted(vertices):
    # the value interpolated at 0 is a rounding error away from 0
    g = PiecewiseLinear(vertices)
    assert section_bounds(g, 0.0) == (0.0, 0.0)
    assert g.primitive(0.0) == 0.0 and g.resolvent_eff(0.0, 0.1) == 0.0


def test_polylines_through_origin_seeded():
    # a sloped piece (xa, m*xa)-(xb, m*xb) crosses the origin, with further
    # vertices (vertical segments among them) stepping outward on both sides
    rng = np.random.default_rng(5)
    grid = np.linspace(-4.0, 4.0, 321)
    for _ in range(500):
        xa, xb, m = -rng.uniform(1e-3, 2.0), rng.uniform(1e-3, 2.0), rng.uniform(0.0, 5.0)
        steps = rng.uniform(0.0, 1.0, (rng.integers(0, 4), 2))
        steps[rng.uniform(size=len(steps)) < 0.3, 0] = 0.0
        split = rng.integers(0, len(steps) + 1)
        left = [(xa - dx, m * xa - dy) for dx, dy in np.cumsum(steps[:split], axis=0)]
        right = [(xb + dx, m * xb + dy) for dx, dy in np.cumsum(steps[split:], axis=0)]
        verts = (*left[::-1], (xa, m * xa), (xb, m * xb), *right)
        g = PiecewiseLinear(verts, *rng.uniform(0.0, 2.0, 2))
        lo, hi = section_bounds(g, 0.0)
        assert lo <= 0.0 <= hi
        assert g.primitive(0.0) == 0.0
        assert np.all(g.primitive(grid) >= 0.0)


def test_envelope_grows_as_eps_shrinks():
    grid = np.linspace(-3, 3, 201)
    for g in GRAPHS:
        prev = None
        for eps in [1.0, 0.5, 0.1, 0.01]:  # decreasing
            env = np.asarray(moreau(g, eps, grid))
            if prev is not None:
                assert np.all(env >= prev - 1e-12)
            prev = env


@settings(max_examples=200, deadline=None)
@given(
    r=st.floats(-3, 3),
    s=st.floats(-3, 3),
    eps=st.sampled_from(EPS_VALUES),
    gi=st.integers(0, len(GRAPHS) - 1),
)
def test_nonexpansive_and_lipschitz_pairs(r, s, eps, gi):
    g = GRAPHS[gi]
    jr, js = float(g.resolvent_eff(r, eps)), float(g.resolvent_eff(s, eps))
    assert abs(jr - js) <= abs(r - s) + 1e-12
    yr, ys = float(yosida(g, eps, r)), float(yosida(g, eps, s))
    assert abs(yr - ys) <= abs(r - s) / eps + 1e-9
    if (r - s) != 0:
        assert (yr - ys) * (r - s) >= -1e-12


@settings(max_examples=150, deadline=None)
@given(r=st.floats(-3, 3), eps=st.sampled_from(EPS_VALUES), gi=st.integers(0, len(GRAPHS) - 1))
def test_envelope_bounds_pointwise(r, eps, gi):
    g = GRAPHS[gi]
    env = float(moreau(g, eps, r))
    assert env >= -1e-15
    assert env <= float(np.asarray(g.primitive(r))) + 1e-12
    y = float(yosida(g, eps, r))
    assert y * y <= 2.0 / eps * env + 1e-10


# the start of the 128 x 128 rectangle run in perfbench/workloads.py at its
# default seed, tanh((x - 0.4268)/0.1099): 7095 of its 16641 nodes are negative
RECT_RUN_START = np.tanh(
    (build_domain("rectangle", [1.0, 1.0], [128, 128]).coords[:, 0] - 0.4268) / 0.1099
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    p=st.sampled_from([1, 3, 5]),
    a=st.sampled_from([0.0, 1.0]),
    # mixed signs, at lengths below and above a vector register's 8 lanes
    values=st.lists(st.one_of(st.floats(-2.0, 2.0), st.floats(-1e50, 1e50)),
                    min_size=1, max_size=40),
)
@example(p=3, a=1.0, values=RECT_RUN_START)
def test_power_primitive_is_even_bit_for_bit(p, a, values):
    # a signed base to numpy's power can round 1 ULP away from |r|'s value
    g = PowerOdd(a, p)
    r = np.array(values)
    assert np.array_equal(g.primitive(-r).view(np.int64), g.primitive(r).view(np.int64))


CUBIC_COEFFS = [1e-12, 1e-3, 0.05, 1.0, 1e6, 1e12]


class TestCubicResolvent:
    """The closed-form root of x + c*x**3 = r that serves PowerOdd p = 3."""

    MAGNITUDES = np.logspace(-8, 8, 1601)

    @pytest.mark.parametrize("c", CUBIC_COEFFS)
    def test_residual_oddness_and_order(self, c):
        r = np.concatenate([-self.MAGNITUDES[::-1], [0.0], self.MAGNITUDES])
        x = _cubic_resolvent(r, 1.0, c)
        nz = r != 0.0
        assert np.max(np.abs(x + c * x**3 - r)[nz] / np.abs(r[nz])) <= 1e-14
        assert np.array_equal(_cubic_resolvent(-r, 1.0, c), -x)
        assert np.all(np.diff(x) >= 0.0)
        assert x[~nz][0] == 0.0

    @pytest.mark.parametrize("c", CUBIC_COEFFS)
    def test_agrees_with_newton(self, c):
        r = np.concatenate([-self.MAGNITUDES, self.MAGNITUDES])
        x = _cubic_resolvent(r, 1.0, c)
        x_newton = _power_resolvent(r, 1.0, c, 3)
        assert np.all(np.abs(x - x_newton) <= 1e-13 * np.maximum(1.0, np.abs(r)))

    def test_scalar_in_scalar_out(self):
        j = PowerOdd(1.0, 3).resolvent_eff(2.0, 1.0)
        assert np.ndim(j) == 0 and j == pytest.approx(1.0, abs=1e-15)

    def test_fast_path_skips_newton(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _power_resolvent(*args)

        monkeypatch.setattr("acdyn.graphs._power_resolvent", counted)
        d, s = make_interval(16)
        cubic = GraphPair(PowerOdd(1.0, 3), PowerOdd(1.0, 3))
        cons = make_constraint(s, s.field(np.ones(s.n_bulk), np.zeros(s.n_bnd)), 0.0, 0.0)
        cfg = SolverConfig(tau=0.01, T=0.03, eps=0.05)
        u0 = s.field_from_bulk(np.sin(2 * np.pi * d.coords[:, 0]))
        traj = simulate(Problem(s, cubic, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
        assert len(traj) == 4 and not calls
        PowerOdd(1.0, 5).resolvent_eff(np.linspace(-2.0, 2.0, 9), 0.05)
        assert len(calls) == 1


class TestYosidaAndSlope:
    """The resolvent, and the smoothed map and its slope read from it."""

    @pytest.mark.parametrize(
        "g",
        [PowerOdd(0.0, 1), PowerOdd(2.0, 1), PowerOdd(0.7, 1), PowerOdd(1.0, 3), PowerOdd(0.5, 5),
         Obstacle(-1.0, 0.5), CATALOG_PWL,
         PiecewiseLinear(((-0.5, -1.0), (0.0, -1.0), (0.0, 1.0), (0.5, 1.0)), 1.0, 1.0)],
        ids=["zero", "linear", "power_1", "power_3", "power_5", "obstacle", "pwl",
             "pwl_vertical"],
    )
    @pytest.mark.parametrize("role", ["bulk", "boundary"])
    def test_matches_separate_evaluations(self, g, role):
        eps_eff = 0.1 * 3.0 if role == "boundary" else 0.1  # eps*rho on the boundary
        # kinks exactly, their neighbours, and points beyond the outer ones
        kinks = kink_points(g, eps_eff)
        r = np.concatenate([
            np.linspace(-3.0, 3.0, 61), kinks, np.nextafter(kinks, -np.inf),
            np.nextafter(kinks, np.inf), kinks - 1.0, kinks + 1.0,
        ])
        j, value, slope = smoothed(g, eps_eff, r)
        assert np.array_equal(j, g.resolvent_eff(r, eps_eff))
        assert np.array_equal(value, yosida(g, eps_eff, r))
        assert np.array_equal(slope, g.yosida_slope(r, eps_eff, g.resolvent_eff(r, eps_eff)))
        for x in (*kinks, -2.0, 0.0, 0.3, 2.0):
            jx, v, d = smoothed(g, eps_eff, x)
            assert np.ndim(jx) == 0 and np.ndim(v) == 0 and np.ndim(d) == 0
            assert jx == g.resolvent_eff(x, eps_eff)
            assert v == yosida(g, eps_eff, x)
            assert d == g.yosida_slope(x, eps_eff, g.resolvent_eff(x, eps_eff))

    @pytest.mark.parametrize("p", [1, 3, 5])
    @pytest.mark.parametrize("eps_eff", [0.05, 0.3])
    def test_slope_finite_for_huge_coefficient(self, p, eps_eff):
        # a*p*|j|**(p-1) overflows for a near the float maximum; the slope
        # stays finite, nondecreasing in |r| and at most 1/eps_eff, which
        # it reaches to rounding wherever the unsaturated slope is huge
        g = PowerOdd(1e308, p)
        mags = np.logspace(-300, 3, 40)
        r = np.concatenate([-mags[::-1], [0.0], mags])
        j = g.resolvent_eff(r, eps_eff)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            slope = g.yosida_slope(r, eps_eff, j)
        assert np.all(np.isfinite(slope)) and np.all(slope >= 0.0)
        assert np.all(slope <= 1.0 / eps_eff) and np.array_equal(slope, slope[::-1])
        assert np.all(np.diff(slope[mags.size:]) >= 0.0)
        if p == 1:
            huge = np.full(r.shape, True)
        else:
            with np.errstate(divide="ignore"):  # log10(0) = -inf where g = 0
                huge = 308.0 + np.log10(p) + (p - 1) * np.log10(np.abs(j)) > 20.0
        assert np.any(huge) and not np.all(huge[mags.size:]) or p == 1
        assert np.allclose(slope[huge], 1.0 / eps_eff, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("eps_eff, p", [(1.0, 3), (2.0, 5)])
    def test_resolvent_where_the_coefficient_product_overflows(self, eps_eff, p):
        # 3*eps_eff*a (p = 3) and eps_eff*a (p = 5, eps = 0.5 with rho = 4)
        # overflow for a = 1e308; the resolvent stays finite, odd and
        # monotone, and its residual, summed exactly, stays within 1e-13
        # (a = 1e300, where nothing overflows, reads 3.6e-14 for p = 3 and
        # 3.8e-14 for p = 5; the float root of a huge c is inexact).  For
        # p = 3, 1.5*sqrt(3c)*|r| overflows at r = 1e160 with a = 1e308 and
        # at r = 1e308 with a = 1; for p = 5, the Newton slope
        # p*s*(s*x)**(p-1) of the power resolvent overflows at r = 1e308
        # with a = 1e308
        mags = np.logspace(-300, 50, 71)
        mags = np.append(mags, [1e160, 1e308] if p == 3 else [1e308])
        r = np.concatenate([-mags[::-1], [0.0], mags])
        for g in (PowerOdd(1e308, p), PowerOdd(1.0, p)):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                x = g.resolvent_eff(r, eps_eff)
                assert np.array_equal(g.resolvent_eff(-r, eps_eff), -x)
            assert np.all(np.isfinite(x)) and np.all(np.diff(x) >= 0.0) and x[mags.size] == 0.0
            with localcontext() as ctx:
                ctx.prec = 50
                c = Decimal(eps_eff) * Decimal(g.a)
                res = [abs(Decimal(xi) + c * Decimal(xi) ** p - Decimal(ri))
                       / max(1, abs(Decimal(ri))) for xi, ri in zip(x, r)]
            assert max(res) <= Decimal("1e-13")

    def test_capped_slope_is_unchanged_for_moderate_coefficients(self):
        r = np.linspace(-3.0, 3.0, 121)
        for g, eps_eff in ((PowerOdd(1.0, 3), 0.05), (PowerOdd(0.5, 5), 0.3)):
            j = g.resolvent_eff(r, eps_eff)
            want = g.a * g.p * np.abs(j) ** (g.p - 1)
            assert np.array_equal(g.yosida_slope(r, eps_eff, j), want / (1.0 + eps_eff * want))


class TestPowerResolvent:
    """Safeguarded Newton for x + c*x**p = r, p >= 5."""

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("c", [1e-3, 0.05, 1.0, 1e6])
    def test_residual_up_to_huge_r(self, c, p):
        mags = np.logspace(-8, 50, 581)
        r = np.concatenate([-mags[::-1], [0.0], mags])
        x = _power_resolvent(r, 1.0, c, p)
        res = np.abs(x + c * x**p - r) / np.maximum(1.0, np.abs(r))
        assert np.max(res) <= 1e-14
        assert np.array_equal(_power_resolvent(-r, 1.0, c, p), -x)
        assert np.all(np.diff(x) >= 0.0) and x[mags.size] == 0.0

    def test_no_overflow_beyond_float_range(self):
        # r/c = 1e312 is not a float, and x**5 near the root is not either
        r, c = np.array([1e300, -1e300, 1.0]), 1e-12
        with np.errstate(over="raise", invalid="raise"):
            x = _power_resolvent(r, 1.0, c, 5)
        root = 10.0**62.4  # (r/c)**(1/5); x itself is negligible next to c*x**5
        assert np.allclose(x[:2], [root, -root], rtol=1e-14, atol=0.0)
        assert abs(x[2] + c * x[2] ** 5 - 1.0) <= 1e-14


class TestConfig:
    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            PowerOdd(-1.0, 1)
        with pytest.raises(ValueError):
            PowerOdd(1.0, 2)
        with pytest.raises(ValueError):
            Obstacle(0.5, 1.0)
        with pytest.raises(ValueError):
            PiecewiseLinear(vertices=((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(ValueError):
            PiecewiseLinear(vertices=((1.0, 1.0), (2.0, 2.0)))  # misses the origin
        with pytest.raises(ValueError):
            SolverConfig(tau=0.01, T=0.1, eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tau=0.01, T=0.1, eps=2.0)
