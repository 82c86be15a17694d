"""Graph operations: frozen examples, sampled laws, the smoothed maps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdyn.constraint import make_constraint
from acdyn.graphs import (
    GraphDomainError,
    GraphPair,
    Obstacle,
    PiecewiseLinear,
    PowerOdd,
    graph_from_config,
    minimal_section,
    moreau,
    resolvent,
    yosida,
    yosida_and_slope,
)
from acdyn.graphs import _cubic_resolvent, _power_resolvent
from acdyn.stepper import PerturbationSpec, SolverConfig, simulate

from helpers import make_interval, zero_field

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

NEGATE = PerturbationSpec(
    bulk_kind="negate", bnd_kind="negate", lipschitz_bulk=1.0, lipschitz_bnd=1.0
)


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
        assert resolvent(Obstacle(-1, 1), 0.5, 2.0) == pytest.approx(1.0, abs=1e-14)
        assert resolvent(PowerOdd(1.0, 1), 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert resolvent(PowerOdd(1.0, 3), 1.0, 2.0) == pytest.approx(1.0, abs=1e-13)

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
        assert resolvent(g, 0.5 * 2.0, 1.0) == pytest.approx(0.5)  # 1/(1 + 0.5*2)
        assert yosida(g, 0.5 * 2.0, 1.0) == pytest.approx(0.5)

    def test_powerodd_resolvent_residual(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(-50, 50, size=200)
        for exponent in (5, 3):
            j = np.asarray(resolvent(PowerOdd(0.7, exponent), 0.3, r))
            res = j + 0.3 * 0.7 * j**exponent - r
            assert np.max(np.abs(res)) <= 1e-13 * np.maximum(1.0, np.abs(r)).max()


@pytest.mark.parametrize("g", GRAPHS, ids=GRAPH_IDS)
@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("role", ["bulk", "boundary"])
def test_sampled_laws(g, eps, role):
    # the boundary graph is smoothed with eps*rho, here rho = 0.7
    eps_eff = eps * 0.7 if role == "boundary" else eps
    grid = np.linspace(-3, 3, 201)
    j = np.asarray(resolvent(g, eps_eff, grid))
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
    value, slope = yosida_and_slope(g, eps, r)
    fd = (value - yosida(g, eps, r - h)) / h
    assert np.max(np.abs(fd - slope)) <= 1e-5 * (1.0 + 1.0 / eps)


@pytest.mark.parametrize("g", GRAPHS, ids=GRAPH_IDS)
def test_origin_and_section_monotonicity(g):
    # the graph passes through the origin with a vanishing primitive
    lo0, hi0 = g.section_bounds(0.0)
    assert lo0 <= 0.0 <= hi0
    assert float(np.asarray(g.primitive(0.0))) == 0.0
    assert np.all(np.asarray(g.primitive(np.linspace(-0.9, 0.9, 31))) >= 0.0)
    # every value at r stays below every value at s > r
    samples = np.linspace(-0.95, 0.95, 41)
    for r, s in zip(samples[:-1], samples[1:]):
        _, hi_r = g.section_bounds(float(r))
        lo_s, _ = g.section_bounds(float(s))
        assert hi_r <= lo_s + 1e-12


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
    jr, js = float(resolvent(g, eps, r)), float(resolvent(g, eps, s))
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


CUBIC_COEFFS = [1e-12, 1e-3, 0.05, 1.0, 1e6, 1e12]


class TestCubicResolvent:
    """The closed-form root of x + c*x**3 = r that serves PowerOdd p = 3."""

    MAGNITUDES = np.logspace(-8, 8, 1601)

    @pytest.mark.parametrize("c", CUBIC_COEFFS)
    def test_residual_oddness_and_order(self, c):
        r = np.concatenate([-self.MAGNITUDES[::-1], [0.0], self.MAGNITUDES])
        x = _cubic_resolvent(r, c)
        nz = r != 0.0
        assert np.max(np.abs(x + c * x**3 - r)[nz] / np.abs(r[nz])) <= 1e-14
        assert np.array_equal(_cubic_resolvent(-r, c), -x)
        assert np.all(np.diff(x) >= 0.0)
        assert x[~nz][0] == 0.0

    @pytest.mark.parametrize("c", CUBIC_COEFFS)
    def test_agrees_with_newton(self, c):
        r = np.concatenate([-self.MAGNITUDES, self.MAGNITUDES])
        x = _cubic_resolvent(r, c)
        x_newton = _power_resolvent(r, c, 3)
        assert np.all(np.abs(x - x_newton) <= 1e-13 * np.maximum(1.0, np.abs(r)))

    def test_scalar_in_scalar_out(self):
        j = resolvent(PowerOdd(1.0, 3), 1.0, 2.0)
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
        traj = simulate(s, cubic, cons, NEGATE, cfg, u0, lambda t: zero_field(s))
        assert len(traj) == 4 and not calls
        resolvent(PowerOdd(1.0, 5), 0.05, np.linspace(-2.0, 2.0, 9))
        assert len(calls) == 1


class TestYosidaAndSlope:
    """The smoothed map and its slope from one resolvent."""

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
        value, slope = yosida_and_slope(g, eps_eff, r)
        assert np.array_equal(value, yosida(g, eps_eff, r))
        assert np.array_equal(slope, g.yosida_slope(r, eps_eff, resolvent(g, eps_eff, r)))
        for x in (*kinks, -2.0, 0.0, 0.3, 2.0):
            v, d = yosida_and_slope(g, eps_eff, x)
            assert np.ndim(v) == 0 and np.ndim(d) == 0
            assert v == yosida(g, eps_eff, x)
            assert d == g.yosida_slope(x, eps_eff, resolvent(g, eps_eff, x))


class TestPowerResolvent:
    """Safeguarded Newton for x + c*x**p = r, p >= 5."""

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("c", [1e-3, 0.05, 1.0, 1e6])
    def test_residual_up_to_huge_r(self, c, p):
        mags = np.logspace(-8, 50, 581)
        r = np.concatenate([-mags[::-1], [0.0], mags])
        x = _power_resolvent(r, c, p)
        res = np.abs(x + c * x**p - r) / np.maximum(1.0, np.abs(r))
        assert np.max(res) <= 1e-14
        assert np.array_equal(_power_resolvent(-r, c, p), -x)
        assert np.all(np.diff(x) >= 0.0) and x[mags.size] == 0.0

    def test_no_overflow_beyond_float_range(self):
        # r/c = 1e312 is not a float, and x**5 near the root is not either
        r, c = np.array([1e300, -1e300, 1.0]), 1e-12
        with np.errstate(over="raise", invalid="raise"):
            x = _power_resolvent(r, c, 5)
        root = 10.0**62.4  # (r/c)**(1/5); x itself is negligible next to c*x**5
        assert np.allclose(x[:2], [root, -root], rtol=1e-14, atol=0.0)
        assert abs(x[2] + c * x[2] ** 5 - 1.0) <= 1e-14


class TestConfig:
    def test_roundtrip_kinds(self):
        for cfg, cls in [
            ({"kind": "zero"}, PowerOdd),
            ({"kind": "linear", "slope": 2.0}, PowerOdd),
            ({"kind": "power_odd", "coefficient": 1.0, "exponent": 3}, PowerOdd),
            ({"kind": "obstacle", "lo": -1.0, "hi": 1.0}, Obstacle),
            (
                {"kind": "piecewise_linear", "vertices": [[-1, -1], [-1, 0], [1, 0], [1, 1]],
                 "slope_left": 1.0, "slope_right": 1.0},
                PiecewiseLinear,
            ),
        ]:
            assert isinstance(graph_from_config(cfg), cls)

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
