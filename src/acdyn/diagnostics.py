"""The verification harnesses.

The harnesses re-measure, on computed trajectories, the quantities whose
boundedness and stability the scheme is supposed to deliver: the convex
energy along the flow, per-run norm monitors that must stay bounded as
the regularization parameter decreases, the two-run continuous
dependence estimate with its explicit Gronwall constant, and the Cauchy
behavior of trajectories under a decreasing regularization sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import graphs as gr
from .mesh import DiscreteSystem, inner_H
from .stepper import SolverConfig, StepRecord

__all__ = [
    "ContinuousDependenceReport",
    "continuous_dependence",
    "eps_sweep",
    "harness_threads",
]


def harness_threads() -> int:
    """Always 1: the harnesses run their solves one after another."""
    return 1


# ---------------------------------------------------------------------------
# per-run monitors

MONITOR_COLUMNS = (
    "dudt_l2_bulk",
    "sup_v_bulk",
    "sup_env_bulk",
    "dudt_l2_bnd",
    "sup_v_bnd",
    "sup_env_bnd",
    "lambda_l2",
    "xi_l2_bulk",
    "xi_l2_bnd",
    "lap_l2_bulk",
    "flux_l2",
    "lap_l2_bnd",
)


def _monitor_table() -> dict[str, list[float]]:
    return {name: [] for name in (*MONITOR_COLUMNS, "eps")}


def _append_monitors(
    table: dict, sys: DiscreteSystem, gp: gr.GraphPair, cfg: SolverConfig, traj: list[StepRecord]
) -> None:
    """Append one run's monitors and its eps to the columns of ``table``.

    Each record's smoothed-map values and envelopes are read from one
    resolvent per side, and its gradient, Laplacian and flux terms from
    one product A u per side.
    """
    tau, eps_bnd = cfg.tau, cfg.eps_bnd
    Mb, Mg, interior = sys.M_bulk, sys.M_bnd, sys.interior

    dudt_b = dudt_g = lam_sq = xi_b = xi_g = lap_b = flux_sq = lap_g = 0.0
    sup_v_b = sup_v_g = sup_env_b = sup_env_g = 0.0
    for m, rec in enumerate(traj):
        u = rec.u
        jb, jg = gr.resolvent(gp.bulk, cfg.eps, u.bulk), gr.resolvent(gp.bnd, eps_bnd, u.bnd)
        au, agu = sys.A_bulk @ u.bulk, sys.A_bnd @ u.bnd
        sup_v_b = max(sup_v_b, math.sqrt(float(np.dot(Mb, u.bulk**2)) + float(u.bulk @ au)))
        sup_v_g = max(sup_v_g, math.sqrt(float(np.dot(Mg, u.bnd**2)) + float(u.bnd @ agu)))
        sup_env_b = max(sup_env_b, float(np.dot(Mb, gr.envelope(gp.bulk, cfg.eps, u.bulk, jb))))
        sup_env_g = max(sup_env_g, float(np.dot(Mg, gr.envelope(gp.bnd, eps_bnd, u.bnd, jg))))
        if m == 0:
            continue  # the time integrals run over the steps
        db = (u.bulk - traj[m - 1].u.bulk) / tau
        dg = (u.bnd - traj[m - 1].u.bnd) / tau
        dudt_b += tau * float(np.dot(Mb, db**2))
        dudt_g += tau * float(np.dot(Mg, dg**2))
        lam_sq += tau * rec.lam**2
        xi_b += tau * float(np.dot(Mb, ((u.bulk - jb) / cfg.eps) ** 2))
        xi_g += tau * float(np.dot(Mg, ((u.bnd - jg) / eps_bnd) ** 2))
        lap_int = au[interior] / Mb[interior]
        lap_b += tau * float(np.dot(Mb[interior], lap_int**2))
        flux = au[sys.bidx] / Mg
        flux_sq += tau * float(np.dot(Mg, flux**2))
        ag = agu / Mg
        lap_g += tau * float(np.dot(Mg, ag**2))
    row = {
        "dudt_l2_bulk": math.sqrt(dudt_b),
        "sup_v_bulk": sup_v_b,
        "sup_env_bulk": sup_env_b,
        "dudt_l2_bnd": math.sqrt(dudt_g),
        "sup_v_bnd": sup_v_g,
        "sup_env_bnd": sup_env_g,
        "lambda_l2": math.sqrt(lam_sq),
        "xi_l2_bulk": math.sqrt(xi_b),
        "xi_l2_bnd": math.sqrt(xi_g),
        "lap_l2_bulk": math.sqrt(lap_b),
        "flux_l2": math.sqrt(flux_sq),
        "lap_l2_bnd": math.sqrt(lap_g),
        "eps": cfg.eps,
    }
    for name, column in table.items():
        column.append(row[name])


# ---------------------------------------------------------------------------
# continuous dependence


@dataclass
class ContinuousDependenceReport:
    constant: float
    times: list[float]
    lhs: list[float]
    rhs: list[float]

    @property
    def max_ratio(self) -> float:
        worst = 0.0
        for left, right in zip(self.lhs, self.rhs):
            if right > 0.0:
                worst = max(worst, left / right)
            elif left > 1e-14:
                worst = math.inf
        return worst


def gronwall_constant(lipschitz_bulk: float, lipschitz_bnd: float, T: float) -> float:
    """Stability constant depending only on the Lipschitz bounds and T."""
    return math.exp((2.0 + lipschitz_bulk**2 + lipschitz_bnd**2) * T)


def continuous_dependence(scenario1, scenario2) -> ContinuousDependenceReport:
    """Two-run stability check of the difference against the data distance.

    Both scenarios must agree except in the source terms and initial
    data.  At every time level the accumulated left side (squared
    difference plus twice the time-integrated stiffness forms of the
    difference) is compared with the constant times the squared data
    distance, time integration by the right-endpoint rectangle rule.
    Raises ``ScenarioError`` before any solve when the scenarios differ
    elsewhere or the constant exceeds the float range.  The two runs step
    in lockstep, so only their current states are held: at each time
    level the first run steps before the second.  A ``StepError`` thus
    comes from the earliest time level at which either run fails, from
    the first run when both fail at that level.
    """
    from .scenario import ScenarioError, build_problem, data_independent_dict
    from .stepper import iter_steps

    if data_independent_dict(scenario1) != data_independent_dict(scenario2):
        raise ScenarioError(
            ["(check-cd) scenarios may differ only in their source and initial data"]
        )
    p1 = build_problem(scenario1)
    p2 = build_problem(scenario2)
    sys = p1.sys
    cfg = p1.solver
    pert = p1.perturbation
    try:
        C = gronwall_constant(pert.lipschitz_bulk, pert.lipschitz_bnd, cfg.T)
    except OverflowError:
        raise ScenarioError([
            f"(gronwall) the constant exp((2 + L_bulk^2 + L_bnd^2) T) overflows with "
            f"L_bulk={pert.lipschitz_bulk!r}, L_bnd={pert.lipschitz_bnd!r}, T={cfg.T!r}"
        ]) from None

    # the records at t = 0 hold the initial data, which start takes as is
    e0 = p1.u0 - p2.u0
    data_dist = inner_H(sys, e0, e0)
    times, lhs_list = [], []
    accum = 0.0
    steps1, steps2 = islice(iter_steps(p1), 1, None), islice(iter_steps(p2), 1, None)
    for rec1, rec2 in zip(steps1, steps2):
        df = p1.f_of_t(rec1.t) - p2.f_of_t(rec1.t)
        data_dist += cfg.tau * inner_H(sys, df, df)
        e = rec1.u - rec2.u
        accum += 2.0 * cfg.tau * float(e.bulk @ (sys.A_bulk @ e.bulk))
        accum += 2.0 * cfg.tau * float(e.bnd @ (sys.A_bnd @ e.bnd))
        times.append(rec1.t)
        lhs_list.append(inner_H(sys, e, e) + accum)
    rhs_list = [C * data_dist] * len(times)
    return ContinuousDependenceReport(C, times, lhs_list, rhs_list)


# ---------------------------------------------------------------------------
# regularization sweep


def eps_sweep(scenario, eps_list) -> dict:
    """Cauchy table of trajectory distances under decreasing eps.

    Runs the scenario for every eps in the strictly decreasing list and
    tabulates d_j, the largest over time of the state distance between
    consecutive runs, together with the per-run norm monitors.  Before the
    first run, every eps must make a valid SolverConfig and the list must
    be strictly decreasing; ValueError otherwise.  The runs are solved in
    order, and only the previous trajectory is kept.
    """
    from .scenario import build_problem
    from .stepper import simulate

    eps_list = [float(e) for e in eps_list]
    prob = build_problem(scenario)
    try:
        configs = [replace(prob.solver, eps=eps) for eps in eps_list]
    except ValueError as exc:
        raise ValueError(f"eps values must be in (0, 1], got {eps_list!r}") from exc
    if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
        raise ValueError(f"eps must be strictly decreasing, got {eps_list!r}")

    sys = prob.sys
    table = _monitor_table()
    diffs: list[float] = []
    prev = None
    for cfg in configs:
        traj = simulate(replace(prob, solver=cfg))
        _append_monitors(table, sys, prob.graphs, cfg, traj)
        if prev is not None:
            worst = 0.0
            for ra, rb in zip(prev, traj):
                e = ra.u - rb.u
                worst = max(worst, math.sqrt(max(inner_H(sys, e, e), 0.0)))
            diffs.append(worst)
        prev = traj
    return {"eps_list": eps_list, "d": diffs, "monitors": table}
