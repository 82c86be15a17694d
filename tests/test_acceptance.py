"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the pytest report.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest
import scipy.linalg as sla

from acdyn.constraint import make_constraint, mass, mass_tolerance, multiplier_sign_ok
from acdyn.density import density_study, robin_approx
from acdyn.diagnostics import continuous_dependence, eps_sweep
from acdyn.graphs import GraphPair, Obstacle, PiecewiseLinear, PowerOdd
from acdyn.mesh import CoupledField, assemble, build_domain, inner_H
from acdyn.scenario import Scenario, build_problem
from acdyn.stepper import PerturbationSpec, Problem, SolverConfig, simulate

from helpers import (
    GraphDomainError,
    bruteforce_proximal_argmin,
    lambda_formula,
    make_interval,
    minimal_section,
    monitors_no_growth,
    moreau,
    prototype_scenario,
    proximal_step,
    reference_plain_step,
    total_weight,
    variational_complementarity,
    with_data,
    yosida,
    zero_field,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {verdict}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name}: {detail}"


CATALOG_PWL = PiecewiseLinear(
    vertices=((-1.0, -1.0), (-1.0, 0.0), (1.0, 0.0), (1.0, 1.0)),
    slope_left=1.0,
    slope_right=1.0,
)

NEGATE = PerturbationSpec(bulk_kind="negate", bnd_kind="negate")
CUBIC = GraphPair(PowerOdd(1.0, 3), PowerOdd(1.0, 3))


def prototype_setup(center: float):
    d, s = make_interval(64)
    cons = make_constraint(
        s, s.field(np.ones(s.n_bulk), np.zeros(s.n_bnd)), 0.0, 0.0
    )
    prof = np.tanh((d.coords[:, 0] - center) / 0.15)
    prof = prof - np.dot(s.M_bulk, prof) / total_weight(s, cons)
    u0 = s.field_from_bulk(prof)
    return d, s, cons, u0


def run_prototype(center: float, pert=NEGATE):
    d, s, cons, u0 = prototype_setup(center)
    cfg = SolverConfig(tau=1e-2, T=1.0, eps=0.05)
    traj = simulate(Problem(s, CUBIC, pert, cfg, cons, u0, lambda t: zero_field(s)))
    return s, cons, cfg, u0, traj


def test_criterion_01_yosida_suite():
    start = time.time()
    grid = np.linspace(-3.0, 3.0, 201)
    # envelope values reach 2/eps at the grid ends, so the difference step
    # balances cancellation noise against the kink error of the envelopes
    h = 1e-6
    worst_fd = 0.0
    ok = True
    for g in (PowerOdd(1.0, 1), PowerOdd(1.0, 3), Obstacle(-1.0, 1.0), CATALOG_PWL):
        for eps in (1.0, 0.5, 0.1, 0.01):
            j = np.asarray(g.resolvent_eff(grid, eps))
            y = np.asarray(yosida(g, eps, grid))
            env = np.asarray(moreau(g, eps, grid))
            prim = np.asarray(g.primitive(grid))
            ok &= bool(np.all(np.abs(np.diff(j)) <= np.diff(grid) + 1e-12))
            ok &= bool(np.all(np.abs(np.diff(y)) <= np.diff(grid) / eps + 1e-9))
            ok &= bool(np.all(env >= -1e-15) and np.all(env <= prim + 1e-12))
            ok &= bool(np.all(y**2 <= 2.0 / eps * env + 1e-10))
            for r in grid:
                try:
                    m = minimal_section(g, float(r))
                except GraphDomainError:
                    continue
                ok &= abs(float(yosida(g, eps, float(r)))) <= abs(m) + 1e-12
            fd = np.asarray(moreau(g, eps, grid + h)) - np.asarray(moreau(g, eps, grid - h))
            fd /= 2 * h
            gap = float(np.max(np.abs(fd - y)))
            worst_fd = max(worst_fd, gap)
            ok &= gap <= 1e-6
    elapsed = time.time() - start
    report(1, "smoothing suite on the graph catalog", ok and elapsed < 5.0,
           f"worst derivative gap {worst_fd:.2e}, {elapsed:.2f}s")


def test_criterion_02_operator_suite():
    start = time.time()
    ok = True
    details = []
    for kind, sizes, res in [
        ("interval", [1.0], [64]),
        ("rectangle", [1.0, 1.0], [8, 8]),
        ("rectangle", [2.0, 1.0], [6, 4]),
    ]:
        d = build_domain(kind, sizes, res)
        s = assemble(d)
        for a in (s.A_bulk, s.A_bnd):
            if a.nnz:
                ok &= abs(a - a.T).max() == 0.0
        scale = max(abs(s.A_bulk).max(), 1.0)
        kernel = float(np.max(np.abs(s.A_bulk @ np.ones(s.n_bulk))))
        ok &= kernel <= 8 * np.finfo(float).eps * scale
        if s.A_bnd.nnz:
            kb = float(np.max(np.abs(s.A_bnd @ np.ones(s.n_bnd))))
            ok &= kb <= 8 * np.finfo(float).eps * max(abs(s.A_bnd).max(), 1.0)
        area = sizes[0] * (sizes[1] if len(sizes) > 1 else 1.0)
        perimeter = 2.0 if kind == "interval" else 2.0 * (sizes[0] + sizes[1])
        ok &= abs(s.M_bulk.sum() - area) <= 1e-12
        ok &= abs(s.M_bnd.sum() - perimeter) <= 1e-12
    _, s = make_interval(8)
    d8 = build_domain("rectangle", [1.0, 1.0], [8, 8])
    s8 = assemble(d8)
    w = sla.eigh(s8.A_bulk.toarray(), np.diag(s8.M_bulk), eigvals_only=True)
    w.sort()
    rel = abs(w[1] - math.pi**2) / math.pi**2
    ok &= rel <= 0.05
    details.append(f"eig rel err {rel:.4f}")
    elapsed = time.time() - start
    report(2, "operator assembly suite", ok and elapsed < 10.0,
           ", ".join(details) + f", {elapsed:.2f}s")


def test_criterion_03_bruteforce_step():
    start = time.time()
    rng = np.random.default_rng(2024)
    _, s = make_interval(2)
    pairs = [
        CUBIC,
        GraphPair(Obstacle(-1.0, 1.0), PowerOdd(0.5, 1)),
        GraphPair(CATALOG_PWL, PowerOdd(1.0, 3)),
        GraphPair(PowerOdd(2.0, 1), Obstacle(-0.5, 0.5)),
    ]
    perts = [
        PerturbationSpec(),
        NEGATE,
        PerturbationSpec(bulk_kind="sine", bulk_params={"amplitude": 0.5, "frequency": 2.0}),
    ]
    worst = 0.0
    ok = True
    for i in range(10):
        gp = pairs[i % len(pairs)]
        pert = perts[i % len(perts)]
        tau = float(rng.uniform(0.05, 0.5))  # one step: T = tau
        cfg = SolverConfig(tau=tau, T=tau, eps=float(rng.uniform(0.05, 1.0)))
        w = s.field(rng.uniform(0.2, 1.0, s.n_bulk), rng.uniform(0.0, 0.5, s.n_bnd))
        style = i % 3
        if style == 0:
            k = float(rng.uniform(-0.2, 0.2))
            cons = make_constraint(s, w, k, k)
        elif style == 1:
            k = float(rng.uniform(-0.2, 0.2))
            cons = make_constraint(s, w, k - 0.02, k + 0.02)
        else:
            k = float(rng.uniform(-0.2, 0.2))
            cons = make_constraint(s, w, k - 2.0, k + 2.0)
        base = rng.uniform(-0.6, 0.6, s.n_bulk)
        sigma0 = total_weight(s, cons)
        shift = s.constant_field(k / sigma0)
        u_prev_bulk = base - (np.dot(s.M_bulk * w.bulk, base)
                              + np.dot(s.M_bnd * w.bnd, base[s.bidx])) / sigma0 * np.ones(3)
        # project the mass onto k along the uniform direction
        u_prev_bulk = u_prev_bulk + shift.bulk
        u_prev = s.field_from_bulk(u_prev_bulk)
        f = s.field(rng.uniform(-1, 1, s.n_bulk), rng.uniform(-1, 1, s.n_bnd))
        rec = proximal_step(s, gp, cons, pert, cfg, u_prev, f)
        v_star, spacing = bruteforce_proximal_argmin(s, gp, cons, pert, cfg, u_prev, f)
        gap = float(np.max(np.abs(rec.u.bulk - v_star)))
        worst = max(worst, gap / spacing)
        ok &= gap <= 2.5 * spacing
    elapsed = time.time() - start
    report(3, "brute-force proximal oracle (10 micro-scenarios)",
           ok and elapsed < 60.0, f"worst gap {worst:.2f} grid units, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def constrained_run():
    start = time.time()
    out = run_prototype(center=0.42)
    return out + (time.time() - start,)


def test_criterion_04_feasibility_complementarity(constrained_run):
    s, cons, cfg, u0, traj, run_elapsed = constrained_run
    start = time.time() - run_elapsed
    probes = [s.constant_field(cons.k_lo / total_weight(s, cons))]
    rng = np.random.default_rng(5)
    for _ in range(3):
        noise = rng.standard_normal(s.n_bulk)
        zn = s.field_from_bulk(noise)
        kz = mass(s, cons, zn)
        probes.append(zn - s.constant_field(kz / total_weight(s, cons)))
    ok = len(traj) == 101
    worst_mass = 0.0
    for rec in traj:
        worst_mass = max(worst_mass, abs(rec.k))
        ok &= abs(rec.k) <= 1e-8
        ok &= multiplier_sign_ok(cons, rec.k, rec.lam)
        ok &= variational_complementarity(s, cons, rec.u, rec.lam, probes)
    active = sum(1 for rec in traj[1:] if abs(rec.lam) > 1e-6)
    elapsed = time.time() - start
    report(4, "feasibility and complementarity along the constrained run",
           ok and elapsed < 30.0,
           f"max |mass| {worst_mass:.1e}, {active} active steps, {elapsed:.1f}s")


def test_criterion_05_energy_dissipation():
    start = time.time()
    s, cons, cfg, u0, traj = run_prototype(center=0.5, pert=PerturbationSpec())
    tol = 1e-10 * (1.0 + traj[0].energy)
    ok = True
    worst = -math.inf
    for a, b in zip(traj[:-1], traj[1:]):
        du = b.u - a.u
        slack = a.energy - (b.energy + 0.5 / cfg.tau * inner_H(s, du, du))
        worst = max(worst, -slack)
        ok &= slack >= -tol
    elapsed = time.time() - start
    report(5, "energy dissipation with the quantified gap",
           ok and elapsed < 30.0, f"worst violation {worst:.1e}, {elapsed:.1f}s")


def test_criterion_06_lambda_formula(constrained_run):
    s, cons, cfg, u0, traj, _ = constrained_run
    ok = True
    worst = 0.0
    u_prev = u0
    for rec in traj[1:]:
        got = lambda_formula(s, CUBIC, cons, NEGATE, cfg, rec, u_prev, zero_field(s))
        gap = abs(got - rec.lam) / (1.0 + abs(rec.lam))
        worst = max(worst, gap)
        ok &= gap <= 10.0 * cfg.newton_tol
        u_prev = rec.u
    report(6, "multiplier recovery by constant pairing", ok,
           f"worst relative gap {worst:.1e}")


def test_criterion_07_unconstrained_equivalence():
    start = time.time()
    d, s = make_interval(64)
    cons = make_constraint(
        s, s.field(np.ones(s.n_bulk), np.zeros(s.n_bnd)), -math.inf, math.inf
    )
    cfg = SolverConfig(tau=1e-2, T=1.0, eps=0.05, newton_tol=1e-13)
    u0 = s.field_from_bulk(np.tanh((d.coords[:, 0] - 0.42) / 0.15))
    traj = simulate(Problem(s, CUBIC, NEGATE, cfg, cons, u0, lambda t: zero_field(s)))
    ok = all(rec.lam == 0.0 for rec in traj)
    u_ref = u0
    worst = 0.0
    for rec in traj[1:]:
        ref_bulk = reference_plain_step(s, CUBIC, NEGATE, cfg, u_ref, zero_field(s))
        worst = max(worst, float(np.max(np.abs(rec.u.bulk - ref_bulk))))
        u_ref = s.field_from_bulk(ref_bulk)
    ok &= worst <= 1e-12
    elapsed = time.time() - start
    report(7, "sentinel barriers reproduce the plain stepper",
           ok and elapsed < 30.0, f"max trajectory gap {worst:.1e}, {elapsed:.1f}s")


def test_criterion_08_continuous_dependence():
    start = time.time()
    base = prototype_scenario()
    worst = 0.0
    ok = True
    for delta in (1e-1, 1e-2, 1e-3):
        pert_u0 = with_data(
            base, u0={
                "kind": "sum",
                "terms": [
                    {"kind": "tanh_x", "center": 0.5, "width": 0.15},
                    {"kind": "sine_x", "amplitude": delta, "frequency": 2.0},
                ],
            }
        )
        r1 = continuous_dependence(base, pert_u0)
        pert_f = with_data(
            base, f={
                "space": {"kind": "sine_x", "amplitude": delta, "frequency": 3.0},
                "time": {"kind": "constant"},
            }
        )
        r2 = continuous_dependence(base, pert_f)
        for rep in (r1, r2):
            worst = max(worst, rep.max_ratio)
            ok &= 0.0 < rep.max_ratio <= 1.0
    elapsed = time.time() - start
    report(8, "two-run stability against the explicit constant",
           ok and elapsed < 120.0, f"max ratio {worst:.2e}, {elapsed:.1f}s")


def test_criterion_09_eps_sweep():
    start = time.time()
    result = eps_sweep(prototype_scenario(), [0.2, 0.1, 0.05, 0.025, 0.0125])
    d = result["d"]
    ok = all(b < a for a, b in zip(d[:-1], d[1:]))
    ok &= monitors_no_growth(result["monitors"])
    elapsed = time.time() - start
    report(9, "regularization sweep: Cauchy decrease and bounded monitors",
           ok and elapsed < 300.0,
           "d = " + ", ".join(f"{v:.2e}" for v in d) + f", {elapsed:.1f}s")


def test_criterion_10_density_demo():
    start = time.time()
    d, s = make_interval(256)
    u = s.field(np.zeros(s.n_bulk), np.ones(s.n_bnd))
    study = density_study(s, u, [1, 4, 16, 64, 256])
    ok = all(b < a for a, b in zip(study.err_bulk[:-1], study.err_bulk[1:]))
    ok &= all(b < a for a, b in zip(study.err_bnd[:-1], study.err_bnd[1:]))
    ok &= all(l <= study.energy_rhs + 1e-12 for l in study.energy_lhs)
    ok &= all(nn <= study.input_norm_sq + 1e-10 for nn in study.norm_sq)
    x = d.coords[:, 0]
    rn = 4.0  # sqrt(16)
    exact = np.cosh(rn * (x - 0.5)) / (np.cosh(rn / 2) + np.sinh(rn / 2) / rn)
    v16 = robin_approx(s, u, 16)
    rel = float(np.max(np.abs(v16.bulk - exact)) / np.max(np.abs(exact)))
    ok &= rel <= 0.02
    elapsed = time.time() - start
    report(10, "Robin approximation study with the closed-form layer",
           ok and elapsed < 10.0, f"closed-form rel err {rel:.1e}, {elapsed:.1f}s")


def test_criterion_11_probe_equivalence():
    start = time.time()
    _, s = make_interval(4)
    w = s.field(np.ones(s.n_bulk), np.zeros(s.n_bnd))
    cons = make_constraint(s, w, -0.8, 1.3)
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        which = int(rng.integers(0, 3))
        k = [cons.k_lo, cons.k_hi, float(rng.uniform(-0.7, 1.2))][which]
        lam = float(rng.choice([0.0, 1.0, -1.0]) * rng.uniform(0.1, 2.0))
        u = s.constant_field(k / total_weight(s, cons))
        probes = [s.constant_field(cons.k_lo / total_weight(s, cons)),
                  s.constant_field(cons.k_hi / total_weight(s, cons))]
        for _ in range(3):
            alpha = float(rng.uniform(cons.k_lo, cons.k_hi))
            probes.append(s.constant_field(alpha / total_weight(s, cons)))
        a = multiplier_sign_ok(cons, k, lam)
        b = variational_complementarity(s, cons, u, lam, probes)
        ok &= a == b
    elapsed = time.time() - start
    report(11, "sign condition equals the probe inequality (100 trials)",
           ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_12_convergence_order():
    # self-convergence on the prototype at T = 0.2: the change between
    # successive refinements halves with tau (first order) and quarters
    # with h (second order, at the nodes of the coarser mesh)
    start = time.time()

    def final_state(tau: float, cells: int):
        scenario = prototype_scenario(
            domain={"kind": "interval", "sizes": [1.0], "resolution": [cells]},
            solver={"tau": tau, "T": 0.2, "eps": 0.05},
        )
        prob = build_problem(scenario)
        traj = simulate(prob)
        return prob.sys, traj[-1].u

    finals = [final_state(tau, 64) for tau in (0.02, 0.01, 0.005, 0.0025, 0.00125)]
    d_tau = []
    for (s, a), (_, b) in zip(finals[:-1], finals[1:]):
        e = a - b
        d_tau.append(math.sqrt(inner_H(s, e, e)))
    nodal = [final_state(0.01, cells)[1].bulk for cells in (16, 32, 64, 128)]
    d_h = [float(np.max(np.abs(a - b[::2]))) for a, b in zip(nodal[:-1], nodal[1:])]
    r_tau = [a / b for a, b in zip(d_tau[:-1], d_tau[1:])]
    r_h = [a / b for a, b in zip(d_h[:-1], d_h[1:])]
    # measured: 1.941, 1.969, 1.984 in tau; 4.0007, 4.0002 in h
    ok = all(1.92 <= r <= 2.02 for r in r_tau)
    ok &= all(3.98 <= r <= 4.02 for r in r_h)
    elapsed = time.time() - start
    report(12, "first order in tau, second order in h",
           ok and elapsed < 5.0,
           "tau ratios " + ", ".join(f"{r:.3f}" for r in r_tau)
           + "; h ratios " + ", ".join(f"{r:.4f}" for r in r_h) + f", {elapsed:.1f}s")


FORCED_BAND = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "forced_band.json")


@pytest.mark.parametrize("w, w_gamma", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
                         ids=["bulk", "trace", "both"])
@pytest.mark.parametrize("domain", [
    {"kind": "interval", "sizes": [1.0], "resolution": [64]},
    {"kind": "rectangle", "sizes": [1.0, 1.0], "resolution": [16, 16]},
], ids=["interval", "rectangle"])
def test_criterion_13_bulk_or_trace_constraint(domain, w, w_gamma):
    # the shipped forced band with the mass weighted in the bulk, on the
    # trace or on both; the forcing keeps the band active on most steps
    start = time.time()
    with open(FORCED_BAND, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["domain"] = domain
    raw["constraint"]["w"]["value"], raw["constraint"]["w_gamma"]["value"] = w, w_gamma
    scenario = Scenario.from_dict(raw)
    p = build_problem(scenario)
    s, cons, cfg, pert = p.sys, p.constraint, p.solver, p.perturbation
    traj = simulate(p)
    tol_k = mass_tolerance(cons)
    probes = [s.constant_field(k / total_weight(s, cons)) for k in (cons.k_lo, 0.0, cons.k_hi)]
    ok = len(traj) == 101
    worst_lam, worst_obj = 0.0, -math.inf
    for prev, rec in zip(traj, traj[1:]):
        f = p.f_of_t(rec.t)
        ok &= cons.k_lo - tol_k <= rec.k <= cons.k_hi + tol_k
        ok &= multiplier_sign_ok(cons, rec.k, rec.lam)
        ok &= variational_complementarity(s, cons, rec.u, rec.lam, probes)
        got = lambda_formula(s, p.graphs, cons, pert, cfg, rec, prev.u, f)
        worst_lam = max(worst_lam, abs(got - rec.lam) / (1.0 + abs(rec.lam)))
        # the step objective (energy, movement, linear data part) is no
        # larger at the step's solution than at the previous state
        du = rec.u - prev.u
        lin = CoupledField(pert.eval_bulk(prev.u.bulk) - f.bulk, pert.eval_bnd(prev.u.bnd) - f.bnd)
        excess = rec.energy + 0.5 / cfg.tau * inner_H(s, du, du) + inner_H(s, lin, du) - prev.energy
        worst_obj = max(worst_obj, excess / (1.0 + abs(prev.energy)))
    active = sum(rec.lam != 0.0 for rec in traj[1:])
    ok &= worst_lam <= 10.0 * cfg.newton_tol and worst_obj <= 1e-10 and active > 50
    detail = f"{active} active steps, lambda gap {worst_lam:.1e}, objective {worst_obj:.1e}"
    if w == 0.0:
        # two-run stability under nearby initial and boundary data
        near = with_data(
            scenario,
            u0={"kind": "sum", "terms": [raw["data"]["u0"],
                                         {"kind": "sine_x", "amplitude": 0.01, "frequency": 2.0}]},
            f_gamma=dict(raw["data"]["f_gamma"], space={"kind": "constant", "value": 3.1}),
        )
        ratio = continuous_dependence(scenario, near).max_ratio
        ok &= 0.0 < ratio <= 1.0
        detail += f", check-cd ratio {ratio:.2e}"
    elapsed = time.time() - start
    report(13, f"mass constraint with (w, w_gamma) = ({w:g}, {w_gamma:g})",
           ok and elapsed < 3.0, detail + f", {elapsed:.2f}s")
