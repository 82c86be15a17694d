"""Scenario configuration: parsing, validation, and problem assembly.

A scenario is a JSON document with blocks ``domain``, ``graphs``,
``perturbation``, ``data``, ``constraint``, ``solver``, and ``output``.
Spatial data come from a small function catalog (constant, linear in x,
sine in x, tanh profile in x, and sums of these), optionally modulated
in time (constant or sinusoidal factor).  Barriers may be null, which
encodes an unbounded side of the mass band.

Validation reports every violated assumption with its label: (p2) for
degenerate or negative weights, (p3) for an initial mass outside the
band, (p4) for initial data outside a graph domain, (pilip) for an
understated Lipschitz constant or a perturbation that is not finite on
the sampled range, (inidata) for structural defects of the data pair,
(finite) for NaN or infinite node values or solver parameters, (solver)
for a final time T that is not positive or not a whole multiple of the
step tau, and (domain), (graphs), (perturbation), (data), (constraint),
(solver) and (output) for a malformed block of that name, such as a
block that is not an object, a non-numeric value, a fractional
resolution or exponent, a NaN or infinite graph coefficient, slope or
polyline vertex (the zero and linear graph kinds are odd powers with
exponent 1), a newton_max_iter that is not an integer >= 1, or a
non-finite Lipschitz constant, and (scenario) for any other value
the problem cannot be built from.  The checks run on the one build of
the problem that ``build_problem`` returns; a graphs, perturbation,
data, constraint or solver block that is not an object is rejected
earlier, by ``Scenario.from_dict``.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import graphs as gr
from .constraint import ConstraintSpec, make_constraint, mass, mass_tolerance
from .mesh import CoupledField, DiscreteSystem, assemble, build_domain
from .stepper import PerturbationSpec, SolverConfig

__all__ = [
    "Scenario",
    "Problem",
    "ScenarioError",
    "space_function",
    "time_factor",
    "validate",
    "build_problem",
    "data_independent_dict",
    "load_scenario",
    "dump_scenario",
]


class ScenarioError(ValueError):
    """Raised when a scenario fails validation."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


# ---------------------------------------------------------------------------
# function catalog


def space_function(cfg: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Catalog spatial profile, evaluated on the first coordinate."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a spatial function must be an object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind == "constant":
        v = float(cfg["value"])
        return lambda x: np.full(x.shape[0], v)
    if kind == "linear_x":
        a, b = float(cfg.get("intercept", 0.0)), float(cfg.get("slope", 1.0))
        return lambda x: a + b * x[:, 0]
    if kind == "sine_x":
        amp = float(cfg.get("amplitude", 1.0))
        freq = float(cfg.get("frequency", 1.0))
        return lambda x: amp * np.sin(math.pi * freq * x[:, 0])
    if kind == "tanh_x":
        c, w = float(cfg.get("center", 0.0)), float(cfg.get("width", 1.0))
        return lambda x: np.tanh((x[:, 0] - c) / w)
    if kind == "sum":
        parts = [space_function(term) for term in cfg["terms"]]
        return lambda x: sum(part(x) for part in parts)
    raise ValueError(f"unknown spatial function kind {cfg.get('kind')!r}")


def time_factor(cfg: dict | None) -> Callable[[float], float]:
    if cfg is not None and not isinstance(cfg, dict):
        raise ValueError(f"a time modulation must be an object or null, got {type(cfg).__name__}")
    if cfg is None or cfg.get("kind", "constant") == "constant":
        return lambda t: 1.0
    if cfg.get("kind") == "sinusoidal":
        omega = float(cfg.get("omega", 1.0))
        phase = float(cfg.get("phase", 0.0))
        return lambda t: math.cos(omega * t + phase)
    raise ValueError(f"unknown time modulation kind {cfg.get('kind')!r}")


_DEFAULT_SOLVER = {
    "tau": 0.01,
    "T": 1.0,
    "eps": 0.1,
    "newton_tol": 1e-11,
    "newton_max_iter": 60,
    "lambda_tol": 1e-11,
}

_ZERO_FUNC = {"kind": "constant", "value": 0.0}


@dataclass(frozen=True)
class Scenario:
    """Normalized scenario document."""

    domain: dict
    graphs: dict
    perturbation: dict
    data: dict
    constraint: dict
    solver: dict
    output: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        """Merge defaults into a scenario document.

        Raises ScenarioError, labelled with the block's name, when a block
        that defaults are merged into is not an object.
        """
        raw = copy.deepcopy(raw)
        errors = [
            f"({name}) the {name} block must be an object, got {type(raw[name]).__name__}"
            for name in ("graphs", "perturbation", "data", "constraint", "solver")
            if name in raw and not isinstance(raw[name], dict)
        ]
        if errors:
            raise ScenarioError(errors)
        data = raw.get("data", {})
        data.setdefault("f", {"space": dict(_ZERO_FUNC), "time": {"kind": "constant"}})
        data.setdefault("f_gamma", {"space": dict(_ZERO_FUNC), "time": {"kind": "constant"}})
        data.setdefault("u0", dict(_ZERO_FUNC))
        data.setdefault("u0_gamma", None)
        solver = dict(_DEFAULT_SOLVER)
        solver.update(raw.get("solver", {}))
        constraint = raw.get("constraint", {})
        constraint.setdefault("w", {"kind": "constant", "value": 1.0})
        constraint.setdefault("w_gamma", {"kind": "constant", "value": 1.0})
        constraint.setdefault("k_lo", None)
        constraint.setdefault("k_hi", None)
        pert = raw.get("perturbation", {})
        pert.setdefault("bulk", {"kind": "zero"})
        pert.setdefault("boundary", {"kind": "zero"})
        pert.setdefault("lipschitz_bulk", 0.0)
        pert.setdefault("lipschitz_bnd", 0.0)
        graphs_blk = raw.get("graphs", {})
        graphs_blk.setdefault("bulk", {"kind": "zero"})
        graphs_blk.setdefault("boundary", {"kind": "zero"})
        graphs_blk.setdefault("rho", 1.0)
        return cls(
            domain=raw.get("domain", {}),
            graphs=graphs_blk,
            perturbation=pert,
            data=data,
            constraint=constraint,
            solver=solver,
            output=raw.get("output", {}),
        )

    def to_dict(self) -> dict:
        return copy.deepcopy(
            {
                "domain": self.domain,
                "graphs": self.graphs,
                "perturbation": self.perturbation,
                "data": self.data,
                "constraint": self.constraint,
                "solver": self.solver,
                "output": self.output,
            }
        )

    def with_data(self, **updates) -> "Scenario":
        d = self.to_dict()
        d["data"].update(updates)
        return Scenario.from_dict(d)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("a scenario file must hold a JSON object")
    return Scenario.from_dict(raw)


def dump_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class Problem:
    """Scenario materialized into solver-ready components."""

    scenario: Scenario
    sys: DiscreteSystem
    graphs: gr.GraphPair
    perturbation: PerturbationSpec
    solver: SolverConfig
    constraint: ConstraintSpec
    u0: CoupledField
    f_of_t: Callable[[float], CoupledField]


def _nonfinite(what: str, **values) -> list[str]:
    bad = [name for name, v in values.items() if not np.all(np.isfinite(v))]
    return [f"(finite) non-finite {what} values in {', '.join(bad)}"] if bad else []


def _solver_errors(solver: dict) -> list[str]:
    """Finite tau, T, eps; newton_max_iter an integer >= 1; T > 0 a whole number of steps."""
    try:
        tau, T, eps, iters = (float(solver[k]) for k in ("tau", "T", "eps", "newton_max_iter"))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        return [f"(solver) {exc}"]
    bad = _nonfinite("solver", tau=tau, T=T, eps=eps, newton_max_iter=iters)
    if bad:
        return bad
    if not (iters.is_integer() and iters >= 1):
        return [f"(solver) newton_max_iter={solver['newton_max_iter']!r} must be an integer >= 1"]
    if T <= 0.0:
        return [f"(solver) T={T!r} must be positive"]
    if tau > 0.0:
        n = T / tau
        if not math.isfinite(n):
            return [f"(solver) T={T!r} is too many steps of tau={tau!r}"]
        if round(n) < 1 or abs(n - round(n)) > 1e-9 * n:
            return [f"(solver) T={T!r} is not a whole multiple of tau={tau!r}"]
    return []


def _perturbation(blk: dict) -> tuple[PerturbationSpec | None, list[str]]:
    """The perturbation block's spec, or None, and its violations."""
    try:
        pert = PerturbationSpec(
            bulk_kind=blk["bulk"]["kind"],
            bnd_kind=blk["boundary"]["kind"],
            bulk_params={k: v for k, v in blk["bulk"].items() if k != "kind"},
            bnd_params={k: v for k, v in blk["boundary"].items() if k != "kind"},
            lipschitz_bulk=float(blk["lipschitz_bulk"]),
            lipschitz_bnd=float(blk["lipschitz_bnd"]),
        )
        violations = pert.lipschitz_violations()
    except (KeyError, ValueError, TypeError) as exc:
        return None, [f"(perturbation) {exc}"]
    return pert, [
        f"(pilip) declared {name} Lipschitz constant {declared} is exceeded "
        f"by a sampled slope {worst:.6g} on [-5, 5]"
        for name, worst, declared in violations
    ]


def _output_errors(output) -> list[str]:
    if not isinstance(output, dict):
        return ["(output) the output block must be an object"]
    errors = []
    every = output.get("snapshot_every", 0)
    if type(every) is not int or every < 0:
        errors.append(f"(output) snapshot_every={every!r} must be an integer >= 0")
    if not isinstance(output.get("dir", "out"), str):
        errors.append(f"(output) dir={output['dir']!r} must be a string")
    return errors


def _check_and_build(scenario: Scenario) -> tuple[list[str], Problem | None]:
    """Check every scenario assumption on the one build of its problem.

    Returns the violations, in the order they are found, and the problem
    when there are none.  A defect that leaves nothing further to check
    ends the list early.
    """
    errors: list[str] = []
    try:
        dom_blk = scenario.domain
        domain = build_domain(dom_blk["kind"], dom_blk["sizes"], dom_blk["resolution"])
        sys = assemble(domain)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        return [f"(domain) {exc}"], None

    try:
        gp = gr.GraphPair(
            bulk=gr.graph_from_config(scenario.graphs["bulk"]),
            bnd=gr.graph_from_config(scenario.graphs["boundary"]),
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        return [f"(graphs) {exc}"], None
    try:
        rho = float(scenario.graphs["rho"])
    except (TypeError, ValueError):
        rho = math.nan
    if not 0.0 < rho < math.inf:
        errors.append("(graphs) rho must be positive and finite")
    errors += _solver_errors(scenario.solver)
    pert, pert_errors = _perturbation(scenario.perturbation)
    errors += pert_errors

    # weight assumptions are checked before the constraint is made, which requires them
    xb = domain.coords
    xg = domain.coords[domain.boundary_idx]
    try:
        w_bulk = space_function(scenario.constraint["w"])(xb)
        w_bnd = space_function(scenario.constraint["w_gamma"])(xg)
    except (KeyError, ValueError, TypeError) as exc:
        return errors + [f"(constraint) {exc}"], None
    bad = _nonfinite("node", w=w_bulk, w_gamma=w_bnd)
    if bad:
        return errors + bad, None
    if np.any(w_bulk < 0.0) or np.any(w_bnd < 0.0):
        errors.append("(p2) weights must be nonnegative")
    else:
        sigma0 = float(np.dot(sys.M_bulk, w_bulk) + np.dot(sys.M_bnd, w_bnd))
        if sigma0 <= 0.0:
            errors.append(
                f"(p2) total weight {sigma0} is not positive (degenerate weights)"
            )
    barriers = []
    for side, unbounded in (("lo", -math.inf), ("hi", math.inf)):
        value = scenario.constraint[f"k_{side}"]
        try:
            barriers.append(unbounded if value is None else float(value))
        except (TypeError, ValueError):
            errors.append(f"(constraint) k_{side}={value!r} must be a number or null")
    if len(barriers) == 2 and not barriers[0] <= barriers[1]:
        errors.append(f"(constraint) k_lo={barriers[0]} exceeds k_hi={barriers[1]}")
    errors += _output_errors(scenario.output)
    if errors:
        return errors, None

    try:
        cfg = SolverConfig(
            tau=float(scenario.solver["tau"]),
            T=float(scenario.solver["T"]),
            eps=float(scenario.solver["eps"]),
            rho=rho,
            newton_tol=float(scenario.solver["newton_tol"]),
            newton_max_iter=int(scenario.solver["newton_max_iter"]),
            lambda_tol=float(scenario.solver["lambda_tol"]),
        )
        cons = make_constraint(sys, sys.field(w_bulk, w_bnd), *barriers)
        u0_bulk = space_function(scenario.data["u0"])(xb)
        if scenario.data["u0_gamma"] is None:
            u0 = sys.field_from_bulk(u0_bulk)
        else:
            u0 = sys.field(u0_bulk, space_function(scenario.data["u0_gamma"])(xg))
        f_space = space_function(scenario.data["f"]["space"])(xb)
        f_time = time_factor(scenario.data["f"].get("time"))
        fg_space = space_function(scenario.data["f_gamma"]["space"])(xg)
        fg_time = time_factor(scenario.data["f_gamma"].get("time"))

        def f_of_t(t: float) -> CoupledField:
            return CoupledField(f_time(t) * f_space, fg_time(t) * fg_space)

        f_first = f_of_t(cfg.tau)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        return [f"(scenario) {exc}"], None

    bad = _nonfinite("node", f=f_first.bulk, f_gamma=f_first.bnd, u0=u0.bulk, u0_gamma=u0.bnd)
    if bad:
        return bad, None
    if not sys.check_trace(u0):
        errors.append("(inidata) initial boundary data is not the trace of the bulk data")
    k0 = mass(sys, cons, u0)
    tol_k = mass_tolerance(cons)
    if not cons.k_lo - tol_k <= k0 <= cons.k_hi + tol_k:
        errors.append(
            f"(p3) initial mass {k0:.17g} violates "
            f"k_lo={cons.k_lo:.17g} <= k <= k_hi={cons.k_hi:.17g}"
        )
    if not np.all(np.isfinite(gp.bulk.primitive(u0.bulk))):
        errors.append("(p4) bulk primitive of the initial data is not integrable")
    if not np.all(np.isfinite(gp.bnd.primitive(u0.bnd))):
        errors.append("(p4) boundary primitive of the initial data is not integrable")
    if errors:
        return errors, None
    return [], Problem(scenario, sys, gp, pert, cfg, cons, u0, f_of_t)


def validate(scenario: Scenario) -> list[str]:
    """Check every scenario assumption; return the list of violations."""
    return _check_and_build(scenario)[0]


def build_problem(scenario: Scenario) -> Problem:
    """Validate and materialize a scenario; raise ScenarioError if it is invalid."""
    errors, prob = _check_and_build(scenario)
    if errors:
        raise ScenarioError(errors)
    return prob


def data_independent_dict(scenario: Scenario) -> dict:
    """Scenario content excluding the data and output blocks."""
    d = scenario.to_dict()
    d.pop("data", None)
    d.pop("output", None)
    return d
