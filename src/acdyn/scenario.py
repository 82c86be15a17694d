"""Scenario configuration: parsing, validation, and problem assembly.

A scenario is a JSON document with blocks ``domain``, ``graphs``,
``perturbation``, ``data``, ``constraint``, ``solver``, and ``output``.
Spatial data come from a small function catalog (constant, linear in x,
sine in x, tanh profile in x, and sums of these), optionally modulated
in time (constant or sinusoidal factor), and graphs from a catalog of
kinds.  Barriers may be null, which encodes an unbounded side of the
mass band.  This module alone turns the document's values into numbers,
with two readers: ``_number`` takes a JSON number (an int that is not a
bool, or a float) and ``_integer`` an integral one; any other value, or
an int beyond the float range, fails the block that holds it.

Validation collects the labelled violations that the objects built from
the blocks report (``solver_config_errors``, ``perturbation_errors``,
``constraint_errors``, ``initial_data_errors``), so that violations in
several blocks are reported together.  The labels: (p2) degenerate or
negative weights, (p3) an initial mass outside the band, (p4) initial
data outside a graph domain, (inidata) boundary data that is not the
trace of the bulk data, (finite) NaN or infinite node or solver values,
(domain), (graphs), (perturbation), (data), (constraint), (solver) and
(output) a malformed or out-of-range value in that block, and (scenario)
a data function that cannot be built; numpy overflow, division by zero
and invalid values fail their block too.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import graphs as gr
from .constraint import constraint_errors, make_constraint
from .mesh import CoupledField, assemble, build_domain
from .stepper import PERTURBATIONS, PerturbationSpec, Problem, SolverConfig
from .stepper import initial_data_errors, perturbation_errors, solver_config_errors

__all__ = [
    "Scenario",
    "Problem",
    "ScenarioError",
    "space_function",
    "graph_from_config",
    "time_factor",
    "validate",
    "build_problem",
    "data_independent_dict",
    "load_scenario",
]


class ScenarioError(ValueError):
    """Raised when a scenario fails validation."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


# ---------------------------------------------------------------------------
# the number readers and the function and graph catalogs


def _number(value, name: str) -> float:
    """The float of the JSON number ``value`` at key ``name``; any other value
    raises TypeError, and an int beyond the float range OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name}={value!r} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise OverflowError(f"{name} is an integer beyond the float range") from None


def _integer(value, name: str) -> int:
    """``_number`` of an integral value, as an int; any other raises ValueError."""
    if not _number(value, name).is_integer():
        raise ValueError(f"{name}={value!r} must be an integer")
    return int(value)


def space_function(cfg: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Catalog spatial profile, evaluated on the first coordinate."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a spatial function must be an object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind == "constant":
        v = _number(cfg["value"], "value")
        return lambda x: np.full(x.shape[0], v)
    if kind == "linear_x":
        a = _number(cfg.get("intercept", 0.0), "intercept")
        b = _number(cfg.get("slope", 1.0), "slope")
        return lambda x: a + b * x[:, 0]
    if kind == "sine_x":
        amp = _number(cfg.get("amplitude", 1.0), "amplitude")
        freq = _number(cfg.get("frequency", 1.0), "frequency")
        return lambda x: amp * np.sin(math.pi * freq * x[:, 0])
    if kind == "tanh_x":
        c = _number(cfg.get("center", 0.0), "center")
        w = _number(cfg.get("width", 1.0), "width")

        def tanh_x(x: np.ndarray) -> np.ndarray:
            # a ratio past the float range saturates the profile at +-1;
            # a zero width still divides by zero
            with np.errstate(over="ignore"):
                return np.tanh((x[:, 0] - c) / w)

        return tanh_x
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
        omega = _number(cfg.get("omega", 1.0), "omega")
        phase = _number(cfg.get("phase", 0.0), "phase")
        return lambda t: math.cos(omega * t + phase)
    raise ValueError(f"unknown time modulation kind {cfg.get('kind')!r}")


# each graph kind's builder; zero and linear are PowerOdd graphs with p = 1
_GRAPHS = {
    "zero": lambda cfg: gr.PowerOdd(a=0.0, p=1),
    "linear": lambda cfg: gr.PowerOdd(a=_number(cfg["slope"], "slope"), p=1),
    "power_odd": lambda cfg: gr.PowerOdd(a=_number(cfg["coefficient"], "coefficient"),
                                         p=_integer(cfg["exponent"], "exponent")),
    "obstacle": lambda cfg: gr.Obstacle(lo=_number(cfg["lo"], "lo"), hi=_number(cfg["hi"], "hi")),
    "piecewise_linear": lambda cfg: gr.PiecewiseLinear(
        vertices=[(_number(x, "vertices"), _number(y, "vertices")) for x, y in cfg["vertices"]],
        slope_left=_number(cfg.get("slope_left", 0.0), "slope_left"),
        slope_right=_number(cfg.get("slope_right", 0.0), "slope_right"),
    ),
}


def graph_from_config(cfg: dict) -> gr.MonotoneGraph:
    """Build a graph from a scenario config block."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a graph must be an object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if not (isinstance(kind, str) and kind in _GRAPHS):
        raise ValueError(f"unknown graph kind {kind!r}; expected one of {sorted(_GRAPHS)}")
    return _GRAPHS[kind](cfg)


# the defaults merged into each block, key by key; no two keys share an object
_DEFAULTS = {
    "graphs": {"bulk": {"kind": "zero"}, "boundary": {"kind": "zero"}, "rho": 1.0},
    "perturbation": {"bulk": {"kind": "zero"}, "boundary": {"kind": "zero"}},
    "data": {"f": {"space": {"kind": "constant", "value": 0.0}, "time": {"kind": "constant"}},
             "f_gamma": {"space": {"kind": "constant", "value": 0.0},
                         "time": {"kind": "constant"}},
             "u0": {"kind": "constant", "value": 0.0}, "u0_gamma": None},
    "constraint": {"w": {"kind": "constant", "value": 1.0},
                   "w_gamma": {"kind": "constant", "value": 1.0}, "k_lo": None, "k_hi": None},
    "solver": {"tau": 0.01, "T": 1.0, "eps": 0.1, "newton_tol": 1e-11, "newton_max_iter": 60},
}


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
            for name in _DEFAULTS
            if name in raw and not isinstance(raw[name], dict)
        ]
        if errors:
            raise ScenarioError(errors)
        blocks = {name: {**copy.deepcopy(d), **raw.get(name, {})} for name, d in _DEFAULTS.items()}
        return cls(domain=raw.get("domain", {}), output=raw.get("output", {}), **blocks)

    def to_dict(self) -> dict:
        return asdict(self)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("a scenario file must hold a JSON object")
    return Scenario.from_dict(raw)


def _solver(solver: dict, rho: float) -> tuple[SolverConfig | None, list[str]]:
    """The solver block's config, or None, and its violations: those of
    ``solver_config_errors``, the time grid's among them."""
    try:
        values = dict({key: _number(solver[key], key) for key in _DEFAULTS["solver"]}, rho=rho)
        if math.isfinite(values["newton_max_iter"]):  # else a (finite) violation
            values["newton_max_iter"] = _integer(solver["newton_max_iter"], "newton_max_iter")
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        return None, [f"(solver) {exc}"]
    if errors := solver_config_errors(values):
        return None, errors
    return SolverConfig(**values), []


def _perturbation(blk: dict) -> tuple[PerturbationSpec | None, list[str]]:
    """The perturbation block's spec, or None, and its violations; each side
    keeps the parameters that its kind reads, and ignores other keys."""
    values = {}
    try:
        for side, key in (("bulk", "bulk"), ("bnd", "boundary")):
            kind = values[f"{side}_kind"] = blk[key]["kind"]
            known = isinstance(kind, str) and kind in PERTURBATIONS
            names = PERTURBATIONS[kind][0] if known else ()
            values[f"{side}_params"] = {n: _number(blk[key][n], n) for n in names if n in blk[key]}
    except (KeyError, TypeError, OverflowError) as exc:
        return None, [f"(perturbation) {exc}"]
    errors = perturbation_errors(values)
    return (None if errors else PerturbationSpec(**values)), errors


def _output_errors(output) -> list[str]:
    if not isinstance(output, dict):
        return ["(output) the output block must be an object"]
    errors = []
    every = output.get("snapshot_every", 0)
    try:
        if _integer(every, "snapshot_every") < 0:
            errors.append(f"(output) snapshot_every={every!r} must be an integer >= 0")
    except (TypeError, ValueError, OverflowError) as exc:
        errors.append(f"(output) {exc}")
    if not isinstance(output.get("dir", "out"), str):
        errors.append(f"(output) dir={output['dir']!r} must be a string")
    return errors


def _check_and_build(scenario: Scenario) -> tuple[list[str], Problem | None]:
    """Check every scenario assumption on the one build of its problem.

    Returns the violations, in the order they are found, and the problem
    when there are none.  A defect that leaves nothing further to check
    ends the list early.
    """
    try:
        dom_blk = scenario.domain
        domain = build_domain(dom_blk["kind"], [_number(s, "sizes") for s in dom_blk["sizes"]],
                              [_integer(r, "resolution") for r in dom_blk["resolution"]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            sys = assemble(domain)
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        return [f"(domain) {exc}"], None

    try:
        gp = gr.GraphPair(*(graph_from_config(scenario.graphs[k]) for k in ("bulk", "boundary")))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        return [f"(graphs) {exc}"], None
    try:
        rho = _number(scenario.graphs["rho"], "rho")
    except (TypeError, OverflowError):
        rho = math.nan
    cfg, errors = _solver(scenario.solver, rho)
    pert, pert_errors = _perturbation(scenario.perturbation)
    errors += pert_errors

    xb = domain.coords
    xg = domain.coords[domain.boundary_idx]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            w = sys.field(
                space_function(scenario.constraint["w"])(xb),
                space_function(scenario.constraint["w_gamma"])(xg),
            )
            barriers = []
            for side, unbounded in (("lo", -math.inf), ("hi", math.inf)):
                value = scenario.constraint[f"k_{side}"]
                try:
                    barriers.append(unbounded if value is None else _number(value, f"k_{side}"))
                except TypeError:
                    errors.append(f"(constraint) k_{side}={value!r} must be a number or null")
                    barriers.append(unbounded)  # the weights are still checked
            errors += constraint_errors(sys, w, *barriers)
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        return errors + [f"(constraint) {exc}"], None
    errors += _output_errors(scenario.output)
    if errors:
        return errors, None

    cons = make_constraint(sys, w, *barriers)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
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
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        return [f"(scenario) {exc}"], None

    nodes = {"f": f_first.bulk, "f_gamma": f_first.bnd, "u0": u0.bulk, "u0_gamma": u0.bnd}
    bad = [name for name, v in nodes.items() if not np.all(np.isfinite(v))]
    if bad:
        return [f"(finite) non-finite node values in {', '.join(bad)}"], None
    prob = Problem(sys=sys, graphs=gp, perturbation=pert, solver=cfg, constraint=cons,
                   u0=u0, f_of_t=f_of_t)
    errors = initial_data_errors(prob)
    return errors, (None if errors else prob)


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
    """Scenario content excluding the data and output blocks: the blocks
    themselves, not copies, since they are only compared."""
    return {k: v for k, v in vars(scenario).items() if k not in ("data", "output")}
