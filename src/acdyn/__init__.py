"""Constrained phase-field flow with coupled boundary dynamics.

Solver and verification toolkit for a bulk/boundary reaction-diffusion
flow whose nonlinearity is a maximal monotone graph plus a Lipschitz
perturbation, evolving under a weighted mass constraint enforced by a
scalar multiplier.
"""

from .constraint import ConstraintSpec, make_constraint, mass, multiplier_sign_ok
from .density import DensityRun, density_study, robin_approx
from .diagnostics import continuous_dependence, eps_sweep
from .graphs import (
    GraphPair,
    MonotoneGraph,
    Obstacle,
    PiecewiseLinear,
    PowerOdd,
    resolvent,
)
from .mesh import (
    CoupledField,
    DiscreteSystem,
    Domain,
    assemble,
    build_domain,
    inner_H,
)
from .scenario import Scenario, build_problem, validate
from .stepper import (
    PerturbationSpec,
    Problem,
    SolverConfig,
    StepRecord,
    energy,
    iter_steps,
    simulate,
)

__version__ = "0.1.0"
