"""Constrained phase-field flow with coupled boundary dynamics.

Solver and verification toolkit for a bulk/boundary reaction-diffusion
flow whose nonlinearity is a maximal monotone graph plus a Lipschitz
perturbation, evolving under a weighted mass constraint enforced by a
scalar multiplier.
"""

from .constraint import (
    ConstraintSpec,
    make_constraint,
    mass,
    multiplier_sign_ok,
    variational_complementarity,
)
from .density import DensityRun, density_study, robin_approx
from .diagnostics import continuous_dependence, eps_sweep, monitor_bounds
from .graphs import (
    GraphPair,
    MonotoneGraph,
    Obstacle,
    PiecewiseLinear,
    PowerOdd,
    minimal_section,
    moreau,
    resolvent,
    yosida,
)
from .mesh import (
    CoupledField,
    DiscreteSystem,
    Domain,
    assemble,
    build_domain,
    inner_H,
    normal_flux,
)
from .scenario import Problem, Scenario, build_problem, validate
from .stepper import (
    EnergyBreakdown,
    PerturbationSpec,
    SolverConfig,
    StepRecord,
    energy,
    lambda_formula,
    proximal_step,
    simulate,
)

__version__ = "0.1.0"
