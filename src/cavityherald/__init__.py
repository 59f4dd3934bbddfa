"""Heralded two-atom entanglement generation via cavity photodetection.

Closed-form success probabilities and fidelities for Fock- and
coherent-state heralding schemes, constrained optimizers over the
preparation parameters, and independent master-equation / quadrature /
Monte Carlo verification oracles.

The function `optimize` re-exported here shadows the submodule of the same
name, so `import cavityherald.optimize as m` binds the function; use
`importlib.import_module("cavityherald.optimize")` to reach the module.
"""

from .core import (
    CavityParams,
    SpectrumPoint,
    effective_cooperativity_ring,
    reflection_probability,
    scattering_amplitudes,
    scattering_loss,
    transmission_probability,
    with_cooperativity,
)
from .optimize import (
    OptimizationResult,
    Scheme,
    SweepSpec,
    default_x_grid,
    optimize,
    optimize_coherent_double,
    optimize_coherent_single,
    optimize_fock_double,
    optimize_fock_single,
    sweep,
)
from .protocol import (
    Preparation,
    SchemeOutcome,
    coherent_conditional_fidelity,
    coherent_conditional_population,
    coherent_double,
    coherent_double_fidelity_uncorrected,
    coherent_single,
    false_reflection_fidelity,
    first_click_density,
    fock_double,
    fock_single,
    initial_populations,
)

__version__ = "0.1.0"

__all__ = [
    "CavityParams",
    "SpectrumPoint",
    "reflection_probability",
    "transmission_probability",
    "scattering_loss",
    "scattering_amplitudes",
    "effective_cooperativity_ring",
    "with_cooperativity",
    "Preparation",
    "SchemeOutcome",
    "initial_populations",
    "fock_single",
    "fock_double",
    "false_reflection_fidelity",
    "coherent_conditional_population",
    "coherent_conditional_fidelity",
    "first_click_density",
    "coherent_single",
    "coherent_double",
    "coherent_double_fidelity_uncorrected",
    "Scheme",
    "OptimizationResult",
    "SweepSpec",
    "default_x_grid",
    "optimize",
    "optimize_fock_single",
    "optimize_fock_double",
    "optimize_coherent_single",
    "optimize_coherent_double",
    "sweep",
    "LindbladSystem",
    "OracleDiagnosticError",
    "build_system",
    "steady_state_rt",
    "steady_state_density_matrix",
    "coherence_decay_rate",
    "quadrature_single",
    "monte_carlo_double",
    "run_verification_suite",
    "__version__",
]


def __getattr__(name: str):
    # Only the oracle's names in __all__ reach this: the oracle pulls in
    # numpy, so it loads on first use (PEP 562), which only `verify` makes.
    if name in __all__:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
