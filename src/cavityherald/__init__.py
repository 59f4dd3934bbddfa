"""Heralded two-atom entanglement generation via cavity photodetection.

Closed-form success probabilities and fidelities for Fock- and
coherent-state heralding schemes, constrained optimizers over the
preparation parameters, and independent master-equation / quadrature /
Monte Carlo verification oracles.

The function `optimize` re-exported here shadows the submodule of the same
name whatever the import order, so `import cavityherald.optimize as m`
binds the function; use `importlib.import_module("cavityherald.optimize")`
to reach the module.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# each public name, by the module that defines it; a name loads its module
# on first use (PEP 562), so a command compiles only the modules it runs,
# and numpy loads only with the oracle, which only `verify` uses
_MODULES = {
    "core": ("CavityParams", "SpectrumPoint", "reflection_probability",
             "transmission_probability", "scattering_loss",
             "scattering_amplitudes", "effective_cooperativity_ring",
             "with_cooperativity", "default_x_grid"),
    "protocol": ("Preparation", "SchemeOutcome", "initial_populations",
                 "fock_single", "fock_double", "false_reflection_fidelity",
                 "coherent_conditional_population",
                 "coherent_conditional_fidelity", "first_click_density",
                 "coherent_single", "coherent_double",
                 "coherent_double_fidelity_uncorrected", "Scheme"),
    "optimize": ("OptimizationResult", "SweepSpec", "optimize",
                 "optimize_fock_single", "optimize_fock_double",
                 "optimize_coherent_single", "optimize_coherent_double",
                 "sweep"),
    "oracle": ("LindbladSystem", "OracleDiagnosticError", "build_system",
               "steady_state_rt", "steady_state_density_matrix",
               "coherence_decay_rate", "quadrature_single",
               "monte_carlo_double", "run_verification_suite"),
}
_HOME = {name: module for module, names in _MODULES.items()
         for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package, whose attribute `optimize` is always the function.

    Importing the submodule `optimize` binds it as an attribute of the
    package, which would shadow the function; this property drops that
    binding and keeps any other value set."""

    @property
    def optimize(self):
        try:
            return vars(self)["optimize"]
        except KeyError:
            return __getattr__("optimize")

    @optimize.setter
    def optimize(self, value) -> None:
        if value is not sys.modules.get(f"{self.__name__}.optimize"):
            vars(self)["optimize"] = value


sys.modules[__name__].__class__ = _Package
