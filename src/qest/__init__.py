"""Quantum estimation toolkit.

Measurement statistics of density operators, quantum Fisher information and
estimation-error bounds, Gaussian state families with their optimal
protocols, exact quantum-central-limit-theorem checks, and small-scale
collective POVM estimators.

The names below are exported lazily (PEP 562): ``import qest`` loads no
submodule and no NumPy, and ``qest.sld_fisher`` or ``from qest import
sld_fisher`` imports the defining module on first use.  The submodules
themselves are reachable as attributes the same way.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "qcore": (
        "DensityOperator",
        "OutcomeDistribution",
        "Povm",
        "measure_distribution",
        "mix",
        "sample_outcomes",
        "tensor_power",
    ),
    "models": (
        "ParametricModel",
        "diagonal_family",
        "gaussian_displacement_family",
        "model_derivatives",
        "model_from_name",
        "qubit_family",
    ),
    "fisher": ("FisherMatrix", "LogDerivativeSet", "classical_fisher", "d_map", "rld_fisher", "sld_fisher"),
    "bounds": (
        "HolevoSolution",
        "cr_value",
        "gaussian_shift_bound",
        "gill_massar",
        "holevo_bound",
        "holevo_objective",
        "qubit_c1",
    ),
    "gaussian": (
        "ConcentrationResult",
        "FockState",
        "GaussianProtocolReport",
        "GaussianSpec",
        "concentrate",
        "fock_density",
        "gaussian_moment",
        "gaussian_protocol_mse",
        "heterodyne_sample",
        "number_distribution",
        "t_density",
    ),
    "clt": (
        "CollectiveSpec",
        "clt_gap",
        "collective_moment",
        "collective_moment_bruteforce",
        "t_operator_on_sums",
    ),
    "collective": (
        "CollectivePovm",
        "EstimationReport",
        "build_collective_povm",
        "collective_estimator_check",
        "mle",
        "mse_report",
        "optimal_qubit_povm",
        "two_stage_estimate",
    ),
    "errors": ("NumericalError", "QestError", "ValidationError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
