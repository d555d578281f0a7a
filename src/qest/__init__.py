"""Quantum estimation toolkit.

Measurement statistics of density operators, quantum Fisher information and
estimation-error bounds, Gaussian state families with their optimal
protocols, exact quantum-central-limit-theorem checks, and small-scale
collective POVM estimators.
"""

__version__ = "0.1.0"

from .qcore import (
    DensityOperator,
    OutcomeDistribution,
    Povm,
    measure_distribution,
    mix,
    sample_outcomes,
    tensor_power,
)
from .models import (
    ParametricModel,
    diagonal_family,
    gaussian_displacement_family,
    model_derivatives,
    model_from_name,
    qubit_family,
)
from .fisher import FisherMatrix, LogDerivativeSet, classical_fisher, d_map, rld_fisher, sld_fisher
from .bounds import (
    HolevoSolution,
    cr_value,
    gaussian_shift_bound,
    gill_massar,
    holevo_bound,
    holevo_objective,
    qubit_c1,
)
from .gaussian import (
    ConcentrationResult,
    FockState,
    GaussianProtocolReport,
    GaussianSpec,
    concentrate,
    fock_density,
    gaussian_moment,
    gaussian_protocol_mse,
    heterodyne_sample,
    number_distribution,
    t_density,
)
from .clt import (
    CollectiveSpec,
    clt_gap,
    collective_moment,
    collective_moment_bruteforce,
    t_operator_on_sums,
)
from .collective import (
    CollectivePovm,
    EstimationReport,
    build_collective_povm,
    collective_estimator_check,
    mle,
    mse_report,
    optimal_qubit_povm,
    two_stage_estimate,
)
from .errors import NumericalError, QestError, ValidationError
