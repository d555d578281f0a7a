import importlib
import json
import subprocess
import sys

import pytest

import qest

# the package's public names, by the module that defines each
PUBLIC = {
    "qcore": [
        "DensityOperator", "OutcomeDistribution", "Povm", "measure_distribution", "mix",
        "sample_outcomes", "tensor_power",
    ],
    "models": [
        "ParametricModel", "diagonal_family", "gaussian_displacement_family", "model_derivatives",
        "model_from_name", "qubit_family",
    ],
    "fisher": ["FisherMatrix", "LogDerivativeSet", "classical_fisher", "d_map", "rld_fisher", "sld_fisher"],
    "bounds": [
        "HolevoSolution", "cr_value", "gaussian_shift_bound", "gill_massar", "holevo_bound",
        "holevo_objective", "qubit_c1",
    ],
    "gaussian": [
        "ConcentrationResult", "FockState", "GaussianProtocolReport", "GaussianSpec", "concentrate",
        "fock_density", "gaussian_moment", "gaussian_protocol_mse", "heterodyne_sample",
        "number_distribution", "t_density",
    ],
    "clt": ["CollectiveSpec", "clt_gap", "collective_moment", "collective_moment_bruteforce", "t_operator_on_sums"],
    "collective": [
        "CollectivePovm", "EstimationReport", "build_collective_povm", "collective_estimator_check", "mle",
        "mse_report", "optimal_qubit_povm", "two_stage_estimate",
    ],
    "errors": ["NumericalError", "QestError", "ValidationError"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


class TestLazyExports:
    @pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
    def test_name_is_the_defining_modules_object(self, module, name):
        defining = importlib.import_module(f"qest.{module}")
        obj = getattr(defining, name)
        assert obj.__module__ == defining.__name__
        namespace = {}
        exec(f"from qest import {name}", namespace)
        assert namespace[name] is obj
        assert getattr(qest, name) is obj

    def test_all_and_dir_list_the_names(self):
        names = {name for _, name in NAMES}
        assert set(qest.__all__) == names
        assert names <= set(dir(qest))

    def test_star_import(self):
        namespace = {}
        exec("from qest import *", namespace)
        del namespace["__builtins__"]
        assert namespace == {name: getattr(qest, name) for _, name in NAMES}

    def test_submodules_are_attributes(self):
        for module in PUBLIC:
            assert getattr(qest, module) is importlib.import_module(f"qest.{module}")

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qest.no_such_name
        with pytest.raises(ImportError):
            exec("from qest import no_such_name", {})

    def test_import_loads_no_submodule(self):
        code = (
            "import json, sys, qest\n"
            "before = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('qest'))\n"
            "qest.sld_fisher\n"
            "print(json.dumps([before, 'qest.fisher' in sys.modules]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [["qest"], True]
