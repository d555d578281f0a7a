import atexit
import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qest.cli import CSV_BLOCK_ROWS, _config_hash, main
from qest.collective import mixed_basis_povm, two_stage_estimate
from qest.gaussian import TRIAL_BLOCK, gaussian_protocol_mse, number_povm, protocol_trials
from qest.models import model_from_name
from qest.qcore import matrix_to_json

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z


def run_cli(args):
    """Invoke the CLI.  A report it writes, to stdout or to ``--out``, must
    carry the SHA-256 of its canonical config; hashlib is the oracle."""
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    if result.exit_code == 0:
        out = args[args.index("--out") + 1] if "--out" in args else None
        text = Path(f"{out}.json").read_text() if out else result.stdout
        if text.startswith("{"):
            report = json.loads(text)
            canonical = json.dumps(report["config"], sort_keys=True, separators=(",", ":"))
            assert report["configHash"] == hashlib.sha256(canonical.encode()).hexdigest()
    return result


class TestFisherCommand:
    def test_sld_json(self):
        result = run_cli(["fisher", "--model", "qubit-full", "--theta", "0,0,0", "--kind", "sld"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        mat = np.array(report["results"]["matrix"]["re"])
        assert np.allclose(mat, np.eye(3), atol=1e-10)
        for key in ("configHash", "seed", "tolerances", "versions"):
            assert key in report
        assert report["versions"]["qest"]

    def test_classical_needs_povm(self):
        result = run_cli(["fisher", "--model", "qubit-full", "--theta", "0,0,0", "--kind", "classical"])
        assert result.exit_code == 2

    def test_bad_theta(self):
        result = run_cli(["fisher", "--model", "qubit-full", "--theta", "0,0", "--kind", "sld"])
        assert result.exit_code == 2

    def test_numerical_failure_exit_3(self):
        # pure state: the radial derivative leaves the support
        result = run_cli(["fisher", "--model", "qubit-full", "--theta", "1,0,0", "--kind", "sld"])
        assert result.exit_code == 3

    def test_classical_from_povm_file(self, tmp_path):
        from qest.qcore import matrix_to_json

        povm_file = tmp_path / "basis.json"
        povm_file.write_text(
            json.dumps(
                {
                    "elements": [
                        matrix_to_json(np.diag([1.0 + 0j, 0.0])),
                        matrix_to_json(np.diag([0.0, 1.0 + 0j])),
                    ],
                    "labels": ["up", "down"],
                }
            )
        )
        result = run_cli(
            [
                "fisher", "--model", "qubit-full", "--theta", "0,0,0",
                "--kind", "classical", "--povm", str(povm_file),
            ]
        )
        assert result.exit_code == 0
        mat = np.array(json.loads(result.output)["results"]["matrix"]["re"])
        assert np.allclose(mat, np.diag([1.0, 0.0, 0.0]), atol=1e-10)

    def test_classical_window_follows_completeness_residual(self, tmp_path):
        # residual 5e-5, admitted by the file's completenessTol 1e-4: the
        # total probability may leave 1 by up to dim times the residual
        povm_file = tmp_path / "short.json"
        elements = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0 - 5e-5])]
        povm_file.write_text(json.dumps({"elements": [matrix_to_json(e) for e in elements], "completenessTol": 1e-4}))
        result = run_cli(["fisher", "--model", "diag:2", "--theta", "0.3", "--kind", "classical", "--povm", str(povm_file)])
        assert result.exit_code == 0
        mat = np.array(json.loads(result.output)["results"]["matrix"]["re"])
        assert abs(mat[0, 0] - 1 / (0.3 * 0.7)) < 1e-3


class TestInputFiles:
    def test_missing_povm_file_exits_2(self, tmp_path):
        result = run_cli(
            [
                "fisher", "--model", "qubit-full", "--theta", "0,0,0",
                "--kind", "classical", "--povm", str(tmp_path / "absent.json"),
            ]
        )
        assert result.exit_code == 2
        assert "cannot read --povm file" in result.output
        assert "Traceback" not in result.output

    def test_malformed_povm_file_exits_2(self, tmp_path):
        povm_file = tmp_path / "povm.json"
        povm_file.write_text('{"elements": [')
        result = run_cli(
            [
                "fisher", "--model", "qubit-full", "--theta", "0,0,0",
                "--kind", "classical", "--povm", str(povm_file),
            ]
        )
        assert result.exit_code == 2
        assert "cannot read --povm file" in result.output

    @pytest.mark.parametrize("content", [None, "not json", '{"dim": 2}', "[[1, 0], [0, 1]]"])
    def test_bad_weight_file_exits_2(self, tmp_path, content):
        g_file = tmp_path / "g.json"
        if content is not None:
            g_file.write_text(content)
        result = run_cli(["bounds", "--model", "qubit-z0", "--theta", "0.5,0", "--g", str(g_file)])
        assert result.exit_code == 2
        assert len(result.output.strip().splitlines()) == 1

    def test_inline_weight_rows(self):
        result = run_cli(["bounds", "--model", "qubit-z0", "--theta", "0,0", "--g", "[[1, 0], [0, 2]]"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["config"]["g"] == [[1.0, 0.0], [0.0, 2.0]]


class TestBoundsCommand:
    def test_origin_chain(self):
        result = run_cli(["bounds", "--model", "qubit-full", "--theta", "0,0,0"])
        assert result.exit_code == 0
        res = json.loads(result.output)["results"]
        assert abs(res["crSld"] - 3.0) < 1e-9
        assert abs(res["holevo"] - 3.0) < 1e-4
        assert abs(res["qubitC1"] - 9.0) < 1e-9
        assert res["optimizer"]["residual"] <= 1e-7

    def test_non_qubit_c1_unavailable(self):
        result = run_cli(["bounds", "--model", "diag:3", "--theta", "0.3,0.3"])
        assert result.exit_code == 0
        res = json.loads(result.output)["results"]
        assert res["qubitC1"] is None


class TestGaussCommand:
    def test_report_fields(self):
        result = run_cli(
            ["gauss", "--zeta", "0.5,0.2", "--N", "1.0", "--n", "32", "--trials", "2000", "--seed", "3"]
        )
        assert result.exit_code == 0
        res = json.loads(result.output)["results"]
        assert res["boundTheta"] == 4.0
        assert res["boundNoiseSeparable"] == 4.0
        assert abs(res["scaledMseTheta"] - 4.0) < 1.0

    def test_report_carries_the_baseline_standard_errors(self):
        argv = ["gauss", "--zeta", "0.6,0.4", "--N", "1.0", "--n", "100", "--trials", "20000", "--seed", "1"]
        result = run_cli(argv)
        assert result.exit_code == 0
        res = json.loads(result.output)["results"]
        rep = gaussian_protocol_mse(0.6 + 0.4j, 1.0, 100, 20000, 1)
        assert res["seBaselineMseTheta"] == rep.se_baseline_mse_theta
        assert res["seBaselineMseNoise"] == rep.se_baseline_mse_noise
        # the baseline's (N + 1)^2 = 4 within 3 SE, from the report alone
        assert abs(100 * res["baselineMseNoise"] - 4.0) < 3 * 100 * res["seBaselineMseNoise"]

    def test_writes_files(self, tmp_path):
        prefix = tmp_path / "gauss_run"
        result = run_cli(
            [
                "gauss", "--zeta", "0,0", "--N", "0.5", "--n", "16",
                "--trials", "1000", "--seed", "1", "--out", str(prefix),
            ]
        )
        assert result.exit_code == 0
        assert (tmp_path / "gauss_run.json").exists()
        csv_text = (tmp_path / "gauss_run.csv").read_text().splitlines()
        assert csv_text[0].startswith("trial,")
        assert len(csv_text) == 1001

    def test_count_beyond_sampler_range_exits_3_with_one_line(self):
        # NumPy's negative_binomial refuses this summed photon count
        result = run_cli(["gauss", "--zeta", "0.6,0.4", "--N", "1e20", "--n", "10", "--trials", "1000"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "numerical failure: photon counts out of the sampler's range at N = 1e+20, n = 10"
        ]


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gauss", "--zeta", "0.6,0.4", "--N", "nan", "--n", "10", "--trials", "1000"],
            ["gauss", "--zeta", "0.6,0.4", "--N", "inf", "--n", "10", "--trials", "1000"],
            ["gauss", "--zeta", "nan,0.4", "--N", "1", "--n", "10", "--trials", "1000"],
            ["gauss", "--zeta", "0.6,-inf", "--N", "1", "--n", "10", "--trials", "1000"],
            ["estimate", "--mode", "collective", "--model", "qubit-z0", "--theta", "0.5,0",
             "--n", "2", "--eps", "nan"],
            ["estimate", "--mode", "collective", "--model", "qubit-z0", "--theta", "0.5,0",
             "--n", "2", "--eps", "inf"],
            ["bounds", "--model", "qubit-z0", "--theta", "0.5,0", "--g", "[[NaN, 0], [0, 1]]"],
            ["bounds", "--model", "qubit-z0", "--theta", "0.5,0", "--g", "[[1, 0], [0, Infinity]]"],
            ["fisher", "--model", "gauss1:nan:16", "--theta", "0.3,0.2"],
            ["bounds", "--model", "gauss1:inf:16", "--theta", "0.3,0.2"],
        ],
    )
    def test_exit_2_with_one_line(self, argv):
        self.check_exit_2(run_cli(argv))

    @pytest.mark.parametrize(
        "elements, weights",
        [
            ([[[float("nan"), 0], [0, 0]], [[1, 0], [0, 1]]], None),
            ([[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]], [1.0, float("nan")]),
        ],
        ids=["element", "weight"],
    )
    def test_povm_file_exit_2(self, tmp_path, elements, weights):
        povm_file = tmp_path / "povm.json"
        povm = {"elements": [matrix_to_json(np.array(e, dtype=complex)) for e in elements]}
        if weights is not None:
            povm["weights"] = weights
        povm_file.write_text(json.dumps(povm))
        argv = ["fisher", "--model", "qubit-full", "--theta", "0,0,0", "--kind", "classical", "--povm", str(povm_file)]
        self.check_exit_2(run_cli(argv))

    @pytest.mark.parametrize(
        "field",
        [
            {"elements": 5},
            {"elements": [{"dim": float("inf"), "re": [[1.0]], "im": [[0.0]]}]},
            {"weights": [0.5, "x"]},
            {"weights": "ab"},
            {"labels": 5},
            {"completenessTol": "abc"},
            {"completenessTol": [1]},
            {"completenessTol": float("nan")},
            {"completenessTol": float("inf")},
            {"completenessTol": True},
            {"completenessTol": -1},
        ],
        ids=["elements", "element-dim", "weight-entry", "weight-text", "labels", "tol-text", "tol-list", "tol-nan", "tol-inf",
             "tol-bool", "tol-negative"],
    )
    def test_povm_file_field_exit_2(self, tmp_path, field):
        povm_file = tmp_path / "povm.json"
        povm = {"elements": [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))], **field}
        povm_file.write_text(json.dumps(povm))
        argv = ["fisher", "--model", "qubit-full", "--theta", "0,0,0", "--kind", "classical", "--povm", str(povm_file)]
        self.check_exit_2(run_cli(argv))

    @staticmethod
    def check_exit_2(result):
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error:")


class TestOutOfRangeIntegers:
    """Seeds NumPy's generators refuse, counts beyond their 64-bit integers
    and trial counts beyond NumPy's address range exit 2 with one line, not
    a traceback."""

    TWO_STAGE = ["estimate", "--mode", "two-stage", "--model", "qubit-z0", "--theta", "0.5,0"]
    GAUSS = ["gauss", "--zeta", "0.6,0.4", "--N", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            GAUSS + ["--n", "2", "--trials", "1000", "--seed", "-5"],
            TWO_STAGE + ["--n", "100", "--trials", "5", "--seed", "-1"],
            TWO_STAGE + ["--n", "10000000000000000000", "--trials", "5"],
            GAUSS + ["--n", "2", "--trials", "100000000000000000000"],
            TWO_STAGE + ["--n", "100", "--trials", "100000000000000000000"],
            # within int64, but past what NumPy can address as (trials, k) rows
            GAUSS + ["--n", "2", "--trials", "4611686018427387904"],
            TWO_STAGE + ["--n", "100", "--trials", "4611686018427387904"],
        ],
        ids=["gauss-seed", "two-stage-seed", "two-stage-n", "gauss-trials", "two-stage-trials",
             "gauss-trials-2^62", "two-stage-trials-2^62"],
    )
    def test_exit_2_with_one_line(self, argv):
        result = run_cli(argv)
        assert "Traceback" not in result.stderr
        TestNonFiniteInputs.check_exit_2(result)

    def test_negative_seed_in_a_config(self, tmp_path):
        config = tmp_path / "gauss.json"
        config.write_text(json.dumps({"experiment": "gauss", "zeta": [0.6, 0.4], "N": 1, "n": 2, "trials": 1000, "seed": -3}))
        result = run_cli(["run", "--config", str(config), "--out", str(tmp_path / "g")])
        assert "Traceback" not in result.stderr
        TestNonFiniteInputs.check_exit_2(result)
        assert not (tmp_path / "g.json").exists()


class TestCltCommand:
    def test_fourth_moment_rows(self):
        result = run_cli(
            [
                "clt", "--model", "qubit-full", "--theta", "0,0,0",
                "--ops", "z", "--word", "1,1,1,1", "--n", "2,5,10",
            ]
        )
        assert result.exit_code == 0
        res = json.loads(result.output)["results"]
        gaps = {row["n"]: row["gap"] for row in res["rows"]}
        for n in (2, 5, 10):
            assert abs(gaps[n] - 2.0 / n) < 1e-10

    @pytest.mark.parametrize(
        "argv",
        [
            ["clt", "--model", "qubit-full", "--theta", "0,0,0", "--ops", ",", "--word", "1", "--n", "2"],
            ["clt", "--model", "qubit-full", "--theta", "0,0,0", "--ops", "z", "--word", "1", "--n", ","],
            ["estimate", "--mode", "collective", "--model", "qubit-z0", "--theta", "0,0", "--n", ","],
        ],
    )
    def test_empty_list_exits_2(self, argv):
        result = run_cli(argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "empty comma list" in result.stderr

    def test_empty_list_in_config_exits_2(self, tmp_path):
        config = tmp_path / "clt.json"
        config.write_text(json.dumps(
            {"experiment": "clt", "model": "qubit-z0", "theta": [0.5, 0], "ops": ["z"], "word": [1, 1], "n": []}
        ))
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == ["validation error: config key 'n': '' is an empty comma list"]


class TestEstimateCommand:
    def test_collective_mode(self):
        result = run_cli(
            [
                "estimate", "--mode", "collective", "--model", "qubit-z0",
                "--theta", "0.0,0.0", "--n", "2", "--eps", "0.1",
            ]
        )
        assert result.exit_code == 0
        res = json.loads(result.output)["results"]
        assert len(res["rows"]) == 1
        assert res["rows"][0]["completenessResidual"] < 1e-5

    def test_two_stage_mode(self):
        result = run_cli(
            [
                "estimate", "--mode", "two-stage", "--model", "qubit-z0",
                "--theta", "0.5,0.0", "--n", "400", "--trials", "60", "--seed", "5",
            ]
        )
        assert result.exit_code == 0
        res = json.loads(result.output)["results"]
        assert res["trials"] + res["discarded"] == 60
        assert res["bound"]["kind"] == "qubit-c1"

    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_two_stage_too_few_trials_exit_2(self, trials):
        result = run_cli(
            [
                "estimate", "--mode", "two-stage", "--model", "qubit-z0",
                "--theta", "0.5,0.0", "--n", "400", "--trials", trials,
            ]
        )
        assert result.exit_code == 2
        assert "at least 2 trials" in result.stderr

    def test_two_stage_full_qubit_family(self):
        result = run_cli(
            [
                "estimate", "--mode", "two-stage", "--model", "qubit-full",
                "--theta", "0.3,0.2,0.1", "--n", "10000", "--trials", "40", "--seed", "5",
            ]
        )
        assert result.exit_code == 0
        res = json.loads(result.output)["results"]
        assert res["trials"] + res["discarded"] == 40
        assert len(res["empiricalMean"]) == 3

    def test_out_of_memory_exits_3_with_one_line(self, monkeypatch):
        # an allocation under the byte limit can still fail on a small
        # machine; the failed allocation is simulated
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 56.8 GiB for an array")

        monkeypatch.setattr("qest.collective.collective_estimator_check", exhausted)
        argv = ["estimate", "--mode", "collective", "--model", "diag:3", "--theta", "0.2,0.3", "--n", "7"]
        result = run_cli(argv)
        assert result.exit_code == 3
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: out of memory")

    @pytest.mark.parametrize("n", ["7", "8"])
    def test_byte_limit_exits_3_with_one_line(self, n):
        # the dense diag:3 build would hold 2.00 GiB at n = 7 and 18.0 GiB
        # at n = 8; the address-space limit turns a check placed after the
        # allocation into a MemoryError instead of exhausting the host
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "from qest.cli import main\n"
            f"main({['estimate', '--mode', 'collective', '--model', 'diag:3', '--theta', '0.2,0.3', '--n', n]!r})\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: the collective build would take")
        assert lines[0].endswith("GiB, over the 1 GiB limit")

    def test_narrow_kernel_names_the_dropped_dimensions(self):
        # at eps = 0.02 the spin-1 block of S falls under the support
        # threshold, so the outcome means cannot follow the state
        argv = ["estimate", "--mode", "collective", "--model", "qubit-z0", "--theta", "0,0", "--n", "2", "--eps", "0.02"]
        result = run_cli(argv)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "numerical failure: response matrix A_n is singular at n = 2: S keeps 1 of 4 dimensions "
            "(3 dropped); v' is too narrow for these operators\n"
        )

    @pytest.mark.parametrize("eps", ["1e308", "1e-300"])
    def test_extreme_eps_exits_3_with_one_line(self, eps):
        argv = ["estimate", "--mode", "collective", "--model", "qubit-z0", "--theta", "0,0", "--n", "2", "--eps", eps]
        result = run_cli(argv)
        assert result.exit_code == 3
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: smearing kernel out of range")

    def test_negative_n_exits_2_with_one_line(self):
        # a subprocess, so that a NumPy warning reaches stderr as it would on
        # the command line instead of pytest's warning capture
        argv = ["estimate", "--mode", "collective", "--model", "qubit-z0", "--theta", "0,0", "--n", "-1"]
        proc = subprocess.run([sys.executable, "-m", "qest.cli", *argv], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["validation error: n must be positive"]

    def test_two_stage_writes_trial_csv(self, tmp_path):
        prefix = tmp_path / "ts"
        result = run_cli(
            [
                "estimate", "--mode", "two-stage", "--model", "qubit-z0",
                "--theta", "0.5,0.0", "--n", "400", "--trials", "30", "--seed", "5",
                "--out", str(prefix),
            ]
        )
        assert result.exit_code == 0
        lines = (tmp_path / "ts.csv").read_text().splitlines()
        assert lines[0] == "trial,theta_hat_1,theta_hat_2"
        report = json.loads((tmp_path / "ts.json").read_text())
        assert len(lines) == report["results"]["trials"] + 1


class TestBlasThreads:
    @pytest.mark.parametrize(
        "args",
        [
            ["--model", "qubit-full", "--theta", "0.2,0.1,0.3", "--n", "4,8"],
            ["--model", "diag:3", "--theta", "0.2,0.3", "--n", "2,4"],
        ],
        ids=["qubit-full", "diag3"],
    )
    def test_collective_reports_do_not_depend_on_the_thread_count(self, args, tmp_path):
        # the CLI pins BLAS to one thread whatever the environment asks for;
        # unpinned, 1 and 2 threads gave qubit-full reports 23 numbers apart
        pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in pins}
        for threads in (None, "1", "2"):
            run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
            argv = ["estimate", "--mode", "collective", *args, "--out", str(tmp_path / f"threads-{threads}")]
            subprocess.run([sys.executable, "-m", "qest.cli", *argv], env=run_env, check=True)
        for suffix in (".json", ".csv"):
            reports = {(tmp_path / f"threads-{t}{suffix}").read_bytes() for t in (None, "1", "2")}
            assert len(reports) == 1

    def test_a_caller_with_numpy_keeps_its_environment(self, monkeypatch):
        # this process loaded NumPy with its own BLAS threads; main sets no pin
        # that would reach only the processes it starts, and leaves its exit be
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        registered = []
        monkeypatch.setattr(atexit, "register", registered.append)
        assert run_cli(["bounds", "--model", "qubit-z0", "--theta", "0.5,0"]).exit_code == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert "OMP_NUM_THREADS" not in os.environ
        assert gc.freeze not in registered
        assert gc.get_freeze_count() == 0


class TestRunConfig:
    def test_malformed_config_exits_2_no_files(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"experiment": "bounds", "bogus": 1, "model": "qubit-z0", "theta": [0, 0]}))
        out_prefix = tmp_path / "report"
        result = run_cli(["run", "--config", str(config), "--out", str(out_prefix)])
        assert result.exit_code == 2
        assert not (tmp_path / "report.json").exists()

    def test_unparseable_config(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 2

    def test_run_is_not_an_experiment(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"experiment": "run"}))
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 2
        assert result.output == "validation error: unknown experiment 'run'\n"

    def test_dispatch_and_determinism(self, tmp_path):
        config = tmp_path / "bounds.json"
        config.write_text(
            json.dumps(
                {"experiment": "bounds", "model": "qubit-full", "theta": [0, 0, 0], "seed": 4}
            )
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(["run", "--config", str(config), "--out", str(out_a)]).exit_code == 0
        assert run_cli(["run", "--config", str(config), "--out", str(out_b)]).exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fisher", "--model", "qubit-z0", "--theta", "0.5,0", "--kind", "sld", "--seed", "3"],
            ["fisher", "--model", "qubit-full", "--theta", "0.1,0.2,0.3", "--kind", "rld"],
            ["fisher", "--model", "qubit-full", "--theta", "0.1,0.2,0.3", "--kind", "classical", "--povm", "POVM"],
            ["bounds", "--model", "qubit-z0", "--theta", "0.5,0", "--seed", "2"],
            ["gauss", "--zeta", "0.5,0.2", "--N", "1.0", "--n", "32", "--trials", "1000", "--seed", "3"],
            ["clt", "--model", "qubit-full", "--theta", "0.3,0.2,0.1", "--ops", "x,z", "--word", "1,2,1,2", "--n", "2,4,8"],
            ["estimate", "--mode", "two-stage", "--model", "qubit-z0", "--theta", "0.5,0", "--n", "400", "--trials", "30", "--seed", "5"],
            ["estimate", "--mode", "collective", "--model", "qubit-z0", "--theta", "0,0", "--n", "2,4", "--eps", "0.2"],
        ],
        ids=["fisher-sld", "fisher-rld", "fisher-classical", "bounds", "gauss", "clt", "two-stage", "collective"],
    )
    def test_report_config_replays(self, tmp_path, argv):
        # a report's embedded config (g stored as rows, n as its comma text)
        # runs through `run` to the same bytes, CSV included
        povm_file = tmp_path / "basis.json"
        povm_file.write_text(json.dumps({"elements": [matrix_to_json(m) for m in mixed_basis_povm("zxy").elements]}))
        argv = [str(povm_file) if arg == "POVM" else arg for arg in argv]
        assert run_cli(argv + ["--out", str(tmp_path / "a")]).exit_code == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads((tmp_path / "a.json").read_text())["config"]))
        assert run_cli(["run", "--config", str(config), "--out", str(tmp_path / "b")]).exit_code == 0
        for suffix in (".json", ".csv"):
            a, b = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
            assert a.exists() == b.exists()
            assert not a.exists() or a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": "fisher", "theta": [0, 0, 0]},
            {"experiment": "bounds"},
            {"experiment": "gauss", "zeta": [0.5, 0], "N": 1.0},
            {"experiment": "clt", "model": "qubit-full", "theta": [0, 0, 0], "ops": ["z"], "word": [1]},
            {"experiment": "estimate", "model": "qubit-z0", "theta": [0, 0], "n": "2"},
        ],
        ids=["fisher", "bounds", "gauss", "clt", "estimate"],
    )
    def test_missing_key_exits_2(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output.startswith("validation error: missing config key")
        assert len(result.output.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"tolerances": {}}, "unknown config keys: ['tolerances']"),
            ({"kind": "bogus"}, "config key 'kind'"),
            ({"seed": 4.5}, "config key 'seed': 4.5 is not of type integer"),
            ({"seed": True}, "config key 'seed': True is not of type integer"),
            ({"theta": "0,x,0"}, "config key 'theta'"),
            ({"experiment": ["fisher"]}, "unknown experiment"),
        ],
        ids=["tolerances", "bad-choice", "float-seed", "bool-seed", "bad-list", "unhashable-experiment"],
    )
    def test_bad_value_exits_2(self, tmp_path, extra, message):
        config = {"experiment": "fisher", "model": "qubit-full", "theta": [0, 0, 0], **extra}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output.startswith(f"validation error: {message}")
        assert len(result.output.strip().splitlines()) == 1

    def test_null_key_takes_default(self, tmp_path):
        args = ["fisher", "--model", "qubit-full", "--theta", "0,0,0"]
        assert run_cli(args + ["--out", str(tmp_path / "a")]).exit_code == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "fisher", "model": "qubit-full", "theta": "0,0,0", "kind": None}))
        assert run_cli(["run", "--config", str(config), "--out", str(tmp_path / "b")]).exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_weighted_povm_file_replays(self, tmp_path):
        # the z, x and y projectors at weight 1/3 each
        projectors = [(np.eye(2) + sign * pauli) / 2 for pauli in (SIGMA_Z, SIGMA_X, SIGMA_Y) for sign in (1, -1)]
        povm = {"elements": [matrix_to_json(p) for p in projectors], "weights": [1 / 3] * 6}
        povm_file = tmp_path / "weighted.json"
        povm_file.write_text(json.dumps(povm))
        argv = ["fisher", "--model", "qubit-full", "--theta", "0.1,0.2,0.3", "--kind", "classical"]
        assert run_cli(argv + ["--povm", str(povm_file), "--out", str(tmp_path / "a")]).exit_code == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads((tmp_path / "a.json").read_text())["config"]))
        assert run_cli(["run", "--config", str(config), "--out", str(tmp_path / "b")]).exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_povm_path_replays_from_another_directory(self, tmp_path, monkeypatch):
        # a relative --povm is stored resolved, so the config runs anywhere
        made, elsewhere = tmp_path / "made", tmp_path / "elsewhere"
        made.mkdir()
        elsewhere.mkdir()
        povm = {"elements": [matrix_to_json(m) for m in mixed_basis_povm("zxy").elements]}
        (made / "basis.json").write_text(json.dumps(povm))
        monkeypatch.chdir(made)
        argv = ["fisher", "--model", "qubit-full", "--theta", "0.1,0.2,0.3", "--kind", "classical"]
        assert run_cli(argv + ["--povm", "basis.json", "--out", "a"]).exit_code == 0
        config = json.loads((made / "a.json").read_text())["config"]
        assert config["povm"] == str((made / "basis.json").resolve())
        (tmp_path / "config.json").write_text(json.dumps(config))
        monkeypatch.chdir(elsewhere)
        assert run_cli(["run", "--config", str(tmp_path / "config.json"), "--out", "b"]).exit_code == 0
        assert (made / "a.json").read_bytes() == (elsewhere / "b.json").read_bytes()

    def test_gauss_config(self, tmp_path):
        config = tmp_path / "gauss.json"
        config.write_text(
            json.dumps(
                {
                    "experiment": "gauss", "zeta": [0.5, 0.0], "N": 1.0,
                    "n": 16, "trials": 1000, "seed": 9,
                }
            )
        )
        out = tmp_path / "g"
        assert run_cli(["run", "--config", str(config), "--out", str(out)]).exit_code == 0
        report = json.loads((tmp_path / "g.json").read_text())
        assert report["results"]["boundNoiseCollective"] == 2.0


NOISES = st.sampled_from([0.0, 0.3, 1.0])
# every model-name form the README documents, with its parameter count
MODEL_FORMS = {
    "qubit-full": (st.just("qubit-full"), lambda name: 3),
    "qubit-z0": (st.just("qubit-z0"), lambda name: 2),
    "diag:<dim>": (st.integers(2, 4).map("diag:{}".format), lambda name: int(name[5:]) - 1),
    "gauss1:<N>": (NOISES.map("gauss1:{:g}".format), lambda name: 2),
    "gauss1:<N>:<cutoff>": (
        st.tuples(NOISES, st.sampled_from([4, 8, 16])).map(lambda p: "gauss1:{:g}:{}".format(*p)),
        lambda name: 2,
    ),
}
# every subcommand that takes a model, at sizes that keep each run near or
# below 100 MB: collective sums over two copies only on two-level spaces
# (diag:4 at n = 2 peaks near 180 MB, gauss1 at cutoff 16 near 1.7 GB)
COMMANDS = {
    "fisher-sld": lambda dim: ["fisher", "--kind", "sld"],
    "fisher-rld": lambda dim: ["fisher", "--kind", "rld"],
    "fisher-classical": lambda dim: ["fisher", "--kind", "classical", "--povm", "POVM"],
    "bounds": lambda dim: ["bounds"],
    "clt": lambda dim: ["clt", "--ops", "x,z", "--word", "1,2,1,2", "--n", "2,4"],
    "two-stage": lambda dim: ["estimate", "--mode", "two-stage", "--n", "100", "--trials", "20"],
    "collective": lambda dim: ["estimate", "--mode", "collective", "--n", "1,2" if dim == 2 else "1"],
}


class TestDocumentedInputs:
    """Every documented model-name form with every command that takes a model:
    the run succeeds, or exits 2 or 3 with one stderr line and no traceback,
    and a written report replays through ``run`` byte for byte."""

    @pytest.mark.parametrize("form", list(MODEL_FORMS))
    @pytest.mark.parametrize("command", list(COMMANDS))
    @settings(max_examples=2, deadline=None, database=None)
    @given(data=st.data())
    def test_exit_code_and_replay(self, form, command, data):
        names, param_dim = MODEL_FORMS[form]
        name = data.draw(names, label="model")
        theta = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3]),
                                   min_size=param_dim(name), max_size=param_dim(name)), label="theta")
        dim = model_from_name(name).hilbert_dim
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            povm = mixed_basis_povm("zxy") if dim == 2 else number_povm(dim)
            (tmp / "povm.json").write_text(json.dumps({"elements": [matrix_to_json(m) for m in povm.elements]}))
            argv = [str(tmp / "povm.json") if arg == "POVM" else arg for arg in COMMANDS[command](dim)]
            argv += ["--model", name, "--theta", ",".join(map(str, theta)), "--seed", "1"]
            result = run_cli(argv + ["--out", str(tmp / "a")])
            if result.exit_code != 0:
                assert result.exit_code in (2, 3)
                lines = result.stderr.splitlines()
                prefix = "validation error:" if result.exit_code == 2 else "numerical failure:"
                assert len(lines) == 1 and lines[0].startswith(prefix), result.stderr
                assert not (tmp / "a.json").exists()
                return
            config = tmp / "config.json"
            config.write_text(json.dumps(json.loads((tmp / "a.json").read_text())["config"]))
            assert run_cli(["run", "--config", str(config), "--out", str(tmp / "b")]).exit_code == 0
            for suffix in (".json", ".csv"):
                a, b = tmp / f"a{suffix}", tmp / f"b{suffix}"
                assert a.exists() == b.exists()
                assert not a.exists() or a.read_bytes() == b.read_bytes()

    @settings(max_examples=4, deadline=None, database=None)
    @given(
        zeta=st.tuples(st.sampled_from([0.0, 0.3, -0.6]), st.sampled_from([0.0, 0.4])),
        noise=NOISES,
        n=st.sampled_from([2, 3, 100]),
        trials=st.sampled_from([1000, TRIAL_BLOCK + 1]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_gauss_replay(self, zeta, noise, n, trials, seed):
        # gauss takes no model; its report replays through ``run`` to the
        # same JSON and CSV bytes
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            argv = ["gauss", "--zeta", "{},{}".format(*zeta), "--N", str(noise), "--n", str(n),
                    "--trials", str(trials), "--seed", str(seed), "--out", str(tmp / "a")]
            assert run_cli(argv).exit_code == 0
            config = tmp / "config.json"
            config.write_text(json.dumps(json.loads((tmp / "a.json").read_text())["config"]))
            assert run_cli(["run", "--config", str(config), "--out", str(tmp / "b")]).exit_code == 0
            for suffix in (".json", ".csv"):
                assert (tmp / f"a{suffix}").read_bytes() == (tmp / f"b{suffix}").read_bytes()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qest.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "fisher" in proc.stdout


def csv_writer_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def gauss_csv_oracle(zeta, noise, n, trials, seed) -> str:
    """``csv.writer`` text of the ``gauss`` CSV: per-row lists of the same seeded draws."""
    zh, nh, zb, nb = map(np.concatenate, zip(*protocol_trials(zeta, noise, n, trials, seed)))
    rows = [[i, zh[i].real, zh[i].imag, nh[i], zb[i].real, zb[i].imag, nb[i]] for i in range(len(zh))]
    assert len(rows) == trials
    header = ["trial", "zeta_hat_re", "zeta_hat_im", "noise_hat", "zeta_hat_base_re", "zeta_hat_base_im", "noise_hat_base"]
    return csv_writer_text(header, rows)


class TestCsvColumns:
    # csv.writer over per-row lists of the same seeded data is the oracle

    def test_gauss_csv(self, tmp_path):
        # 2 * 8192 + 3 trials end the sampler's and the writer's blocks unevenly
        trials = 2 * TRIAL_BLOCK + 3
        args = ["--zeta", "0.3,-0.1", "--N", "0.7", "--n", "10", "--trials", str(trials), "--seed", "8"]
        assert run_cli(["gauss", *args, "--out", str(tmp_path / "g")]).exit_code == 0
        assert (tmp_path / "g.csv").read_text() == gauss_csv_oracle(0.3 - 0.1j, 0.7, 10, trials, 8)
        # the report's config replays to the same JSON and CSV bytes
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads((tmp_path / "g.json").read_text())["config"]))
        assert run_cli(["run", "--config", str(config), "--out", str(tmp_path / "r")]).exit_code == 0
        for suffix in (".json", ".csv"):
            assert (tmp_path / f"r{suffix}").read_bytes() == (tmp_path / f"g{suffix}").read_bytes()

    def test_two_stage_csv(self, tmp_path):
        args = ["--model", "qubit-z0", "--theta", "0.5,0.0", "--n", "400", "--trials", "30", "--seed", "5"]
        result = run_cli(["estimate", "--mode", "two-stage", *args, "--out", str(tmp_path / "ts")])
        assert result.exit_code == 0
        report = two_stage_estimate(
            model_from_name("qubit-z0"), [0.5, 0.0], mixed_basis_povm("zx"), 400, 5,
            trials=30,
        )
        rows = [[i] + list(row) for i, row in enumerate(report.extras["estimates"])]
        expected = csv_writer_text(["trial", "theta_hat_1", "theta_hat_2"], rows)
        assert (tmp_path / "ts.csv").read_text() == expected

    def test_collective_csv(self, tmp_path):
        args = ["--model", "qubit-z0", "--theta", "0,0", "--n", "2,4", "--seed", "1"]
        result = run_cli(["estimate", "--mode", "collective", *args, "--out", str(tmp_path / "c")])
        assert result.exit_code == 0
        # the JSON report keeps every float the CSV rows are made of
        rows = [
            [
                r["n"],
                r["scaledTrace"],
                float(np.linalg.norm(np.array(r["aMatrix"]) - np.eye(2))),
                r["completenessResidual"],
            ]
            for r in json.loads((tmp_path / "c.json").read_text())["results"]["rows"]
        ]
        expected = csv_writer_text(["n", "scaled_trace", "a_minus_identity", "completeness_residual"], rows)
        assert (tmp_path / "c.csv").read_text() == expected


def command_in_fresh_process(argv, prelude="", one_cpu=False):
    """Run one CLI command in a fresh interpreter, ``prelude`` first, pinned
    to one CPU if ``one_cpu``.  Returns the command's exit code, the number
    of processes it forked, whether a child of the interpreter is left after
    it (running or unreaped) and its stderr lines."""
    code = (
        "import json, os, sys\n"
        "forks = []\n"
        "os.register_at_fork(after_in_parent=lambda: forks.append(1))\n"
        f"{prelude}"
        "from qest.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    left = True\n"
        "except ChildProcessError:\n"
        "    left = False\n"
        "print(json.dumps([status, len(forks), left]))\n"
    )
    one = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if one_cpu else None
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, preexec_fn=one)
    assert proc.returncode == 0, proc.stderr
    status, forks, left = json.loads(proc.stdout.splitlines()[-1])
    return status, forks, left, proc.stderr.splitlines()


class TestCsvHelper:
    """A CLI process that owns its process and may run on two CPUs formats a
    CSV of two chunks or more with a forked helper; the bytes are those of
    one process formatting every chunk, and no child is left."""

    GAUSS = ["gauss", "--zeta", "0.3,-0.1", "--N", "0.7", "--n", "10", "--seed", "8"]

    @pytest.mark.parametrize("chunks", [1, 2, 3, 13])
    def test_csv_matches_the_writer_on_any_cpu_count(self, chunks, tmp_path):
        assert TRIAL_BLOCK == CSV_BLOCK_ROWS  # so each chunk is one block of draws
        trials = max(1000, (chunks - 1) * CSV_BLOCK_ROWS + chunks)
        expected = gauss_csv_oracle(0.3 - 0.1j, 0.7, 10, trials, 8)
        two_cpus = len(os.sched_getaffinity(0)) >= 2
        for one_cpu in (False, True):
            prefix = tmp_path / f"one-cpu-{one_cpu}"
            argv = [*self.GAUSS, "--trials", str(trials), "--out", str(prefix)]
            assert command_in_fresh_process(argv, one_cpu=one_cpu) == (0, int(chunks > 1 and two_cpus and not one_cpu), False, [])
            # lines, not one text: pytest diffs unequal lists by their first difference
            assert Path(f"{prefix}.csv").read_text().splitlines() == expected.splitlines()

    def test_a_caller_with_numpy_formats_inline(self, tmp_path):
        argv = [*self.GAUSS, "--trials", str(2 * CSV_BLOCK_ROWS + 3), "--out", str(tmp_path / "g")]
        assert command_in_fresh_process(argv, prelude="import numpy\n") == (0, 0, False, [])
        expected = gauss_csv_oracle(0.3 - 0.1j, 0.7, 10, 2 * CSV_BLOCK_ROWS + 3, 8)
        assert (tmp_path / "g.csv").read_text().splitlines() == expected.splitlines()

    def test_a_failed_helper_exits_3_with_one_line(self, tmp_path):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("the helper runs on two CPUs or more")
        # the helper ends as soon as it is forked, having sent nothing
        prelude = "os.register_at_fork(after_in_child=lambda: os._exit(7))\n"
        argv = [*self.GAUSS, "--trials", str(3 * CSV_BLOCK_ROWS), "--out", str(tmp_path / "g")]
        assert command_in_fresh_process(argv, prelude=prelude) == (
            3, 1, False, ["numerical failure: the CSV helper process failed (exit status 7)"]
        )


def modules_after(argv, exit_code=0, prelude=""):
    """Names of the modules loaded by one CLI command run in a fresh
    interpreter, which must exit with ``exit_code``.  ``prelude`` runs before
    ``qest.cli`` is imported.  A name masked in ``sys.modules`` with None is
    not a loaded module and is left out."""
    code = (
        "import json, sys\n"
        f"{prelude}"
        "from qest.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit as exc:\n"
        f"    assert exc.code == {exit_code!r}, exc.code\n"
        "print(json.dumps(sorted(name for name, module in sys.modules.items() if module is not None)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_modules(modules):
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


def assert_front_end_only(modules):
    assert "numpy" not in modules
    assert {m for m in modules if m.split(".")[0] == "qest"} == {"qest", "qest.cli", "qest.errors"}


# one command of every experiment and of each estimate mode, with a report
# under --out; "run" reads the gauss config that reporting_argv writes
REPORTING_COMMANDS = {
    "fisher": ["fisher", "--model", "qubit-full", "--theta", "0,0,0", "--kind", "sld"],
    "bounds": ["bounds", "--model", "qubit-z0", "--theta", "0.5,0"],
    "clt": ["clt", "--model", "qubit-z0", "--theta", "0.3,0", "--ops", "x", "--word", "1,1", "--n", "2"],
    "estimate-collective": ["estimate", "--mode", "collective", "--model", "qubit-z0", "--theta", "0,0", "--n", "2"],
    "estimate-two-stage": [
        "estimate", "--mode", "two-stage", "--model", "qubit-z0", "--theta", "0.5,0", "--n", "400", "--trials", "20",
    ],
    "gauss": ["gauss", "--zeta", "0.5,0", "--N", "1", "--n", "10", "--trials", "1000", "--seed", "3"],
    "run-gauss": ["run", "--config"],
}


def reporting_argv(name, directory):
    """``REPORTING_COMMANDS[name]`` writing ``directory/report.*``."""
    directory.mkdir(parents=True, exist_ok=True)
    argv = list(REPORTING_COMMANDS[name])
    if name == "run-gauss":
        config = {"experiment": "gauss", "zeta": [0.5, 0], "N": 1, "n": 10, "trials": 1000, "seed": 3}
        (directory.parent / "gauss.json").write_text(json.dumps(config))
        argv.append(str(directory.parent / "gauss.json"))
    return argv + ["--out", str(directory / "report")]


class TestImports:
    def test_fock_paths_do_not_import_scipy(self):
        argv = ["fisher", "--kind", "sld", "--model", "gauss1:0.3:16", "--theta", "0.3,0.2"]
        assert scipy_modules(modules_after(argv)) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--model", "qubit-z0", "--theta", "0.5,0", "--starts", "5"],
            ["bounds", "--model", "gauss1:0.3:16", "--theta", "0.3,0.2"],
            ["estimate", "--mode", "collective", "--model", "qubit-z0", "--theta", "0,0", "--n", "2,4"],
        ],
        ids=["bounds-qubit", "bounds-gauss1", "estimate-collective"],
    )
    def test_bound_commands_do_not_import_scipy(self, argv):
        assert scipy_modules(modules_after(argv)) == []

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["--help"], 0),
            *[([name, "--help"], 0) for name in ["fisher", "bounds", "gauss", "clt", "estimate", "run"]],
            (["--version"], 0),
            (["fisher", "--theta", "0,0"], 2),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_front_end_loads_no_numpy(self, argv, exit_code):
        assert_front_end_only(modules_after(argv, exit_code))

    def test_unknown_experiment_loads_no_numpy(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "nope"}))
        assert_front_end_only(modules_after(["run", "--config", str(config)], 2))

    @pytest.mark.parametrize(
        "argv, unloaded",
        [
            (
                ["gauss", "--zeta", "0.5,0", "--N", "1", "--n", "10", "--trials", "1000"],
                ["qest.collective", "qest.clt", "qest.bounds", "qest.fisher", "qest.models"],
            ),
            (
                ["clt", "--model", "qubit-z0", "--theta", "0.3,0", "--ops", "x", "--word", "1,1", "--n", "2"],
                ["qest.collective", "qest.bounds", "qest.fisher"],
            ),
            (
                ["fisher", "--kind", "classical", "--model", "qubit-full", "--theta", "0,0,0", "--povm", "POVM"],
                ["qest.gaussian", "qest.clt", "qest.collective"],
            ),
            (
                ["bounds", "--model", "qubit-z0", "--theta", "0.5,0"],
                ["qest.gaussian", "qest.clt", "qest.collective"],
            ),
            (REPORTING_COMMANDS["estimate-two-stage"], ["qest.gaussian", "qest.clt"]),
        ],
        ids=["gauss", "clt", "fisher-qubit", "bounds-qubit", "estimate-two-stage"],
    )
    def test_command_loads_only_its_modules(self, argv, unloaded, tmp_path):
        povm = tmp_path / "basis.json"
        povm.write_text(json.dumps({"elements": [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))]}))
        argv = [str(povm) if arg == "POVM" else arg for arg in argv]
        assert not set(unloaded) & modules_after(argv)

    @pytest.mark.parametrize("name", list(REPORTING_COMMANDS))
    def test_no_command_loads_openssl(self, name, tmp_path):
        # hashlib and hmac, imported by the config hash and by NumPy's random
        # module (through secrets), take the interpreter's built-in hashes
        assert "_hashlib" not in modules_after(reporting_argv(name, tmp_path / "reports"))

    @pytest.mark.parametrize("name", list(REPORTING_COMMANDS))
    def test_reports_match_a_process_that_loaded_openssl(self, name, tmp_path):
        # this process imported hashlib with OpenSSL before main ran, so the
        # callback's mask leaves it be; the reports are the same bytes
        assert sys.modules["_hashlib"] is not None
        subprocess_run = tmp_path / "subprocess"
        modules_after(reporting_argv(name, subprocess_run))
        assert run_cli(reporting_argv(name, tmp_path / "in_process")).exit_code == 0
        written = sorted(p.name for p in subprocess_run.iterdir())
        assert "report.json" in written
        assert written == sorted(p.name for p in (tmp_path / "in_process").iterdir())
        for file in written:
            assert (subprocess_run / file).read_bytes() == (tmp_path / "in_process" / file).read_bytes()


def freeze_count_at_exit(argv, exit_code, prelude=""):
    """``gc.get_freeze_count()`` as read at exit by an ``atexit`` probe that a
    fresh interpreter registers before ``prelude`` and the import of
    ``qest.cli``, so that it runs after every handler the CLI registers."""
    code = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count()))\n"
        f"{prelude}"
        "from qest.cli import main\n"
        f"main({argv!r})\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == exit_code, proc.stderr
    return int(proc.stdout.splitlines()[-1])


class TestExitFreeze:
    """A CLI process moves the objects alive at exit to the permanent
    generation, so the interpreter's last collections do not walk them."""

    def test_a_reporting_command_freezes_the_heap(self, tmp_path):
        assert freeze_count_at_exit(reporting_argv("estimate-two-stage", tmp_path / "reports"), 0) > 0

    def test_an_exit_2_in_the_subcommand_freezes_the_heap(self):
        argv = ["fisher", "--model", "qubit-full", "--theta", "0,0,0", "--kind", "classical"]
        assert freeze_count_at_exit(argv, 2) > 0

    def test_a_caller_with_numpy_is_not_frozen(self, tmp_path):
        argv = reporting_argv("estimate-two-stage", tmp_path / "reports")
        assert freeze_count_at_exit(argv, 0, prelude="import numpy\n") == 0


class TestConfigHash:
    def test_hashlib_fallback_gives_the_same_digest(self, tmp_path):
        # an interpreter without its own SHA-256 module: the CLI leaves
        # _hashlib unmasked, hashlib hashes with OpenSSL, and the digest is
        # hashlib's SHA-256 of the canonical config
        prelude = "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        argv = ["bounds", "--model", "qubit-z0", "--theta", "0.5,0", "--out", str(tmp_path / "b")]
        assert "_hashlib" in modules_after(argv, prelude=prelude)
        report = json.loads((tmp_path / "b.json").read_text())
        canonical = json.dumps(report["config"], sort_keys=True, separators=(",", ":"))
        assert report["configHash"] == hashlib.sha256(canonical.encode()).hexdigest()
        assert report["configHash"] == _config_hash(report["config"])
