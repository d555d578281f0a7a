import json
import subprocess
import sys

import numpy as np
from click.testing import CliRunner

from qest.cli import main


def run_cli(args):
    runner = CliRunner()
    return runner.invoke(main, args, catch_exceptions=False)


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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qest.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "fisher" in proc.stdout
