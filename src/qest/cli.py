"""Experiment runner.

One subcommand per experiment family (fisher, bounds, gauss, clt, estimate)
plus ``run`` for JSON config files.  Every run writes a JSON report embedding
the config, its hash, the seed, and tolerances, plus a CSV where per-trial or
per-row data exists.  Reports carry no timestamps, so identical configs give
byte-identical output.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .bounds import HolevoOptions, cr_value, holevo_bound, qubit_c1
from .clt import CollectiveSpec, collective_moment
from .collective import (
    collective_estimator_check,
    default_v_prime,
    mixed_basis_povm,
    two_stage_estimate,
)
from .errors import NumericalError, ValidationError
from .fisher import classical_fisher, rld_fisher, sld_fisher
from .gaussian import gaussian_moment, gaussian_protocol_mse
from .models import PAULIS, model_from_name
from .qcore import Povm, matrix_from_json, matrix_to_json


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad numeric list {text!r}") from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad integer list {text!r}") from exc


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": np.real(obj).tolist(), "im": np.imag(obj).tolist()}
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_report(out_prefix: str | None, config: dict, results: dict, csv_rows=None, csv_header=None) -> dict:
    report = {
        "config": config,
        "configHash": _config_hash(config),
        "seed": config.get("seed"),
        "tolerances": config.get("tolerances", {}),
        "notes": ["parameter points are restricted to the interior of the model domain"],
        "versions": {"qest": __version__},
        "results": _jsonable(results),
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if out_prefix:
        path = Path(f"{out_prefix}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        if csv_rows is not None:
            with open(f"{out_prefix}.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(csv_header)
                writer.writerows(csv_rows)
    else:
        click.echo(text)
    return report


def _load_weight(spec_text: str, dim: int) -> np.ndarray:
    if spec_text == "identity":
        return np.eye(dim)
    data = json.loads(Path(spec_text).read_text())
    return np.real(matrix_from_json(data))


def _load_povm(path: str) -> Povm:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "elements" not in data:
        raise ValidationError("POVM file must be a JSON object with an 'elements' list")
    elements = [matrix_from_json(e) for e in data["elements"]]
    return Povm(
        elements,
        labels=data.get("labels"),
        weights=data.get("weights"),
        completeness_tol=data.get("completenessTol"),
    )


class _ExitCodes:
    OK = 0
    VALIDATION = 2
    NUMERICAL = 3


def _run_guarded(fn):
    try:
        fn()
    except (ValidationError, click.ClickException) as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(_ExitCodes.VALIDATION)
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(_ExitCodes.NUMERICAL)
    sys.exit(_ExitCodes.OK)


@click.group()
@click.version_option(__version__)
def main():
    """Quantum estimation experiments: states, bounds, Gaussian protocols."""


@main.command("fisher")
@click.option("--model", "model_name", required=True)
@click.option("--theta", "theta_text", required=True, help="comma-separated parameter point")
@click.option("--kind", type=click.Choice(["sld", "rld", "classical"]), default="sld")
@click.option("--povm", "povm_path", default=None, help="POVM JSON file (classical kind)")
@click.option("--out", "out_prefix", default=None)
@click.option("--seed", type=int, default=0)
@click.option("--jobs", type=int, default=1)
def fisher_cmd(model_name, theta_text, kind, povm_path, out_prefix, seed, jobs):
    """Fisher information matrix of a model at a point."""

    def work():
        model = model_from_name(model_name)
        theta = _parse_floats(theta_text)
        config = {
            "experiment": "fisher",
            "model": model_name,
            "theta": theta,
            "kind": kind,
            "seed": seed,
        }
        if kind == "sld":
            logs, j = sld_fisher(model, theta)
            results = {
                "matrix": matrix_to_json(j.matrix.astype(complex)),
                "residuals": list(logs.residuals),
            }
        elif kind == "rld":
            logs, j = rld_fisher(model, theta)
            results = {
                "matrix": matrix_to_json(j.matrix.astype(complex)),
                "residuals": list(logs.residuals),
            }
        else:
            if povm_path is None:
                raise ValidationError("classical Fisher needs --povm")
            config["povm"] = povm_path
            j = classical_fisher(model, theta, _load_povm(povm_path))
            results = {
                "matrix": matrix_to_json(j.matrix.astype(complex)),
                "droppedMass": j.dropped_mass,
            }
        results["kind"] = kind
        _write_report(out_prefix, config, results)

    _run_guarded(work)


@main.command("bounds")
@click.option("--model", "model_name", required=True)
@click.option("--theta", "theta_text", required=True)
@click.option("--g", "g_text", default="identity", help="'identity' or a matrix JSON file")
@click.option("--starts", type=int, default=1, help="optimizer multi-start count")
@click.option("--out", "out_prefix", default=None)
@click.option("--seed", type=int, default=0)
@click.option("--jobs", type=int, default=1)
def bounds_cmd(model_name, theta_text, g_text, starts, out_prefix, seed, jobs):
    """Bound chain: SLD Cramer-Rao, collective bound, qubit single-copy bound."""

    def work():
        model = model_from_name(model_name)
        theta = _parse_floats(theta_text)
        g = _load_weight(g_text, model.param_dim)
        config = {
            "experiment": "bounds",
            "model": model_name,
            "theta": theta,
            "g": g.tolist(),
            "starts": starts,
            "seed": seed,
        }
        _, j_s = sld_fisher(model, theta)
        cr_sld = cr_value(j_s, g)
        solution = holevo_bound(
            model, theta, g, HolevoOptions(seed=seed, n_starts=starts)
        )
        results = {
            "crSld": cr_sld,
            "holevo": solution.value,
            "gaps": {"holevoMinusCrSld": solution.value - cr_sld},
            "optimizer": {
                "iters": sum(stage["iterations"] for stage in solution.optimizer_trace),
                "residual": solution.constraint_residual,
                "stationarity": solution.stationarity,
                "startValues": list(solution.start_values),
            },
        }
        if model.hilbert_dim == 2:
            c1 = qubit_c1(j_s, g)
            results["qubitC1"] = c1
            results["gaps"]["c1MinusHolevo"] = c1 - solution.value
        else:
            results["qubitC1"] = None
            results["note"] = "C1 unavailable: no closed form beyond qubit models"
        _write_report(out_prefix, config, results)

    _run_guarded(work)


@main.command("gauss")
@click.option("--zeta", "zeta_text", required=True, help="re,im of the displacement")
@click.option("--N", "noise", type=float, required=True)
@click.option("--n", "n_copies", type=int, required=True)
@click.option("--trials", type=int, default=10000)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_prefix", default=None)
@click.option("--jobs", type=int, default=1)
def gauss_cmd(zeta_text, noise, n_copies, trials, seed, out_prefix, jobs):
    """Concentration-protocol Monte Carlo for the one-mode Gaussian family."""

    def work():
        parts = _parse_floats(zeta_text)
        if len(parts) != 2:
            raise ValidationError("--zeta needs exactly re,im")
        zeta = complex(parts[0], parts[1])
        config = {
            "experiment": "gauss",
            "zeta": parts,
            "N": noise,
            "n": n_copies,
            "trials": trials,
            "seed": seed,
        }
        report = gaussian_protocol_mse(
            zeta, noise, n_copies, trials, seed, keep_trials=out_prefix is not None
        )
        results = {
            "mseTheta": report.mse_theta,
            "seMseTheta": report.se_mse_theta,
            "scaledMseTheta": n_copies * report.mse_theta,
            "mseNoise": report.mse_noise,
            "seMseNoise": report.se_mse_noise,
            "scaledMseNoise": (n_copies - 1) * report.mse_noise,
            "baselineMseTheta": report.baseline_mse_theta,
            "baselineMseNoise": report.baseline_mse_noise,
            "scaledBaselineMseNoise": n_copies * report.baseline_mse_noise,
            "boundTheta": report.bound_theta,
            "boundNoiseCollective": report.bound_noise_collective,
            "boundNoiseSeparable": report.bound_noise_separable,
            "relativeSeFlag": report.relative_se_flag,
        }
        csv_rows = None
        header = None
        if report.per_trial:
            header = [
                "trial",
                "zeta_hat_re",
                "zeta_hat_im",
                "noise_hat",
                "zeta_hat_base_re",
                "zeta_hat_base_im",
                "noise_hat_base",
            ]
            zh = report.per_trial["zeta_hat"]
            nh = report.per_trial["noise_hat"]
            zb = report.per_trial["zeta_hat_baseline"]
            nb = report.per_trial["noise_hat_baseline"]
            csv_rows = [
                [i, zh[i].real, zh[i].imag, nh[i], zb[i].real, zb[i].imag, nb[i]]
                for i in range(len(zh))
            ]
        _write_report(out_prefix, config, results, csv_rows, header)

    _run_guarded(work)


@main.command("clt")
@click.option("--model", "model_name", required=True)
@click.option("--theta", "theta_text", required=True)
@click.option("--ops", "ops_text", required=True, help="comma list of paulis, e.g. z or x,y")
@click.option("--word", "word_text", required=True, help="1-based indices into --ops")
@click.option("--n", "n_text", required=True, help="comma list of copy counts")
@click.option("--out", "out_prefix", default=None)
@click.option("--seed", type=int, default=0)
@click.option("--jobs", type=int, default=1)
def clt_cmd(model_name, theta_text, ops_text, word_text, n_text, out_prefix, seed, jobs):
    """Collective moments against the limiting Gaussian moments."""

    def work():
        model = model_from_name(model_name)
        if model.hilbert_dim != 2:
            raise ValidationError("clt experiment supports qubit models")
        theta = _parse_floats(theta_text)
        names = [x.strip().lower() for x in ops_text.split(",")]
        if any(nm not in PAULIS for nm in names):
            raise ValidationError(f"unknown operator in {ops_text!r}; use x, y, z")
        word = _parse_ints(word_text)
        n_list = _parse_ints(n_text)
        config = {
            "experiment": "clt",
            "model": model_name,
            "theta": theta,
            "ops": names,
            "word": word,
            "n": n_list,
            "seed": seed,
        }
        rho = model.state_at(model.require_domain(theta))
        spec = CollectiveSpec(rho, [PAULIS[nm] for nm in names])
        limit = gaussian_moment(spec.limit_spec(), word)
        rows = []
        for n in n_list:
            exact = collective_moment(spec, n, word)
            rows.append(
                [n, exact.real, exact.imag, limit.real, limit.imag, abs(exact - limit)]
            )
        results = {
            "gaussian": {"re": limit.real, "im": limit.imag},
            "rows": [
                {"n": r[0], "exactRe": r[1], "exactIm": r[2], "gap": r[5]} for r in rows
            ],
        }
        _write_report(
            out_prefix,
            config,
            results,
            rows,
            ["n", "exact_re", "exact_im", "gaussian_re", "gaussian_im", "gap"],
        )

    _run_guarded(work)


@main.command("estimate")
@click.option("--mode", type=click.Choice(["two-stage", "collective"]), required=True)
@click.option("--model", "model_name", required=True)
@click.option("--theta", "theta_text", required=True)
@click.option("--n", "n_text", required=True, help="copies (two-stage) or comma list (collective)")
@click.option("--trials", type=int, default=1000)
@click.option("--seed", type=int, default=0)
@click.option("--eps", type=float, default=0.1, help="kernel regularization (collective)")
@click.option("--out", "out_prefix", default=None)
@click.option("--jobs", type=int, default=1)
def estimate_cmd(mode, model_name, theta_text, n_text, trials, seed, eps, out_prefix, jobs):
    """Run an estimator: adaptive two-stage Monte Carlo or exact collective check."""

    def work():
        model = model_from_name(model_name)
        theta = _parse_floats(theta_text)
        config = {
            "experiment": "estimate",
            "mode": mode,
            "model": model_name,
            "theta": theta,
            "n": n_text,
            "trials": trials,
            "seed": seed,
            "eps": eps,
        }
        if mode == "two-stage":
            n = int(n_text)
            report = two_stage_estimate(
                model,
                theta,
                mixed_basis_povm("zxy" if model.param_dim == 3 else "zx"),
                n,
                seed,
                trials=trials,
                keep_estimates=out_prefix is not None,
            )
            results = {
                "empiricalMean": report.empirical_mean,
                "mseMatrix": report.mse_matrix,
                "standardErrors": report.standard_errors,
                "trials": report.trials,
                "discarded": report.extras["discarded"],
                "bound": {"kind": report.bound_kind, "value": report.bound_value},
                "scaledWeightedTrace": report.extras["weighted_trace_scaled"],
            }
            csv_rows = None
            header = None
            if "estimates" in report.extras:
                est = report.extras.pop("estimates")
                header = ["trial"] + [f"theta_hat_{k + 1}" for k in range(model.param_dim)]
                csv_rows = [[i] + list(row) for i, row in enumerate(est)]
            _write_report(out_prefix, config, results, csv_rows, header)
        else:
            n_list = _parse_ints(n_text)
            from .bounds import holevo_bound as _hb

            solution = _hb(model, theta, np.eye(model.param_dim), HolevoOptions(seed=seed))
            v_prime = default_v_prime(solution.s_matrix, np.eye(model.param_dim), eps)
            rows = collective_estimator_check(
                model, theta, solution.x_ops, v_prime, n_list, jobs=jobs
            )
            target = float(np.trace(solution.v_matrix + v_prime))
            results = {
                "vPrime": v_prime,
                "targetTrace": target,
                "rows": [
                    {
                        "n": r.n_copies,
                        "aMatrix": r.a_matrix,
                        "scaledCovariance": r.scaled_covariance,
                        "scaledTrace": float(np.trace(r.scaled_covariance)),
                        "completenessResidual": r.completeness_residual,
                        "leakage": r.leakage,
                    }
                    for r in rows
                ],
            }
            csv_rows = [
                [
                    r.n_copies,
                    float(np.trace(r.scaled_covariance)),
                    float(np.linalg.norm(r.a_matrix - np.eye(model.param_dim))),
                    r.completeness_residual,
                ]
                for r in rows
            ]
            _write_report(
                out_prefix,
                config,
                results,
                csv_rows,
                ["n", "scaled_trace", "a_minus_identity", "completeness_residual"],
            )

    _run_guarded(work)


_CONFIG_KEYS = {
    "fisher": {"experiment", "model", "theta", "kind", "povm", "seed", "out", "tolerances"},
    "bounds": {"experiment", "model", "theta", "g", "starts", "seed", "out", "tolerances"},
    "gauss": {"experiment", "zeta", "N", "n", "trials", "seed", "out", "tolerances"},
    "clt": {"experiment", "model", "theta", "ops", "word", "n", "seed", "out", "tolerances"},
    "estimate": {
        "experiment",
        "mode",
        "model",
        "theta",
        "n",
        "trials",
        "seed",
        "eps",
        "out",
        "tolerances",
    },
}


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_prefix", default=None, help="overrides the config's out prefix")
def run_cmd(config_path, out_prefix):
    """Run an experiment described by a JSON config file."""

    def work():
        try:
            config = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config: {exc}") from exc
        if not isinstance(config, dict):
            raise ValidationError("config must be a JSON object")
        experiment = config.get("experiment")
        if experiment not in _CONFIG_KEYS:
            raise ValidationError(f"unknown experiment {experiment!r}")
        unknown = set(config) - _CONFIG_KEYS[experiment]
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        out = out_prefix or config.get("out")
        args = _dispatch_args(experiment, config, out)
        result = main.main(args=args, standalone_mode=False)
        return result

    try:
        work()
    except (ValidationError, click.ClickException) as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(_ExitCodes.VALIDATION)
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(_ExitCodes.NUMERICAL)
    except SystemExit as exc:
        sys.exit(exc.code)
    sys.exit(_ExitCodes.OK)


def _dispatch_args(experiment: str, config: dict, out) -> list[str]:
    def fmt_list(key):
        val = config[key]
        if isinstance(val, (list, tuple)):
            return ",".join(str(x) for x in val)
        return str(val)

    args = [experiment]
    if experiment == "fisher":
        args += ["--model", str(config["model"]), "--theta", fmt_list("theta")]
        args += ["--kind", str(config.get("kind", "sld"))]
        if config.get("povm"):
            args += ["--povm", str(config["povm"])]
    elif experiment == "bounds":
        args += ["--model", str(config["model"]), "--theta", fmt_list("theta")]
        args += ["--g", str(config.get("g", "identity"))]
        args += ["--starts", str(config.get("starts", 1))]
    elif experiment == "gauss":
        args += ["--zeta", fmt_list("zeta"), "--N", str(config["N"])]
        args += ["--n", str(config["n"]), "--trials", str(config.get("trials", 10000))]
    elif experiment == "clt":
        args += ["--model", str(config["model"]), "--theta", fmt_list("theta")]
        args += ["--ops", fmt_list("ops"), "--word", fmt_list("word"), "--n", fmt_list("n")]
    elif experiment == "estimate":
        args += ["--mode", str(config["mode"]), "--model", str(config["model"])]
        args += ["--theta", fmt_list("theta"), "--n", fmt_list("n")]
        args += ["--trials", str(config.get("trials", 1000))]
        args += ["--eps", str(config.get("eps", 0.1))]
    args += ["--seed", str(config.get("seed", 0))]
    if out:
        args += ["--out", str(out)]
    return args


if __name__ == "__main__":
    main()
