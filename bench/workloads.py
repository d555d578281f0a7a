"""The benchmark's workloads: qest CLI commands and the check on each report.

A workload is a list of operations.  An operation is one CLI command (argv
after ``python -m qest.cli``) together with the check of the report it
writes; the check returns None when the report holds and a one-line reason
when it does not.  Every command writes its report under ``reports/`` and
reads its inputs from ``inputs/``, both relative to the pass directory, so
the same argv runs as a child process or in-process.

Monte Carlo checks use three of the report's own standard errors; the other
checks use the tolerances of the acceptance suite (tests/test_acceptance.py)
or tighter ones.

Documented inputs left out of the timed workloads, and why:

- auto-cutoff ``gauss1:<N>`` models: ``fisher`` exits 3 ("derivative 0
  leaves the support of rho");
- ``bounds --starts 3`` on ``gauss1:0.3:16``: runs about 150 s, then exits 3
  at stationarity 1.27e-6 against the tolerance 1e-6;
- ``qest run`` of a ``bounds`` report's own config: a traceback, because
  ``g`` is stored as a list and re-read as a file path;
- collective estimation at n = 8: it works, but takes about 25 s and 1.7 GB
  per pass, too long for a run.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
# derivatives of the qubit-full family rho = [[1+x, y+iz], [y-iz, 1-x]] / 2
QUBIT_FULL_DERIVS = [
    0.5 * SIGMA_Z,
    0.5 * SIGMA_X,
    0.5 * np.array([[0, 1j], [-1j, 0]], dtype=complex),
]
GAUSS_NOISE = 0.3  # thermal photon number N of gauss1:0.3:16
QUBIT_Z0_C1 = 1.75 + np.sqrt(3)  # closed-form single-copy bound at qubit-z0 (0.5, 0): 3.4820


@dataclass(frozen=True)
class Operation:
    name: str
    argv: list
    check: Callable[[Path], "str | None"]


def _results(workdir: Path, prefix: str) -> dict:
    return json.loads((workdir / "reports" / f"{prefix}.json").read_text())["results"]


def _matrix(data: dict) -> np.ndarray:
    return np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)


def _within(label: str, value: float, target: float, tol: float) -> "str | None":
    if not abs(value - target) < tol:
        return f"{label} = {value!r}, expected {target!r} within {tol:.3g}"
    return None


def _first_failure(*reasons) -> "str | None":
    return next((r for r in reasons if r is not None), None)


# ---------------------------------------------------------------------------
# two-stage: adaptive estimation, acceptance criterion 8 at 200 trials
# ---------------------------------------------------------------------------

TWO_STAGE_N = 10_000
TWO_STAGE_TRIALS = 200


def _check_two_stage(workdir: Path) -> "str | None":
    res = _results(workdir, "two_stage")
    if not isinstance(res.get("discarded"), int):
        return "report does not state the discarded trial count"
    if res["trials"] + res["discarded"] != TWO_STAGE_TRIALS:
        return f"{res['trials']} surviving + {res['discarded']} discarded != {TWO_STAGE_TRIALS} trials"
    se = np.asarray(res["standardErrors"], dtype=float)
    # criterion 8's standard error of the trace: the sum of the diagonal ones
    tol = 3 * TWO_STAGE_N * float(se[0, 0] + se[1, 1])
    return _first_failure(
        _within("C1", res["bound"]["value"], QUBIT_Z0_C1, 1e-12),
        _within("n tr(MSE)", res["scaledWeightedTrace"], res["bound"]["value"], tol),
    )


def two_stage(seed: int, workdir: Path) -> list:
    argv = [
        "estimate", "--mode", "two-stage", "--model", "qubit-z0", "--theta", "0.5,0",
        "--n", str(TWO_STAGE_N), "--trials", str(TWO_STAGE_TRIALS),
        "--seed", str(seed), "--out", "reports/two_stage",
    ]
    return [Operation("estimate-two-stage", argv, _check_two_stage)]


# ---------------------------------------------------------------------------
# collective: dense 2^n POVM construction, acceptance criterion 7 in CLI form
# ---------------------------------------------------------------------------

COLLECTIVE_NS = (2, 4, 6, 7)


def _check_collective(workdir: Path) -> "str | None":
    res = _results(workdir, "collective")
    rows = res["rows"]
    if [r["n"] for r in rows] != list(COLLECTIVE_NS):
        return f"rows for n = {[r['n'] for r in rows]}, expected {list(COLLECTIVE_NS)}"
    a_gaps = [float(np.linalg.norm(np.asarray(r["aMatrix"]) - np.eye(2))) for r in rows]
    trace_gaps = [abs(r["scaledTrace"] - res["targetTrace"]) for r in rows]
    for label, gaps in (("|A_n - I|", a_gaps), ("|n tr - targetTrace|", trace_gaps)):
        if any(later > earlier + 1e-3 for earlier, later in zip(gaps, gaps[1:])):
            return f"{label} grows with n: {gaps}"
    worst = max(r["completenessResidual"] for r in rows)
    leak = max(abs(r["leakage"]) for r in rows)
    if not worst < 1e-5:
        return f"completeness residual {worst:.3e} >= 1e-5"
    if not leak < 1e-5:
        return f"leakage {leak:.3e} is not near 0"
    return None


def collective(seed: int, workdir: Path) -> list:
    argv = [
        "estimate", "--mode", "collective", "--model", "qubit-z0", "--theta", "0,0",
        "--n", ",".join(str(n) for n in COLLECTIVE_NS), "--eps", "0.1",
        "--seed", str(seed), "--out", "reports/collective",
    ]
    return [Operation("estimate-collective", argv, _check_collective)]


# ---------------------------------------------------------------------------
# short-commands: the scripted-sweep traffic of eight separate processes
# ---------------------------------------------------------------------------

CLT_WORD = [1, 2, 1, 2, 1, 1, 2, 2]
CLT_NS = [2, 4, 8, 16, 32, 64]
GAUSS_N = 100
GAUSS_TRIALS = 100_000
GAUSS_PROTOCOL_NOISE = 1.0  # N of the gauss command


def _check_bounds_gauss(workdir: Path) -> "str | None":
    return _within("Holevo", _results(workdir, "bounds_gauss")["holevo"], 2 * (GAUSS_NOISE + 1), 1e-6)


def _check_bounds_qubit_full(workdir: Path) -> "str | None":
    res = _results(workdir, "bounds_qubit_full")
    return _first_failure(
        _within("CR", res["crSld"], 3.0, 1e-9),
        _within("Holevo", res["holevo"], 3.0, 1e-4),
        _within("C1", res["qubitC1"], 9.0, 1e-12),
    )


def _check_bounds_qubit_z0(workdir: Path) -> "str | None":
    res = _results(workdir, "bounds_qubit_z0")
    return _first_failure(
        _within("CR", res["crSld"], 1.75, 1e-9),
        _within("Holevo", res["holevo"], res["crSld"], 1e-4),
        _within("C1", res["qubitC1"], QUBIT_Z0_C1, 1e-12),
    )


def _check_sld(workdir: Path) -> "str | None":
    j = _matrix(_results(workdir, "fisher_sld")["matrix"])
    dev = float(np.max(np.abs(j - np.eye(2) / (GAUSS_NOISE + 0.5))))
    return _within("max |J_S - I/(N+1/2)|", dev, 0.0, 1e-6)


def _check_rld(workdir: Path) -> "str | None":
    # for the Gaussian shift family J_R^-1 = (N+1/2) I + (i/2) [[0, 1], [-1, 0]]
    j_inv = np.linalg.inv(_matrix(_results(workdir, "fisher_rld")["matrix"]))
    expected = (GAUSS_NOISE + 0.5) * np.eye(2) + 0.5j * np.array([[0, 1], [-1, 0]])
    dev = float(np.max(np.abs(j_inv - expected)))
    return _within("max |J_R^-1 - ((N+1/2) I + i/2 [[0, 1], [-1, 0]])|", dev, 0.0, 1e-6)


def _random_qubit_povm(rng: np.random.Generator, outcomes: int) -> list:
    raw = []
    for _ in range(outcomes):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        raw.append(g @ g.conj().T)
    w, u = np.linalg.eigh(sum(raw))
    t_isqrt = (u * (w**-0.5)) @ u.conj().T
    return [(m + m.conj().T) / 2 for m in (t_isqrt @ a @ t_isqrt for a in raw)]


def _classical_fisher_at_origin(elements: list) -> np.ndarray:
    """Independent classical Fisher matrix of qubit-full at theta = 0."""
    rho = np.eye(2) / 2
    p = np.array([np.real(np.trace(rho @ e)) for e in elements])
    dp = np.array([[np.real(np.trace(d @ e)) for e in elements] for d in QUBIT_FULL_DERIVS])
    return (dp / p) @ dp.T


def _check_classical(workdir: Path) -> "str | None":
    povm = json.loads((workdir / "inputs" / "povm.json").read_text())
    elements = [_matrix(e) for e in povm["elements"]]
    j = np.real(_matrix(_results(workdir, "fisher_classical")["matrix"]))
    dev = float(np.max(np.abs(j - _classical_fisher_at_origin(elements))))
    return _within("max |J - independent J|", dev, 0.0, 1e-9)


def _check_clt(workdir: Path) -> "str | None":
    rows = _results(workdir, "clt")["rows"]
    if [r["n"] for r in rows] != CLT_NS:
        return f"rows for n = {[r['n'] for r in rows]}, expected {CLT_NS}"
    gaps = [r["gap"] for r in rows]
    if any(later >= earlier for earlier, later in zip(gaps, gaps[1:])):
        return f"CLT gap does not shrink with n: {gaps}"
    return None


def _check_gauss(workdir: Path) -> "str | None":
    res = _results(workdir, "gauss")
    with open(workdir / "reports" / "gauss.csv", newline="") as fh:
        noise_base = np.array([float(row["noise_hat_base"]) for row in csv.DictReader(fh)])
    if noise_base.size != GAUSS_TRIALS:
        return f"CSV has {noise_base.size} trial rows, expected {GAUSS_TRIALS}"
    # the JSON carries no SE for the baseline noise MSE; take it from the CSV rows
    big_n, n = GAUSS_PROTOCOL_NOISE, GAUSS_N
    se_base = float(((noise_base - big_n) ** 2).std(ddof=1) / np.sqrt(noise_base.size))
    # the protocol constants 2(N+1), N(N+1) and (N+1)^2: 4, 2 and 4 at N = 1
    return _first_failure(
        _within("n mse_theta", n * res["mseTheta"], 2 * (big_n + 1), 3 * n * res["seMseTheta"]),
        _within("(n-1) mse_N", (n - 1) * res["mseNoise"], big_n * (big_n + 1), 3 * (n - 1) * res["seMseNoise"]),
        _within("baseline n mse_N", n * res["baselineMseNoise"], (big_n + 1) ** 2, 3 * n * se_base),
    )


def short_commands(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    seeds = [str(s) for s in rng.integers(0, 2**31 - 1, size=8)]
    povm = {
        "elements": [
            {"dim": 2, "re": np.real(e).tolist(), "im": np.imag(e).tolist()}
            for e in _random_qubit_povm(rng, 4)
        ]
    }
    clt_config = {
        "experiment": "clt", "model": "qubit-full", "theta": [0.3, 0.2, 0.1],
        "ops": ["x", "z"], "word": CLT_WORD, "n": CLT_NS, "seed": int(seeds[6]),
    }
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "povm.json").write_text(json.dumps(povm))
    (inputs / "clt.json").write_text(json.dumps(clt_config))
    gauss1 = ["--model", "gauss1:0.3:16", "--theta", "0.3,0.2"]
    return [
        Operation("bounds-gauss1", ["bounds", *gauss1, "--seed", seeds[0], "--out", "reports/bounds_gauss"],
                  _check_bounds_gauss),
        Operation("bounds-qubit-full",
                  ["bounds", "--model", "qubit-full", "--theta", "0,0,0", "--starts", "5",
                   "--seed", seeds[1], "--out", "reports/bounds_qubit_full"],
                  _check_bounds_qubit_full),
        Operation("bounds-qubit-z0",
                  ["bounds", "--model", "qubit-z0", "--theta", "0.5,0", "--starts", "5",
                   "--seed", seeds[2], "--out", "reports/bounds_qubit_z0"],
                  _check_bounds_qubit_z0),
        Operation("fisher-sld", ["fisher", "--kind", "sld", *gauss1, "--seed", seeds[3], "--out", "reports/fisher_sld"],
                  _check_sld),
        Operation("fisher-rld", ["fisher", "--kind", "rld", *gauss1, "--seed", seeds[4], "--out", "reports/fisher_rld"],
                  _check_rld),
        Operation("fisher-classical",
                  ["fisher", "--kind", "classical", "--model", "qubit-full", "--theta", "0,0,0",
                   "--povm", "inputs/povm.json", "--seed", seeds[5], "--out", "reports/fisher_classical"],
                  _check_classical),
        Operation("run-clt", ["run", "--config", "inputs/clt.json", "--out", "reports/clt"], _check_clt),
        Operation("gauss",
                  ["gauss", "--zeta", "0.6,0.4", "--N", str(GAUSS_PROTOCOL_NOISE), "--n", str(GAUSS_N),
                   "--trials", str(GAUSS_TRIALS),
                   "--seed", seeds[7], "--out", "reports/gauss"],
                  _check_gauss),
    ]


WORKLOADS = {
    "two-stage": two_stage,
    "collective": collective,
    "short-commands": short_commands,
}

