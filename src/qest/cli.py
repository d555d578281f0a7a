"""Experiment runner.

One subcommand per experiment family (fisher, bounds, gauss, clt, estimate)
plus ``run`` for JSON config files.  Every run writes a JSON report embedding
the config, its hash, the seed, and an empty ``tolerances`` object, plus a CSV
where per-trial or per-row data exists.  Reports carry no timestamps, so
identical configs give byte-identical output.

Each experiment declares its options once, as (name, converter, default,
help) rows.  The rows build its subcommand's options, and they are its
config schema: a config names its ``experiment`` and gives each option's
value under the option's name, which ``run`` reads through the same
converter.  Required keys, then optional ones with defaults:

- fisher: model, theta; kind "sld" ("rld", "classical"), povm (a POVM file,
  needed by "classical"; the report stores its absolute path, so the config
  replays from any directory), seed 0, out
- bounds: model, theta; g "identity" (or matrix rows, or a matrix file),
  starts 1, seed 0, out.  ``starts`` and ``seed`` are accepted so older
  configs replay; the collective bound is deterministic and ignores both.
  The report's ``optimizer`` block gives the tuple's constraint
  ``residual``, the ``dual`` lower bound and the ``gap`` between the
  ``holevo`` value and that bound.
- gauss: zeta ([re, im]), N, n; trials 10000, seed 0, out
- clt: model, theta, ops, word, n; seed 0, out
- estimate: mode ("two-stage", "collective"), model, theta, n; trials 1000,
  eps 0.1, seed 0, out

List values are JSON lists or the command line's comma text; ``estimate``
stores ``n`` as that comma text.  A null value counts as absent.  ``run``
exits 2 on an unknown or missing key; ``run --out`` overrides ``out``.

Exit codes: 0 success, 2 validation error, 3 numerical failure (running out
of memory, and a CSV helper process that fails, included).  A usage error
exits 2 with one stderr line, ``validation error:`` and argparse's reason,
as a config error does.

Import rule: the front end (``main``, the converters, the experiment
registry, config reading and ``run``'s dispatch) imports only the standard
library and ``qest.errors``.  Each experiment imports its compute modules,
and the report helpers NumPy and ``qcore``, inside the function, so
``--help``, ``--version`` and usage or config errors answer without loading
NumPy, and a command loads only the modules it runs.

Process policy: before it runs a command, ``main`` pins OpenBLAS, OpenMP and
MKL to one thread each, overriding the environment, so a report does not
depend on the core count.  Where the interpreter has its own SHA-256 module
it also masks ``_hashlib``, so ``hashlib`` and ``hmac`` (imported by NumPy's
random module through ``secrets``) fall back to the built-in hashes and no
command maps OpenSSL's libcrypto.  The pin is set only where NumPy is not yet
imported, and the mask takes hold only where ``hashlib`` is not: a caller of
``main`` that has imported them keeps its thread count, its environment and
its hashes.

Where it sets the pin, ``main`` also registers ``gc.freeze`` to run at exit.
``atexit`` handlers run before the interpreter's last collections, so every
object alive at exit (some 23,000 made at import by NumPy and qest) moves to
the permanent generation and those collections skip it; that takes about a
tenth off the wall time of a short command.  Objects alive at exit get no
last collection, so finalizers of those in reference cycles do not run,
which Python does not promise anyway.

Where it sets the pin, ``main`` also lets a CSV of more than one chunk of
``CSV_BLOCK_ROWS`` rows (``gauss`` or a two-stage ``estimate`` past 8192
trials) be formatted on two CPUs, where ``os.sched_getaffinity`` gives two
or more: one ``os.fork``ed helper formats the odd chunks and sends them
through a pipe while the command formats the even ones and writes all in
order (``_write_csv_rows``), the bytes of one process formatting every
chunk.  A 10^5-trial ``gauss`` takes about 0.21 s instead of 0.31 s.  The
helper leaves only through ``os._exit`` and is always reaped; if it fails,
the command exits 3 with one line.  A caller that has imported NumPy may run
threads, which a fork does not carry, so its CSVs are formatted in its own
process.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import NumericalError, ValidationError


def _config_hash(config: dict) -> str:
    import hashlib  # here, not at module import: after ``main`` masks ``_hashlib``

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _jsonable(obj):
    # complex values reach reports only through matrix_to_json or explicit re/im
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


CSV_BLOCK_ROWS = 8192
# set by ``main`` for the command it runs where the CLI owns its process
# (NumPy not yet imported); only such a command forks the CSV helper
# (``_write_csv_rows``)
_owns_process = False
# pipe buffer asked for by ``_write_csv_rows``: Linux's default
# /proc/sys/fs/pipe-max-size, the most an unprivileged process may set
CSV_PIPE_BYTES = 1 << 20


def _csv_chunks(blocks):
    """Column slices of at most ``CSV_BLOCK_ROWS`` rows, in row order.

    ``blocks`` yields the equal-length 1-D numeric columns of consecutive row
    ranges; a longer block is cut into several chunks, so that the text of
    one chunk, and the memory it takes, stays bounded.
    """
    import numpy as np

    for columns in blocks:
        columns = [np.asarray(col) for col in columns]
        for start in range(0, len(columns[0]) if columns else 0, CSV_BLOCK_ROWS):
            yield [col[start : start + CSV_BLOCK_ROWS] for col in columns]


def _csv_text(columns) -> bytes:
    """The CSV rows of one chunk.  Each column is formatted once (``tolist``
    then ``repr``), which gives the bytes ``csv.writer`` writes for the same
    rows of floats and ints."""
    cells = [map(repr, col.tolist()) for col in columns]
    return ("\n".join(map(",".join, zip(*cells))) + "\n").encode()


def _forks_csv_helper() -> bool:
    """Whether the CLI owns its process and may run on two CPUs or more."""
    return _owns_process and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _write_csv_rows(fh, blocks) -> None:
    """Write the CSV rows of ``blocks`` (see ``_csv_chunks``) to the binary
    file ``fh``, chunk by chunk in row order.

    Where there is a chunk 1 and ``_forks_csv_helper`` holds, a forked
    helper formats the odd chunks and sends each through a pipe, length
    first, while this process formats the even ones, from chunk 0, and
    writes its chunks and the helper's in order.  Each process walks its own
    copy of ``blocks``, whose draws are deterministic; the helper holds one
    chunk of text at a time, this process at most two.  Otherwise this
    process formats every chunk.  The helper is always reaped; one that
    exits non-zero or sends short raises NumericalError.
    """
    chunks = _csv_chunks(blocks)
    head = list(itertools.islice(chunks, 2))
    if len(head) < 2 or not _forks_csv_helper():
        fh.writelines(map(_csv_text, itertools.chain(head, chunks)))
        return
    import fcntl  # Linux, as is os.sched_getaffinity

    fh.flush()  # so that the helper inherits no buffered bytes
    read_fd, write_fd = os.pipe()
    with contextlib.suppress(OSError):
        # room for a chunk of text (the default is 64 KiB), so that the helper
        # formats its next chunk while this process formats its own
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, CSV_PIPE_BYTES)
    pid = os.fork()
    if pid == 0:
        _csv_helper(read_fd, write_fd, head[1], chunks)
    os.close(write_fd)
    complete = False
    try:
        with open(read_fd, "rb") as pipe:
            fh.write(_csv_text(head[0]))
            index = 1
            for index, columns in enumerate(chunks, start=2):
                if index % 2 == 0:
                    text = _csv_text(columns)
                    fh.write(_received(pipe))
                    fh.write(text)
            if index % 2:
                fh.write(_received(pipe))
        complete = True
    except EOFError:
        pass
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not complete:
        raise NumericalError(f"the CSV helper process failed (exit status {code})")


def _csv_helper(read_fd, write_fd, first, chunks):
    """The forked helper of ``_write_csv_rows``: send the text of ``first``
    (chunk 1) and of every odd chunk after it, length first.  It leaves only
    through ``os._exit``, so it flushes none of the parent's buffers and
    never returns into the caller."""
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            for index, columns in enumerate(itertools.chain([first], chunks), start=1):
                if index % 2:
                    text = _csv_text(columns)
                    pipe.write(len(text).to_bytes(8, "little"))
                    pipe.write(text)
        status = 0
    finally:
        os._exit(status)


def _received(pipe) -> bytes:
    """One length-prefixed chunk of text from the helper's pipe; EOFError
    if the pipe ends first."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    text = pipe.read(size)
    if len(head) < 8 or len(text) < size:
        raise EOFError
    return text


def _write_report(out_prefix: str | None, config: dict, results: dict, csv_header=None, csv_blocks=None) -> dict:
    """Write the report of ``config`` and ``results`` to ``<out_prefix>.json``,
    or to stdout without a prefix, and return it.  With a prefix and
    ``csv_blocks`` (see ``_csv_chunks``), also write ``<out_prefix>.csv``:
    the ``csv_header`` line, then the rows through ``_write_csv_rows``; if
    that raises, both files are removed before the error propagates, so no
    cut CSV is left next to a complete JSON."""
    report = {
        "config": config,
        "configHash": _config_hash(config),
        "seed": config.get("seed"),
        "tolerances": {},
        "notes": ["parameter points are restricted to the interior of the model domain"],
        "versions": {"qest": __version__},
        "results": _jsonable(results),
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if out_prefix:
        path = Path(f"{out_prefix}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        if csv_blocks is not None:
            csv_path = Path(f"{out_prefix}.csv")
            try:
                with open(csv_path, "wb") as fh:
                    fh.write((",".join(csv_header) + "\n").encode())
                    _write_csv_rows(fh, csv_blocks)
            except BaseException:
                csv_path.unlink(missing_ok=True)
                path.unlink(missing_ok=True)
                raise
    else:
        print(text)
    return report


def _read_json_file(path: str, option: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {option} file {path!r}: {exc}") from exc


def _load_weight(spec, dim: int):
    import numpy as np

    from .qcore import matrix_from_json

    if spec == "identity":
        return np.eye(dim)
    if isinstance(spec, list) or str(spec).lstrip().startswith("["):
        # rows, as JSON text or as the list a bounds report keeps in its config
        try:
            return np.array(json.loads(spec) if isinstance(spec, str) else spec, dtype=float)
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"bad --g matrix {spec!r}: {exc}") from exc
    return np.real(matrix_from_json(_read_json_file(str(spec), "--g")))


def _load_povm(path: str):
    from .qcore import Povm, matrix_from_json

    data = _read_json_file(path, "--povm")
    if not isinstance(data, dict) or not isinstance(data.get("elements"), list):
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


def _comma_list(name: str, item=None):
    """Comma-separated items on the command line, at least one.  A config
    gives a JSON list, read as its items joined by commas, or the same text.
    With no ``item`` converter the value stays that comma text."""

    def convert(value):
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        items = [x for x in text.split(",") if x.strip() != ""]
        if not items:
            raise argparse.ArgumentTypeError(f"{text!r} is an empty comma list")
        if item is None:
            return text
        try:
            return [item(x) for x in items]
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of {name}") from None

    return convert


def _number(kind, name: str, refused: tuple):
    """``kind`` (int or float) of a value, refusing the JSON values of another
    kind that ``kind`` would convert: booleans, and floats where ``int`` would
    truncate."""

    def convert(value):
        if isinstance(value, refused):
            raise argparse.ArgumentTypeError(f"{value!r} is not of type {name}")
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise argparse.ArgumentTypeError(f"{value!r} is not a valid {name}.") from None

    return convert


def _choice(*names):
    def convert(value):
        if str(value) not in names:
            raise argparse.ArgumentTypeError(f"{value!r} is not one of {', '.join(map(repr, names))}.")
        return str(value)

    return convert


FLOATS = _comma_list("floats", float)
INTS = _comma_list("ints", int)
NAMES = _comma_list("names", lambda x: x.strip().lower())
COMMA_TEXT = _comma_list("text")
INT = _number(int, "integer", (bool, float))
FLOAT = _number(float, "float", (bool,))

# option rows: (name, converter, default, help); ``...`` marks a required option
_OUT = ("out", str, None, "report prefix: writes <out>.json, and <out>.csv for row data")
_SEED = ("seed", INT, 0, "random seed")
_MODEL = ("model", str, ..., "model name, e.g. qubit-full, qubit-z0, diag:3 or gauss1:0.3:16")
_THETA = ("theta", FLOATS, ..., "comma-separated parameter point")

# name: (function, option rows) of every subcommand, ``run`` included
_COMMANDS = {}


def _experiment(name: str, *options):
    """Make ``fn(values)`` the subcommand ``name``.  ``options`` is its one
    schema: ``main`` builds the subcommand's options from it and ``qest run``
    reads a config through it (``_config_values``); both hand ``fn`` the same
    dict, one converted value per option name."""

    def register(fn):
        _COMMANDS[name] = (fn, options)
        return fn

    return register


def _report_config(name: str, values: dict) -> dict:
    """The config a report embeds: the experiment's values without ``out``,
    which ``run`` reads back to the same values."""
    config = {"experiment": name, **values}
    del config["out"]
    return config


def _config_values(options, config: dict) -> dict:
    """The value ``config`` gives each of ``options``, read by the option's
    converter.  An absent or null key takes the option's default; a required
    option's key must be there, and no other key may be."""
    unknown = set(config) - {option[0] for option in options} - {"experiment"}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for name, convert, default, _ in options:
        value = config.get(name)
        if value is None:
            if default is ...:
                raise ValidationError(f"missing config key {name!r}")
            values[name] = default
            continue
        try:
            values[name] = convert(value)
        except argparse.ArgumentTypeError as exc:
            raise ValidationError(f"config key {name!r}: {exc}") from exc
    return values


@_experiment(
    "fisher", _MODEL, _THETA,
    ("kind", _choice("sld", "rld", "classical"), "sld", "sld, rld or classical"),
    ("povm", str, None, "POVM JSON file (classical kind)"),
    _OUT, _SEED,
)
def fisher_experiment(values: dict) -> None:
    """Fisher information matrix of a model at a point."""
    from .fisher import classical_fisher, rld_fisher, sld_fisher
    from .models import model_from_name
    from .qcore import matrix_to_json

    model = model_from_name(values["model"])
    theta, kind = values["theta"], values["kind"]
    config = _report_config("fisher", values)
    if kind == "classical":
        if values["povm"] is None:
            raise ValidationError("classical Fisher needs --povm")
        j = classical_fisher(model, theta, _load_povm(values["povm"]))
        config["povm"] = str(Path(values["povm"]).resolve())
        results = {"droppedMass": j.dropped_mass}
    else:
        del config["povm"]
        logs, j = (sld_fisher if kind == "sld" else rld_fisher)(model, theta)
        results = {"residuals": list(logs.residuals)}
    results.update(matrix=matrix_to_json(j.matrix.astype(complex)), kind=kind)
    _write_report(values["out"], config, results)


@_experiment(
    "bounds", _MODEL, _THETA,
    # a config may give the rows as a list, which _load_weight reads as they are
    ("g", lambda spec: spec, "identity",
     "'identity', a matrix as JSON rows (e.g. [[1,0],[0,2]]), or a matrix JSON file"),
    ("starts", INT, 1, "accepted for old configs; has no effect"),
    _OUT,
    ("seed", INT, 0, "accepted for old configs; has no effect"),
)
def bounds_experiment(values: dict) -> None:
    """Bound chain: SLD Cramer-Rao, collective bound, qubit single-copy bound."""
    from .bounds import cr_value, holevo_bound, qubit_c1
    from .fisher import sld_fisher
    from .models import model_from_name

    model = model_from_name(values["model"])
    theta = values["theta"]
    g = _load_weight(values["g"], model.param_dim)
    config = {**_report_config("bounds", values), "g": g.tolist()}
    _, j_s = sld_fisher(model, theta)
    cr_sld = cr_value(j_s, g)
    solution = holevo_bound(model, theta, g)
    results = {
        "crSld": cr_sld,
        "holevo": solution.value,
        "gaps": {"holevoMinusCrSld": solution.value - cr_sld},
        "optimizer": {
            "residual": solution.constraint_residual,
            "dual": solution.dual_value,
            "gap": solution.value - solution.dual_value,
        },
    }
    if model.hilbert_dim == 2:
        c1 = qubit_c1(j_s, g)
        results["qubitC1"] = c1
        results["gaps"]["c1MinusHolevo"] = c1 - solution.value
    else:
        results["qubitC1"] = None
        results["note"] = "C1 unavailable: no closed form beyond qubit models"
    _write_report(values["out"], config, results)


@_experiment(
    "gauss",
    ("zeta", FLOATS, ..., "re,im of the displacement"),
    ("N", FLOAT, ..., "thermal photon number"),
    ("n", INT, ..., "copies per trial"),
    ("trials", INT, 10000, "Monte Carlo trials"),
    _OUT, _SEED,
)
def gauss_experiment(values: dict) -> None:
    """Concentration-protocol Monte Carlo for the one-mode Gaussian family."""
    import numpy as np

    from .gaussian import gaussian_protocol_mse, protocol_trials

    parts, noise, n_copies = values["zeta"], values["N"], values["n"]
    if len(parts) != 2:
        raise ValidationError("--zeta needs exactly re,im")
    zeta = complex(parts[0], parts[1])
    trials, seed = values["trials"], values["seed"]
    config = _report_config("gauss", values)
    report = gaussian_protocol_mse(zeta, noise, n_copies, trials, seed)
    results = {
        "mseTheta": report.mse_theta,
        "seMseTheta": report.se_mse_theta,
        "scaledMseTheta": n_copies * report.mse_theta,
        "mseNoise": report.mse_noise,
        "seMseNoise": report.se_mse_noise,
        "scaledMseNoise": (n_copies - 1) * report.mse_noise,
        "baselineMseTheta": report.baseline_mse_theta,
        "seBaselineMseTheta": report.se_baseline_mse_theta,
        "baselineMseNoise": report.baseline_mse_noise,
        "seBaselineMseNoise": report.se_baseline_mse_noise,
        "scaledBaselineMseNoise": n_copies * report.baseline_mse_noise,
        "boundTheta": report.bound_theta,
        "boundNoiseCollective": report.bound_noise_collective,
        "boundNoiseSeparable": report.bound_noise_separable,
        "relativeSeFlag": report.relative_se_flag,
    }

    def csv_blocks():
        # a second pass over the same draws: the report keeps no per-trial arrays
        start = 0
        for zh, nh, zb, nb in protocol_trials(zeta, noise, n_copies, trials, seed):
            yield [np.arange(start, start + zh.size), zh.real, zh.imag, nh, zb.real, zb.imag, nb]
            start += zh.size

    header = ["trial", "zeta_hat_re", "zeta_hat_im", "noise_hat", "zeta_hat_base_re", "zeta_hat_base_im", "noise_hat_base"]
    _write_report(values["out"], config, results, header, csv_blocks() if values["out"] else None)


@_experiment(
    "clt", _MODEL, _THETA,
    ("ops", NAMES, ..., "comma list of paulis, e.g. z or x,y"),
    ("word", INTS, ..., "1-based indices into --ops"),
    ("n", INTS, ..., "comma list of copy counts"),
    _OUT, _SEED,
)
def clt_experiment(values: dict) -> None:
    """Collective moments against the limiting Gaussian moments."""
    from .clt import CollectiveSpec, collective_moment
    from .gaussian import gaussian_moment
    from .models import PAULIS, model_from_name

    model = model_from_name(values["model"])
    if model.hilbert_dim != 2:
        raise ValidationError("clt experiment supports qubit models")
    theta, names, word = values["theta"], values["ops"], values["word"]
    if any(nm not in PAULIS for nm in names):
        raise ValidationError(f"unknown operator in {names!r}; use x, y, z")
    config = _report_config("clt", values)
    rho = model.state_at(model.require_domain(theta))
    spec = CollectiveSpec(rho, [PAULIS[nm] for nm in names])
    limit = gaussian_moment(spec.limit_spec(), word)
    rows = []
    for n in values["n"]:
        exact = collective_moment(spec, n, word)
        rows.append([n, exact.real, exact.imag, limit.real, limit.imag, abs(exact - limit)])
    results = {
        "gaussian": {"re": limit.real, "im": limit.imag},
        "rows": [{"n": r[0], "exactRe": r[1], "exactIm": r[2], "gap": r[5]} for r in rows],
    }
    header = ["n", "exact_re", "exact_im", "gaussian_re", "gaussian_im", "gap"]
    _write_report(values["out"], config, results, header, [list(zip(*rows))])


@_experiment(
    "estimate",
    ("mode", _choice("two-stage", "collective"), ..., "two-stage or collective"),
    _MODEL, _THETA,
    ("n", COMMA_TEXT, ..., "copies (two-stage) or comma list (collective)"),
    ("trials", INT, 1000, "Monte Carlo trials (two-stage)"),
    ("eps", FLOAT, 0.1, "kernel regularization (collective)"),
    _OUT, _SEED,
)
def estimate_experiment(values: dict) -> None:
    """Run an estimator: adaptive two-stage Monte Carlo or exact collective check."""
    import numpy as np

    from .bounds import holevo_bound
    from .collective import collective_estimator_check, default_v_prime, mixed_basis_povm, two_stage_estimate
    from .models import model_from_name

    model = model_from_name(values["model"])
    theta, seed, out = values["theta"], values["seed"], values["out"]
    n_list = INTS(values["n"])
    config = _report_config("estimate", values)
    if values["mode"] == "two-stage":
        if len(n_list) != 1:
            raise ValidationError("two-stage estimation takes one copy count --n")
        povm = mixed_basis_povm("zxy" if model.param_dim == 3 else "zx")
        report = two_stage_estimate(model, theta, povm, n_list[0], seed, trials=values["trials"])
        results = {
            "empiricalMean": report.empirical_mean,
            "mseMatrix": report.mse_matrix,
            "standardErrors": report.standard_errors,
            "trials": report.trials,
            "discarded": report.extras["discarded"],
            "bound": {"kind": report.bound_kind, "value": report.bound_value},
            "scaledWeightedTrace": report.extras["weighted_trace_scaled"],
        }
        est = report.extras.pop("estimates")
        columns = [[np.arange(len(est)), *est.T]]
        header = ["trial"] + [f"theta_hat_{k + 1}" for k in range(model.param_dim)]
        _write_report(out, config, results, header, columns)
        return
    identity = np.eye(model.param_dim)
    solution = holevo_bound(model, theta, identity)
    v_prime = default_v_prime(solution.s_matrix, identity, values["eps"])
    rows = collective_estimator_check(model, theta, solution.x_ops, v_prime, n_list)
    results = {
        "vPrime": v_prime,
        "targetTrace": float(np.trace(solution.v_matrix + v_prime)),
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
        [r["n"], r["scaledTrace"], float(np.linalg.norm(r["aMatrix"] - identity)), r["completenessResidual"]]
        for r in results["rows"]
    ]
    header = ["n", "scaled_trace", "a_minus_identity", "completeness_residual"]
    _write_report(out, config, results, header, [list(zip(*csv_rows))])


@_experiment(
    "run",
    ("config", str, ..., "JSON config file"),
    ("out", str, None, "overrides the config's out prefix"),
)
def run_experiment(values: dict) -> None:
    """Run an experiment described by a JSON config file."""
    try:
        config = json.loads(Path(values["config"]).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    name = config.get("experiment")
    if not isinstance(name, str) or name == "run" or name not in _COMMANDS:
        raise ValidationError(f"unknown experiment {name!r}")
    fn, options = _COMMANDS[name]
    config_values = _config_values(options, config)
    if values["out"]:
        config_values["out"] = values["out"]
    fn(config_values)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors exit 2 with one stderr line; ``main``
    reports a command's validation errors through it too."""

    def error(self, message):
        print(f"validation error: {message}", file=sys.stderr)
        sys.exit(_ExitCodes.VALIDATION)


def _values_attached(argv: list) -> list:
    """``argv`` with each option of a subcommand joined to the token after it
    (``--theta=-0.5,0``), so that a value that starts with a dash, such as a
    negative coordinate, is read as the option's value."""
    takes_value = {f"--{option[0]}" for _, options in _COMMANDS.values() for option in options}
    joined, tokens = [], iter(argv)
    for arg in tokens:
        value = next(tokens, None) if arg in takes_value else None
        joined.append(arg if value is None else f"{arg}={value}")
    return joined


def main(argv=None, standalone_mode=True):
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names.

    Every call ends in ``SystemExit`` with an exit code of the module
    docstring (0 after ``--help`` and ``--version``), and only a command that
    parses gets the process policy.  ``standalone_mode`` is accepted for
    callers of ``main(argv, standalone_mode=False)`` and changes nothing:
    such a caller reads the code of the ``SystemExit``.
    """
    global _owns_process
    parser = _Parser(prog="qest", description="Quantum estimation experiments: states, bounds, Gaussian protocols.",
                     add_help=False, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    parser.add_argument("--help", action="help", help="show this message and exit")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (fn, options) in _COMMANDS.items():
        summary = fn.__doc__.splitlines()[0]
        command = commands.add_parser(name, help=summary, description=summary, add_help=False, allow_abbrev=False)
        for option, convert, default, help_text in options:
            command.add_argument(f"--{option}", type=convert, default=default, required=default is ..., help=help_text)
        command.add_argument("--help", action="help", help="show this message and exit")
    values = vars(parser.parse_args(_values_attached(sys.argv[1:] if argv is None else argv)))
    fn, _ = _COMMANDS[values.pop("command")]
    # once NumPy is loaded the pin would reach only child processes, and the
    # process is the caller's
    _owns_process = "numpy" not in sys.modules
    if _owns_process:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        atexit.register(gc.freeze)
    for name in ("_sha2", "_sha256"):  # Python >= 3.12; 3.10 and 3.11
        try:
            __import__(name)
        except ImportError:
            continue
        sys.modules.setdefault("_hashlib", None)
        break
    try:
        fn(values)
    except (ValidationError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        sys.exit(_ExitCodes.NUMERICAL)
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        sys.exit(_ExitCodes.NUMERICAL)
    finally:
        _owns_process = False
    sys.exit(_ExitCodes.OK)


if __name__ == "__main__":
    main()
