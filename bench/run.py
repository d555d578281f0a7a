"""qest benchmark: CLI workloads timed end to end, per-layer numbers from a traced run.

Run from the root of a qest checkout:

    python3 bench/run.py --workload two-stage --seed 1 --seconds 30 --trace 0

``--trace 0`` runs passes of the workload as ``python -m qest.cli`` child
processes, one at a time, for about ``--seconds`` (it starts no pass that
would end more than half a pass past it), and checks every report.  Before each pass it times one set-up sample, a
fresh ``python -m qest.cli --help``.  It reports

- ``wall_s``: the mean wall time of a pass, first child start to last child
  exit.  On a shared host the CPU speed drifts in phases of several seconds,
  and the mean over the whole run is steadier than the median of its few
  passes; every pass time is printed on the detail line;
- ``setup_s``: the median of the set-up samples;
- ``peak_rss_mb``: the median over passes of the largest max-RSS of any child.

``--trace 1`` runs the same commands in-process through ``qest.cli.main``:
untraced, twice with the wrappers of ``layers.py`` installed, and untraced
again.  The reports of every pass must equal the first pass's byte for byte,
and the exact counts must repeat between the two traced passes.  Per-layer
numbers come from the first traced pass; the tracing overhead is its wall
time minus that of the last, untraced pass.  Spans are written to
``.bench_out/spans-<workload>.npz``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
unit and sample count, the error rate, the seed and the machine.  Exit code
0 means every check held, 1 that one failed, 2 that the checkout has no
``src/qest``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

# One BLAS thread: on a small shared machine this is both faster and steadier
# for the 128x128 eigh calls of the collective workload, and it keeps
# floating-point reductions, so optimizer iteration counts, repeatable.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS thread pinning)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_child(argv: list, cwd: Path, stderr_path: Path) -> tuple:
    """Run ``python -m qest.cli argv``; return (exit code, max RSS in MB, stderr tail)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qest.cli", *argv],
            cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        # wait4 gives this child's own max RSS, not the running maximum over all children
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = stderr_path.read_text(errors="replace").strip().splitlines()
    tail = "timed out" if timed_out.is_set() else (lines[-1] if lines else "")
    return proc.returncode, usage.ru_maxrss / 1024.0, tail


def time_setup() -> float:
    """Wall time of one fresh ``python -m qest.cli --help``: interpreter, imports, click."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "qest.cli", "--help"], cwd=ROOT, env=child_env(),
        stdout=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start


def check_reports(ops: list, workdir: Path, codes: list, pass_label: str) -> list:
    """One failure line per operation whose command failed or whose report does not hold."""
    failures = []
    for op, (code, tail) in zip(ops, codes):
        if code != 0:
            failures.append(f"{pass_label} {op.name}: exit {code}: {tail}")
            continue
        try:
            reason = op.check(workdir)
        except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
            reason = f"report unreadable: {exc!r}"
        if reason is not None:
            failures.append(f"{pass_label} {op.name}: {reason}")
    return failures


def fresh_reports(workdir: Path) -> None:
    shutil.rmtree(workdir / "reports", ignore_errors=True)
    (workdir / "reports").mkdir()


def subprocess_pass(ops: list, workdir: Path, label: str) -> tuple:
    fresh_reports(workdir)
    codes, rss = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        code, peak, tail = run_child(op.argv, workdir, workdir / f"stderr{i}.txt")
        codes.append((code, tail))
        rss.append(peak)
    wall = time.perf_counter() - start
    return wall, max(rss), check_reports(ops, workdir, codes, label)


def timed_run(ops: list, workdir: Path, seconds: float) -> tuple:
    """Alternate a set-up sample and a pass for about ``seconds``.

    On a shared host the CPU speed drifts over seconds, so set-up samples are
    spread over the run rather than taken in one burst.
    """
    time_setup()  # warm the page cache and write bytecode before timing
    setup, walls, peaks, failures = [], [], [], []
    start = time.perf_counter()
    while True:
        setup.append(time_setup())
        wall, peak, fails = subprocess_pass(ops, workdir, f"pass {len(walls)}")
        walls.append(wall)
        peaks.append(peak)
        failures += fails
        if time.perf_counter() - start + wall / 2 > seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(time_setup())
    return setup, walls, peaks, failures


def report_digests(workdir: Path) -> dict:
    reports = workdir / "reports"
    return {
        str(p.relative_to(reports)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(reports.rglob("*")) if p.is_file()
    }


def in_process_pass(cli, ops: list, workdir: Path) -> tuple:
    """Run the commands through ``qest.cli.main`` in this process; return (wall, codes)."""
    fresh_reports(workdir)
    codes = []
    old_cwd = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    try:
        for op in ops:
            err = io.StringIO()
            code = 0
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    cli.main(op.argv, standalone_mode=False)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash fails this operation; the pass goes on
                    code = 1
                    err.write(traceback.format_exc())
            lines = err.getvalue().strip().splitlines()
            codes.append((code, lines[-1] if lines else ""))
    finally:
        wall = time.perf_counter() - start
        os.chdir(old_cwd)
    return wall, codes


def traced_run(ops: list, workdir: Path, spans_path: Path) -> tuple:
    """Untraced, traced, traced, untraced in-process passes of the same commands.

    The first pass is the reference (and warms lazy imports and caches); the
    last one is the untraced time the tracing overhead is measured against.
    """
    sys.path.insert(0, str(SRC))
    import qest
    import qest.cli as cli

    if Path(qest.__file__).resolve().parent != (SRC / "qest").resolve():
        raise SystemExit(f"qest imported from {qest.__file__}, not from {SRC}")
    _, codes = in_process_pass(cli, ops, workdir)
    failures = check_reports(ops, workdir, codes, "untraced 1")
    reference = report_digests(workdir)

    def same_reports(label: str, codes: list) -> None:
        digests = report_digests(workdir)
        for op, (code, tail) in zip(ops, codes):
            prefix = op.argv[op.argv.index("--out") + 1].removeprefix("reports/") + "."
            mine = {k: v for k, v in digests.items() if k.startswith(prefix)}
            ref = {k: v for k, v in reference.items() if k.startswith(prefix)}
            if code != 0:
                failures.append(f"{label} {op.name}: exit {code}: {tail}")
            elif mine != ref:
                failures.append(f"{label} {op.name}: report differs from the untraced one")

    tracer = layers.Tracer()
    tracer.install()
    traced = []
    try:
        for pass_id in (1, 2):
            tracer.begin_pass(pass_id)
            wall, codes = in_process_pass(cli, ops, workdir)
            traced.append((wall, tracer.pass_metrics(pass_id)))
            same_reports(f"traced {pass_id}", codes)
    finally:
        tracer.uninstall()
    untraced_wall, codes = in_process_pass(cli, ops, workdir)
    same_reports("untraced 2", codes)
    SPANS_DIR.mkdir(exist_ok=True)
    np.savez(spans_path, **tracer.spans())

    (traced_wall, first), (_, second) = traced
    repeats = sorted(m for m in set(first) | set(second) if layers.is_exact(m) and first.get(m) != second.get(m))
    if repeats:
        failures.append(f"exact counts differ between the two traced passes: {repeats}")
    metrics = {name: {"value": first.get(name, 0), "unit": unit} for name, unit in layers.METRICS}
    metrics["trace.untraced_s"]["value"] = untraced_wall
    metrics["trace.traced_s"]["value"] = traced_wall
    metrics["trace.overhead_s"]["value"] = traced_wall - untraced_wall
    metrics["trace.absent_targets"]["value"] = len(tracer.absent)
    detail = {"absent": tracer.absent, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, failures, 4 * len(ops), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qest" / "cli.py").is_file():
        print(f"error: no qest sources at {SRC / 'qest'}; run from the root of a qest checkout", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_facts()}
        if args.trace:
            spans_path = SPANS_DIR / f"spans-{args.workload}.npz"
            metrics, failures, attempted, extra = traced_run(ops, workdir, spans_path)
            detail.update(extra)
            samples = {name: 1 for name in metrics}
        else:
            setup, walls, peaks, failures = timed_run(ops, workdir, args.seconds)
            attempted = len(ops) * len(walls)
            metrics = {
                "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
            }
            detail.update(pass_wall_s=walls, pass_peak_rss_mb=peaks, setup_samples_s=setup)
            samples = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(walls)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    detail["failures"] = failures
    detail["error_rate"] = len(failures) / attempted
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']} (samples: {samples[name]})")
    print(f"error_rate = {detail['error_rate']!r} ({len(failures)} of {attempted} operations failed)")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
