"""Append one benchmark entry per workload, and the timings of a few larger
CLI inputs, to the trajectory files ``BENCH_<workload>.json`` and
``BENCH_large.json``.

Usage, from the root of a qest checkout:

    python .github/scripts/bench_record.py [--seed 5] [--seconds 5] [--dest DIR]

Each workload of ``BENCHMARK.json`` runs through ``bench/run.py --trace 0``
unchanged; its entry keeps the metrics of that run's last JSON line and the
pass times of its detail line.  The larger inputs run as ``python -m
qest.cli`` children of this NumPy-free process (a child's max RSS starts at
its parent's, read through ``os.wait4``): a ``gauss`` run at 10^6 trials
with a CSV, a ``gauss`` run at 10^5 trials into a fresh ``--out`` followed
by three reruns into the same, existing one, collective estimates of
``qubit-z0`` on the rotation path, at (0, 0) for n = 128 and 256 and at
(0.5, 0) for n = 128, two-stage estimates at 10^5 trials with a CSV on
``qubit-z0`` and ``qubit-full``, and the benchmark's 200-trial two-stage
estimate followed by three reruns into its ``--out``.

Every entry names the checkout's commit (``modified`` when ``src`` or
``bench`` differ from it) and the machine: CPU count, Python and NumPy
versions, and the medians of ``python -c pass`` and ``python -c "import
numpy"``, so that a host change can be told from a code change.  Files are
written to ``--dest`` (default: the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

START_UP_SAMPLES = 7
LARGE_SAMPLES = 3
GAUSS = ["gauss", "--zeta", "0.6,0.4", "--N", "1", "--n", "100", "--seed", "1"]
COLLECTIVE = ["estimate", "--mode", "collective", "--model", "qubit-z0", "--eps", "0.1", "--out", "{dir}/collective"]
TWO_STAGE = ["estimate", "--mode", "two-stage", "--n", "10000", "--seed", "1", "--out", "{dir}/two_stage"]
TWO_STAGE_Z0 = [*TWO_STAGE, "--model", "qubit-z0", "--theta", "0.5,0"]


def commit(root: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"), "modified": bool(git("status", "--porcelain", "--", "src", "bench"))}


def median_wall(argv: list, samples: int) -> float:
    walls = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def machine() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True, check=True
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.stdout.strip(),
        "python_c_pass_s": median_wall([sys.executable, "-c", "pass"], START_UP_SAMPLES),
        "import_numpy_s": median_wall([sys.executable, "-c", "import numpy"], START_UP_SAMPLES),
    }


def run_workload(root: Path, name: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise SystemExit(f"bench/run.py --workload {name} wrote no JSON line (exit {proc.returncode}): {proc.stderr[-500:]}")
    last, detail = json.loads(lines[-1]), json.loads(lines[0])
    return {
        "metrics": {metric: value["value"] for metric, value in last["metrics"].items()},
        "correct": last["correct"],
        "failed": last["failed"],
        "attempted": last["attempted"],
        "pass_wall_s": detail.get("pass_wall_s"),
    }


def timed_child(root: Path, argv: list) -> tuple:
    """Wall time and max RSS in MB of one ``python -m qest.cli argv``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qest.cli", *argv], cwd=root, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"qest {' '.join(argv)} exited {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_maxrss / 1024


def large_inputs(root: Path) -> list:
    """Per input, ``LARGE_SAMPLES`` samples, each a fresh directory in which
    the command runs ``runs`` times into the same ``--out``: the wall time of
    every run, and the largest max RSS of any."""
    cases = {
        "gauss-1e6-csv": ([*GAUSS, "--trials", "1000000", "--out", "{dir}/gauss"], 1),
        # a fresh run, then three reruns that rewrite its files
        "gauss-1e5-csv-rerun": ([*GAUSS, "--trials", "100000", "--out", "{dir}/gauss"], 4),
        "collective-z0-origin-n128": ([*COLLECTIVE, "--theta", "0,0", "--n", "128"], 1),
        "collective-z0-origin-n256": ([*COLLECTIVE, "--theta", "0,0", "--n", "256"], 1),
        "collective-z0-off-n128": ([*COLLECTIVE, "--theta", "0.5,0", "--n", "128"], 1),
        "two-stage-z0-1e5-csv": ([*TWO_STAGE_Z0, "--trials", "100000"], 1),
        "two-stage-full-1e5-csv": ([*TWO_STAGE, "--model", "qubit-full", "--theta", "0.3,0.2,0.1", "--trials", "100000"], 1),
        # a fresh run, then three reruns that rewrite its files
        "two-stage-rerun": ([*TWO_STAGE_Z0, "--trials", "200"], 4),
    }
    results = []
    for name, (argv, runs) in cases.items():
        walls, rss = [], 0.0
        for _ in range(LARGE_SAMPLES):
            with tempfile.TemporaryDirectory() as scratch:
                sample = [timed_child(root, [arg.format(dir=scratch) for arg in argv]) for _ in range(runs)]
            walls.append([wall for wall, _ in sample])
            rss = max(rss, *(peak for _, peak in sample))
        results.append({"name": name, "argv": argv, "wall_s": walls, "max_rss_mb": rss})
    return results


def append(path: Path, entry: dict) -> None:
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--dest", type=Path, default=None, help="directory of the BENCH_*.json files")
    args = parser.parse_args(argv)
    root = Path.cwd()
    dest = args.dest or root
    head = {**commit(root), "machine": machine()}
    for workload in json.loads((root / "BENCHMARK.json").read_text())["workloads"]:
        name = workload["name"]
        entry = {**head, "seed": args.seed, "seconds": args.seconds, **run_workload(root, name, args.seed, args.seconds)}
        append(dest / f"BENCH_{name}.json", entry)
        print(name, json.dumps(entry["metrics"]), flush=True)
    append(dest / "BENCH_large.json", {**head, "inputs": large_inputs(root)})
    assert "numpy" not in sys.modules
    return 0


if __name__ == "__main__":
    sys.exit(main())
