"""Per-layer tracing from outside the package.

``Tracer.install`` wraps qest functions, three class methods and
``numpy.linalg.eigh``/``eigvalsh`` in every module namespace that holds them.
Each wrapped call records a span (name, start, end, parent, pass id) into
in-memory arrays, and some wrappers also add counts computed from their
arguments or results.  ``Tracer.uninstall`` puts the originals back.
A target that a later version of the package removed or renamed is skipped
and reported as absent.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _bind(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _measure_distribution(tracer, sig, args, kwargs, result):
    povm = _bind(sig, args, kwargs)["m"]
    tracer.counts["qcore.born_terms"] += len(povm.elements) * povm.dim**2


def _build_collective_povm(tracer, sig, args, kwargs, result):
    dim = result.elements[0].shape[0]
    tracer.counts["collective.povm_elements"] += len(result.elements)
    tracer.counts["collective.povm_bytes_computed"] += len(result.elements) * dim * dim * 16


def _build_collective_ops(tracer, sig, args, kwargs, result):
    tracer.raise_max("clt.build_collective_ops.max_dim", result[0].shape[0])


def _two_stage(tracer, sig, args, kwargs, result):
    tracer.counts["collective.two_stage.trials"] += result.trials
    tracer.counts["collective.two_stage.attempted"] += result.trials + result.extras["discarded"]


def _lbfgs(tracer, sig, args, kwargs, result):
    tracer.counts["bounds.lbfgs.iters"] += int(result.nit)
    tracer.counts["bounds.lbfgs.nfev"] += int(result.nfev)


def _gaussian_protocol(tracer, sig, args, kwargs, result):
    a = _bind(sig, args, kwargs)
    # protocol: 2 normals + (n - 1) geometric counts; baseline: 2 n normals
    tracer.counts["gaussian.draws"] += a["trials"] * (2 + (a["n"] - 1) + 2 * a["n"])


def _write_report(tracer, sig, args, kwargs, result):
    prefix = _bind(sig, args, kwargs)["out_prefix"]
    if prefix:
        for suffix in (".json", ".csv"):
            path = Path(f"{prefix}{suffix}")
            if path.exists():
                tracer.counts["cli.report_bytes"] += path.stat().st_size


def _eigh(tracer, sig, args, kwargs, result):
    tracer.raise_max("kernel.eigh.max_dim", np.shape(args[0])[-1])


# (span name, module, attribute, class name or None, post-call hook or None)
TARGETS = [
    ("qcore.measure_distribution", "qest.qcore", "measure_distribution", None, _measure_distribution),
    ("qcore.DensityOperator", "qest.qcore", "__init__", "DensityOperator", None),
    ("qcore.Povm", "qest.qcore", "__init__", "Povm", None),
    ("models.is_interior", "qest.models", "is_interior", "ParametricModel", None),
    ("models.model_derivatives", "qest.models", "model_derivatives", None, None),
    ("fisher.sld_fisher", "qest.fisher", "sld_fisher", None, None),
    ("fisher.rld_fisher", "qest.fisher", "rld_fisher", None, None),
    ("fisher.classical_fisher", "qest.fisher", "classical_fisher", None, None),
    ("bounds.holevo_bound", "qest.bounds", "holevo_bound", None, None),
    ("bounds.lbfgs", "qest.bounds", "minimize", None, _lbfgs),
    ("gaussian.gaussian_protocol_mse", "qest.gaussian", "gaussian_protocol_mse", None, _gaussian_protocol),
    ("gaussian.fock_density", "qest.gaussian", "fock_density", None, None),
    ("clt.collective_moment", "qest.clt", "collective_moment", None, None),
    ("clt.build_collective_ops", "qest.clt", "build_collective_ops", None, _build_collective_ops),
    ("collective.mle", "qest.collective", "mle", None, None),
    ("collective.mle_grid", "qest.collective", "_grid_points", None, None),
    ("collective.mle_grid_probs", "qest.collective", "_batch_probs", None, None),
    ("collective.optimal_qubit_povm", "qest.collective", "optimal_qubit_povm", None, None),
    ("collective.two_stage", "qest.collective", "two_stage_estimate", None, _two_stage),
    ("collective.build_collective_povm", "qest.collective", "build_collective_povm", None, _build_collective_povm),
    ("collective.estimator_check", "qest.collective", "collective_estimator_check", None, None),
    ("cli.write_report", "qest.cli", "_write_report", None, _write_report),
    ("kernel.eigh", "numpy.linalg", "eigh", None, _eigh),
    ("kernel.eigvalsh", "numpy.linalg", "eigvalsh", None, None),
]

# the per-layer metrics of a traced run, with their units
METRICS = [
    ("collective.mle.calls", "count"),
    ("collective.mle.s", "s"),
    ("collective.mle.self_s", "s"),
    ("collective.mle_grid.calls", "count"),
    ("collective.mle_grid.s", "s"),
    ("collective.mle_grid_probs.calls", "count"),
    ("collective.mle_grid_probs.s", "s"),
    ("models.is_interior.calls", "count"),
    ("models.is_interior.s", "s"),
    ("collective.optimal_qubit_povm.calls", "count"),
    ("collective.optimal_qubit_povm.s", "s"),
    ("collective.two_stage.calls", "count"),
    ("collective.two_stage.s", "s"),
    ("collective.two_stage.useful_ratio", "ratio"),
    ("qcore.measure_distribution.calls", "count"),
    ("qcore.measure_distribution.s", "s"),
    ("qcore.born_terms", "count"),
    ("qcore.DensityOperator.calls", "count"),
    ("qcore.DensityOperator.s", "s"),
    ("qcore.Povm.calls", "count"),
    ("qcore.Povm.s", "s"),
    ("fisher.sld_fisher.calls", "count"),
    ("fisher.sld_fisher.s", "s"),
    ("fisher.rld_fisher.calls", "count"),
    ("fisher.rld_fisher.s", "s"),
    ("fisher.classical_fisher.calls", "count"),
    ("fisher.classical_fisher.s", "s"),
    ("models.model_derivatives.calls", "count"),
    ("models.model_derivatives.s", "s"),
    ("collective.build_collective_povm.calls", "count"),
    ("collective.build_collective_povm.s", "s"),
    ("collective.build_collective_povm.self_s", "s"),
    ("collective.povm_elements", "count"),
    ("collective.povm_bytes_computed", "B"),
    ("collective.estimator_check.calls", "count"),
    ("collective.estimator_check.s", "s"),
    ("collective.estimator_check.self_s", "s"),
    ("clt.build_collective_ops.calls", "count"),
    ("clt.build_collective_ops.s", "s"),
    ("clt.build_collective_ops.max_dim", "count"),
    ("kernel.eigh.calls", "count"),
    ("kernel.eigh.s", "s"),
    ("kernel.eigh.max_dim", "count"),
    ("kernel.eigvalsh.calls", "count"),
    ("kernel.eigvalsh.s", "s"),
    ("bounds.holevo_bound.calls", "count"),
    ("bounds.holevo_bound.s", "s"),
    ("bounds.lbfgs.calls", "count"),
    ("bounds.lbfgs.s", "s"),
    ("bounds.lbfgs.iters", "count"),
    ("bounds.lbfgs.nfev", "count"),
    ("gaussian.gaussian_protocol_mse.calls", "count"),
    ("gaussian.gaussian_protocol_mse.s", "s"),
    ("gaussian.draws", "count"),
    ("gaussian.fock_density.calls", "count"),
    ("gaussian.fock_density.s", "s"),
    ("clt.collective_moment.calls", "count"),
    ("clt.collective_moment.s", "s"),
    ("cli.write_report.calls", "count"),
    ("cli.write_report.s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.absent_targets", "count"),
]

# counts that must repeat exactly between two traced passes of one seed
EXACT = {
    "kernel.eigh.max_dim",
    "bounds.lbfgs.iters",
    "collective.povm_elements",
    "qcore.born_terms",
    "cli.report_bytes",
}


def is_exact(metric: str) -> bool:
    return metric.endswith(".calls") or metric in EXACT


class Tracer:
    """Spans and counts of wrapped calls, kept in memory until the run ends."""

    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []
        self.pass_id = 0
        self.counts: dict = defaultdict(int)
        self.absent: list = []
        self._patches: list = []

    def raise_max(self, key: str, value) -> None:
        self.counts[key] = max(self.counts[key], int(value))

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts = defaultdict(int)

    def _wrap(self, name: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        sig = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_pass.append(self.pass_id)
            self.span_end.append(0.0)
            self.stack.append(idx)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, sig, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module_name, attr, class_name, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner = getattr(module, class_name, None) if class_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            traced = self._wrap(name, original, hook)
            if class_name or module_name == "numpy.linalg":
                self._patch(owner, attr, traced)
                continue
            # every qest namespace that imported the function by name
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "qest" or mod_name.startswith("qest.")) and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> dict:
        """Copies of the span arrays (name indexes ``names``; parent -1 is a root)."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "pass_id": np.array(self.span_pass, dtype=np.int32),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
        }

    def pass_metrics(self, pass_id: int) -> dict:
        """Calls, inclusive and self seconds per span name, and the counts, of one pass."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        parents = sp["parent"]
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        mine = sp["pass_id"] == pass_id
        k = len(self.names)
        calls = np.bincount(sp["name"][mine], minlength=k)
        total = np.bincount(sp["name"][mine], weights=dur[mine], minlength=k)
        own = np.bincount(sp["name"][mine], weights=(dur - child_time)[mine], minlength=k)
        out = dict(self.counts)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        out["trace.spans"] = int(mine.sum())
        attempted = out.pop("collective.two_stage.attempted", 0)
        trials = out.pop("collective.two_stage.trials", 0)
        out["collective.two_stage.useful_ratio"] = trials / attempted if attempted else 0.0
        return out
