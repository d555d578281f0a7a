"""Finite-dimensional quantum primitives.

Density operators, POVMs, outcome statistics from the trace rule, probabilistic
mixtures, tensor powers, and reproducible outcome sampling.  All hard numerical
tolerances used by the validators live in this module as constants so tests and
downstream code agree on one set of numbers.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
POVM_PSD_TOL = 1e-10
POVM_COMPLETENESS_TOL = 1e-10
PROB_CLAMP = -1e-12
PROB_SUM_TOL = 1e-8
DEFAULT_DIM_CAP = 4096


def _as_complex_matrix(matrix: Any) -> np.ndarray:
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def hermitian_deviation(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def density_stack(matrices: np.ndarray) -> np.ndarray:
    """Validate and normalize a stack (m, dim, dim) of density matrices.

    The DensityOperator rules, applied to every matrix of the stack; any
    matrix failing a check raises, with the checks run in the order
    Hermiticity, trace, positivity.  Returns a new stack.
    """
    arr = np.asarray(matrices, dtype=complex)
    adj = arr.conj().swapaxes(-1, -2)
    dev = np.abs(arr - adj).max(axis=(-2, -1))
    if (dev > HERMITICITY_TOL).any():
        raise ValidationError(f"matrix is not Hermitian (deviation {dev.max():.3e})")
    arr = (arr + adj) / 2
    tr = np.real(np.trace(arr, axis1=-2, axis2=-1))
    bad = np.abs(tr - 1.0) > TRACE_TOL
    if bad.any():
        raise ValidationError(f"trace is {float(tr[bad][0])!r}, expected 1 within {TRACE_TOL}")
    low = np.linalg.eigvalsh(arr).min(axis=-1)
    if (low < EIGENVALUE_FLOOR).any():
        raise ValidationError(
            f"matrix is not positive semidefinite (min eigenvalue {low.min():.3e})"
        )
    for i in np.flatnonzero(low < 0):
        w, u = np.linalg.eigh(arr[i])
        w = np.clip(w, 0.0, None)
        fixed = (u * w) @ u.conj().T
        arr[i] = (fixed + fixed.conj().T) / 2
    return arr / np.real(np.trace(arr, axis1=-2, axis2=-1))[:, None, None]


def probability_rows(probs: np.ndarray, sum_tol) -> np.ndarray:
    """Validate and normalize a stack (m, k) of outcome probability vectors.

    The OutcomeDistribution rules, per row: an entry below -1e-12 raises, tiny
    negatives are clamped to zero, and a row whose total leaves the window
    1 +- ``sum_tol`` (a scalar or one value per row) raises; every other row
    is renormalized to sum to one.  Returns a new array.
    """
    p = np.array(probs, dtype=float)
    if p.min() < PROB_CLAMP:
        raise ValidationError(f"negative probability {p.min():.3e}")
    p[p < 0] = 0.0
    total = p.sum(axis=-1)
    bad = np.abs(total - 1.0) > sum_tol
    if bad.any():
        raise ValidationError(f"probabilities sum to {float(total[bad][0])!r}, expected 1")
    return p / np.where(total > 0, total, 1.0)[:, None]


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one positive Hermitian matrix on a finite-dimensional space.

    Construction validates Hermiticity (1e-12 entrywise), unit trace (1e-10)
    and positivity: eigenvalues in [-1e-10, 0) are clamped to zero followed by
    trace renormalization, anything below -1e-10 is rejected.
    """

    matrix: np.ndarray

    def __init__(self, matrix: Any):
        arr = _as_complex_matrix(matrix)
        object.__setattr__(self, "matrix", _freeze(density_stack(arr[None])[0]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def to_json_dict(self) -> dict:
        return matrix_to_json(self.matrix)

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityOperator":
        return cls(matrix_from_json(data))


@dataclass(frozen=True)
class Povm:
    """Finite or gridded family of positive operators summing to identity.

    ``weights`` is None for discrete POVMs (elements must sum to the identity
    within 1e-10) and carries the quadrature weight per element for gridded
    ones, in which case the completeness residual against the supplied
    tolerance is recorded instead of demanding exactness.
    """

    dim: int
    labels: tuple
    elements: tuple
    weights: np.ndarray | None
    completeness_residual: float
    completeness_tol: float

    def __init__(
        self,
        elements: Sequence[Any],
        labels: Sequence[Any] | None = None,
        weights: Sequence[float] | None = None,
        completeness_tol: float | None = None,
    ):
        mats = [_as_complex_matrix(m) for m in elements]
        if not mats:
            raise ValidationError("POVM needs at least one element")
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ValidationError("POVM elements have mixed dimensions")
        for i, m in enumerate(mats):
            if hermitian_deviation(m) > 1e-10:
                raise ValidationError(f"POVM element {i} is not Hermitian")
            if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -POVM_PSD_TOL:
                raise ValidationError(f"POVM element {i} is not positive semidefinite")
        mats = [(m + m.conj().T) / 2 for m in mats]
        if labels is None:
            labels = tuple(range(len(mats)))
        else:
            labels = tuple(labels)
        if len(labels) != len(mats):
            raise ValidationError("label/element count mismatch")
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(mats),) or (w < 0).any():
                raise ValidationError("weights must be nonnegative, one per element")
        else:
            w = None
        tol = completeness_tol if completeness_tol is not None else POVM_COMPLETENESS_TOL
        total = np.zeros((dim, dim), dtype=complex)
        for i, m in enumerate(mats):
            total += m if w is None else w[i] * m
        residual = float(np.max(np.abs(total - np.eye(dim))))
        if residual > tol:
            raise ValidationError(
                f"POVM completeness violated: residual {residual:.3e} > tol {tol:.1e}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "elements", tuple(_freeze(m) for m in mats))
        object.__setattr__(self, "weights", _freeze(w) if w is not None else None)
        object.__setattr__(self, "completeness_residual", residual)
        object.__setattr__(self, "completeness_tol", tol)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def is_gridded(self) -> bool:
        return self.weights is not None

    @property
    def prob_sum_tol(self) -> float:
        """Window on the total outcome probability: 1e-8 for discrete POVMs,
        scaled by the certified quadrature residual for gridded ones."""
        if self.is_gridded:
            return max(PROB_SUM_TOL, self.dim * self.completeness_tol)
        return PROB_SUM_TOL


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability mass per outcome label, quadrature weight included."""

    labels: tuple
    probs: np.ndarray

    def __init__(self, labels: Sequence[Any], probs: Sequence[float], sum_tol: float = PROB_SUM_TOL):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or len(labels) != p.size:
            raise ValidationError("labels and probs must be 1-d and equal length")
        if p.size == 0:
            raise ValidationError("empty distribution")
        p = probability_rows(p[None], sum_tol)[0]
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "probs", _freeze(p))

    def mean(self) -> float:
        """Mean of numeric labels weighted by probability."""
        vals = np.asarray(self.labels, dtype=float)
        return float(vals @ self.probs)

    def variance(self) -> float:
        vals = np.asarray(self.labels, dtype=float)
        mu = vals @ self.probs
        return float((vals - mu) ** 2 @ self.probs)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "prob"])
        for label, p in zip(self.labels, self.probs):
            writer.writerow([label, repr(float(p))])
        return buf.getvalue()


def measure_distribution(rho: DensityOperator, m: Povm) -> OutcomeDistribution:
    """Outcome distribution of measuring ``m`` on ``rho`` by the trace rule.

    probs[w] = Tr(rho M_w), times the quadrature weight for gridded POVMs.
    Tiny negatives are clamped; the total is renormalized only while it stays
    within the acceptance window (1e-8 for discrete POVMs; scaled by the
    certified quadrature residual for gridded ones).
    """
    if rho.dim != m.dim:
        raise ValidationError(f"dimension mismatch: state {rho.dim}, POVM {m.dim}")
    probs = np.array(
        [float(np.real(np.sum(rho.matrix.T * e))) for e in m.elements], dtype=float
    )
    if m.weights is not None:
        probs = probs * m.weights
    return OutcomeDistribution(m.labels, probs, sum_tol=m.prob_sum_tol)


def mix(states: Sequence[DensityOperator], weights: Sequence[float]) -> DensityOperator:
    """Probabilistic mixture  sum_i w_i rho_i."""
    if not states:
        raise ValidationError("empty mixture")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(states),):
        raise ValidationError("one weight per state required")
    if (w < 0).any():
        raise ValidationError("negative mixture weight")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValidationError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise ValidationError("dimension mismatch in mixture")
    total = np.zeros((dim, dim), dtype=complex)
    for wi, s in zip(w, states):
        total += wi * s.matrix
    return DensityOperator(total)


def tensor_power(rho: DensityOperator, n: int, dim_cap: int = DEFAULT_DIM_CAP) -> DensityOperator:
    """n-fold tensor power rho^(x)n, capped at total dimension ``dim_cap``."""
    if n < 1:
        raise ValidationError("tensor power needs n >= 1")
    if rho.dim**n > dim_cap:
        raise NumericalError(f"dimension {rho.dim}^{n} exceeds cap {dim_cap}")
    out = rho.matrix
    for _ in range(n - 1):
        out = np.kron(out, rho.matrix)
    return DensityOperator(out)


def sample_outcomes(dist: OutcomeDistribution, seed: int, count: int) -> list:
    """``count`` i.i.d. draws from ``dist``; identical (seed, count) gives an
    identical sequence."""
    if count < 1:
        raise ValidationError("count must be positive")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(dist.probs), size=count, p=dist.probs)
    return [dist.labels[i] for i in idx]


def matrix_to_json(matrix: np.ndarray) -> dict:
    """Serialize a complex matrix as {"dim": n, "re": [[..]], "im": [[..]]}."""
    arr = _as_complex_matrix(matrix)
    return {
        "dim": arr.shape[0],
        "re": np.real(arr).tolist(),
        "im": np.imag(arr).tolist(),
    }


def matrix_from_json(data: dict) -> np.ndarray:
    try:
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError("matrix JSON shape mismatch")
    return re + 1j * im
