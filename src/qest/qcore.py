"""Finite-dimensional quantum primitives.

Density operators, POVMs, outcome statistics from the trace rule
(``trace_products``, Re tr(a b) of Hermitian pairs), the pair moments of an
operator tuple (uncentred: callers centre), probabilistic mixtures, tensor
powers, reproducible outcome sampling, and ``hermitian_function``, the one
kernel for f(H).  The tolerances of the validators in this module are its
constants below; ``fisher``, ``bounds``, ``clt``, ``collective`` and
``gaussian`` keep their own next to the code that uses them.  Builders of
n-fold arrays call ``check_array_bytes`` before they allocate: a standalone
builder on each array it holds, a collective build
(``collective.build_collective_povm``) once on all it holds at once, after
its rule (``collective.ball_grid`` or ``polar_rule``) has checked its own.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
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
MAX_ARRAY_BYTES = 2**30


def check_array_bytes(shape, what: str) -> None:
    """Raise NumericalError if a complex array of ``shape`` would take
    ``MAX_ARRAY_BYTES`` or more; ``what`` names the array in the message."""
    nbytes = 16 * math.prod(shape)
    if nbytes >= MAX_ARRAY_BYTES:
        limit = f"{MAX_ARRAY_BYTES / 2**30:g} GiB" if MAX_ARRAY_BYTES >= 2**30 else f"{MAX_ARRAY_BYTES / 2**20:g} MiB"
        raise NumericalError(f"{what} would take {nbytes / 2**30:.2f} GiB, over the {limit} limit")


def check_draws(seed: int, trials: int, **counts: int) -> None:
    """Raise ValidationError unless ``seed`` is nonnegative, as NumPy's
    generators need, every named count fits in their 64-bit integers, and
    NumPy can address ``trials`` rows of 64 bytes (more than the samplers'
    first per-trial arrays hold), so a count too large ends in MemoryError."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if trials > np.iinfo(np.intp).max // 64:
        raise ValidationError(f"trials must be at most 2^57 - 1, got {trials}")
    for name, count in counts.items():
        if count > np.iinfo(np.int64).max:
            raise ValidationError(f"{name} must be at most 2^63 - 1, got {count}")


def hermitian_function(h: np.ndarray, f) -> np.ndarray:
    """U f(w) U^dagger from one ``eigh`` of a Hermitian stack ``h`` (..., n, n):
    ``f`` maps the ascending eigenvalues w (..., n), and may raise to refuse them."""
    w, u = np.linalg.eigh(h)
    return (u * f(w)[..., None, :]) @ u.conj().swapaxes(-1, -2)


def _as_complex_matrix(matrix: Any) -> np.ndarray:
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _element_stack(elements: Sequence[Any]) -> np.ndarray:
    """POVM elements as one (k, dim, dim) complex array; the per-element
    shape errors name the first offending element's shape."""
    try:
        stack = np.asarray(elements, dtype=complex)
    except ValueError:  # ragged: elements of different shapes
        stack = None
    if stack is not None and stack.ndim == 3 and len(stack) and stack.shape[1] == stack.shape[2]:
        return stack
    mats = [_as_complex_matrix(m) for m in elements]
    if not mats:
        raise ValidationError("POVM needs at least one element")
    raise ValidationError("POVM elements have mixed dimensions")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def density_stack(matrices: np.ndarray) -> np.ndarray:
    """Validate and normalize a stack (..., dim, dim) of density matrices.

    The DensityOperator rules, applied to every matrix of the stack; any
    matrix failing a check raises, with the checks run in the order
    Hermiticity, trace, positivity.  Returns a new stack of the same shape.
    """
    arr = np.asarray(matrices, dtype=complex)
    shape = arr.shape
    arr = arr.reshape((-1,) + shape[-2:])
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
    neg = low < 0
    if neg.any():
        fixed = hermitian_function(arr[neg], lambda w: np.clip(w, 0.0, None))
        arr[neg] = (fixed + fixed.conj().swapaxes(-1, -2)) / 2
    return (arr / np.real(np.trace(arr, axis1=-2, axis2=-1))[:, None, None]).reshape(shape)


def probability_rows(probs: np.ndarray, sum_tol) -> np.ndarray:
    """Validate and normalize a stack (m, k) of outcome probability vectors.

    The OutcomeDistribution rules, per row: an entry below -1e-12 raises, tiny
    negatives are clamped to zero, and a row whose total leaves the window
    1 +- ``sum_tol`` (a scalar or one value per row) raises; every other row
    is renormalized to sum to one.  Returns a new array.
    """
    p = np.array(probs, dtype=float)
    if p.size and p.min() < PROB_CLAMP:
        raise ValidationError(f"negative probability {p.min():.3e}")
    p[p < 0] = 0.0
    total = p.sum(axis=-1)
    bad = np.abs(total - 1.0) > sum_tol
    if bad.any():
        raise ValidationError(f"probabilities sum to {float(total[bad][0])!r}, expected 1")
    return p / np.where(total > 0, total, 1.0)[:, None]


def povm_stack(stack: np.ndarray, tol: float = POVM_COMPLETENESS_TOL, weights=None):
    """The Povm rules on every POVM of a stack (..., k, dim, dim): finite,
    Hermitian to 1e-10, PSD to -1e-10, and, ``weights`` (k,) multiplied in,
    max |sum_k E_k - I| <= ``tol``.  Returns the symmetrized stack and the
    residuals (...,)."""
    if not np.isfinite(stack).all():
        raise ValidationError("POVM element entries must be finite")
    adj = stack.conj().swapaxes(-1, -2)
    not_hermitian = np.abs(stack - adj).max(axis=(-2, -1)) > 1e-10
    mats = stack + adj
    mats /= 2
    not_psd = np.linalg.eigvalsh(mats).min(axis=-1) < -POVM_PSD_TOL
    bad = np.argwhere(not_hermitian | not_psd)
    if bad.size:
        where = tuple(bad[0])
        problem = "Hermitian" if not_hermitian[where] else "positive semidefinite"
        raise ValidationError(f"POVM element {where[-1]} is not {problem}")
    if weights is not None:
        mats *= weights[:, None, None]
    residual = np.abs(mats.sum(axis=-3) - np.eye(stack.shape[-1])).max(axis=(-2, -1))
    if (residual > tol).any():
        worst = float(residual.max())
        raise ValidationError(f"POVM completeness violated: residual {worst:.3e} > tol {tol:.1e}")
    return mats, residual


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
        object.__setattr__(self, "matrix", _freeze(density_stack(arr)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def purity(self) -> float:
        return float(trace_products(self.matrix, self.matrix))

    def to_json_dict(self) -> dict:
        return matrix_to_json(self.matrix)

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityOperator":
        return cls(matrix_from_json(data))


@dataclass(frozen=True)
class Povm:
    """Finite family of positive operators summing to the identity.

    ``stack`` holds the elements the Born rule reads, p_k = tr(rho E_k), as
    one frozen (k, dim, dim) array, validated by ``povm_stack``; ``elements``
    are views of its rows.  ``weights`` (a gridded POVM's quadrature weights,
    one per element) are an input format: they are multiplied into the
    validated elements once.
    ``completeness_tol`` (default 1e-10; a finite real >= 0) is the threshold
    on the largest entry of sum_k E_k - I that admits the POVM; that residual
    is kept and sets ``prob_sum_tol``.
    """

    dim: int
    labels: tuple
    stack: np.ndarray
    completeness_residual: float

    def __init__(
        self,
        elements: Sequence[Any],
        labels: Sequence[Any] | None = None,
        weights: Sequence[float] | None = None,
        completeness_tol: float | None = None,
    ):
        tol = POVM_COMPLETENESS_TOL if completeness_tol is None else completeness_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
            raise ValidationError(f"completeness tolerance must be a finite real >= 0, got {tol!r}")
        stack = _element_stack(elements)
        try:
            labels = tuple(range(len(stack))) if labels is None else tuple(labels)
        except TypeError:
            raise ValidationError(f"POVM labels must be a list, got {labels!r}") from None
        if len(labels) != len(stack):
            raise ValidationError("label/element count mismatch")
        if weights is not None:
            try:
                weights = np.asarray(weights, dtype=float)
            except (TypeError, ValueError):
                weights = None
            if weights is None or weights.shape != (len(stack),) or not ((weights >= 0) & (weights < np.inf)).all():
                raise ValidationError("weights must be finite and nonnegative, one per element")
        mats, residual = povm_stack(stack, tol, weights)
        object.__setattr__(self, "dim", stack.shape[1])
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "stack", _freeze(mats))
        object.__setattr__(self, "completeness_residual", float(residual))

    @property
    def elements(self) -> tuple:
        return tuple(self.stack)

    def __len__(self) -> int:
        return len(self.stack)

    @property
    def prob_sum_tol(self) -> float:
        """Window on the total outcome probability: |sum_k p_k - 1| =
        |tr(rho (sum_k E_k - I))| <= dim times the completeness residual,
        and never below 1e-8."""
        return max(PROB_SUM_TOL, self.dim * self.completeness_residual)


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


def trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a b) over broadcast stacks of matrices, the Born rule for a
    Hermitian pair.  Each value is summed over its own contiguous products,
    so it does not depend on how many others are computed with it."""
    prod = (a * np.swapaxes(b, -1, -2)).real
    return prod.reshape(prod.shape[:-2] + (prod.shape[-2] * prod.shape[-1],)).sum(axis=-1)


def pair_moments(state: np.ndarray, ops) -> tuple[np.ndarray, np.ndarray]:
    """Second moments of an operator tuple under a state: the one kernel for
    pair moments and the SLD and RLD Fisher matrices.

    ``ops`` (..., d, dim, dim) are Hermitian and ``state`` (..., dim, dim) a
    Hermitian matrix or stack of them.  Returns (v, s) (..., d, d) with
    v[k, l] = tr(state (A_k A_l + A_l A_k) / 2) and
    s[k, l] = tr(state (-i [A_k, A_l] / 2)), so tr(state A_k A_l) = v + i s.
    Nothing is centred: callers wanting centred moments centre ``ops``.  Both
    are ``trace_products`` of Hermitian operators whose swap (k, l) -> (l, k)
    is the same operator or its exact negative, so v is exactly symmetric, s
    exactly antisymmetric, and no value depends on the stack around it.
    """
    a = np.asarray(ops, dtype=complex)
    prods = a[..., :, None, :, :] @ a[..., None, :, :, :]
    swapped = prods.swapaxes(-3, -4)
    state = np.asarray(state)[..., None, None, :, :]
    return trace_products(state, (prods + swapped) / 2), trace_products(state, 0.5j * (swapped - prods))


def measure_distribution(rho: DensityOperator, m: Povm) -> OutcomeDistribution:
    """Outcome distribution of measuring ``m`` on ``rho`` by the trace rule.

    probs[w] = Tr(rho M_w).  Tiny negatives are clamped; the total is
    renormalized only while it stays within the POVM's ``prob_sum_tol``.
    """
    if rho.dim != m.dim:
        raise ValidationError(f"dimension mismatch: state {rho.dim}, POVM {m.dim}")
    probs = trace_products(m.stack, rho.matrix)
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


def tensor_power(rho: DensityOperator, n: int) -> DensityOperator:
    """n-fold tensor power rho^(x)n, within the per-array byte limit."""
    if n < 1:
        raise ValidationError("tensor power needs n >= 1")
    return DensityOperator(_kron_power(rho.matrix, n))


def _kron_power(matrix: np.ndarray, n: int) -> np.ndarray:
    """matrix^(x)n, the n-fold Kronecker power, multiplied left to right."""
    check_array_bytes((matrix.shape[0] ** n,) * 2, "the n-fold tensor power")
    out = matrix
    for _ in range(n - 1):
        out = np.kron(out, matrix)
    return out


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError("matrix JSON shape mismatch")
    return re + 1j * im
