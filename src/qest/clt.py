"""Exact checks of the quantum central limit theorem.

Moments of normalized collective operators X^(n) = sum_j X_(j)/sqrt(n) under
n-fold product states, computed two independent ways: a combinatorial engine
whose cost does not depend on the Hilbert-space dimension of the n-fold
product, and a brute-force tensor engine for small n.  The gap against the
Wick moments of the limiting Gaussian spec quantifies the convergence rate.

Gaussian-smearing operators of the collective sums are built sector by
sector.  The n-fold space splits as a direct sum of blocks C^b (x) C^m on
which every collective sum, the product state and every function of them act
as B (x) I_m.  ``collective_layout`` picks the blocks once per operator tuple:
for qubits the total-spin sectors j = n/2, n/2 - 1, ..., of size 2j + 1 <=
n + 1; any other dimension uses the dim^n space as one block of multiplicity
1.  Dense n-fold arrays are checked against ``qcore.MAX_ARRAY_BYTES`` before
they are allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Callable

import numpy as np

from .errors import ValidationError
from .gaussian import GaussianSpec, gaussian_moment, smearing_kernel
from .qcore import DensityOperator, _kron_power, check_array_bytes, hermitian_function, pair_moments, trace_products
from .models import PAULIS

COLLECTIVE_DEGREE_CAP = 8
CENTERING_TOL = 1e-12
# relative tolerance of the conditions that select the rotation path
# (``Layout.rotates`` here, the kernel's A in ``collective._kernel_and_grid``)
ROTATION_TOL = 1e-12
_PAULIS_XYZ = np.array([PAULIS[a] for a in "xyz"])


@dataclass(frozen=True)
class CollectiveSpec:
    """A state with a centered Hermitian operator tuple and its pair moments.

    Operators are centered on construction (X - Tr(rho X) I); the pair-moment
    matrices v, s are ``qcore.pair_moments`` of the centred tuple and must
    satisfy v + i s >= 0.
    """

    rho: DensityOperator
    x_ops: tuple
    v: np.ndarray
    s: np.ndarray

    def __init__(self, rho: DensityOperator, x_ops):
        ops = []
        for x in x_ops:
            x = np.asarray(x, dtype=complex)
            if x.shape != (rho.dim, rho.dim):
                raise ValidationError("operator dimension mismatch")
            if np.max(np.abs(x - x.conj().T)) > 1e-10:
                raise ValidationError("collective operators must be Hermitian")
            ops.append(x)
        if not ops:
            raise ValidationError("a collective spec needs at least one operator")
        ops = np.array(ops)
        ops -= trace_products(rho.matrix, ops)[:, None, None] * np.eye(rho.dim)
        resid = np.abs(trace_products(rho.matrix, ops)).max()
        if resid > CENTERING_TOL:
            raise ValidationError(f"centering residual {resid:.3e}")
        ops.setflags(write=False)
        v, s = pair_moments(rho.matrix, ops)
        if np.linalg.eigvalsh(v + 1j * s).min() < -1e-10:
            raise ValidationError("pair moments violate v + i s >= 0")
        v.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "x_ops", tuple(ops))
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "s", s)

    @property
    def n_ops(self) -> int:
        return len(self.x_ops)

    def limit_spec(self) -> GaussianSpec:
        return GaussianSpec(np.zeros(self.n_ops), self.v, self.s)


def _set_partitions(seq: tuple):
    if not seq:
        yield []
        return
    first, rest = seq[0], seq[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _falling_factorial(n: int, b: int) -> int:
    return prod(range(n - b + 1, n + 1)) if b <= n else 0


def _check_word(spec: CollectiveSpec, word) -> list[int]:
    idx = [int(k) - 1 for k in word]
    if any(k < 0 or k >= spec.n_ops for k in idx):
        raise ValidationError("word index out of range (indices are 1-based)")
    if len(idx) > COLLECTIVE_DEGREE_CAP:
        raise ValidationError(
            f"word degree {len(idx)} exceeds cap {COLLECTIVE_DEGREE_CAP}"
        )
    return idx


def collective_moment(spec: CollectiveSpec, n: int, word) -> complex:
    """Exact Tr rho^(x)n X^{k1,(n)} ... X^{km,(n)} for the index word.

    Expands the product over site assignments and groups them by the set
    partition of positions sharing a site: each partition with b blocks
    contributes n(n-1)..(n-b+1) times the product of per-site traces.  Blocks
    of size one vanish by centering, so only partitions with all blocks of
    size >= 2 survive; the cost depends on the word degree only.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    idx = _check_word(spec, word)
    m = len(idx)
    cache: dict = {}

    def block_trace(positions) -> complex:
        key = tuple(idx[p] for p in positions)
        if key not in cache:
            mat = spec.x_ops[key[0]]
            for k in key[1:]:
                mat = mat @ spec.x_ops[k]
            cache[key] = complex(np.trace(spec.rho.matrix @ mat))
        return cache[key]

    total = 0.0 + 0.0j
    for part in _set_partitions(tuple(range(m))):
        if any(len(block) < 2 for block in part):
            continue
        ff = _falling_factorial(n, len(part))
        if ff == 0:
            continue
        term = complex(ff)
        for block in part:
            term *= block_trace(tuple(block))
        total += term
    return total / n ** (m / 2)


def build_collective_ops(x_ops, n: int) -> list[np.ndarray]:
    """Dense matrices of X^(n) = sum_j X_(j) / sqrt(n) on the n-fold space,
    summed site by site: S_{k+1} = S_k (x) I + I_{dim^k} (x) X."""
    dim = x_ops[0].shape[0]
    check_array_bytes((len(x_ops), dim**n, dim**n), "the collective sums")
    eye = np.eye(dim, dtype=complex)
    out = []
    for x in x_ops:
        total = np.asarray(x, dtype=complex)
        for k in range(1, n):
            total = np.kron(total, eye)
            total += np.kron(np.eye(dim**k, dtype=complex), x)
        out.append(total / np.sqrt(n))
    return out


def collective_moment_bruteforce(spec: CollectiveSpec, n: int, word) -> complex:
    """Oracle for collective_moment: explicit tensor-product computation."""
    idx = _check_word(spec, word)
    ops = build_collective_ops(spec.x_ops, n)
    rho_n = _kron_power(spec.rho.matrix, n)
    mat = np.eye(spec.rho.dim**n, dtype=complex)
    for k in idx:
        mat = mat @ ops[k]
    return complex(np.trace(rho_n @ mat))


def clt_gap(spec: CollectiveSpec, n_list, word) -> list[tuple[int, float]]:
    """Absolute gap between collective moments and the limiting Wick moments."""
    limit = gaussian_moment(spec.limit_spec(), word)
    out = []
    for n in n_list:
        exact = collective_moment(spec, int(n), word)
        out.append((int(n), float(abs(exact - limit))))
    return out


@dataclass(frozen=True)
class Sector:
    """One block C^b (x) C^m of the n-fold space: ``ops`` (d, b, b), the
    collective sums X^(n) restricted to C^b, act there as ops (x) I_m with
    ``multiplicity`` m.  A spin sector has b = 2j + 1 and the basis |j, m>,
    m = j, ..., -j."""

    ops: np.ndarray
    multiplicity: int


@dataclass(frozen=True)
class Layout:
    """The blocks of the n-fold space, chosen once per operator tuple by
    ``collective_layout``: ``sizes(n)``, each block's b before any is built;
    ``sectors(ops, n)``, the Sectors of that tuple or of any other in the
    same frame (the SLDs); ``states(rho, n)``, the blocks of rho^(x)n in the
    same order; ``rotates``, whether the sums have a diagonal rotation
    generator: two qubit operators whose traceless parts have a Gram matrix
    proportional to I, to relative ``ROTATION_TOL``: in the layout's frame
    Y_k = X_k - c_k = mu J_k, and J_z generates their rotation."""

    name: str
    sizes: Callable
    sectors: Callable
    states: Callable
    rotates: bool


def _spin_matrices(two_j: int) -> np.ndarray:
    """(J_x, J_y, J_z) of spin j = two_j / 2 in the basis |j, m>, m = j, ..., -j."""
    j = two_j / 2
    m = j - np.arange(two_j + 1)
    raising = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    lowering = raising.conj().T
    return np.array(
        [(raising + lowering) / 2, (raising - lowering) / 2j, np.diag(m).astype(complex)]
    )


def _pauli_coefficients(x_ops) -> np.ndarray:
    """(c0, c) = tr(X (I, sigma)) / 2 per qubit operator X = c0 I + c . sigma."""
    return trace_products(np.asarray(x_ops, dtype=complex)[:, None], np.array([np.eye(2), *_PAULIS_XYZ])) / 2


def collective_layout(x_ops) -> Layout:
    """The layout of the collective sums of ``x_ops``: one dense block of
    the dim^n space, unless they are qubit operators, whose sectors j = n/2,
    n/2 - 1, ... take J along one frame.  For two operators its x lies along
    the first one's Pauli vector and its z along the cross product of the
    two, so a pair with orthogonal Pauli vectors of equal length mu / 2 sums
    to (mu J_x, mu J_y) plus multiples of I; else the frame is the standard axes."""
    if np.shape(x_ops[0]) != (2, 2):
        return _dense_layout(np.shape(x_ops[0])[0])
    vectors = _pauli_coefficients(x_ops)[:, 1:]
    frame, rotates = np.eye(3), False
    if len(vectors) == 2:
        # QR keeps the axes orthonormal even for parallel vectors
        q, r = np.linalg.qr(vectors.T)
        x, y = (q * np.where(np.diag(r) < 0, -1.0, 1.0)).T
        frame, gram = np.array([x, y, np.cross(x, y)]), np.real(vectors @ vectors.conj().T)
        rotates = bool(np.abs(gram - np.trace(gram) / 2 * np.eye(2)).max() <= ROTATION_TOL * np.trace(gram))
    return Layout("spin", lambda n: list(range(n + 1, 0, -2)), lambda ops, n: _spin_sectors(ops, n, frame),
                  lambda rho, n: _spin_states(rho, n, frame), rotates)


def _dense_layout(dim: int) -> Layout:
    """The whole n-fold space as one block of multiplicity 1."""
    return Layout("dense", lambda n: [dim**n], lambda ops, n: [Sector(np.array(build_collective_ops(ops, n)), 1)],
                  lambda rho, n: [_kron_power(np.asarray(rho, dtype=complex), n)], False)


def _spin_sectors(x_ops, n: int, frame: np.ndarray):
    """Total-spin sectors of qubit collective sums, j = n/2 down to 0 or 1/2,
    yielded one at a time, with J taken along the axes of ``frame``.

    A qubit operator X = c0 I + c . sigma sums to (n c0 I + 2 (frame c) . J^(j)) /
    sqrt(n) on sector j, whose multiplicity is C(n, n/2 - j) - C(n, n/2 - j - 1).
    """
    coeffs = _pauli_coefficients(x_ops)
    vectors = coeffs[:, 1:] @ frame.T
    for k in range(n // 2 + 1):
        two_j = n - 2 * k
        spin = _spin_matrices(two_j)
        eye = np.eye(two_j + 1)
        ops = np.array([(n * c0 * eye + 2 * np.einsum("k,kab->ab", c, spin)) for c0, c in zip(coeffs[:, 0], vectors)])
        multiplicity = comb(n, k) - (comb(n, k - 1) if k else 0)
        yield Sector(ops / np.sqrt(n), multiplicity)


def _spin_states(rho: np.ndarray, n: int, frame: np.ndarray):
    """Blocks f(r . J^(j)) of rho^(x)n on the spin sectors, yielded one at a
    time: r is rho's unit Bloch direction in ``frame`` and f(M) =
    lam_+^(n/2 + M) lam_-^(n/2 - M) from its eigenvalues lam_+ >= lam_-; for
    a rank-1 rho, 0^0 = 1 keeps only M = n/2."""
    rho = np.asarray(rho, dtype=complex)
    bloch = trace_products(rho, _PAULIS_XYZ)
    length = float(np.linalg.norm(bloch))
    trace = float(np.real(np.trace(rho)))
    lam_hi, lam_lo = (trace + length) / 2, max((trace - length) / 2, 0.0)
    direction = frame @ bloch / length if length > 0 else np.array([0.0, 0.0, 1.0])
    for two_j in range(n, -1, -2):
        # r . J has the simple spectrum -j, ..., j in eigh's ascending order: f(m) exactly
        m = np.arange(two_j + 1) - two_j / 2
        f = lam_hi ** (n / 2 + m) * lam_lo ** (n / 2 - m)
        yield hermitian_function(np.einsum("k,kab->ab", direction, _spin_matrices(two_j)), lambda _: f)


def _smearing_blocks(ops: np.ndarray, a_mat: np.ndarray, z_norm: float, points: np.ndarray) -> np.ndarray:
    """Smearing operators exp(-(X - x)^T A (X - x)) / Z on one sector, one per
    row x of ``points``: shape (G, b, b), from one stacked eigh.  Callers
    check the stack's bytes before they build the sector.

    ``ops`` (d, b, b) are the sector's blocks of the collective sums; with A
    symmetric the exponent is Q0 - (2 A x) . X + x^T A x with Q0 = X^T A X.
    Each operator is formed as V V^dagger, V = U exp(-w / 2), so it is
    Hermitian positive semidefinite by construction.
    """
    base = (ops @ np.tensordot(a_mat, ops, axes=1)).sum(axis=0)
    quad = np.tensordot(-2.0 * points @ a_mat.T, ops, axes=1)
    quad += base
    diag = np.arange(ops.shape[-1])
    quad[:, diag, diag] += ((points @ a_mat) * points).sum(axis=1)[:, None]
    quad += quad.conj().swapaxes(-1, -2)
    quad /= 2
    w, u = np.linalg.eigh(quad)
    u *= np.exp(-w / 2)[:, None, :]
    # V V^dagger into quad's storage in at most 64 slices, so at most two (G, b, b) stacks are live
    rows = len(u) // 64 + 1
    for lo in range(0, len(u), rows):
        np.matmul(u[lo : lo + rows], u[lo : lo + rows].conj().swapaxes(-1, -2), out=quad[lo : lo + rows])
    return np.divide(quad, z_norm, out=quad)


def t_operator_on_sums(spec: CollectiveSpec, n: int, theta_prime, v_prime) -> np.ndarray:
    """Gaussian-smearing operators of the collective sums on the n-fold space.

    Builds exp(-(X^(n) - theta')^T A (X^(n) - theta')) / Z with the kernel
    matrix A and normalization Z fixed by the limiting commutator matrix of
    the spec (the normalization is the one certified by discretized
    completeness; see smearing_kernel).  ``theta_prime`` is one point (d,),
    giving one dense 2^n-type matrix (D, D), or a stack of points (G, d),
    giving (G, D, D) from a single build of the collective sums.  Every
    output matrix is Hermitian PSD.
    """
    points = np.asarray(theta_prime, dtype=float)
    if points.ndim > 2:
        raise ValidationError("theta' must be one point (d,) or a stack of points (G, d)")
    single = points.ndim < 2
    points = np.atleast_2d(points)
    d = points.shape[1]
    if d > spec.n_ops:
        raise ValidationError("theta' longer than the operator tuple")
    a_mat, z_norm = smearing_kernel(v_prime, spec.s[:d, :d])
    size = spec.rho.dim**n
    check_array_bytes((2, len(points), size, size), "two stacks of smearing operators")
    t_mats = _smearing_blocks(np.array(build_collective_ops(spec.x_ops[:d], n)), a_mat, z_norm, points)
    t_mats += t_mats.conj().swapaxes(-1, -2)
    t_mats /= 2
    return t_mats[0] if single else t_mats
