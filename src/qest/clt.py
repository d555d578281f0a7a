"""Exact checks of the quantum central limit theorem.

Moments of normalized collective operators X^(n) = sum_j X_(j)/sqrt(n) under
n-fold product states, computed two independent ways: a combinatorial engine
whose cost does not depend on the Hilbert-space dimension of the n-fold
product, and a brute-force tensor engine for small n.  The gap against the
Wick moments of the limiting Gaussian spec quantifies the convergence rate.

Gaussian-smearing operators of the collective sums are built sector by
sector.  The n-fold space splits as a direct sum of blocks C^b (x) C^m on
which every collective sum, the product state and every function of them act
as B (x) I_m.  For qubits the blocks are the total-spin sectors j = n/2,
n/2 - 1, ..., of size 2j + 1 <= n + 1; any other single-copy dimension uses
the whole 2^n-type space as one block of multiplicity 1.  Dense n-fold arrays
are checked against ``qcore.MAX_ARRAY_BYTES`` before they are allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .errors import ValidationError
from .gaussian import GaussianSpec, gaussian_moment, smearing_kernel
from .qcore import DensityOperator, _kron_power, check_array_bytes, hermitian_function, pair_moments, trace_products
from .models import PAULIS

COLLECTIVE_DEGREE_CAP = 8
CENTERING_TOL = 1e-12
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
    """One block C^b (x) C^m of the n-fold space.

    ``ops`` (d, b, b) are the collective sums X^(n) restricted to C^b; they
    act there as ops (x) I_m with ``multiplicity`` m.  ``two_j`` is twice the
    total spin of a qubit spin sector (basis |j, m>, m = j, ..., -j) and None
    for the one-block layout of the whole space.  ``frame`` (3, 3) holds the
    axes, as rows, in which a spin sector's J_x, J_y, J_z are taken
    (``_spin_frame``); None for the one-block layout.
    """

    ops: np.ndarray
    multiplicity: int
    two_j: int | None
    frame: np.ndarray | None = None


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
    return trace_products(np.asarray(x_ops)[:, None], np.array([np.eye(2), *_PAULIS_XYZ])) / 2


def _spin_frame(x_ops) -> np.ndarray:
    """Axes (rows x, y, z) of the spin sectors of a qubit operator tuple.

    For two operators x lies along the first one's Pauli vector and z along
    the cross product of the two, so a pair with orthogonal Pauli vectors of
    equal length mu / 2 sums to (mu J_x, mu J_y) plus multiples of I and
    -i [J_x, J_y] = J_z; any other tuple keeps the standard axes.
    """
    if len(x_ops) != 2:
        return np.eye(3)
    # QR keeps the axes orthonormal even for parallel vectors
    q, r = np.linalg.qr(_pauli_coefficients(x_ops)[:, 1:].T)
    x, y = (q * np.where(np.diag(r) < 0, -1.0, 1.0)).T
    return np.array([x, y, np.cross(x, y)])


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
        yield Sector(ops / np.sqrt(n), multiplicity, two_j, frame)


def _dense_sectors(x_ops, n: int) -> list[Sector]:
    """The whole n-fold space as one block of multiplicity 1."""
    return [Sector(np.array(build_collective_ops(x_ops, n)), 1, None)]


def _spin_layout(x_ops) -> bool:
    # the layout rule: total-spin sectors for qubit operators, one dense block otherwise
    return np.shape(x_ops[0]) == (2, 2)


def block_sizes(x_ops, n: int) -> list[int]:
    """Size b of each block of ``collective_sectors(x_ops, n)``, known before
    any block is built: n + 1, n - 1, ... for spin sectors, dim^n for a dense one."""
    return list(range(n + 1, 0, -2)) if _spin_layout(x_ops) else [np.shape(x_ops[0])[0] ** n]


def collective_sectors(x_ops, n: int) -> list[Sector]:
    """Block layout of the collective sums of ``x_ops`` over n copies: the
    total-spin sectors for qubit operators, one dense block otherwise."""
    if n < 1:
        raise ValidationError("n must be positive")
    x_ops = [np.asarray(x, dtype=complex) for x in x_ops]
    if _spin_layout(x_ops):
        return list(_spin_sectors(x_ops, n, _spin_frame(x_ops)))
    return _dense_sectors(x_ops, n)


def sector_states(rho: np.ndarray, n: int, sectors) -> list[np.ndarray]:
    """Blocks of rho^(x)n in the layout of ``sectors``.

    On spin sector j the block is f(r . J^(j)) with r the unit Bloch direction
    of rho in the sectors' frame and f(M) = lam_+^(n/2 + M) lam_-^(n/2 - M)
    from rho's eigenvalues lam_+ >= lam_-; for a rank-1 rho, 0^0 = 1 keeps
    only M = n/2.
    """
    rho = np.asarray(rho, dtype=complex)
    if sectors[0].two_j is None:
        return [_kron_power(rho, n)]
    bloch = trace_products(rho, _PAULIS_XYZ)
    length = float(np.linalg.norm(bloch))
    trace = float(np.real(np.trace(rho)))
    lam_hi, lam_lo = (trace + length) / 2, max((trace - length) / 2, 0.0)
    direction = sectors[0].frame @ bloch / length if length > 0 else np.array([0.0, 0.0, 1.0])
    blocks = []
    for sec in sectors:
        # r . J has the simple spectrum -j, ..., j in eigh's ascending order: f(m) exactly
        m = np.arange(sec.two_j + 1) - sec.two_j / 2
        f = lam_hi ** (n / 2 + m) * lam_lo ** (n / 2 - m)
        blocks.append(hermitian_function(np.einsum("k,kab->ab", direction, _spin_matrices(sec.two_j)), lambda _: f))
    return blocks


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
    (whole,) = _dense_sectors(spec.x_ops[:d], n)
    t_mats = _smearing_blocks(whole.ops, a_mat, z_norm, points)
    t_mats += t_mats.conj().swapaxes(-1, -2)
    t_mats /= 2
    return t_mats[0] if single else t_mats
