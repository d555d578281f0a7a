"""Estimators: the collective square-root-sandwich POVM, its local-unbiasedness
correction, the two-stage adaptive qubit estimator, maximum likelihood, and
mean-square-error reporting.

The collective POVM follows the recipe: integrate the Gaussian-smearing
operators of the collective sums over a quadrature rule (``_kernel_and_grid``)
to get S, then sandwich each smearing operator between copies of S^{-1/2};
the sandwich is linear, so only the outcome-moment sums of the smearing
operators are sandwiched.  Completeness is exact on the retained support of
S by construction, so the reported residual isolates the support truncation.

All of these operators are block diagonal in the sector layout of
``clt.collective_sectors``: for qubits the total-spin sectors j of the n-fold
space, each a (2j + 1)-dimensional block repeated m_j times, so the POVM is
built and evaluated on blocks of size at most n + 1 instead of 2^n; any
other dimension is one dense block.  A build that would hold
``qcore.MAX_ARRAY_BYTES`` at once is refused before any sector is built.

``clt`` and ``gaussian`` are imported inside the functions of the collective
POVM, so the two-stage estimator, which calls none of them, loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import TYPE_CHECKING

import numpy as np

from . import qcore
from .bounds import _positive_isqrt, check_weight_matrix, qubit_c1
from .errors import NumericalError, ValidationError
from .fisher import _sld_stack, classical_fisher, sld_fisher
from .models import ParametricModel, model_derivatives
from .qcore import (
    PROB_SUM_TOL,
    Povm,
    check_draws,
    hermitian_function,
    measure_distribution,
    povm_stack,
    probability_rows,
    trace_products,
)

if TYPE_CHECKING:
    from .clt import CollectiveSpec

SUPPORT_THRESHOLD = 1e-8
# relative tolerance of the conditions that select the rotation path (``_rotates``)
ROTATION_TOL = 1e-12
DEFAULT_EPSILON = 0.1
# bytes of log-likelihoods per block of count rows in the grid scan that
# starts mle and two-stage stage 1: bounds its memory whatever the row count
MLE_SCAN_BYTES = 1 << 19
# bytes per block of two-stage trials, at the ascent's 16 (d + 1) k dim^2 a row
# for the larger POVM of the two stages: bounds every per-block array, draws,
# ascents and stage-2 POVMs alike, whatever the trial count
MLE_ASCENT_BYTES = 1 << 22
# points per axis of the MLE start grid over the domain box
MLE_GRID_POINTS = 41
# shrinks by 1 - 1e-3 tested per domain check in the MLE ascent's projection
MLE_SHRINK_BLOCK = 32
# interior margin of the MLE ascent; it clips to the domain box at twice it,
# so that a row clipped onto a box face passes the interior test
MLE_MARGIN = 1e-9


@dataclass(frozen=True)
class CollectivePovm:
    """Gridded square-root-sandwich POVM on the n-fold space, in the sector
    layout of ``sectors`` (see ``clt.collective_sectors``).

    Every operator is block diagonal, sum over sectors of B (x) I_m.
    ``grid`` holds the quadrature nodes, ``weights`` their weights and
    ``outcomes`` the estimate attached to each (node / sqrt(n)).  ``moments``
    holds one stack (1 + d + d^2, b, b) per sector: sum_x E_x, sum_x x_k E_x
    and sum_x x_k x_l E_x (row-major in k, l), so the outcome law's mass,
    mean and second moment under a state are Born rules sum_j m_j tr(rho_j O_j).
    ``s_operator`` holds one (b, b) block per sector: the accumulated
    smearing operator, on whose retained eigenspace (``_sandwiched``)
    completeness holds.  ``dropped_dimensions`` counts dropped eigenvalues
    with their sector multiplicity.  ``elements`` is the same POVM point by
    point, a (G, b, b) stack per sector (checked with one sector's working
    stacks) built when read from ``kernel`` (A, Z) and ``weights``."""

    n_copies: int
    grid: np.ndarray
    weights: np.ndarray
    sectors: tuple
    moments: tuple
    s_operator: tuple
    kernel: tuple
    support_gap: float
    dropped_dimensions: int
    completeness_residual: float

    @property
    def outcomes(self) -> np.ndarray:
        return self.grid / np.sqrt(self.n_copies)

    @cached_property
    def elements(self) -> tuple:
        from .clt import _smearing_blocks

        sizes = [len(s_op) for s_op in self.s_operator]
        b = max(sizes)
        # every sector's stack, two working stacks with their eigenvalues and the grid's (G, d) temporaries
        held = sum(s * s for s in sizes) + 2 * b * (b + 1) + 2 * self.grid.shape[1]
        qcore.check_array_bytes((len(self.grid), held), "the smearing operators")
        weights = self.weights[:, None, None]
        blocks = (_smearing_blocks(sec.ops, *self.kernel, self.grid) * weights for sec in self.sectors)
        return tuple(stack for stack, _, _ in _sandwiched(self.s_operator, blocks))


def ball_grid(radius: float, step: float, d: int) -> np.ndarray:
    """Cubic lattice through -radius, clipped to the closed ball of that radius
    around 0 in d dimensions; the d + 1 float arrays of its cube are checked
    against ``qcore.MAX_ARRAY_BYTES`` before they are built."""
    axis = np.arange(-radius, radius + step * 1e-9, step)
    qcore.check_array_bytes((d + 1, len(axis) ** d), "the ball grid's lattice cube")
    pts = np.stack([m.ravel() for m in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    return pts[np.einsum("ij,ij->i", pts, pts) <= radius**2 + 1e-12]


def polar_grid(radius: float, step: float, centre: np.ndarray, azimuths: int):
    """Nodes (G, 2), weights r w_r 2 pi / azimuths, radii and angles of the
    rule on the disk of the given radius about ``centre``: ceil(2 radius /
    step) Gauss-Legendre radii (Golub-Welsch, from the Jacobi matrix, checked
    against ``qcore.MAX_ARRAY_BYTES``) times ``azimuths`` equispaced angles."""
    k = np.arange(1.0, np.ceil(2 * radius / step))
    qcore.check_array_bytes((len(k) + 1, len(k) + 1), "the radial Gauss rule")
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4 * k * k - 1), -1))
    radii = radius * (nodes + 1) / 2
    phi = 2 * np.pi * np.arange(azimuths) / azimuths
    grid = (centre + radii[:, None, None] * np.column_stack([np.cos(phi), np.sin(phi)])).reshape(-1, 2)
    weights = np.repeat(radii * vectors[0] ** 2 * (2 * np.pi * radius / azimuths), azimuths)
    return grid, weights, radii, phi


def default_v_prime(s_matrix: np.ndarray, g: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Regularized kernel covariance sqrt(g)^-1 (|sqrt(g) s sqrt(g)| + eps) sqrt(g)^-1."""
    if not 0 < epsilon < np.inf:
        raise ValidationError("epsilon must be positive and finite: the smearing kernel diverges at 0")
    g_sqrt = hermitian_function(g, lambda w: np.sqrt(np.clip(w, 0.0, None)))
    g_isqrt = hermitian_function(g, _positive_isqrt)
    abs_w = hermitian_function(1j * (g_sqrt @ s_matrix @ g_sqrt), np.abs)
    return np.real(g_isqrt @ (abs_w + epsilon * np.eye(len(g))) @ g_isqrt)


def build_collective_povm(
    spec: CollectiveSpec,
    v_prime,
    n: int,
    radius: float | None = None,
    grid_step: float | None = None,
) -> CollectivePovm:
    """Construct the collective POVM of the spec's operators on n copies.

    The kernel's commutator matrix s and the default radius come from the
    spec's pair moments.  S integrates the smearing operators over the rule
    of ``_kernel_and_grid``; elements are S^{-1/2} T_x S^{-1/2} w_x with
    outcome x / sqrt(n), and each sector sandwiches only its sums of
    ``_smearing_sums``.  S^{-1/2} lives on the eigenspace of S above
    ``SUPPORT_THRESHOLD`` times its largest eigenvalue over all sectors;
    dropped dimensions (with multiplicity) and the completeness residual,
    the operator norm of sum_x E_x - P on the support, are recorded.
    Defaults: radius 4 sqrt(lmax(v + v')), step radius / 16.  Before any
    sector is built, the complex entries held at once are checked against
    ``qcore.MAX_ARRAY_BYTES``: each sector's operators, m = 1 + d + d^2 sums
    and S; the largest sector's eigenvectors, S^-1/2 and two (m, b, b)
    temporaries; the grid, weights and monomials; per point, two
    ``_block_rows`` stacks with their eigenvalues and a block of monomials,
    or per radius, two (R, b, b) stacks, complex monomials and their sums."""
    from .clt import block_sizes, collective_sectors

    kernel, grid, weights, polar = _kernel_and_grid(spec, v_prime, n, radius, grid_step)
    sizes, d = block_sizes(spec.x_ops, n), spec.n_ops
    m, b = 1 + d + d * d, max(sizes)
    held = (d + m + 1) * sum(s * s for s in sizes) + 2 * (m + 1) * b * b + (d + m + 1) * len(grid)
    if polar is None:
        held += max(_block_rows(s, len(grid)) * (2 * s * (s + 1) + m) for s in sizes)
    else:
        held += 2 * len(polar[0]) * b * b + m * len(grid) + 5 * m * len(polar[0])
    qcore.check_array_bytes((held,), "the collective build")
    return _povm_on_sectors(collective_sectors(spec.x_ops, n), n, kernel, grid, weights, polar)


def _block_rows(b, points) -> int:
    """Grid rows per (rows, b, b) block of the per-point sums: ``qcore.MAX_ARRAY_BYTES`` / 16 bytes or one row."""
    return min(points, max(1, qcore.MAX_ARRAY_BYTES // 16 // (16 * b * b)))


def _kernel_and_grid(spec: CollectiveSpec, v_prime, n, radius, grid_step):
    """Smearing kernel (A, Z), nodes, weights and polar radii and angles
    (None on ``ball_grid``, cell ``grid_step``^d) of ``build_collective_povm``,
    defaults filled in.  Where ``_rotates`` holds, the rule is ``polar_grid``
    about the sums' centre c = sqrt(n) tr(X) / dim, of radius ``radius`` + |c|
    (so it holds the ball of ``radius`` about 0), with n + 3 >= b + 2 azimuths:
    exact for every band of every sector."""
    from .gaussian import smearing_kernel

    if n < 1:
        raise ValidationError("n must be positive")
    kernel = smearing_kernel(v_prime, spec.s)
    if radius is None:
        radius = 4.0 * float(np.sqrt(np.linalg.eigvalsh(spec.v + v_prime).max()))
    if grid_step is None:
        grid_step = radius / 16.0
    if not (0 < radius < np.inf and 0 < grid_step < np.inf):
        raise ValidationError(f"radius and grid step must be positive and finite, got {radius} and {grid_step}")
    if not _rotates(spec.x_ops, kernel[0]):
        grid = ball_grid(radius, grid_step, spec.n_ops)
        return kernel, grid, np.full(len(grid), float(grid_step) ** spec.n_ops), None
    centre = np.sqrt(n) * np.real(np.trace(spec.x_ops, axis1=1, axis2=2)) / spec.rho.dim
    grid, weights, *polar = polar_grid(radius + float(np.linalg.norm(centre)), grid_step, centre, n + 3)
    return kernel, grid, weights, polar


def _rotates(x_ops, a_mat) -> bool:
    """Whether, to relative ``ROTATION_TOL``, A and the Gram matrix of the
    two qubit operators' traceless parts are proportional to I.  Then the
    spin sectors are built in the frame where Y_k = X_k - c_k = mu J_k
    (``clt._spin_frame``), and T_x = R T_(r, 0) R^dagger with R = exp(-i phi
    J_z), x - c = r (cos phi, sin phi) (Kahn and Guta, CMP 289, 2009)."""
    if np.shape(x_ops) != (2, 2, 2):
        return False
    y = x_ops - np.real(np.trace(x_ops, axis1=1, axis2=2))[:, None, None] * np.eye(2) / 2
    gram = trace_products(y[:, None], y[None])
    return all(np.abs(m - np.trace(m) / 2 * np.eye(2)).max() <= ROTATION_TOL * np.trace(m) for m in (a_mat, gram))


def _rotation_sums(ops, a_mat, z_norm, radii, sums):
    """sum_x mono(x) T_x on one spin sector from T at x - c = (r, 0) per
    radius and the sums (R, 5, M) of w_x mono(x) exp(i phi_x delta), delta =
    -2..2: in the sector basis (m_a = j..-j, the eigenbasis of J_z) rotating
    by phi multiplies entry (a, b) by exp(-i phi (m_a - m_b)) = exp(i phi (a
    - b)), and mono has azimuthal modes |k| <= 2, so every other band
    integrates to 0."""
    from .clt import _smearing_blocks

    b = ops.shape[-1]
    # the sector's own trace gives c to rounding
    centre = np.real(np.trace(ops, axis1=1, axis2=2)) / b
    t = _smearing_blocks(ops, a_mat, z_norm, centre + radii[:, None] * [1.0, 0.0])
    raw = np.zeros((sums.shape[-1], b, b), dtype=complex)
    for delta in range(max(-2, 1 - b), min(2, b - 1) + 1):
        rows = np.arange(max(delta, 0), b + min(delta, 0))
        raw[:, rows, rows - delta] = sums[:, 2 + delta].T @ t[:, rows, rows - delta]
    return raw


def _smearing_sums(sectors, n, kernel, grid, weights, polar=None) -> list:
    """sum_x w_x [1, x_k, x_k x_l] T_x per sector as one stack (1 + d + d^2,
    b, b), x the outcome: from one T per radius given ``polar`` (radii,
    angles), else per grid point over blocks of ``_block_rows``.  Entry 0 is S."""
    from .clt import _smearing_blocks

    outcomes = grid / np.sqrt(n)
    pairs = (outcomes[:, :, None] * outcomes[:, None, :]).reshape(len(grid), -1)
    monomials = np.column_stack([np.ones(len(grid)), outcomes, pairs])
    monomials *= weights[:, None]
    if polar is None:
        raws = []
        for sec in sectors:
            rows = _block_rows(sec.ops.shape[-1], len(grid))
            parts = (
                np.tensordot(monomials[lo : lo + rows].T, _smearing_blocks(sec.ops, *kernel, grid[lo : lo + rows]), axes=1)
                for lo in range(0, len(grid), rows)
            )
            raws.append(reduce(np.add, parts))
        return raws
    radii, phi = polar
    sums = np.exp(1j * np.outer(np.arange(-2, 3), phi)) @ monomials.reshape(len(radii), len(phi), -1)
    # the constant monomial has azimuthal mode 0 only: its other sums are 0
    # to rounding, and exactly 0 they keep S diagonal
    sums[:, [0, 1, 3, 4], 0] = 0
    del outcomes, pairs, monomials
    return [_rotation_sums(sec.ops, *kernel, radii, sums) for sec in sectors]


def _sandwiched(s_blocks, stacks):
    """Each of ``stacks`` (..., b, b) with every O in it replaced in place by
    S^-1/2 O S^-1/2 symmetrized, one sector at a time, and S's retained
    eigenpairs: above ``SUPPORT_THRESHOLD`` times the largest eigenvalue over
    all sectors, taken by ``eigh`` (so with the same bits) in a first pass."""
    top = max(np.linalg.eigh(s_op)[0].max() for s_op in s_blocks)
    if not top > 0:
        raise NumericalError("accumulated smearing operator is numerically zero")
    for s_op, stack in zip(s_blocks, stacks):
        w, u = np.linalg.eigh(s_op)
        keep = w > SUPPORT_THRESHOLD * top
        w, u = w[keep], u[:, keep]
        s_isqrt = (u * (w**-0.5)) @ u.conj().T
        np.matmul(s_isqrt @ stack, s_isqrt, out=stack)
        stack += stack.conj().swapaxes(-1, -2)
        stack /= 2
        yield stack, w, u


def _povm_on_sectors(sectors, n, kernel, grid, weights, polar=None) -> CollectivePovm:
    """``build_collective_povm`` on the given sectors; the moments are written over the sums."""
    raws = _smearing_sums(sectors, n, kernel, grid, weights, polar)
    s_blocks = [(raw[0] + raw[0].conj().T) / 2 for raw in raws]
    dropped, residual, low = 0, 0.0, np.inf
    for sec, (moments, w, u) in zip(sectors, _sandwiched(s_blocks, raws)):
        dropped += sec.multiplicity * (len(moments[0]) - len(w))
        low = min(low, w.min(initial=np.inf))
        # completeness holds against the projector on the retained eigenspace
        residual = max(residual, float(np.abs(np.linalg.eigvalsh(moments[0] - u @ u.conj().T)).max()))
    return CollectivePovm(
        n_copies=n,
        grid=grid,
        weights=weights,
        sectors=tuple(sectors),
        moments=tuple(raws),
        s_operator=tuple(s_blocks),
        kernel=kernel,
        support_gap=float(1.0 - low),
        dropped_dimensions=dropped,
        completeness_residual=residual,
    )


@dataclass(frozen=True)
class CollectiveCheckRow:
    n_copies: int
    a_matrix: np.ndarray
    scaled_covariance: np.ndarray
    completeness_residual: float
    leakage: float


def collective_estimator_check(
    model: ParametricModel,
    theta,
    x_ops,
    v_prime,
    n_list,
    radius: float | None = None,
    grid_step: float | None = None,
) -> list[CollectiveCheckRow]:
    """Local-unbiasedness correction trend of the collective POVM.

    Works in local coordinates u around theta: the POVM estimates the
    deviation u, and A_n = d E[x] / d u is the response of its normalized
    outcome mean.  Mass, mean and second moment are Born rules on the
    sectors' ``CollectivePovm.moments``.  A_n is exact, with no step: each
    SLD solves d rho = {rho, L} / 2, so d(rho^(x)n) = {rho^(x)n, sum_k L_(k)} / 2
    on every sector (a model without SLDs raises NumericalError).  The
    corrected, rescaled covariance n A^{-1} V A^{-T} is compared against
    v(X) + v' by the caller.  Qubit models use the spin sectors, so n reaches
    far beyond what the dense 2^n layout holds.
    """

    def povm_at(spec, n):
        return build_collective_povm(spec, v_prime, n, radius, grid_step)

    return _estimator_rows(model, theta, x_ops, n_list, povm_at)


def _estimator_rows(model, theta, x_ops, n_list, povm_at):
    """``collective_estimator_check`` with the POVM for n copies built by
    ``povm_at(spec, n)``."""
    from .clt import CollectiveSpec, _dense_sectors, _spin_sectors, sector_states

    t = model.require_domain(theta)
    spec = CollectiveSpec(model.state_at(t), x_ops)
    slds = sld_fisher(model, t)[0].operators
    d = model.param_dim
    rows = []
    for n in n_list:
        n = int(n)
        povm = povm_at(spec, n)
        # the SLDs' collective sums sum_k L_(k) in the POVM's own layout, one sector at a time
        frame = povm.sectors[0].frame
        l_sectors = _dense_sectors(slds, n) if frame is None else _spin_sectors(slds, n, frame)
        # tr(rho^(x)n O) for O = [O0, O1_k, O2_kl], and tr(d_a rho^(x)n O) for
        # O0 and O1_k only, one state at a time against the sector's moments
        traces, response = 0.0, 0.0
        for sec, l_sec, moments in zip(povm.sectors, l_sectors, povm.moments):
            (rho_j,) = sector_states(spec.rho.matrix, n, [sec])
            l_sum = np.sqrt(n) * l_sec.ops
            d_rho = (rho_j @ l_sum + l_sum @ rho_j) / 2
            traces = traces + sec.multiplicity * trace_products(rho_j, moments)
            response = response + sec.multiplicity * trace_products(d_rho[:, None], moments[: d + 1])
        mass = traces[0]
        mean = traces[1 : d + 1] / mass
        a_n = (response[:, 1:].T - np.outer(mean, response[:, 0])) / mass
        if abs(np.linalg.det(a_n)) < 1e-12:
            total = spec.rho.dim**n
            raise NumericalError(
                f"response matrix A_n is singular at n = {n}: S keeps {total - povm.dropped_dimensions} "
                f"of {total} dimensions ({povm.dropped_dimensions} dropped); v' is too narrow for these operators"
            )
        second = traces[d + 1 :].reshape(d, d) / mass
        a_inv = np.linalg.inv(a_n)
        scaled = n * a_inv @ second @ a_inv.T
        rows.append(
            CollectiveCheckRow(
                n_copies=n,
                a_matrix=a_n,
                scaled_covariance=scaled,
                completeness_residual=povm.completeness_residual,
                leakage=float(1.0 - mass),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# maximum likelihood and reporting
# ---------------------------------------------------------------------------


def _grid_points(model: ParametricModel) -> np.ndarray:
    axes = []
    for lo, hi in model.domain_box:
        pad = (hi - lo) / (MLE_GRID_POINTS + 1)
        axes.append(np.linspace(lo + pad, hi - pad, MLE_GRID_POINTS))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[model.is_interior(pts, 1e-6)]


def _batch_probs(states: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Grid-scan probabilities of ``states`` (G, dim, dim) under POVM elements
    (..., k, dim, dim): shape (..., G, k), clipped at 1e-300 so their
    logarithm is finite."""
    p = trace_products(states[:, None], elements[..., None, :, :, :])
    return np.clip(p, 1e-300, None)


def _outcome_order(model: ParametricModel, m: Povm) -> np.ndarray:
    """Order of ``m``'s outcomes sorted by element entries, in which ``mle``
    and two-stage stage 1 climb: the ascent stops at a rounding-level Newton
    decrement or at gradient norm 1e-8, so two listings of one POVM could
    otherwise stop apart."""
    if m.dim != model.hilbert_dim:
        raise ValidationError(f"dimension mismatch: state {model.hilbert_dim}, POVM {m.dim}")
    flat = m.stack.reshape(len(m), -1)
    return np.lexsort(np.column_stack([flat.real, flat.imag]).T)


def _grid_table(model: ParametricModel, elements):
    """The MLE start grid (G, d) and its log-probabilities (k, G) under the
    POVM ``elements`` (k, dim, dim): built once per POVM, read by every
    ``_grid_starts`` scan."""
    if model.param_dim > 3:
        raise ValidationError("grid MLE supports at most 3 parameters")
    grid = _grid_points(model)
    # (k, G) in C order: a block's product then reads each outcome's row
    # whole, about twice as fast as through the transposed (G, k) array
    return grid, np.ascontiguousarray(np.log(_batch_probs(model.state_stack(grid), elements)).T)


def _grid_starts(grid, logp_t, counts) -> np.ndarray:
    """The point of ``grid`` with each count row's largest log-likelihood
    under ``logp_t``, the table of ``_grid_table``; ties go to the smallest
    index.  Rows are scanned by one matrix product per block of about
    ``MLE_SCAN_BYTES`` of log-likelihoods."""
    block = max(1, MLE_SCAN_BYTES // (8 * len(grid)))
    starts = np.empty(len(counts), dtype=int)
    for lo in range(0, len(counts), block):
        rows = slice(lo, lo + block)
        ll = counts[rows] @ logp_t
        if not np.isfinite(ll).any(axis=1).all():
            raise NumericalError("likelihood is degenerate on the whole grid")
        starts[rows] = np.argmax(ll, axis=1)
    return grid[starts]


def _ascend(model: ParametricModel, elements, sum_tol, counts, theta):
    """Maximum likelihood ascent of every row of ``counts`` (T, k) from
    ``theta`` (T, d), which it updates in place and returns, under one POVM
    (T, k, dim, dim) with sum window (T,) per row: the rules of ``mle``.
    Each row climbs with its own step size and gives the same bits whatever
    rows climb beside it.  Points pass the DensityOperator and
    OutcomeDistribution checks; domain tests and derivatives run on all rows
    at once."""
    rows_total = len(counts)
    totals = counts.sum(axis=1)
    lo_box = np.array([lo + 2 * MLE_MARGIN for lo, _ in model.domain_box])
    hi_box = np.array([hi - 2 * MLE_MARGIN for _, hi in model.domain_box])

    def loglik_and_grad(th, rows):
        elems = elements[rows]
        probs = trace_products(model.state_stack(th)[:, None], elems)
        probs = np.clip(probability_rows(probs, sum_tol[rows]), 1e-300, None)
        value = (counts[rows] * np.log(probs)).sum(axis=1) / totals[rows]
        derivs = model_derivatives(model, th)
        # one derivative at a time: (rows, k) traces from a (rows, k, dim, dim) product
        dp = np.stack([trace_products(derivs[:, a, None], elems) for a in range(derivs.shape[1])], axis=1)
        grad = (counts[rows][:, None, :] * dp / probs[:, None, :]).sum(axis=2)
        return value, grad / totals[rows][:, None], dp, probs

    def newton(grad, dp, probs, rows):
        # direction H^-1 grad, with H = sum_k w_k s_k s_k' over the scores
        # s_k = dp_k / p_k and weights w_k = counts_k / total: the exact
        # negative Hessian when p is affine in theta, Fisher scoring
        # otherwise.  Eigen-directions below 1e-12 of the largest carry no
        # gradient and are left out.  A row is done when its decrement
        # grad' H^-1 grad is at the rounding of its value: the strict
        # increase test below could not see what the step promises.
        weights = counts[rows] / totals[rows][:, None]
        scores = dp / probs[:, None, :]
        h = (weights[:, None, None, :] * scores[:, :, None, :] * scores[:, None, :, :]).sum(axis=-1)
        lam, vec = np.linalg.eigh(h)
        coef = (vec * grad[:, :, None]).sum(axis=1)
        inv = np.zeros_like(lam)
        np.divide(1.0, lam, out=inv, where=lam > 1e-12 * lam[:, -1:])
        done = (coef * coef * inv).sum(axis=1) < 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(value[rows]))
        return (vec * (coef * inv)[:, None, :]).sum(axis=2), done

    def project(th):
        # clip into the domain box, then scale each row still not interior
        # toward the origin by 1 - 1e-3 until it is interior or its total
        # scale drops to 1e-12.  The next ``MLE_SHRINK_BLOCK``
        # scalings of every row still outside, each rounded from the one
        # before, are tested in one domain check.
        th = np.clip(th, lo_box, hi_box)
        d, block, scale = model.param_dim, MLE_SHRINK_BLOCK, 1.0
        shrink = np.flatnonzero(~model.is_interior(th, MLE_MARGIN))
        while shrink.size:
            path = np.full((shrink.size, block + 1, d), 1.0 - 1e-3)
            path[:, 0] = th[shrink]
            np.multiply.accumulate(path, axis=1, out=path)
            scales = np.multiply.accumulate(np.r_[scale, np.full(block, 1.0 - 1e-3)])[1:]
            stop = model.is_interior(path[:, 1:].reshape(-1, d), MLE_MARGIN).reshape(-1, block) | (scales <= 1e-12)
            done = stop.any(axis=1)
            th[shrink] = path[np.arange(shrink.size), 1 + np.where(done, stop.argmax(axis=1), block - 1)]
            shrink, scale = shrink[~done], scales[-1]
        return th

    every = np.arange(rows_total)
    value, grad, dp, probs = loglik_and_grad(theta, every)
    direction, done = newton(grad, dp, probs, every)
    on_newton = np.ones(rows_total, dtype=bool)
    step = np.ones(rows_total)
    active = ~done
    for _ in range(400):
        active &= np.linalg.norm(grad, axis=1) >= 1e-8
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        candidate = np.empty((rows.size, model.param_dim))
        newton_rows = on_newton[rows]
        if newton_rows.any():
            # a row whose Newton step leaves the domain climbs by projected
            # gradient from here on
            climbing = rows[newton_rows]
            target = theta[climbing] + step[climbing, None] * direction[climbing]
            inside = (target >= lo_box).all(axis=1) & (target <= hi_box).all(axis=1)
            if inside.any():
                inside[inside] = model.is_interior(target[inside], MLE_MARGIN)
            on_newton[climbing[~inside]] = False
            step[climbing[~inside]] = 0.5
            newton_rows[newton_rows] = inside
            candidate[newton_rows] = target[inside]
        if not newton_rows.all():
            ascent = rows[~newton_rows]
            candidate[~newton_rows] = project(theta[ascent] + step[ascent, None] * grad[ascent])
        cand_value, cand_grad, cand_dp, cand_probs = loglik_and_grad(candidate, rows)
        up = cand_value > value[rows]
        moved = np.linalg.norm(candidate[up] - theta[rows[up]], axis=1)
        accepted, rejected = rows[up], rows[~up]
        theta[accepted] = candidate[up]
        value[accepted] = cand_value[up]
        grad[accepted] = cand_grad[up]
        step[accepted] *= 1.3
        step[rejected] *= 0.4
        renew = up & newton_rows
        if renew.any():
            stepped = rows[renew]
            direction[stepped], done = newton(cand_grad[renew], cand_dp[renew], cand_probs[renew], stepped)
            step[stepped] = np.minimum(step[stepped], 1.0)
            active[stepped[done]] = False
        # a rounding-level accepted move is convergence, not a boundary hit
        active[accepted[moved < 1e-14]] = False
        active[rejected[step[rejected] < 1e-14]] = False
    return theta


def mle(model: ParametricModel, m: Povm, counts):
    """Maximum likelihood estimate from an outcome histogram.

    ``counts`` is a vector aligned with the POVM labels, finite, nonnegative
    (not necessarily whole) and not all zero.  A coarse grid scan
    over the domain box, ``MLE_GRID_POINTS`` per axis, picks the start (ties
    break to the smallest flat index).  The mean log-likelihood then climbs
    by Newton steps H^-1 grad, with H = sum_k w_k s_k s_k^T over the scores
    s_k = dp_k / p_k and count weights w_k (the exact negative Hessian when
    the Born probabilities are affine in theta, as in the qubit families;
    Fisher scoring otherwise): step 1, times 0.4 on a rejected step and
    times 1.3 capped at 1 on an accepted one, a step accepted only if the
    value increases.  The ascent stops when the Newton decrement
    grad' H^-1 grad drops below 8 eps max(1, |value|), the gradient norm
    below 1e-8, an accepted move below 1e-14, the step below 1e-14, or after
    400 iterations.  Once a Newton step would leave the domain, the row
    climbs by projected gradient instead: step 0.5, times 1.3 / 0.4, each
    point clipped into the domain box and, if not interior, scaled toward
    the origin by factors 1 - 1e-3 (a point left outside raises).  The
    estimate is flagged as a boundary maximum when it is not interior by a
    margin of 1e-6; such an estimate is where the projected ascent stopped,
    not a constrained maximum.  This is the grid start and the ascent that
    ``two_stage_estimate`` runs on each block of its trials, on one row.
    """
    order = _outcome_order(model, m)
    counts = np.asarray(counts, dtype=float)
    if counts.shape != order.shape or not (np.isfinite(counts) & (counts >= 0)).all() or counts.sum() <= 0:
        raise ValidationError("counts must align with POVM outcomes, be finite and nonnegative, and not all be zero")
    elements, counts = m.stack[order], counts[None, order]
    start = _grid_starts(*_grid_table(model, elements), counts)
    theta = _ascend(model, elements[None], np.array([m.prob_sum_tol]), counts, start)
    return theta[0], not model.is_interior(theta, 1e-6)[0]


@dataclass(frozen=True)
class EstimationReport:
    """Empirical estimation summary against a theoretical bound."""

    empirical_mean: np.ndarray
    mse_matrix: np.ndarray
    trials: int
    bound_value: float
    bound_kind: str
    standard_errors: np.ndarray
    extras: dict = field(default_factory=dict)

    def weighted_trace(self, g) -> float:
        return float(np.trace(np.asarray(g) @ self.mse_matrix))


def mse_report(estimates, theta_true, bound_value: float, bound_kind: str = "", extras=None) -> EstimationReport:
    """Empirical mean, MSE matrix, and the standard errors of its entries as
    sample means (sample standard deviation over sqrt(trials)), to which the
    delete-one jackknife of a mean reduces exactly."""
    est = np.asarray(estimates, dtype=float)
    if est.ndim == 1:
        est = est[:, None]
    if est.shape[0] < 2:
        raise ValidationError("at least 2 estimates required")
    theta_true = np.atleast_1d(np.asarray(theta_true, dtype=float))
    trials = est.shape[0]
    diff = est - theta_true[None, :]
    per_trial = np.einsum("ik,il->ikl", diff, diff)
    return EstimationReport(
        empirical_mean=est.mean(axis=0),
        mse_matrix=per_trial.mean(axis=0),
        trials=trials,
        bound_value=float(bound_value),
        bound_kind=bound_kind,
        standard_errors=per_trial.std(axis=0, ddof=1) / np.sqrt(trials),
        extras=extras or {},
    )


# ---------------------------------------------------------------------------
# two-stage adaptive estimation for qubit models
# ---------------------------------------------------------------------------


def optimal_qubit_povm(model: ParametricModel, theta, g) -> Povm:
    """Single-copy qubit POVM attaining the closed-form bound at theta.

    Diagonalize j_S^{-1/2} g j_S^{-1/2}; for each eigendirection u_i measure
    the spectral decomposition of the matching inverse-SLD-coordinate
    observable, selected with probability proportional to sqrt(eigenvalue).
    The resulting mixture saturates the trace constraint and its classical
    Fisher matrix attains (tr sqrt(j^{-1/2} g j^{-1/2}))^2.  Outcome (i, a)
    is eigenvector a of observable i; directions below probability 1e-14 are
    left out.
    """
    elements = _optimal_qubit_povms(model, model.require_domain(theta)[None], g)[0]
    kept = np.flatnonzero(elements.any(axis=(-2, -1)))
    return Povm(elements[kept], labels=[divmod(int(i), 2) for i in kept])


def _optimal_qubit_povms(model: ParametricModel, thetas: np.ndarray, g) -> np.ndarray:
    """Elements (m, 2d, 2, 2) of ``optimal_qubit_povm`` at every row of
    ``thetas``, unvalidated, outcome (i, a) at 2i + a, zero for a dropped
    direction; every step runs on the whole stack."""
    if model.hilbert_dim != 2:
        raise ValidationError("optimal measurement construction is qubit-only")
    g = check_weight_matrix(g, model.param_dim)
    slds, _, j_s = _sld_stack(model.state_stack(thetas), model_derivatives(model, thetas))

    def isqrt(w):
        if (w.min(axis=-1) <= 0).any():
            raise NumericalError("SLD Fisher matrix is singular")
        return w**-0.5

    j_isqrt = hermitian_function(j_s, isqrt)
    core = j_isqrt @ g @ j_isqrt
    kappa, u = np.linalg.eigh(core)
    probs = np.sqrt(np.clip(kappa, 0.0, None))
    total = probs.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ValidationError("weight matrix is zero")
    probs = probs / total
    probs[probs < 1e-14] = 0.0
    # direction i of row r is j_isqrt[r] @ u[r, :, i], one matrix-vector
    # product per (r, i); observable i is sum_k direction_k L_k
    directions = (j_isqrt[:, None] @ u.swapaxes(-1, -2)[..., None])[..., 0]
    observables = 0
    for k in range(model.param_dim):
        observables = observables + directions[..., k, None, None] * slds[:, None, k]
    vecs = np.linalg.eigh(observables)[1].swapaxes(-1, -2)
    # (m, i, a, 2, 2): probs_i times the projector on eigenvector a of observable i
    elements = probs[..., None, None, None] * (vecs[..., :, None] * vecs[..., None, :].conj())
    return elements.reshape(len(thetas), 2 * model.param_dim, 2, 2)


def mixed_basis_povm(bases: str = "zx") -> Povm:
    """Equal mixture of Pauli basis measurements on a qubit, one per letter of
    ``bases`` (from "z", "x", "y"); outcomes are labelled "z+", "z-", ...

    The default z/x pair has strictly positive Fisher information throughout
    the interior of the two-parameter family qubit-z0; the full family
    qubit-full needs all three bases, "zxy", which is what the first
    estimation stage requires there.
    """
    vectors = {
        "z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
        "x": (np.array([1, 1], dtype=complex), np.array([1, -1], dtype=complex)),
        "y": (np.array([1, 1j]), np.array([1, -1j])),
    }
    if not bases or set(bases) - set(vectors) or len(set(bases)) != len(bases):
        raise ValidationError(f"bases must be distinct letters from 'zxy', got {bases!r}")
    weight = 1.0 / len(bases)
    elements = []
    labels = []
    for b in bases:
        for sign, vec in zip("+-", vectors[b]):
            vec = vec / np.linalg.norm(vec)
            elements.append(weight * np.outer(vec, vec.conj()))
            labels.append(b + sign)
    return Povm(elements, labels=labels)


def two_stage_estimate(
    model: ParametricModel,
    theta_true,
    m_prime: Povm,
    n: int,
    seed: int,
    trials: int = 1000,
    g=None,
) -> EstimationReport:
    """Two-stage adaptive estimation on a qubit model.

    Each trial spends ceil(sqrt(n)) copies on the pilot measurement m_prime,
    localizes by maximum likelihood, then measures every remaining copy with
    the optimal single-copy POVM built at the pilot estimate; the final
    estimate is the stage-two MLE.  Trials whose pilot or final MLE lands on
    the domain boundary are discarded and counted.

    Trials run in blocks read in trial order, each block under
    ``MLE_ASCENT_BYTES``, so memory does not grow with ``trials`` beyond the
    estimates.  Each block draws its pilot counts from stage one's stream,
    starts each pilot MLE on the grid (one log-probability table for the
    run, scanned in blocks of ``MLE_SCAN_BYTES``), builds and validates its
    surviving pilots' optimal POVMs, draws their counts from stage two's
    stream, and climbs from each pilot: with Born probabilities affine in
    theta, as in every qubit model here, the stage-two log-likelihood is
    concave, so the start does not move the maximum.  Both streams are
    seeded from ``seed``'s generator and their draws do not depend on the
    block size, so a run's first trials come out the same whatever follows
    them.  Both stages climb by the Newton steps of ``mle``, with its
    decrement stop and its projected-gradient fallback near the boundary.

    ``extras`` holds ``discarded``, ``weighted_trace_scaled`` = n tr(g MSE)
    and the surviving ``estimates`` (survivors, d).
    """
    if model.hilbert_dim != 2:
        raise ValidationError("two-stage estimator is qubit-only")
    if trials < 2:
        raise ValidationError("two-stage estimation needs at least 2 trials")
    check_draws(seed, n=n, trials=trials)
    t = model.require_domain(theta_true)
    d = model.param_dim
    g = np.eye(d) if g is None else check_weight_matrix(g, d)
    n1 = int(np.ceil(np.sqrt(n)))
    n2 = n - n1
    if n2 < 1:
        raise ValidationError("n too small for two stages")
    j_pilot = classical_fisher(model, t, m_prime)
    if np.linalg.eigvalsh(j_pilot.matrix).min() <= 1e-10:
        raise ValidationError("pilot measurement has singular Fisher information")
    rho = model.state_at(t)
    p_stage1 = measure_distribution(rho, m_prime).probs
    order = _outcome_order(model, m_prime)
    pilot_povm = m_prime.stack[order]
    table = _grid_table(model, pilot_povm)
    # allocated before the first draw, so that a trial count too large for
    # memory fails at once
    estimates, kept = np.empty((trials, d)), 0
    block = max(1, MLE_ASCENT_BYTES // (16 * (d + 1) * max(len(m_prime), 2 * d) * 2 * 2))
    stage1, stage2 = map(np.random.default_rng, np.random.default_rng(seed).integers(0, 2**63 - 1, 2))
    for lo in range(0, trials, block):
        rows = min(block, trials - lo)
        counts = np.asarray(stage1.multinomial(n1, p_stage1, size=rows), dtype=float)[:, order]
        pilots = _ascend(model, np.broadcast_to(pilot_povm, (rows,) + pilot_povm.shape),
                         np.full(rows, m_prime.prob_sum_tol), counts, _grid_starts(*table, counts))
        pilots = pilots[model.is_interior(pilots, 1e-6)]
        # a dropped direction (zero elements) has probability 0 and, having
        # the smallest eigenvalue, comes first: it draws 0, takes no
        # randomness and adds no likelihood term (a zero last outcome could
        # take the remainder)
        elements, residuals = povm_stack(_optimal_qubit_povms(model, pilots, g))
        sum_tol = np.maximum(PROB_SUM_TOL, 2 * residuals)
        counts = stage2.multinomial(n2, probability_rows(trace_products(elements, rho.matrix), sum_tol))
        final = _ascend(model, elements, sum_tol, counts, pilots)
        final = final[model.is_interior(final, 1e-6)]
        estimates[kept : kept + len(final)] = final
        kept += len(final)
    # stage-two survivors are a subset of stage one's, so this one check
    # also covers a stage one that leaves fewer than two
    if kept < 2:
        raise NumericalError("too few surviving trials for a report")
    estimates = estimates[:kept]
    bound = qubit_c1(sld_fisher(model, t)[1], g)
    extras = {"discarded": trials - kept, "estimates": estimates}
    report = mse_report(estimates, t, bound_value=bound, bound_kind="qubit-c1", extras=extras)
    report.extras["weighted_trace_scaled"] = n * report.weighted_trace(g)
    return report
