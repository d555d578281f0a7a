"""Estimators: the collective square-root-sandwich POVM, its local-unbiasedness
correction, the two-stage adaptive qubit estimator, maximum likelihood, and
mean-square-error reporting.

The collective POVM follows the recipe: integrate the Gaussian-smearing
operators of the collective sums over a ball to get S, then sandwich each
smearing operator between copies of S^{-1/2}; the sandwich is linear, so
only the outcome-moment sums of the smearing operators are sandwiched.  On the
quadrature grid used here completeness is exact on the retained support of S
by construction, so the reported residual isolates the support truncation.

All of these operators are block diagonal in the sector layout of
``clt.collective_sectors``: for qubits the total-spin sectors j of the n-fold
space, each a (2j + 1)-dimensional block repeated m_j times, so the POVM is
built and evaluated on blocks of size at most n + 1 instead of 2^n; any
other dimension is one dense block.  A build that would hold
``qcore.MAX_ARRAY_BYTES`` at once is refused before any sector is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from . import qcore
from .bounds import check_weight_matrix, qubit_c1
from .clt import CollectiveSpec, _dense_sectors, _smearing_blocks, block_sizes, collective_sectors, sector_states
from .errors import NumericalError, ValidationError
from .fisher import _sld_stack, classical_fisher, sld_fisher
from .gaussian import smearing_kernel
from .models import ParametricModel, model_derivatives
from .qcore import (
    PROB_SUM_TOL,
    Povm,
    _sym_isqrt,
    _sym_sqrt,
    measure_distribution,
    povm_stack,
    probability_rows,
    trace_products,
)

SUPPORT_THRESHOLD = 1e-8
# relative tolerance of the conditions that select the per-radius smearing sums
ROTATION_TOL = 1e-12
DEFAULT_EPSILON = 0.1
# bytes of log-likelihoods per block of count rows in the grid scan that
# starts mle and two-stage stage 1: bounds its memory whatever the row count
MLE_SCAN_BYTES = 1 << 19
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
    ``outcomes`` holds the estimate attached to each grid point (grid point /
    sqrt(n)).  ``moments`` holds one stack (1 + d + d^2, b, b) per sector:
    sum_x E_x, sum_x x_k E_x and sum_x x_k x_l E_x (row-major in k, l), so
    the outcome law's mass, mean and second moment under a state are Born
    rules sum_j m_j tr(rho_j O_j).  ``s_operator`` holds one (b, b) block per
    sector: the accumulated smearing operator, on whose retained eigenspace
    completeness holds; ``s_isqrt`` its inverse square root there.
    ``dropped_dimensions`` counts dropped eigenvalues with their sector
    multiplicity.  ``elements`` (a (G, b, b) stack per sector, checked with
    one sector's working stacks) is built point by point from ``kernel``
    (A, Z) and ``cell`` when read.
    """

    n_copies: int
    outcomes: np.ndarray
    sectors: tuple
    moments: tuple
    s_operator: tuple
    s_isqrt: tuple
    kernel: tuple
    cell: float
    support_gap: float
    dropped_dimensions: int
    completeness_residual: float

    @cached_property
    def elements(self) -> tuple:
        grid = self.outcomes * np.sqrt(self.n_copies)
        sizes = [len(s_op) for s_op in self.s_operator]
        b = max(sizes)
        # every sector's stack, two working stacks with their eigenvalues, the grid and its (G, d) temporaries
        held = sum(s * s for s in sizes) + 2 * b * (b + 1) + 2 * grid.shape[1]
        qcore.check_array_bytes((len(grid), held), "the smearing operators")
        stacks = []
        for sec, s_isqrt in zip(self.sectors, self.s_isqrt):
            t = s_isqrt @ _smearing_blocks(sec.ops, *self.kernel, grid) @ s_isqrt
            t *= self.cell
            t += t.conj().swapaxes(-1, -2)
            t /= 2
            stacks.append(t)
        return tuple(stacks)


def ball_grid(radius: float, step: float, centre: np.ndarray) -> np.ndarray:
    """Cubic lattice through ``centre`` (d,) clipped to the closed ball of
    the given radius around 0: the lattice through -radius, one node past
    +radius, shifted by at most step / 2 per axis (by exactly 0 at centre 0
    for the default step radius / 16 of ``build_collective_povm``)."""
    axis = np.arange(-radius, radius + step * (1 + 1e-9), step)
    shift = np.asarray(centre, dtype=float) + radius
    shift -= step * np.round(shift / step)
    pts = np.stack([m.ravel() for m in np.meshgrid(*(axis + s for s in shift), indexing="ij")], axis=1)
    return pts[np.einsum("ij,ij->i", pts, pts) <= radius**2 + 1e-12]


def default_v_prime(s_matrix: np.ndarray, g: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Regularized kernel covariance sqrt(g)^-1 (|sqrt(g) s sqrt(g)| + eps) sqrt(g)^-1."""
    if not 0 < epsilon < np.inf:
        raise ValidationError("epsilon must be positive and finite: the smearing kernel diverges at 0")
    g_sqrt = _sym_sqrt(g)
    g_isqrt = _sym_isqrt(g)
    w = g_sqrt @ s_matrix @ g_sqrt
    eigw, u = np.linalg.eigh(1j * w)
    abs_w = (u * np.abs(eigw)) @ u.conj().T
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
    spec's pair moments.  S accumulates the smearing operators over the ball
    grid through the sums' centre c = sqrt(n) tr(X) / dim (``ball_grid``);
    elements are S^{-1/2} T_x S^{-1/2} dx with outcome x / sqrt(n), and each
    sector sandwiches only its sums of ``_smearing_sums``.  The inverse
    square root lives on the eigenspace of S above ``SUPPORT_THRESHOLD``
    times its largest eigenvalue over all sectors; dropped dimensions (with
    multiplicity) and the completeness residual, the operator norm of
    sum_x E_x - P on the support, are recorded.  Defaults: radius
    4 sqrt(lmax(v + v')), step radius / 16.  Before any sector is built, the
    complex entries held at once are checked against ``qcore.MAX_ARRAY_BYTES``:
    each sector's operators, m = 1 + d + d^2 sums, S, its eigenvectors and
    S^-1/2; two (m, b, b) sandwich temporaries; the grid and its monomials;
    ``ball_grid``'s lattice cube; per point, two ``_block_rows`` stacks with
    their eigenvalues and one block of monomials; per radius, two (R, b, b)
    stacks, twice the (G, 2b - 1) phases and their sums, and the grid order,
    angles and reordered monomials.
    """
    kernel, grid, step, centre, radius = _kernel_and_grid(spec, v_prime, n, radius, grid_step)
    radii = _lattice_radii(spec.x_ops, kernel[0], grid, centre, step)
    sizes, d = block_sizes(spec.x_ops, n), spec.n_ops
    m, b = 1 + d + d * d, max(sizes)
    held = (d + m + 3) * sum(s * s for s in sizes) + 2 * m * b * b + (d + m) * len(grid)
    # ball_grid's cube: at most (2 radius / step + 2)^d nodes, their coordinates and squared norms
    held += (d + 1) * int(2 * radius / step + 2) ** d
    if radii is None:
        held += max(_block_rows(s, len(grid)) * (2 * s * (s + 1) + m) for s in sizes)
    else:
        held += 2 * len(radii[2]) * b * b + 2 * (len(grid) + m * len(radii[2])) * (2 * b - 1) + (m + 2) * len(grid)
    qcore.check_array_bytes((held,), "the collective build")
    return _povm_on_sectors(collective_sectors(spec.x_ops, n), n, kernel, grid, step, radii)


def _block_rows(b, points) -> int:
    """Grid rows per (rows, b, b) block of the per-point sums: ``qcore.MAX_ARRAY_BYTES`` / 16 bytes or one row."""
    return min(points, max(1, qcore.MAX_ARRAY_BYTES // 16 // (16 * b * b)))


def _kernel_and_grid(spec: CollectiveSpec, v_prime, n, radius, grid_step):
    """Smearing kernel (A, Z), ball grid, grid step, sums' centre and radius
    of ``build_collective_povm``, with the defaults filled in."""
    if n < 1:
        raise ValidationError("n must be positive")
    kernel = smearing_kernel(v_prime, spec.s)
    if radius is None:
        radius = 4.0 * float(np.sqrt(np.linalg.eigvalsh(spec.v + v_prime).max()))
    if grid_step is None:
        grid_step = radius / 16.0
    centre = np.sqrt(n) * np.real(np.trace(spec.x_ops, axis1=1, axis2=2)) / spec.rho.dim
    return kernel, ball_grid(radius, grid_step, centre), grid_step, centre, radius


def _lattice_radii(x_ops, a_mat, grid, centre, step):
    """Grid order by lattice radius, each radius's first position in that
    order, the radii and each point's angle; None unless, to relative
    ``ROTATION_TOL``, A and the Gram matrix of the two qubit operators'
    traceless parts are proportional to I.  Then on spin sector j, Y_k = mu
    n_k . J, [Y_0, Y_1] = i mu^2 K with K = (n_0 x n_1) . J, and T_x = R
    T_(r, 0) R^dagger with R = exp(-i phi K), x - c = r (cos phi, sin phi)
    (Kahn and Guta, CMP 289, 2009).  Radii are keyed by i^2 + j^2 from the
    offsets (i, j) = (x - c) / step, integers on the grid through c.
    """
    if np.shape(x_ops) != (2, 2, 2):
        return None
    y = x_ops - np.real(np.trace(x_ops, axis1=1, axis2=2))[:, None, None] * np.eye(2) / 2
    gram = np.real(np.einsum("kab,lba->kl", y, y))
    if any(np.abs(m - np.trace(m) / 2 * np.eye(2)).max() > ROTATION_TOL * np.trace(m) for m in (a_mat, gram)):
        return None
    lattice = np.rint((grid - centre) / step)
    keys = (lattice**2).sum(axis=1).astype(int)
    order = np.argsort(keys, kind="stable")
    first = np.flatnonzero(np.diff(keys[order], prepend=-1))
    return order, first, step * np.sqrt(keys[order][first]), np.arctan2(lattice[:, 1], lattice[:, 0])


def _rotation_sums(ops, a_mat, z_norm, radii, sums):
    """sum_x mono(x) T_x on one spin sector from T at x - c = (r, 0) per
    radius and the per-radius sums (R, M, 2w + 1) of mono(x) exp(-i phi_x
    delta), delta = -w..w: in K's eigenbasis (m_a = -j..j) the rotation by
    phi multiplies entry (a, b) by exp(-i phi (m_a - m_b))."""
    b = ops.shape[-1]
    # the sector's own trace gives c to rounding; it keeps Y traceless there
    centre = np.real(np.trace(ops, axis1=1, axis2=2)) / b
    y = ops - centre[:, None, None] * np.eye(b)
    # K = -i [Y_0, Y_1] / mu^2, mu^2 = |Y_0|^2 / tr J_z^2, tr J_z^2 = (b - 1) b (b + 1) / 12
    scale = (b - 1) * b * (b + 1) / 12 / max(np.vdot(y[0], y[0]).real, np.finfo(float).tiny)
    _, u = np.linalg.eigh(-1j * scale * (y[0] @ y[1] - y[1] @ y[0]))
    t = _smearing_blocks(u.conj().T @ ops @ u, a_mat, z_norm, centre + radii[:, None] * [1.0, 0.0])
    width = sums.shape[-1] // 2
    raw = np.empty((sums.shape[1], b, b), dtype=complex)
    for delta in range(1 - b, b):
        rows = np.arange(max(delta, 0), b + min(delta, 0))
        raw[:, rows, rows - delta] = sums[:, :, width + delta].T @ t[:, rows, rows - delta]
    return u @ raw @ u.conj().T


def _smearing_sums(sectors, n, kernel, grid, radii=None) -> list:
    """sum_x [1, x_k, x_k x_l] T_x per sector as one stack (1 + d + d^2, b,
    b), x the outcome: from one T per lattice radius given ``radii`` of
    ``_lattice_radii``, else one per grid point, summed over blocks of
    ``_block_rows`` points.  Entry 0 is S / dx."""
    outcomes = grid / np.sqrt(n)
    pairs = (outcomes[:, :, None] * outcomes[:, None, :]).reshape(len(grid), -1)
    monomials = np.column_stack([np.ones(len(grid)), outcomes, pairs])
    if radii is None:
        raws = []
        for sec in sectors:
            rows = _block_rows(sec.ops.shape[-1], len(grid))
            parts = (
                np.tensordot(monomials[lo : lo + rows].T, _smearing_blocks(sec.ops, *kernel, grid[lo : lo + rows]), axes=1)
                for lo in range(0, len(grid), rows)
            )
            raws.append(reduce(np.add, parts))
        return raws
    order, first, lengths, phi = radii
    width = max(sec.ops.shape[-1] for sec in sectors) - 1
    phases = np.exp(-1j * np.outer(phi[order], np.arange(-width, width + 1)))
    sums = np.stack([np.add.reduceat(mono[:, None] * phases, first) for mono in monomials[order].T], axis=1)
    del phases
    return [_rotation_sums(sec.ops, *kernel, lengths, sums) for sec in sectors]


def _povm_on_sectors(sectors, n, kernel, grid, step, radii=None) -> CollectivePovm:
    """``build_collective_povm`` on the given sectors, with the sums of
    ``_smearing_sums`` scaled in place; the moments are written over them."""
    cell = step ** grid.shape[1]
    raws = [np.multiply(raw, cell, out=raw) for raw in _smearing_sums(sectors, n, kernel, grid, radii)]
    s_blocks = [(raw[0] + raw[0].conj().T) / 2 for raw in raws]
    spectra = [np.linalg.eigh(s_op) for s_op in s_blocks]
    top = max(w.max() for w, _ in spectra)
    keeps = [w > SUPPORT_THRESHOLD * top for w, _ in spectra]
    if not any(keep.any() for keep in keeps):
        raise NumericalError("accumulated smearing operator is numerically zero")
    dropped = sum(sec.multiplicity * int((~keep).sum()) for sec, keep in zip(sectors, keeps))
    support_gap = float(1.0 - min(w[keep].min() for (w, _), keep in zip(spectra, keeps) if keep.any()))

    isqrts = [(u[:, keep] * (w[keep] ** -0.5)) @ u[:, keep].conj().T for (w, u), keep in zip(spectra, keeps)]
    residual = 0.0
    for raw, s_isqrt, (_, u), keep in zip(raws, isqrts, spectra, keeps):
        o = s_isqrt @ raw @ s_isqrt
        np.add(o, o.conj().swapaxes(-1, -2), out=raw)
        raw /= 2
        # completeness holds against the projector on the retained eigenspace
        residual = max(residual, float(np.abs(np.linalg.eigvalsh(raw[0] - u[:, keep] @ u[:, keep].conj().T)).max()))
    return CollectivePovm(
        n_copies=n,
        outcomes=grid / np.sqrt(n),
        sectors=tuple(sectors),
        moments=tuple(raws),
        s_operator=tuple(s_blocks),
        s_isqrt=tuple(isqrts),
        kernel=kernel,
        cell=cell,
        support_gap=support_gap,
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
    t = model.require_domain(theta)
    spec = CollectiveSpec(model.state_at(t), x_ops)
    slds = sld_fisher(model, t)[0].operators
    d = model.param_dim
    rows = []
    for n in n_list:
        n = int(n)
        povm = povm_at(spec, n)
        # the SLDs' collective sums sum_k L_(k) in the POVM's own layout
        layout = _dense_sectors if povm.sectors[0].two_j is None else collective_sectors
        blocks = sector_states(spec.rho.matrix, n, povm.sectors)
        # row 0: tr(rho^(x)n O); row 1 + a: tr(d_a rho^(x)n O), for O = [O0, O1_k, O2_kl]
        traces = 0.0
        for sec, rho_j, l_sec, moments in zip(povm.sectors, blocks, layout(slds, n), povm.moments):
            l_sum = np.sqrt(n) * l_sec.ops
            states = np.concatenate([rho_j[None], (rho_j @ l_sum + l_sum @ rho_j) / 2])
            traces = traces + sec.multiplicity * trace_products(states[:, None], moments[None])
        mass = traces[0, 0]
        mean = traces[0, 1 : d + 1] / mass
        a_n = (traces[1:, 1 : d + 1].T - np.outer(mean, traces[1:, 0])) / mass
        if abs(np.linalg.det(a_n)) < 1e-12:
            total = spec.rho.dim**n
            raise NumericalError(
                f"response matrix A_n is singular at n = {n}: S keeps {total - povm.dropped_dimensions} "
                f"of {total} dimensions ({povm.dropped_dimensions} dropped); v' is too narrow for these operators"
            )
        second = traces[0, d + 1 :].reshape(d, d) / mass
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


def _stack_povms(model: ParametricModel, m: Povm, counts):
    """Elements (1, k, dim, dim), sum window (1,) and counts (T, k) of ``m``,
    shared by all count rows, with outcomes sorted by element entries: the
    ascent stops at a rounding-level Newton decrement or at gradient norm
    1e-8, so two listings of one POVM could otherwise stop apart."""
    if m.dim != model.hilbert_dim:
        raise ValidationError(f"dimension mismatch: state {model.hilbert_dim}, POVM {m.dim}")
    flat = m.stack.reshape(len(m), -1)
    order = np.lexsort(np.column_stack([flat.real, flat.imag]).T)
    rows = [np.asarray(row, dtype=float) for row in counts]
    if any(row.shape != order.shape or row.sum() <= 0 for row in rows):
        raise ValidationError("counts must align with POVM outcomes and be nonempty")
    return m.stack[order][None], np.array([m.prob_sum_tol]), np.reshape(rows, (-1, len(m)))[:, order]


def _grid_starts(model, grid, elements, counts) -> np.ndarray:
    """Index into ``grid`` of each count row's largest log-likelihood under
    the POVM ``elements`` (k, dim, dim), ties to the smallest index.  Rows
    are scanned by one matrix product per block of about ``MLE_SCAN_BYTES``
    of log-likelihoods."""
    # (k, G) in C order: a block's product then reads each outcome's row
    # whole, about twice as fast as through the transposed (G, k) array
    logp_t = np.ascontiguousarray(np.log(_batch_probs(model.state_stack(grid), elements)).T)
    block = max(1, MLE_SCAN_BYTES // (8 * len(grid)))
    starts = np.empty(len(counts), dtype=int)
    for lo in range(0, len(counts), block):
        rows = slice(lo, lo + block)
        ll = counts[rows] @ logp_t
        if not np.isfinite(ll).any(axis=1).all():
            raise NumericalError("likelihood is degenerate on the whole grid")
        starts[rows] = np.argmax(ll, axis=1)
    return starts


def _mle_rows(model: ParametricModel, elements, sum_tol, counts, starts=None):
    """Maximum likelihood estimates of every count row: the batched kernel
    behind ``mle`` and ``two_stage_estimate``.

    ``elements`` (R, k, dim, dim) and sum windows ``sum_tol`` (R,) hold one
    POVM shared by the rows of ``counts`` (T, k) (R = 1) or one per row
    (R = T).  A row starts at ``starts`` (T, d) if given, else at its best
    grid point under the shared POVM, and climbs by Newton steps with its
    own step size, falling back to projected gradient ascent once a Newton
    step would leave the domain: the one-row rules of ``mle``.  Points pass
    the DensityOperator and OutcomeDistribution checks; domain tests and
    derivatives run on the whole stack.  Returns estimates (T, d) and
    boundary flags (T,).
    """
    if model.param_dim > 3:
        raise ValidationError("grid MLE supports at most 3 parameters")
    rows_total = len(counts)
    if rows_total == 0:
        return np.empty((0, model.param_dim)), np.empty(0, dtype=bool)
    if starts is None:
        if len(elements) != 1:
            raise ValidationError("a grid start needs one shared POVM")
        grid = _grid_points(model)
        theta = grid[_grid_starts(model, grid, elements[0], counts)]
    else:
        theta = np.array(starts, dtype=float)
    elements = np.broadcast_to(elements, (rows_total,) + elements.shape[1:])
    sum_tol = np.broadcast_to(sum_tol, (rows_total,))
    totals = counts.sum(axis=1)
    lo_box = np.array([lo + 2 * MLE_MARGIN for lo, _ in model.domain_box])
    hi_box = np.array([hi - 2 * MLE_MARGIN for _, hi in model.domain_box])

    def loglik_and_grad(th, rows):
        elems = elements[rows]
        probs = trace_products(model.state_stack(th)[:, None], elems)
        probs = np.clip(probability_rows(probs, sum_tol[rows]), 1e-300, None)
        value = (counts[rows] * np.log(probs)).sum(axis=1) / totals[rows]
        derivs = model_derivatives(model, th)
        dp = trace_products(derivs[:, :, None], elems[:, None])
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
    boundary = ~model.is_interior(theta, 1e-6)
    return theta, boundary


def mle(model: ParametricModel, m: Povm, counts):
    """Maximum likelihood estimate from an outcome histogram.

    ``counts`` is a vector aligned with the POVM labels.  A coarse grid scan
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
    not a constrained maximum.  This is the one-row call of the batched
    kernel that ``two_stage_estimate`` runs on all its trials at once.
    """
    theta, boundary = _mle_rows(model, *_stack_povms(model, m, [counts]))
    return theta[0], bool(boundary[0])


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
    """Empirical mean, MSE matrix, and delete-one jackknife standard errors."""
    est = np.asarray(estimates, dtype=float)
    if est.ndim == 1:
        est = est[:, None]
    if est.shape[0] < 2:
        raise ValidationError("at least 2 estimates required")
    theta_true = np.atleast_1d(np.asarray(theta_true, dtype=float))
    trials = est.shape[0]
    diff = est - theta_true[None, :]
    per_trial = np.einsum("ik,il->ikl", diff, diff)
    mse = per_trial.mean(axis=0)
    # delete-one jackknife of a sample mean
    loo = (trials * mse[None, :, :] - per_trial) / (trials - 1)
    se = np.sqrt((trials - 1) / trials * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    return EstimationReport(
        empirical_mean=est.mean(axis=0),
        mse_matrix=mse,
        trials=trials,
        bound_value=float(bound_value),
        bound_kind=bound_kind,
        standard_errors=se,
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
    w, o = np.linalg.eigh(j_s)
    if (w.min(axis=-1) <= 0).any():
        raise NumericalError("SLD Fisher matrix is singular")
    j_isqrt = (o * (w[:, None, :] ** -0.5)) @ o.swapaxes(-1, -2)
    core = j_isqrt @ g @ j_isqrt
    kappa, u = np.linalg.eigh(core)
    kappa = np.clip(kappa, 0.0, None)
    probs = np.sqrt(kappa)
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

    Trials run as a batch, each drawing from its own generator, so a
    trial's result does not depend on the others.  Stage one is one
    grid-started batched MLE, scanned in blocks (``MLE_SCAN_BYTES``) so
    memory does not grow with ``trials``.  Stage two validates all
    survivors' POVMs as one stack and climbs from each pilot: with Born
    probabilities affine in theta, as in every qubit model here, its
    log-likelihood is concave, so the start does not move the maximum.  Both
    stages climb by the Newton steps of ``mle``, with its decrement stop and
    its projected-gradient fallback near the boundary.

    ``extras`` holds ``discarded``, ``weighted_trace_scaled`` = n tr(g MSE)
    and the surviving ``estimates`` (survivors, d).
    """
    if model.hilbert_dim != 2:
        raise ValidationError("two-stage estimator is qubit-only")
    if trials < 2:
        raise ValidationError("two-stage estimation needs at least 2 trials")
    t = model.require_domain(theta_true)
    g = np.eye(model.param_dim) if g is None else check_weight_matrix(g, model.param_dim)
    n1 = int(np.ceil(np.sqrt(n)))
    n2 = n - n1
    if n2 < 1:
        raise ValidationError("n too small for two stages")
    j_pilot = classical_fisher(model, t, m_prime)
    if np.linalg.eigvalsh(j_pilot.matrix).min() <= 1e-10:
        raise ValidationError("pilot measurement has singular Fisher information")
    rho = model.state_at(t)
    p_stage1 = measure_distribution(rho, m_prime).probs
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)
    rngs = [np.random.default_rng(trial_seed) for trial_seed in seeds]
    counts1 = [rng.multinomial(n1, p_stage1) for rng in rngs]
    pilots, boundary = _mle_rows(model, *_stack_povms(model, m_prime, counts1))
    survivors = np.flatnonzero(~boundary)
    if survivors.size < 2:
        raise NumericalError("too few surviving trials for a report")
    # zero elements (dropped directions) get no draw and no likelihood term
    elements, residuals = povm_stack(_optimal_qubit_povms(model, pilots[survivors], g))
    sum_tol = np.maximum(PROB_SUM_TOL, 2 * residuals)
    probs = probability_rows(trace_products(elements, rho.matrix), sum_tol)
    kept = elements.any(axis=(-2, -1))
    counts2 = np.zeros(probs.shape)
    for r, i in enumerate(survivors):
        counts2[r, kept[r]] = rngs[i].multinomial(n2, probs[r, kept[r]])
    estimates, boundary = _mle_rows(model, elements, sum_tol, counts2, starts=pilots[survivors])
    estimates = estimates[~boundary]
    discarded = trials - len(estimates)
    if len(estimates) < 2:
        raise NumericalError("too few surviving trials for a report")
    _, j_s = sld_fisher(model, t)
    bound = qubit_c1(j_s, g)
    extras = {"discarded": discarded, "estimates": estimates}
    report = mse_report(estimates, t, bound_value=bound, bound_kind="qubit-c1", extras=extras)
    report.extras["weighted_trace_scaled"] = n * report.weighted_trace(g)
    return report
