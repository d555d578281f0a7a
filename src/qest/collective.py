"""Estimators: the collective square-root-sandwich POVM, its local-unbiasedness
correction, the two-stage adaptive qubit estimator, maximum likelihood, and
mean-square-error reporting.

The collective POVM follows the recipe: integrate the Gaussian-smearing
operators of the collective sums over a ball to get S, then sandwich each
smearing operator between copies of S^{-1/2}.  On the quadrature grid used
here completeness is exact on the retained support of S by construction, so
the reported residual isolates the support truncation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import check_weight_matrix, _sym_sqrt, _sym_isqrt
from .clt import CollectiveSpec, build_collective_ops
from .errors import NumericalError, ValidationError
from .fisher import sld_fisher
from .gaussian import smearing_kernel
from .models import ParametricModel, model_derivatives
from .qcore import DEFAULT_DIM_CAP, Povm, density_stack, measure_distribution, probability_rows

SUPPORT_THRESHOLD = 1e-8
DEFAULT_EPSILON = 0.1
# bytes of Born-rule products per block of count rows in the MLE grid scan:
# bounds the scan's memory whatever the number of rows
MLE_SCAN_BYTES = 1 << 20


@dataclass(frozen=True)
class CollectivePovm:
    """Gridded square-root-sandwich POVM on the n-fold space.

    ``elements`` are the sandwiched operators including grid weights, laid out
    parallel to ``outcomes`` (the estimate attached to each grid point, i.e.
    grid point / sqrt(n)).  ``support_projector`` is the retained eigenspace
    of the accumulated smearing operator; completeness holds against it.
    """

    n_copies: int
    outcomes: np.ndarray
    elements: tuple
    s_operator: np.ndarray
    support_projector: np.ndarray
    support_gap: float
    dropped_dimensions: int
    completeness_residual: float
    radius: float
    grid_step: float
    v_prime: np.ndarray

    def to_povm(self) -> Povm:
        labels = tuple(tuple(np.round(o, 12)) for o in self.outcomes)
        return Povm(self.elements, labels=labels, completeness_tol=1e-5)


def ball_grid(d: int, radius: float, step: float) -> np.ndarray:
    """Cubic lattice clipped to the closed ball of the given radius."""
    axis = np.arange(-radius, radius + step * 1e-9, step)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[np.einsum("ij,ij->i", pts, pts) <= radius**2 + 1e-12]


def default_v_prime(s_matrix: np.ndarray, g: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Regularized kernel covariance sqrt(g)^-1 (|sqrt(g) s sqrt(g)| + eps) sqrt(g)^-1."""
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive: the smearing kernel diverges at 0")
    g_sqrt = _sym_sqrt(g)
    g_isqrt = _sym_isqrt(g)
    w = g_sqrt @ s_matrix @ g_sqrt
    eigw, u = np.linalg.eigh(1j * w)
    abs_w = (u * np.abs(eigw)) @ u.conj().T
    return np.real(g_isqrt @ (abs_w + epsilon * np.eye(len(g))) @ g_isqrt)


def build_collective_povm(
    x_ops,
    v_prime,
    n: int,
    s_matrix=None,
    radius: float | None = None,
    grid_step: float | None = None,
    dim_cap: int = DEFAULT_DIM_CAP,
    jobs: int = 1,
    v_matrix=None,
) -> CollectivePovm:
    """Construct the collective POVM from single-copy operators.

    S accumulates the smearing operators over the ball grid; elements are
    S^{-1/2} T_x S^{-1/2} dx with outcome x / sqrt(n).  The inverse square
    root lives on the eigenspace of S above ``SUPPORT_THRESHOLD`` times its
    largest eigenvalue; dropped dimensions and the completeness residual on
    the support are recorded.  Defaults: radius 4 sqrt(lmax(v + v')), step
    radius / 16.
    """
    x_ops = [np.asarray(x, dtype=complex) for x in x_ops]
    d = len(x_ops)
    v_prime = np.asarray(v_prime, dtype=float)
    s_matrix = np.zeros((d, d)) if s_matrix is None else np.asarray(s_matrix, dtype=float)
    a_mat, z_norm = smearing_kernel(v_prime, s_matrix)
    if radius is None:
        spread = v_prime if v_matrix is None else np.asarray(v_matrix, dtype=float) + v_prime
        radius = 4.0 * float(np.sqrt(np.linalg.eigvalsh(spread).max()))
    if grid_step is None:
        grid_step = radius / 16.0
    grid = ball_grid(d, radius, grid_step)
    cell = grid_step**d

    ops_n = build_collective_ops(x_ops, n, dim_cap)
    big = ops_n[0].shape[0]
    eye = np.eye(big, dtype=complex)
    quad_base = np.zeros((big, big), dtype=complex)
    for k in range(d):
        for l in range(d):
            if a_mat[k, l] != 0.0:
                quad_base += a_mat[k, l] * (ops_n[k] @ ops_n[l])
    quad_base = (quad_base + quad_base.conj().T) / 2

    def smear(x_pt):
        shift = 2.0 * (a_mat @ x_pt)
        quad = quad_base - sum(shift[k] * ops_n[k] for k in range(d))
        quad = quad + float(x_pt @ a_mat @ x_pt) * eye
        quad = (quad + quad.conj().T) / 2
        w, u = np.linalg.eigh(quad)
        return (u * np.exp(-w)) @ u.conj().T / z_norm

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            t_list = list(pool.map(smear, grid))
    else:
        t_list = [smear(x) for x in grid]

    s_op = sum(t_list) * cell
    s_op = (s_op + s_op.conj().T) / 2
    w, u = np.linalg.eigh(s_op)
    keep = w > SUPPORT_THRESHOLD * w.max()
    if not keep.any():
        raise NumericalError("accumulated smearing operator is numerically zero")
    dropped = int((~keep).sum())
    u_keep = u[:, keep]
    s_isqrt = (u_keep * (w[keep] ** -0.5)) @ u_keep.conj().T
    projector = u_keep @ u_keep.conj().T
    support_gap = float(1.0 - w[keep].min())

    elements = []
    total = np.zeros((big, big), dtype=complex)
    for t_mat in t_list:
        e = s_isqrt @ t_mat @ s_isqrt * cell
        e = (e + e.conj().T) / 2
        elements.append(e)
        total += e
    residual = float(np.max(np.abs(total - projector)))
    return CollectivePovm(
        n_copies=n,
        outcomes=grid / np.sqrt(n),
        elements=tuple(elements),
        s_operator=s_op,
        support_projector=projector,
        support_gap=support_gap,
        dropped_dimensions=dropped,
        completeness_residual=residual,
        radius=float(radius),
        grid_step=float(grid_step),
        v_prime=v_prime,
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
    fd_step: float = 1e-3,
    dim_cap: int = DEFAULT_DIM_CAP,
    jobs: int = 1,
) -> list[CollectiveCheckRow]:
    """Local-unbiasedness correction trend of the collective POVM.

    Works in local coordinates u around theta: the POVM estimates the
    deviation u, its exact outcome distribution under the n-fold perturbed
    state gives the response matrix A_n = d e / d u by central differences,
    and the corrected, rescaled covariance n A^{-1} V A^{-T} is compared
    against v(X) + v' by the caller.
    """
    t = model.require_domain(theta)
    rho0 = model.state_at(t)
    spec = CollectiveSpec(rho0, x_ops)
    v_prime = np.asarray(v_prime, dtype=float)
    rows = []
    for n in n_list:
        povm = build_collective_povm(
            spec.x_ops,
            v_prime,
            int(n),
            s_matrix=spec.s,
            radius=radius,
            grid_step=grid_step,
            dim_cap=dim_cap,
            jobs=jobs,
            v_matrix=spec.v,
        )
        outcomes = povm.outcomes

        def probs(u_vec):
            shifted = t + np.asarray(u_vec, dtype=float)
            rho_n = model.state_at(shifted).matrix
            full = rho_n
            for _ in range(int(n) - 1):
                full = np.kron(full, rho_n)
            p = np.array([float(np.real(np.sum(full.T * e))) for e in povm.elements])
            return np.clip(p, 0.0, None)

        p0 = probs(np.zeros(model.param_dim))
        leakage = float(1.0 - p0.sum())
        p0n = p0 / p0.sum()
        d = model.param_dim
        a_n = np.zeros((d, d))
        for j in range(d):
            du = np.zeros(d)
            du[j] = fd_step
            pp = probs(du)
            pm = probs(-du)
            mean_p = (outcomes * (pp / pp.sum())[:, None]).sum(axis=0)
            mean_m = (outcomes * (pm / pm.sum())[:, None]).sum(axis=0)
            a_n[:, j] = (mean_p - mean_m) / (2 * fd_step)
        if abs(np.linalg.det(a_n)) < 1e-12:
            raise NumericalError("response matrix A_n is singular; enlarge the ball radius")
        second = np.einsum("ik,il,i->kl", outcomes, outcomes, p0n)
        a_inv = np.linalg.inv(a_n)
        scaled = int(n) * a_inv @ second @ a_inv.T
        rows.append(
            CollectiveCheckRow(
                n_copies=int(n),
                a_matrix=a_n,
                scaled_covariance=scaled,
                completeness_residual=povm.completeness_residual,
                leakage=leakage,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# maximum likelihood and reporting
# ---------------------------------------------------------------------------


def _grid_points(model: ParametricModel, points_per_axis: int) -> np.ndarray:
    axes = []
    for lo, hi in model.domain_box:
        pad = (hi - lo) / (points_per_axis + 1)
        axes.append(np.linspace(lo + pad, hi - pad, points_per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    mask = np.array([model.domain_check(p) and model.is_interior(p, 1e-6) for p in pts])
    return pts[mask]


def _trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a b) over broadcast stacks of matrices, the Born rule for a
    Hermitian pair.  Each value is summed over its own contiguous products,
    so it does not depend on how many others are computed with it."""
    prod = (a * np.swapaxes(b, -1, -2)).real
    return prod.reshape(prod.shape[:-2] + (-1,)).sum(axis=-1)


def _batch_probs(states: np.ndarray, elements: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Grid-scan probabilities of ``states`` (G, dim, dim) under POVM elements
    (..., k, dim, dim) with weights (..., k): shape (..., G, k), clipped at
    1e-300 so their logarithm is finite."""
    p = _trace_products(states[:, None], elements[..., None, :, :, :]) * weights[..., None, :]
    return np.clip(p, 1e-300, None)


def _model_states(model: ParametricModel, thetas: np.ndarray) -> np.ndarray:
    """Validated density matrices (m, dim, dim) at the rows of ``thetas``."""
    if model.batch_states is None:
        return np.array([model.state_at(th).matrix for th in thetas])
    return density_stack(model.batch_states(thetas))


def _stack_povms(model: ParametricModel, povms, counts):
    """Elements (R, k, dim, dim), weights (R, k), sum windows (R,) and counts
    (T, k) of one shared POVM (R = 1) or one POVM per count row (R = T).

    Each POVM's outcomes, with their counts, are put in a canonical order (by
    element entries and weight).  The ascent stops at gradient norm 1e-8, so
    two listings of one POVM could otherwise stop up to ~1e-8 apart; in this
    order the estimate does not depend on the listing at all.  A POVM or
    count row with fewer than k outcomes is padded with zero elements and
    zero counts, which add nothing to the likelihood.
    """
    if len(povms) not in (1, len(counts)):
        raise ValidationError("need one shared POVM or one POVM per count row")
    k = max(len(m) for m in povms)
    dim = model.hilbert_dim
    elements = np.zeros((len(povms), k, dim, dim), dtype=complex)
    weights = np.zeros((len(povms), k))
    orders = []
    for r, m in enumerate(povms):
        if m.dim != dim:
            raise ValidationError(f"dimension mismatch: state {dim}, POVM {m.dim}")
        elems = np.array(m.elements)
        flat = elems.reshape(len(m), -1)
        w = np.ones(len(m)) if m.weights is None else m.weights
        order = np.lexsort(np.column_stack([flat.real, flat.imag, w]).T)
        elements[r, : len(m)] = elems[order]
        weights[r, : len(m)] = w[order]
        orders.append(order)
    sum_tol = np.array([m.prob_sum_tol for m in povms])
    padded = np.zeros((len(counts), k))
    for t, row in enumerate(counts):
        row = np.asarray(row, dtype=float)
        order = orders[0] if len(povms) == 1 else orders[t]
        if row.shape != order.shape or row.sum() <= 0:
            raise ValidationError("counts must align with POVM outcomes and be nonempty")
        padded[t, : row.size] = row[order]
    return elements, weights, sum_tol, padded


def _grid_starts(model, grid, elements, weights, counts) -> np.ndarray:
    """Index into ``grid`` of each count row's largest log-likelihood (ties
    break to the smallest index).

    Rows are scanned in blocks sized so one block's Born-rule products stay
    near ``MLE_SCAN_BYTES``; with per-row POVMs each block builds its own
    table, with a shared POVM the one (G, k) table serves every block.
    """
    states = _model_states(model, grid)
    shared = elements.shape[0] == 1
    if shared:
        logp = np.log(_batch_probs(states, elements[0], weights[0]))
    entry_bytes = 16 * elements.shape[-1] ** 2
    block = max(1, MLE_SCAN_BYTES // (entry_bytes * len(grid) * counts.shape[1]))
    starts = np.empty(len(counts), dtype=int)
    for lo in range(0, len(counts), block):
        rows = slice(lo, lo + block)
        table = logp if shared else np.log(_batch_probs(states, elements[rows], weights[rows]))
        ll = (table * counts[rows, None, :]).sum(axis=-1)
        if not np.isfinite(ll).any(axis=1).all():
            raise NumericalError("likelihood is degenerate on the whole grid")
        starts[rows] = np.argmax(ll, axis=1)
    return starts


def _mle_rows(model: ParametricModel, povms, counts, points_per_axis: int = 41):
    """Maximum likelihood estimates of every count row: the batched kernel
    behind ``mle``.

    ``povms`` holds one POVM shared by all rows or one POVM per row.  The
    grid is built once; each row starts at its best grid point and climbs by
    projected gradient ascent with its own step size, exactly the one-row
    rules of ``mle``.  Each evaluated point passes the DensityOperator and
    OutcomeDistribution checks.  Returns estimates (T, d) and boundary flags
    (T,).
    """
    if model.param_dim > 3:
        raise ValidationError("grid MLE supports at most 3 parameters")
    rows_total = len(counts)
    if rows_total == 0:
        return np.empty((0, model.param_dim)), np.empty(0, dtype=bool)
    elements, weights, sum_tol, counts = _stack_povms(model, povms, counts)
    grid = _grid_points(model, points_per_axis)
    theta = grid[_grid_starts(model, grid, elements, weights, counts)]
    if elements.shape[0] == 1:
        elements = np.broadcast_to(elements, (rows_total,) + elements.shape[1:])
        weights = np.broadcast_to(weights, (rows_total,) + weights.shape[1:])
        sum_tol = np.broadcast_to(sum_tol, (rows_total,))
    totals = counts.sum(axis=1)
    lo_box = np.array([lo + 1e-9 for lo, _ in model.domain_box])
    hi_box = np.array([hi - 1e-9 for _, hi in model.domain_box])

    def loglik_and_grad(th, rows):
        elems = elements[rows]
        probs = _trace_products(_model_states(model, th)[:, None], elems) * weights[rows]
        probs = np.clip(probability_rows(probs, sum_tol[rows]), 1e-300, None)
        value = (counts[rows] * np.log(probs)).sum(axis=1) / totals[rows]
        derivs = np.array([model_derivatives(model, row) for row in th])
        dp = _trace_products(derivs[:, :, None], elems[:, None])
        dp = dp * weights[rows][:, None, :]
        grad = (counts[rows][:, None, :] * dp / probs[:, None, :]).sum(axis=2)
        return value, grad / totals[rows][:, None]

    def project(th):
        # shrink each row toward the nearest interior point of the model domain
        th = np.clip(th, lo_box, hi_box)
        for row in th:
            scale = 1.0
            while not model.is_interior(row, 1e-9) and scale > 1e-12:
                row *= 1.0 - 1e-3
                scale *= 1.0 - 1e-3
        return th

    value, grad = loglik_and_grad(theta, np.arange(rows_total))
    step = np.full(rows_total, 0.5)
    active = np.ones(rows_total, dtype=bool)
    for _ in range(400):
        active &= np.linalg.norm(grad, axis=1) >= 1e-8
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        candidate = project(theta[rows] + step[rows, None] * grad[rows])
        cand_value, cand_grad = loglik_and_grad(candidate, rows)
        up = cand_value > value[rows]
        moved = np.linalg.norm(candidate[up] - theta[rows[up]], axis=1)
        accepted, rejected = rows[up], rows[~up]
        theta[accepted] = candidate[up]
        value[accepted] = cand_value[up]
        grad[accepted] = cand_grad[up]
        step[accepted] *= 1.3
        step[rejected] *= 0.4
        # a rounding-level accepted move is convergence, not a boundary hit
        active[accepted[moved < 1e-14]] = False
        active[rejected[step[rejected] < 1e-14]] = False
    boundary = np.array([not model.is_interior(th, 1e-6) for th in theta])
    return theta, boundary


def mle(model: ParametricModel, m: Povm, counts, points_per_axis: int = 41):
    """Maximum likelihood estimate from an outcome histogram.

    ``counts`` is a vector aligned with the POVM labels.  A coarse grid scan
    over the domain box picks the start (ties break to the smallest flat
    index), followed by projected gradient ascent on the mean log-likelihood:
    step 0.5, times 1.3 on an accepted step and 0.4 on a rejected one, until
    the gradient norm drops below 1e-8, an accepted move below 1e-14, the step
    below 1e-14, or after 400 iterations.  The estimate is flagged as a
    boundary maximum when it is not interior by a margin of 1e-6.  This is the
    one-row call of the batched kernel that ``two_stage_estimate`` runs on
    all its trials at once.
    """
    theta, boundary = _mle_rows(model, [m], [counts], points_per_axis)
    return theta[0], bool(boundary[0])


@dataclass(frozen=True)
class EstimationReport:
    """Empirical estimation summary against a theoretical bound."""

    theta_true: np.ndarray
    empirical_mean: np.ndarray
    mse_matrix: np.ndarray
    trials: int
    seed: int
    bound_value: float
    bound_kind: str
    standard_errors: np.ndarray
    extras: dict = field(default_factory=dict)

    def weighted_trace(self, g=None) -> float:
        if g is None:
            return float(np.trace(self.mse_matrix))
        return float(np.trace(np.asarray(g) @ self.mse_matrix))


def mse_report(estimates, theta_true, bound_value: float, bound_kind: str = "", seed: int = 0, extras=None) -> EstimationReport:
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
        theta_true=theta_true,
        empirical_mean=est.mean(axis=0),
        mse_matrix=mse,
        trials=trials,
        seed=seed,
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
    Fisher matrix attains (tr sqrt(j^{-1/2} g j^{-1/2}))^2.
    """
    if model.hilbert_dim != 2:
        raise ValidationError("optimal measurement construction is qubit-only")
    t = model.require_domain(theta)
    g = check_weight_matrix(g, model.param_dim)
    slds, j_s = sld_fisher(model, t)
    w, o = np.linalg.eigh(j_s.matrix)
    if w.min() <= 0:
        raise NumericalError("SLD Fisher matrix is singular")
    j_isqrt = (o * (w**-0.5)) @ o.T
    core = j_isqrt @ g @ j_isqrt
    kappa, u = np.linalg.eigh(core)
    kappa = np.clip(kappa, 0.0, None)
    probs = np.sqrt(kappa)
    if probs.sum() <= 0:
        raise ValidationError("weight matrix is zero")
    probs = probs / probs.sum()
    elements = []
    labels = []
    for i in range(len(kappa)):
        if probs[i] < 1e-14:
            continue
        direction = j_isqrt @ u[:, i]
        observable = sum(direction[k] * slds.operators[k] for k in range(model.param_dim))
        _, vecs = np.linalg.eigh(observable)
        for a in range(2):
            proj = np.outer(vecs[:, a], vecs[:, a].conj())
            elements.append(probs[i] * proj)
            labels.append((i, a))
    return Povm(elements, labels=labels)


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
    keep_estimates: bool = False,
) -> EstimationReport:
    """Two-stage adaptive estimation on a qubit model.

    Each trial spends ceil(sqrt(n)) copies on the pilot measurement m_prime,
    localizes by maximum likelihood, then measures every remaining copy with
    the optimal single-copy POVM built at the pilot estimate; the final
    estimate is the stage-two MLE.  Trials whose pilot or final MLE lands on
    the domain boundary are discarded and counted.

    Trials run as a batch: every trial's stage-one counts are drawn first
    from its own generator, one batched MLE localizes them all, and the
    stage-two counts come from the same generators before a second batched
    MLE.  A trial's result therefore does not depend on how many trials run
    beside it.  The grid scans process trials in blocks (see
    ``MLE_SCAN_BYTES``), so peak memory does not grow with ``trials``.
    """
    if model.hilbert_dim != 2:
        raise ValidationError("two-stage estimator is qubit-only")
    t = model.require_domain(theta_true)
    g = np.eye(model.param_dim) if g is None else check_weight_matrix(g, model.param_dim)
    n1 = int(np.ceil(np.sqrt(n)))
    n2 = n - n1
    if n2 < 1:
        raise ValidationError("n too small for two stages")
    from .fisher import classical_fisher

    j_pilot = classical_fisher(model, t, m_prime)
    if np.linalg.eigvalsh(j_pilot.matrix).min() <= 1e-10:
        raise ValidationError("pilot measurement has singular Fisher information")
    rho = model.state_at(t)
    p_stage1 = measure_distribution(rho, m_prime).probs
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)
    rngs = [np.random.default_rng(trial_seed) for trial_seed in seeds]
    counts1 = [rng.multinomial(n1, p_stage1) for rng in rngs]
    pilots, boundary = _mle_rows(model, [m_prime], counts1)
    survivors = np.flatnonzero(~boundary)
    povms = [optimal_qubit_povm(model, pilots[i], g) for i in survivors]
    counts2 = [
        rngs[i].multinomial(n2, measure_distribution(rho, m_opt).probs)
        for i, m_opt in zip(survivors, povms)
    ]
    estimates, boundary = _mle_rows(model, povms, counts2)
    estimates = estimates[~boundary]
    discarded = trials - len(estimates)
    if len(estimates) < 2:
        raise NumericalError("too few surviving trials for a report")
    _, j_s = sld_fisher(model, t)
    from .bounds import qubit_c1

    bound = qubit_c1(j_s, g)
    extras = {
        "discarded": discarded,
        "stage1_copies": n1,
        "stage2_copies": n2,
        "n": n,
        "weighted_trace_scaled": None,
    }
    if keep_estimates:
        extras["estimates"] = np.array(estimates)
    report = mse_report(
        np.array(estimates),
        t,
        bound_value=bound,
        bound_kind="qubit-c1",
        seed=seed,
        extras=extras,
    )
    report.extras["weighted_trace_scaled"] = n * report.weighted_trace(g)
    return report
