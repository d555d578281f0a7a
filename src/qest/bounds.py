"""Estimation-error lower bounds.

Classical/quantum Cramer-Rao values, the closed-form qubit single-copy bound,
the Gill-Massar trace constraint, the Gaussian-shift bound
tr(g v) + ||sqrt(g) s sqrt(g)||_1, and the collective (Holevo) bound: the
minimum of that value over locally unbiased operator tuples.

The collective bound is computed from its concave dual (Holevo 1982, ch. 6;
Albarelli, Friel & Datta, PRL 123, 200503, 2019).  The trace norm of a real
antisymmetric matrix A is the maximum of tr(W^T A) over real antisymmetric W
with ||W||_op <= 1, and the minimum over tuples and the maximum over W swap,
so the bound is the maximum over W of h(W), the minimum of
tr(g v) + tr(W^T sqrt(g) s sqrt(g)) over locally unbiased tuples.  For fixed
W that is a convex quadratic program; in rho's eigenbasis it splits into one
small block per pair of eigenvalues, and one Schur solve gives h(W) and its
minimizing tuple.  Projected gradient ascent on W returns the recovered
tuple's exact value, attained by a feasible tuple, with the lower bound h(W):
the bound lies between the two, and their gap certifies the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .fisher import SUPPORT_TOL, FisherMatrix, sld_fisher
from .models import ParametricModel, model_derivatives
from .qcore import hermitian_function, pair_moments, trace_products

CONSTRAINT_TOL = 1e-7
PSD_PAIR_TOL = 1e-8
# the dual ascent stays just inside the unit ball: at a rank-deficient state
# the supremum is approached only as ||W||_op -> 1, where the blocks of the
# quadratic program turn singular.  Shrinking W by this factor lowers h by at
# most (1 - DUAL_RADIUS) (C^H - C^S) <= (1 - DUAL_RADIUS) C^H / 2.
DUAL_RADIUS = 1.0 - 1e-7
GAP_TOL = 1e-6


def check_weight_matrix(g: np.ndarray, dim: int) -> np.ndarray:
    """Validate a real symmetric PSD weight matrix and return it as float array."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValidationError("weight matrix must be square")
    if g.shape[0] != dim:
        raise ValidationError(f"weight matrix must be {dim}x{dim}")
    if not np.isfinite(g).all():
        raise ValidationError("weight matrix entries must be finite")
    if np.max(np.abs(g - g.T)) > 1e-12:
        raise ValidationError("weight matrix must be symmetric")
    if np.linalg.eigvalsh(g).min() < -1e-12:
        raise ValidationError("weight matrix must be positive semidefinite")
    return (g + g.T) / 2


def _fisher_matrix(j) -> np.ndarray:
    if isinstance(j, FisherMatrix):
        return np.asarray(j.matrix)
    return np.asarray(j)


def nuclear_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(m), compute_uv=False).sum())


def _positive_isqrt(w: np.ndarray) -> np.ndarray:
    if w.min() <= 0:
        raise NumericalError("matrix inverse square root needs positive definiteness")
    return w**-0.5


def _shift_value(v: np.ndarray, s: np.ndarray, g: np.ndarray) -> float:
    """tr(g v) + ||sqrt(g) s sqrt(g)||_1 of the pair matrices (v, s)."""
    gs = hermitian_function(g, lambda w: np.sqrt(np.clip(w, 0.0, None)))
    return float(np.trace(g @ v)) + nuclear_norm(gs @ s @ gs)


def cr_value(j, g) -> float:
    """Cramer-Rao value tr(g j^{-1}) for an invertible Fisher matrix."""
    jm = _fisher_matrix(j)
    g = check_weight_matrix(g, jm.shape[0])
    if np.linalg.cond(jm) > 1e12:
        raise NumericalError("Fisher matrix is numerically singular")
    return float(np.real(np.trace(g @ np.linalg.inv(jm))))


def qubit_c1(j_sld, g) -> float:
    """Single-copy bound (tr sqrt(j^{-1/2} g j^{-1/2}))^2 for qubit models."""
    jm = np.real(_fisher_matrix(j_sld))
    g = check_weight_matrix(g, jm.shape[0])
    if np.linalg.cond(jm) > 1e12:
        raise NumericalError("SLD Fisher matrix is numerically singular")
    j_isqrt = hermitian_function(jm, _positive_isqrt)
    core = j_isqrt @ g @ j_isqrt
    roots = np.sqrt(np.clip(np.linalg.eigvalsh(core), 0.0, None))
    return float(roots.sum() ** 2)


def gill_massar(j_sld, j_meas, hilbert_dim: int) -> tuple[float, bool]:
    """Trace constraint tr(j_sld^{-1} j_meas) against hilbert_dim - 1."""
    js = np.real(_fisher_matrix(j_sld))
    jm = np.real(_fisher_matrix(j_meas))
    if np.linalg.cond(js) > 1e12:
        raise NumericalError("SLD Fisher matrix is numerically singular")
    value = float(np.trace(np.linalg.solve(js, jm)))
    return value, value <= hilbert_dim - 1 + 1e-8


def gaussian_shift_bound(v: np.ndarray, s: np.ndarray, g) -> float:
    """Mean-estimation bound tr(g v) + ||sqrt(g) s sqrt(g)||_1.

    ``v`` is the symmetric covariance, ``s`` the antisymmetric commutator
    matrix; v + i s must be positive semidefinite.  ``GaussianSpec`` checks
    all three; the value is computed on ``v`` and ``s`` as given.
    """
    from .gaussian import GaussianSpec  # here, so importing bounds loads no gaussian

    v = np.asarray(v, dtype=float)
    s = np.asarray(s, dtype=float)
    g = check_weight_matrix(g, v.shape[0])
    GaussianSpec(np.zeros(v.shape[0]), v, s)
    return _shift_value(v, s, g)


def holevo_objective(model: ParametricModel, theta, x_ops, g) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective tr(v(X) g) + ||sqrt(g) s(X) sqrt(g)||_1 of an operator tuple.

    The X_k are centered internally, X_k - tr(rho X_k) I, and the pair
    matrices are ``qcore.pair_moments`` of the centred tuple; returns
    (value, v, s) with v + i s >= 0.
    """
    t = model.require_domain(theta)
    rho = model.state_at(t).matrix
    for x in x_ops:
        x = np.asarray(x)
        if np.max(np.abs(x - x.conj().T)) > 1e-10:
            raise ValidationError("holevo_objective requires Hermitian operators")
    g = check_weight_matrix(g, len(x_ops))
    ops = np.array(x_ops, dtype=complex)
    v, s = pair_moments(rho, ops - trace_products(rho, ops)[:, None, None] * np.eye(len(rho)))
    if np.linalg.eigvalsh(v + 1j * s).min() < -PSD_PAIR_TOL:
        raise NumericalError("pair-moment matrix v + i s lost positivity")
    return _shift_value(v, s, g), v, s


@dataclass(frozen=True)
class HolevoSolution:
    """The collective bound at one (model, theta, g).

    ``value`` is attained by the locally unbiased tuple ``x_ops``, whose pair
    matrices are ``v_matrix`` and ``s_matrix``; ``dual_value`` is the lower
    bound h(W) of the dual, so the bound lies in [dual_value, value].
    """

    value: float
    dual_value: float
    x_ops: tuple
    v_matrix: np.ndarray
    s_matrix: np.ndarray
    constraint_residual: float


def _dual_solver(lam: np.ndarray, d_eig: np.ndarray, e: np.ndarray):
    """The inner minimum W -> (h(W), s, y) of the dual, in rho's eigenbasis.

    ``lam`` are rho's eigenvalues, ``d_eig`` (d, dim, dim) the derivatives in
    its eigenbasis, and ``e`` (r, d + 1) the constraint targets of a tuple
    Y_1..Y_r of unit weight: tr(Y_a d_j rho) = e[a, j] and tr(rho Y_a) =
    e[a, d] = 0.  h(W) is the minimum of tr v(Y) + tr(W^T s(Y)); the minimizer
    y (r, dim, dim) has commutator matrix s, the gradient of h at W.

    Entry (p, q) of every Y_a forms one block: for p < q a complex r-vector
    with the form (lam_p + lam_q) I + i (lam_p - lam_q) W, for p = q a real
    one with the form lam_p I, which alone meets the centring rows.  Blocks
    outside rho's support (lam_p + lam_q below SUPPORT_TOL, where the
    derivatives vanish) are left at zero.
    """
    d, dim = d_eig.shape[0], lam.size
    r = e.shape[0]
    p, q = np.triu_indices(dim, 1)
    kept = lam[p] + lam[q] >= SUPPORT_TOL
    p, q = p[kept], q[kept]
    plus, minus = lam[p] + lam[q], lam[p] - lam[q]
    c_pair = np.zeros((p.size, d + 1), dtype=complex)
    c_pair[:, :d] = d_eig[:, p, q].T
    diag = np.flatnonzero(2 * lam >= SUPPORT_TOL)
    c_diag = np.column_stack([np.real(d_eig[:, diag, diag]).T, lam[diag]])
    m_diag = np.kron(np.eye(r), (c_diag.T / lam[diag]) @ c_diag)

    def solve(w):
        h_inv = np.linalg.inv(plus[:, None, None] * np.eye(r) + 1j * minus[:, None, None] * w)
        # Schur complement M = sum over blocks of C B^-1 C^T, rows (a, j)
        m = 4 * np.real(np.einsum("pi,pk,pab->aibk", c_pair.conj(), c_pair, h_inv))
        nu = np.linalg.solve(m.reshape(e.size, e.size) + m_diag, e.ravel()).reshape(e.shape)
        y_pair = np.einsum("pab,pb->pa", h_inv, 2 * c_pair @ nu.T)
        y = np.zeros((r, dim, dim), dtype=complex)
        y[:, p, q] = y_pair.T
        y[:, q, p] = y_pair.T.conj()
        y[:, diag, diag] = ((c_diag @ nu.T) / lam[diag, None]).T
        s = np.imag(np.einsum("p,pa,pb->ab", minus, y_pair, y_pair.conj()))
        return float(e.ravel() @ nu.ravel()), s, y

    return solve


def _project(w: np.ndarray) -> np.ndarray:
    """Nearest antisymmetric W with ||W||_op <= DUAL_RADIUS: clip the singular values."""
    u, sv, vt = np.linalg.svd(w)
    w = (u * np.minimum(sv, DUAL_RADIUS)) @ vt
    return (w - w.T) / 2


def _dual_ascent(solve, r: int):
    """Maximize the concave h over the ball of ``_project`` by projected
    gradient ascent with Barzilai-Borwein steps from W = 0.  Stops when the
    gap ||s||_1 - tr(W^T s) is at the rounding level or when no step ascends;
    returns the last h(W) and its minimizer."""
    w = np.zeros((r, r))
    h, s, y = solve(w)
    step = None
    while nuclear_norm(s) - float(np.sum(w * s)) > 1e-12 * max(1.0, h):
        if step is None:
            step = 1.0 / np.linalg.norm(s)
        while True:
            w_new = _project(w + step * s)
            if np.linalg.norm(w_new - w) <= 1e-15:
                return h, y
            h_new, s_new, y_new = solve(w_new)
            if h_new > h:
                break
            step /= 2
        dw = w_new - w
        curvature = -float(np.sum(dw * (s_new - s)))
        step = float(np.sum(dw * dw)) / curvature if curvature > 0 else 2 * step
        w, h, s, y = w_new, h_new, s_new, y_new
    return h, y


def holevo_bound(model: ParametricModel, theta, g) -> HolevoSolution:
    """Collective bound: the minimum of holevo_objective over locally unbiased
    tuples, computed from its dual (see the module docstring).

    The dual works on the range of g = Q diag(gamma) Q^T with the tuple
    Y_a = sqrt(gamma_a) sum_k Q_ka X_k, whose weight is the identity.  The
    components with gamma_a = 0 carry no weight and only need to be
    feasible; they are taken from the inverse-SLD tuple.  Raises
    NumericalError when the duality gap exceeds GAP_TOL max(1, value).
    """
    t = model.require_domain(theta)
    g = check_weight_matrix(g, model.param_dim)
    rho = model.state_at(t).matrix
    dim = rho.shape[0]
    if dim > 32:
        raise NumericalError(
            f"the Holevo bound is computed on 32 dimensions or fewer, not {dim}; "
            "restrict the model (e.g. a smaller Fock cutoff)"
        )
    d = model.param_dim
    derivs = model_derivatives(model, t)
    slds, j_s = sld_fisher(model, t)
    if np.linalg.cond(j_s.matrix) > 1e12:
        raise NumericalError("model derivatives are linearly dependent at theta")

    gamma, q = np.linalg.eigh(g)
    weighted = gamma > 1e-12 * gamma.max()
    e = np.zeros((int(weighted.sum()), d + 1))
    e[:, :d] = (np.sqrt(gamma[weighted]) * q[:, weighted]).T
    lam, u = np.linalg.eigh(rho)
    # eigh can return -1e-17 for a zero eigenvalue, and a negative lam makes
    # a block indefinite at ||W||_op near 1
    solve = _dual_solver(np.clip(lam, 0.0, None), u.conj().T @ derivs @ u, e)
    dual_value, y = _dual_ascent(solve, e.shape[0])

    unweighted = q[:, ~weighted]
    x_sld = np.einsum("kl,lij->kij", np.linalg.inv(j_s.matrix), slds.operators)
    x = np.einsum("ka,aij->kij", q[:, weighted] / np.sqrt(gamma[weighted]), u @ y @ u.conj().T)
    x = x + np.einsum("kl,lij->kij", unweighted @ unweighted.T, x_sld)
    x_ops = tuple((x + x.conj().swapaxes(-1, -2)) / 2)
    value, v, s = holevo_objective(model, t, x_ops, g)
    resid = float(np.max(np.abs(trace_products(np.array(x_ops)[:, None], derivs[None]) - np.eye(d))))
    if resid > CONSTRAINT_TOL:
        raise NumericalError(f"constraint residual {resid:.3e} exceeds {CONSTRAINT_TOL}")
    if value - dual_value > GAP_TOL * max(1.0, value):
        raise NumericalError(
            f"Holevo duality gap {value - dual_value:.3e} exceeds {GAP_TOL:.0e} x max(1, value)"
        )
    return HolevoSolution(
        value=value,
        dual_value=dual_value,
        x_ops=x_ops,
        v_matrix=v,
        s_matrix=s,
        constraint_residual=resid,
    )
