"""Estimation-error lower bounds.

Classical/quantum Cramer-Rao values, the closed-form qubit single-copy bound,
the Gill-Massar trace constraint, the Gaussian-shift bound
tr(g v) + ||sqrt(g) s sqrt(g)||_1, and the collective (Holevo) bound computed
by constrained minimization over locally unbiased operator tuples.

The Holevo objective is convex but nonsmooth through the trace-norm term; the
optimizer smooths singular values with sqrt(x^2 + mu^2), anneals mu downward
with warm starts, and keeps iterates exactly feasible by eliminating the
linear constraints with a particular solution plus a null-space basis, so the
reported value is always attained by a feasible tuple.  Each mu stage runs
``minimize``, a NumPy box-constrained L-BFGS whose line search brackets a zero
of the directional derivative, because near the smoothed kink the objective
is flat to float precision while its gradient is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .fisher import FisherMatrix, sld_fisher
from .models import ParametricModel, model_derivatives

CONSTRAINT_TOL = 1e-7
PSD_PAIR_TOL = 1e-8
LBFGS_MEMORY = 10


@dataclass(frozen=True)
class MinimizeResult:
    """Last iterate of ``minimize``: the point, its value and gradient, and
    the iteration and function-evaluation counts."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int


def minimize(fun, x0, *, args=(), bounds=(-np.inf, np.inf), max_iter: int, ftol: float, gtol: float):
    """Minimize ``fun(x, *args) -> (value, gradient)`` over the box
    ``bounds = (lower, upper)`` (scalars or arrays shaped like ``x0``) by
    limited-memory BFGS (Liu & Nocedal, Math. Prog. 45, 1989), keeping the
    last ``LBFGS_MEMORY`` steps.

    Coordinates at a bound that the gradient or the quasi-Newton direction
    pushes outward are held fixed for the step; the step length stops at the
    first bound the free coordinates reach.  Each line search brackets a zero
    of the directional derivative (see ``_wolfe_step``).  Stops when the
    projected gradient's largest entry is at most ``gtol``, when a step lowers
    f by at most ``ftol * max(|f|, 1)``, after ``max_iter`` iterations, or
    when the line search finds no step.
    """
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), np.shape(x0)) for b in bounds)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f, g = fun(x, *args)
    nfev, nit = 1, 0
    pairs = []  # (step, gradient change) of the last LBFGS_MEMORY steps
    while nit < max_iter and np.max(np.abs(np.clip(x - g, lower, upper) - x), initial=0.0) > gtol:
        at_lower, at_upper = x <= lower, x >= upper
        free = ~((at_lower & (g > 0)) | (at_upper & (g < 0)))
        while True:
            d = -_inverse_hessian_times(g, pairs, free)
            blocked = (at_lower & (d < 0)) | (at_upper & (d > 0))
            if not blocked.any():
                break
            free &= ~blocked
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(d > 0, (upper - x) / d, np.where(d < 0, (lower - x) / d, np.inf))
        a_max = float(room.min(initial=np.inf))
        if nit == 0:
            # no curvature data yet: the steepest-descent step is not
            # extrapolated (L-BFGS-B's rule), so a start that is already
            # stationary to float noise cannot wander off along a flat valley
            a_max = min(a_max, 1.0)

        def phi(a):
            x_a = np.clip(x + a * d, lower, upper)
            f_a, g_a = fun(x_a, *args)
            return x_a, float(f_a), g_a, float(g_a @ d)

        step, evals = _wolfe_step(phi, f, float(g @ d), min(1.0, a_max), a_max)
        nfev += evals
        if step is None:
            break
        x_new, f_new, g_new = step
        nit += 1
        pairs = [*pairs[-(LBFGS_MEMORY - 1):], (x_new - x, g_new - g)]
        f_old, x, f, g = f, x_new, f_new, g_new
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            break
    return MinimizeResult(x=x, fun=float(f), jac=g, nit=nit, nfev=nfev)


def _inverse_hessian_times(g, pairs, free):
    """L-BFGS two-loop recursion on the free coordinates: the inverse of the
    free block of the Hessian estimate times g, zero on fixed coordinates.

    Each step pair (s, y) is cut to the free coordinates, where y = H s holds
    for the free block when the step left the fixed ones alone; pairs without
    positive curvature there are skipped.
    """
    cut = [(s * free, y * free) for s, y in pairs]
    cut = [(s, y, 1.0 / sy) for s, y in cut if (sy := float(s @ y)) > 1e-12 * float(y @ y)]
    q = g * free
    alphas = []
    for s, y, r in reversed(cut):
        a = r * float(s @ q)
        q -= a * y
        alphas.append(a)
    if cut:
        s, y, r = cut[-1]
        q *= 1.0 / (r * float(y @ y))
    for (s, y, r), a in zip(cut, reversed(alphas)):
        q += (a - r * float(y @ q)) * s
    return q


def _wolfe_step(phi, f0, slope0, a, a_max, c1=1e-4, c2=0.9, max_evals=60):
    """Line search along a descent direction with phi'(0) = ``slope0 < 0``.

    Accepts a strong-Wolfe step: f(a) <= f0 + c1 a slope0 and
    |phi'(a)| <= c2 |slope0|, where the decrease test is granted a slack of
    1e-12 |f0| (the approximate Wolfe rule of Hager & Zhang, SIAM J. Optim.
    16, 2005).  Near a kink smoothed at 1e-8 the function is flat to float
    precision while phi' is not, so the search brackets a sign change of
    phi' (secant steps kept inside the bracket, bisection otherwise) rather
    than backtracking on f.  A step cut short by the box is accepted where f
    still decreases.  Returns ((x, f, g), evaluations), or (None, evaluations)
    when no step lowers f.
    """
    slack = 1e-12 * abs(f0)
    lo, lo_slope, lo_point = 0.0, slope0, None
    hi = hi_slope = None
    last_width = np.inf
    for evals in range(1, max_evals + 1):
        x_a, f_a, g_a, slope = phi(a)
        decrease = f_a <= f0 + c1 * a * slope0 + slack
        if decrease and abs(slope) <= -c2 * slope0:
            return (x_a, f_a, g_a), evals
        if decrease and slope < 0:
            lo, lo_slope, lo_point = a, slope, (x_a, f_a, g_a)
            if hi is None:
                if a >= a_max:
                    return lo_point, evals
                a = min(4.0 * a, a_max)
                continue
        else:
            hi, hi_slope = a, slope
        width = hi - lo
        if width <= 1e-16 * hi:
            break
        # secant on phi' while it halves the bracket, bisection otherwise
        secant = lo - lo_slope * width / (hi_slope - lo_slope) if hi_slope > 0 else lo
        a = secant if lo < secant < hi and width <= 0.5 * last_width else lo + 0.5 * width
        last_width = width
    return lo_point, evals


def check_weight_matrix(g: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Validate a real symmetric PSD weight matrix and return it as float array."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValidationError("weight matrix must be square")
    if dim is not None and g.shape[0] != dim:
        raise ValidationError(f"weight matrix must be {dim}x{dim}")
    if np.max(np.abs(g - g.T)) > 1e-12:
        raise ValidationError("weight matrix must be symmetric")
    if np.linalg.eigvalsh(g).min() < -1e-12:
        raise ValidationError("weight matrix must be positive semidefinite")
    return (g + g.T) / 2


def _fisher_matrix(j) -> np.ndarray:
    if isinstance(j, FisherMatrix):
        return np.asarray(j.matrix)
    return np.asarray(j)


def _sym_sqrt(g: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(g)
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.T


def _sym_isqrt(g: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(g)
    if w.min() <= 0:
        raise NumericalError("matrix inverse square root needs positive definiteness")
    return (u * (w**-0.5)) @ u.T


def nuclear_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(m), compute_uv=False).sum())


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
    j_isqrt = _sym_isqrt(jm)
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
    matrix; v + i s must be positive semidefinite.
    """
    v = np.asarray(v, dtype=float)
    s = np.asarray(s, dtype=float)
    g = check_weight_matrix(g, v.shape[0])
    if np.max(np.abs(v - v.T)) > 1e-12:
        raise ValidationError("v must be symmetric")
    if np.max(np.abs(s + s.T)) > 1e-12:
        raise ValidationError("s must be antisymmetric")
    if np.linalg.eigvalsh(v + 1j * s).min() < -1e-10:
        raise ValidationError("v + i s must be positive semidefinite")
    gs = _sym_sqrt(g)
    return float(np.trace(g @ v)) + nuclear_norm(gs @ s @ gs)


def pair_moments(rho_matrix: np.ndarray, x_ops) -> tuple[np.ndarray, np.ndarray]:
    """Centered second moments of an operator tuple under a state.

    Returns (v, s) with v[k,j] = Tr rho (Xc_k o Xc_j) and
    s[k,j] = -i/2 Tr rho [Xc_k, Xc_j] where Xc = X - Tr(rho X) I.
    """
    d = len(x_ops)
    dim = rho_matrix.shape[0]
    centered = [
        np.asarray(x, dtype=complex)
        - np.real(np.trace(rho_matrix @ np.asarray(x))) * np.eye(dim)
        for x in x_ops
    ]
    v = np.zeros((d, d))
    s = np.zeros((d, d))
    for a in range(d):
        for b in range(a, d):
            prod_ab = complex(np.trace(rho_matrix @ centered[a] @ centered[b]))
            prod_ba = complex(np.trace(rho_matrix @ centered[b] @ centered[a]))
            v[a, b] = v[b, a] = 0.5 * np.real(prod_ab + prod_ba)
            s_val = np.real(-0.5j * (prod_ab - prod_ba))
            s[a, b] = s_val
            s[b, a] = -s_val
    return v, s


def holevo_objective(model: ParametricModel, theta, x_ops, g) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective tr(v(X) g) + ||sqrt(g) s(X) sqrt(g)||_1 of an operator tuple.

    The X_k are centered internally; returns (value, v, s) with the pair
    matrices satisfying v + i s >= 0.
    """
    t = model.require_domain(theta)
    rho = model.state_at(t).matrix
    for x in x_ops:
        x = np.asarray(x)
        if np.max(np.abs(x - x.conj().T)) > 1e-10:
            raise ValidationError("holevo_objective requires Hermitian operators")
    g = check_weight_matrix(g, len(x_ops))
    v, s = pair_moments(rho, x_ops)
    if np.linalg.eigvalsh(v + 1j * s).min() < -PSD_PAIR_TOL:
        raise NumericalError("pair-moment matrix v + i s lost positivity")
    gs = _sym_sqrt(g)
    value = float(np.trace(v @ g)) + nuclear_norm(gs @ s @ gs)
    return value, v, s


@dataclass(frozen=True)
class HolevoOptions:
    seed: int = 0
    tol: float = 1e-6
    max_iter: int = 2000
    n_starts: int = 1
    start_scale: float = 1.0
    mu_initial: float = 1e-2
    mu_final: float = 1e-8
    # box bound on the free coordinates: at rank-deficient states the
    # minimizing tuple can be unbounded (the infimum sits at the end of a
    # flat valley) and unbounded iterates drown the objective in float noise
    coordinate_bound: float = 1e4


@dataclass(frozen=True)
class HolevoSolution:
    """Minimizer data for the collective bound at one (model, theta, g)."""

    value: float
    x_ops: tuple
    v_matrix: np.ndarray
    s_matrix: np.ndarray
    constraint_residual: float
    stationarity: float
    optimizer_trace: tuple
    start_values: tuple


def _traceless_hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal (trace inner product) basis of traceless Hermitian matrices."""
    basis = []
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            basis.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j / np.sqrt(2)
            m[j, i] = 1j / np.sqrt(2)
            basis.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[:l, :l] = np.eye(l)
        m[l, l] = -l
        basis.append(m / np.sqrt(l * (l + 1)))
    return np.array(basis)


def holevo_bound(model: ParametricModel, theta, g, opts: HolevoOptions | None = None) -> HolevoSolution:
    """Collective bound: minimize holevo_objective over locally unbiased tuples.

    The tuple is expanded in a traceless Hermitian basis; the d^2 linear
    constraints Tr(X_k d rho_l) = delta_kl are eliminated exactly, and the
    search starts from the inverse-SLD tuple, which is always feasible.
    """
    opts = opts or HolevoOptions()
    t = model.require_domain(theta)
    g = check_weight_matrix(g, model.param_dim)
    rho = model.state_at(t).matrix
    dim = rho.shape[0]
    if dim > 32:
        raise NumericalError(
            f"Holevo optimization over a {dim}-dimensional space needs a "
            f"{dim * dim - 1}-operator basis; restrict the model (e.g. a "
            "smaller Fock cutoff) to 32 dimensions or fewer"
        )
    d = model.param_dim
    derivs = model_derivatives(model, t)
    slds, j_s = sld_fisher(model, t)
    if np.linalg.cond(j_s.matrix) > 1e12:
        raise NumericalError("model derivatives are linearly dependent at theta")

    basis = _traceless_hermitian_basis(dim)
    m = basis.shape[0]
    # constraint matrix and second-moment forms in basis coordinates, as
    # matrix products: tr(X Y) is flat(X) . flat(Y^T)
    basis_t = basis.transpose(0, 2, 1).reshape(m, dim * dim)
    a_con = np.real(np.array(derivs).reshape(d, dim * dim) @ basis_t.T)
    if np.linalg.matrix_rank(a_con, tol=1e-10) < d:
        raise NumericalError("degenerate local-unbiasedness constraints")
    f1 = (rho @ basis).reshape(m, dim * dim) @ basis_t.T
    v_form = np.real(f1)
    s_form = np.imag(f1)
    mu_vec = np.real(basis_t @ rho.reshape(-1))
    v_centered = v_form - np.outer(mu_vec, mu_vec)

    c_part = np.linalg.lstsq(a_con, np.eye(d), rcond=None)[0].T  # (d, m)
    _, sv, vt = np.linalg.svd(a_con)
    null_dim = m - d
    kernel = vt[d:].T  # (m, q) orthonormal null-space basis
    g_sqrt = _sym_sqrt(g)

    # feasible start: inverse-SLD tuple projected on the traceless basis
    j_inv = np.linalg.inv(j_s.matrix)
    c_init = np.zeros((d, m))
    for k in range(d):
        x = sum(j_inv[k, l] * slds.operators[l] for l in range(d))
        x = x - np.trace(x) / dim * np.eye(dim)
        c_init[k] = np.real(np.einsum("aij,ji->a", basis, x))

    def unpack(z):
        if null_dim == 0:
            return c_part
        return c_part + (kernel @ z.reshape(null_dim, d)).T

    def pack(c):
        if null_dim == 0:
            return np.zeros(0)
        return (kernel.T @ (c - c_part).T).reshape(-1)

    def smoothed(z, mu):
        c = unpack(z)
        v = c @ v_centered @ c.T
        s = c @ s_form @ c.T
        h = 1j * (g_sqrt @ s @ g_sqrt)
        w, u = np.linalg.eigh(h)
        value = float(np.trace(v @ g)) + float(np.sum(np.sqrt(w**2 + mu**2)))
        grad_c = 2.0 * g @ c @ v_centered
        p = (u * (w / np.sqrt(w**2 + mu**2))) @ u.conj().T
        grad_c = grad_c + np.real(2j * g_sqrt @ p @ g_sqrt @ c @ s_form)
        if null_dim == 0:
            return value, np.zeros(0)
        grad_z = (kernel.T @ grad_c.T).reshape(-1)
        return value, grad_z

    def exact_value(z):
        c = unpack(z)
        v = c @ v_centered @ c.T
        s = c @ s_form @ c.T
        return float(np.trace(v @ g)) + nuclear_norm(g_sqrt @ s @ g_sqrt), v, s

    mus = []
    mu = opts.mu_initial
    while mu > opts.mu_final:
        mus.append(mu)
        mu /= 10.0
    mus.append(opts.mu_final)

    rng = np.random.default_rng(opts.seed)
    z_init = pack(c_init)
    starts = [z_init]
    for _ in range(max(0, opts.n_starts - 1)):
        starts.append(z_init + opts.start_scale * rng.standard_normal(z_init.shape))

    bound = opts.coordinate_bound

    def projected_grad_norm(z, grad):
        pg = grad.copy()
        pg[(z >= bound - 1e-9) & (grad < 0)] = 0.0
        pg[(z <= -bound + 1e-9) & (grad > 0)] = 0.0
        return float(np.linalg.norm(pg))

    best = None
    start_values = []
    for z0 in starts:
        z = np.clip(z0, -bound, bound)
        trace = []
        grad_norm = 0.0
        best_z, best_val = z.copy(), exact_value(z)[0]
        for mu in mus:
            if null_dim == 0:
                val, _ = smoothed(z, mu)
                trace.append({"mu": mu, "value": val, "gradNorm": 0.0, "iterations": 0})
                continue
            res = minimize(
                smoothed,
                z,
                args=(mu,),
                bounds=(-bound, bound),
                max_iter=opts.max_iter,
                ftol=1e-14,
                gtol=1e-10,
            )
            z = res.x
            grad_norm = projected_grad_norm(z, np.asarray(res.jac))
            trace.append(
                {
                    "mu": mu,
                    "value": float(res.fun),
                    "gradNorm": grad_norm,
                    "iterations": int(res.nit),
                }
            )
            stage_val = exact_value(z)[0]
            if stage_val < best_val:
                best_val, best_z = stage_val, z.copy()
        if null_dim > 0 and grad_norm > opts.tol:
            raise NumericalError(
                f"Holevo optimizer did not reach stationarity {opts.tol:.1e} "
                f"(projected gradient norm {grad_norm:.3e})"
            )
        value, v, s = exact_value(best_z)
        start_values.append(value)
        if best is None or value < best[0]:
            best = (value, best_z, v, s, tuple(trace), grad_norm)

    value, z, v, s, trace, grad_norm = best
    c = unpack(z)
    x_ops = tuple(np.einsum("a,aij->ij", c[k], basis) for k in range(d))
    resid = max(
        abs(np.real(np.trace(x_ops[k] @ derivs[l])) - (1.0 if k == l else 0.0))
        for k in range(d)
        for l in range(d)
    )
    if resid > CONSTRAINT_TOL:
        raise NumericalError(f"constraint residual {resid:.3e} exceeds {CONSTRAINT_TOL}")
    return HolevoSolution(
        value=value,
        x_ops=x_ops,
        v_matrix=v,
        s_matrix=s,
        constraint_residual=float(resid),
        stationarity=float(grad_norm),
        optimizer_trace=trace,
        start_values=tuple(start_values),
    )
