"""Parametric state families and derivative access.

Built-in models: the full qubit family (parameters (x, y, z) filling the Bloch
ball), its z = 0 slice, diagonal (commutative) families used as classical
oracles, and the one-mode Gaussian displacement family on a truncated Fock
space.  Derivatives are analytic where attached and symmetric finite
differences otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError
from .qcore import DensityOperator

FD_STEP = 1e-5

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


@dataclass(frozen=True)
class ParametricModel:
    """A map theta -> density operator with domain and derivative metadata.

    ``state_at`` must return a valid DensityOperator for every theta passing
    ``domain_check``.  ``domain_check`` maps a stack of parameter points,
    shape (..., d), to a boolean array of shape (...); one point (d,) is the
    one-row case and gives a boolean scalar.  A user-defined model must
    therefore index coordinates as ``t[..., k]``, never ``t[k]``.
    ``derivative_at(t, k)``, when present, returns the analytic partial
    derivative for parameter index k at the points ``t`` (..., d): an array
    (..., dim, dim), or one (dim, dim) matrix when it does not depend on
    theta.  ``domain_box`` bounds the domain per axis for grid searches;
    ``batch_states``, when present, maps an (m, d) array of parameter points
    to an (m, dim, dim) array of raw state matrices and exists purely as a
    fast path.  ``is_interior`` and ``model_derivatives`` take one point or a
    stack alike.
    """

    name: str
    param_dim: int
    hilbert_dim: int
    state_at: Callable[[np.ndarray], DensityOperator]
    domain_check: Callable[[np.ndarray], bool]
    domain_box: tuple
    derivative_at: Callable[[np.ndarray, int], np.ndarray] | None = None
    batch_states: Callable[[np.ndarray], np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    def theta(self, theta) -> np.ndarray:
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.shape != (self.param_dim,):
            raise ValidationError(
                f"model {self.name!r} expects {self.param_dim} parameters, got shape {t.shape}"
            )
        return t

    def require_domain(self, theta) -> np.ndarray:
        t = self.theta(theta)
        if not self.domain_check(t):
            raise ValidationError(f"theta {t.tolist()} outside domain of {self.name!r}")
        return t

    def _points(self, theta) -> np.ndarray:
        """``theta`` as one point (d,) or a stack of points (m, d)."""
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.ndim > 2 or t.shape[-1] != self.param_dim:
            raise ValidationError(
                f"model {self.name!r} expects {self.param_dim} parameters per point, got shape {t.shape}"
            )
        return t

    def _in_domain(self, points: np.ndarray) -> np.ndarray:
        """``domain_check`` of a stack (..., d), checked to give one flag per point."""
        ok = np.asarray(self.domain_check(points))
        if ok.shape != points.shape[:-1]:
            raise ValidationError(
                f"domain_check of model {self.name!r} must map points (..., d) to flags (...): "
                f"got shape {ok.shape} for points {points.shape}"
            )
        return ok

    def is_interior(self, theta, margin: float = FD_STEP):
        """True when a point and every +-margin perturbation along each axis
        lie in the domain.  One point (d,) gives a bool, a stack (m, d) one
        flag per row; the 2d + 1 points of each row are checked in one call
        of ``domain_check``."""
        t = self._points(theta)
        shifts = np.concatenate([np.zeros((1, self.param_dim)), np.eye(self.param_dim) * margin,
                                 np.eye(self.param_dim) * -margin])
        inside = self._in_domain(t[..., None, :] + shifts).all(axis=-1)
        return bool(inside) if t.ndim == 1 else inside


def _in_unit_ball(t: np.ndarray) -> np.ndarray:
    # each row's dot product t @ t as a stacked matmul, which rounds exactly
    # like the one-point t @ t
    return (t[..., None, :] @ t[..., :, None])[..., 0, 0] <= 1.0 + 1e-12


def _qubit_matrix(x: float, y: float, z: float) -> np.ndarray:
    return 0.5 * np.array([[1 + x, y + 1j * z], [y - 1j * z, 1 - x]], dtype=complex)


def qubit_family(kind: str = "full") -> ParametricModel:
    """Qubit state families.

    ``full``: theta = (x, y, z) with rho = [[1+x, y+iz], [y-iz, 1-x]]/2 on the
    closed unit ball.  ``z0``: the two-parameter slice z = 0.  Analytic
    derivatives are attached (constant in theta).
    """
    if kind == "full":
        derivs = [
            0.5 * SIGMA_Z,
            0.5 * SIGMA_X,
            0.5 * np.array([[0, 1j], [-1j, 0]], dtype=complex),
        ]

        def state(t):
            return DensityOperator(_qubit_matrix(t[0], t[1], t[2]))

        def batch(ts):
            ts = np.asarray(ts, dtype=float)
            out = np.empty((ts.shape[0], 2, 2), dtype=complex)
            out[:, 0, 0] = 1 + ts[:, 0]
            out[:, 1, 1] = 1 - ts[:, 0]
            out[:, 0, 1] = ts[:, 1] + 1j * ts[:, 2]
            out[:, 1, 0] = ts[:, 1] - 1j * ts[:, 2]
            return out / 2

        return ParametricModel(
            name="qubit-full",
            param_dim=3,
            hilbert_dim=2,
            state_at=state,
            domain_check=_in_unit_ball,
            domain_box=((-1.0, 1.0),) * 3,
            derivative_at=lambda t, k: derivs[k],
            batch_states=batch,
        )
    if kind == "z0":
        derivs = [0.5 * SIGMA_Z, 0.5 * SIGMA_X]

        def state(t):
            return DensityOperator(_qubit_matrix(t[0], t[1], 0.0))

        def batch(ts):
            ts = np.asarray(ts, dtype=float)
            out = np.empty((ts.shape[0], 2, 2), dtype=complex)
            out[:, 0, 0] = 1 + ts[:, 0]
            out[:, 1, 1] = 1 - ts[:, 0]
            out[:, 0, 1] = ts[:, 1]
            out[:, 1, 0] = ts[:, 1]
            return out / 2

        return ParametricModel(
            name="qubit-z0",
            param_dim=2,
            hilbert_dim=2,
            state_at=state,
            domain_check=_in_unit_ball,
            domain_box=((-1.0, 1.0),) * 2,
            derivative_at=lambda t, k: derivs[k],
            batch_states=batch,
        )
    raise ValidationError(f"unknown qubit family kind {kind!r}")


def diagonal_family(dim: int = 2) -> ParametricModel:
    """Commutative family diag(theta_1, .., theta_{dim-1}, 1 - sum theta).

    The classical oracle model: every quantum Fisher quantity computed on it
    must collapse to the classical Fisher information of the probability
    vector.
    """
    if dim < 2:
        raise ValidationError("diagonal family needs dim >= 2")
    d = dim - 1

    def state(t):
        p = np.append(t, 1.0 - t.sum())
        return DensityOperator(np.diag(p.astype(complex)))

    def deriv(t, k):
        m = np.zeros((dim, dim), dtype=complex)
        m[k, k] = 1.0
        m[dim - 1, dim - 1] = -1.0
        return m

    def check(t):
        return (t > 0).all(axis=-1) & (t.sum(axis=-1) < 1.0)

    return ParametricModel(
        name=f"diag:{dim}",
        param_dim=d,
        hilbert_dim=dim,
        state_at=state,
        domain_check=check,
        domain_box=((0.0, 1.0),) * d,
        derivative_at=deriv,
    )


def gaussian_displacement_family(
    noise: float, cutoff: int | None = None, theta_max: float = 3.0
) -> ParametricModel:
    """One-mode Gaussian displacement family on a truncated Fock space.

    Parameters are the quadrature means theta = (sqrt2 Re zeta, sqrt2 Im zeta)
    at fixed thermal noise ``noise``; the Fock cutoff is auto-selected for the
    domain radius unless given.  Derivatives are the exact displacement
    generators d rho/d theta1 = -i[P, rho], d rho/d theta2 = i[Q, rho].
    """
    from . import gaussian as _gaussian

    if not 0 <= noise < np.inf:
        raise ValidationError("noise must be finite and nonnegative")
    if cutoff is None:
        # |zeta| = |theta|/sqrt2 <= theta_max/sqrt2 over the domain disk
        cutoff = _gaussian.auto_cutoff(theta_max / np.sqrt(2.0), noise)
    q_op, p_op = _gaussian.quadrature_operators(cutoff)

    def state(t):
        zeta = (t[0] + 1j * t[1]) / np.sqrt(2.0)
        return DensityOperator(_gaussian.fock_density(zeta, noise, cutoff).matrix)

    def deriv(t, k):
        rho = np.array([state(p).matrix for p in t.reshape(-1, 2)]).reshape(t.shape[:-1] + (cutoff, cutoff))
        if k == 0:
            return -1j * (p_op @ rho - rho @ p_op)
        return 1j * (q_op @ rho - rho @ q_op)

    return ParametricModel(
        name=f"gauss1:{noise:g}",
        param_dim=2,
        hilbert_dim=cutoff,
        state_at=state,
        domain_check=lambda t: np.hypot(t[..., 0], t[..., 1]) <= theta_max,
        domain_box=((-theta_max, theta_max),) * 2,
        derivative_at=deriv,
        meta={"noise": noise, "cutoff": cutoff},
    )


def model_derivatives(model: ParametricModel, theta) -> np.ndarray:
    """Partial derivative matrices of rho_theta, one per parameter.

    ``theta`` is one point (d,) or a stack of points (m, d); the result has
    shape (d, dim, dim) or (m, d, dim, dim).  Analytic derivatives are used
    when the model carries them; otherwise symmetric central differences with
    step ``FD_STEP``, which requires every point to sit at least one step
    inside the domain.  Every returned matrix is symmetrized to exact
    Hermitian; the trace must vanish within 10*h^2.
    """
    t = model._points(theta)
    outside = ~model._in_domain(t)
    if outside.any():
        bad = t if t.ndim == 1 else t[np.flatnonzero(outside)[0]]
        raise ValidationError(f"theta {bad.tolist()} outside domain of {model.name!r}")
    dim = model.hilbert_dim
    out = np.empty(t.shape[:-1] + (model.param_dim, dim, dim), dtype=complex)
    if model.derivative_at is not None:
        for k in range(model.param_dim):
            # a theta-independent (dim, dim) derivative broadcasts over the rows
            out[..., k, :, :] = model.derivative_at(t, k)
        out = (out + out.conj().swapaxes(-1, -2)) / 2
        _check_traceless(out, 1e-10)
        return out
    if not np.all(model.is_interior(t, margin=FD_STEP)):
        raise ValidationError(
            "finite-difference derivatives need an interior point "
            f"(margin {FD_STEP}) for model {model.name!r}"
        )

    def states(points):
        mats = [model.state_at(p).matrix for p in points.reshape(-1, model.param_dim)]
        return np.array(mats).reshape(t.shape[:-1] + (dim, dim))

    for k in range(model.param_dim):
        step = np.zeros(model.param_dim)
        step[k] = FD_STEP
        out[..., k, :, :] = (states(t + step) - states(t - step)) / (2 * FD_STEP)
    out = (out + out.conj().swapaxes(-1, -2)) / 2
    _check_traceless(out, 10 * FD_STEP**2)
    return out


def _check_traceless(m: np.ndarray, tol: float) -> None:
    tr = np.abs(m.diagonal(axis1=-2, axis2=-1).sum(axis=-1))
    if (tr > tol).any():
        raise ValidationError(f"derivative trace {tr[tr > tol].max():.3e} exceeds {tol:.1e}")


def model_from_name(name: str) -> ParametricModel:
    """Resolve a CLI model name: qubit-full, qubit-z0, diag:<dim>, gauss1:<N>."""
    if name == "qubit-full":
        return qubit_family("full")
    if name == "qubit-z0":
        return qubit_family("z0")
    if name.startswith("diag:"):
        try:
            dim = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad diagonal model spec {name!r}") from exc
        return diagonal_family(dim)
    if name.startswith("gauss1:"):
        parts = name.split(":")
        try:
            noise = float(parts[1])
            cutoff = int(parts[2]) if len(parts) > 2 else None
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"bad gauss1 model spec {name!r}") from exc
        return gaussian_displacement_family(noise, cutoff=cutoff)
    raise ValidationError(f"unknown model {name!r}")
