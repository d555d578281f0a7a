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
from .qcore import DensityOperator, density_stack

FD_STEP = 1e-5
# radius of the gauss1 domain disk |theta| <= GAUSS1_THETA_MAX
GAUSS1_THETA_MAX = 3.0

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


@dataclass(frozen=True)
class ParametricModel:
    """A map theta -> density operator with domain and derivative metadata.

    Every callable of a model takes a stack of parameter points, shape
    (..., d); one point (d,) is the one-row case.  A user-defined model must
    therefore index coordinates as ``t[..., k]``, never ``t[k]``.

    - ``states(t)`` maps points (..., d) to raw state matrices
      (..., dim, dim), each a valid density matrix for a point passing
      ``domain_check``; ``state_at`` and ``state_stack`` validate them.
    - ``domain_check(t)`` maps points (..., d) to booleans (...).
    - ``derivatives(t)``, when present, gives the analytic partial
      derivatives (..., d, dim, dim), or one stack (d, dim, dim) when they do
      not depend on theta.  Without it ``model_derivatives`` takes central
      finite differences of ``states``.
    - ``domain_box`` bounds the domain per axis for grid searches.

    ``state_stack``, ``is_interior`` and ``model_derivatives`` take one point
    or a stack alike; ``require_domain`` is their one-point case.
    """

    name: str
    param_dim: int
    hilbert_dim: int
    states: Callable[[np.ndarray], np.ndarray]
    domain_check: Callable[[np.ndarray], np.ndarray]
    domain_box: tuple
    derivatives: Callable[[np.ndarray], np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    def require_domain(self, theta) -> np.ndarray:
        """One point (d,) checked to lie in the domain."""
        t = self._points(theta)
        if t.ndim != 1:
            raise ValidationError(f"model {self.name!r} expects {self.param_dim} parameters, got shape {t.shape}")
        return self._inside(t)

    def state_at(self, theta) -> DensityOperator:
        """The state at one point (d,)."""
        return DensityOperator(self.states(np.asarray(theta, dtype=float)))

    def state_stack(self, points) -> np.ndarray:
        """Density matrices (..., dim, dim) at the points (..., d), each
        validated and normalized by the DensityOperator rules."""
        points = np.asarray(points, dtype=float)
        raw = np.asarray(self.states(points))
        dim = self.hilbert_dim
        if raw.shape != points.shape[:-1] + (dim, dim):
            raise ValidationError(
                f"states of model {self.name!r} must map points (..., d) to matrices (..., {dim}, {dim}): "
                f"got shape {raw.shape} for points {points.shape}"
            )
        return density_stack(raw)

    def _points(self, theta) -> np.ndarray:
        """``theta`` as one point (d,) or a stack of points (m, d)."""
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if t.ndim > 2 or t.shape[-1] != self.param_dim:
            raise ValidationError(f"model {self.name!r} expects {self.param_dim} parameters, got shape {t.shape}")
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

    def _inside(self, t: np.ndarray) -> np.ndarray:
        """The points, if all lie in the domain; else the first outside raises."""
        outside = ~self._in_domain(t)
        if outside.any():
            bad = t if t.ndim == 1 else t[np.flatnonzero(outside)[0]]
            raise ValidationError(f"theta {bad.tolist()} outside domain of {self.name!r}")
        return t

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


def _qubit_states(x, y, z) -> np.ndarray:
    """The matrices [[1+x, y+iz], [y-iz, 1-x]]/2 at broadcast coordinates."""
    out = np.empty(np.broadcast(x, y, z).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 1 + x
    out[..., 1, 1] = 1 - x
    out[..., 0, 1] = y + 1j * z
    out[..., 1, 0] = y - 1j * z
    return out / 2


def qubit_family(kind: str = "full") -> ParametricModel:
    """Qubit state families.

    ``full``: theta = (x, y, z) with rho = [[1+x, y+iz], [y-iz, 1-x]]/2 on the
    closed unit ball.  ``z0``: the two-parameter slice z = 0.  Analytic
    derivatives are attached (constant in theta).
    """
    if kind == "full":
        d, states = 3, lambda t: _qubit_states(t[..., 0], t[..., 1], t[..., 2])
    elif kind == "z0":
        d, states = 2, lambda t: _qubit_states(t[..., 0], t[..., 1], 0.0)
    else:
        raise ValidationError(f"unknown qubit family kind {kind!r}")
    derivs = np.array([SIGMA_Z, SIGMA_X, [[0, 1j], [-1j, 0]]][:d]) / 2
    return ParametricModel(
        name=f"qubit-{kind}",
        param_dim=d,
        hilbert_dim=2,
        states=states,
        domain_check=_in_unit_ball,
        domain_box=((-1.0, 1.0),) * d,
        derivatives=lambda t: derivs,
    )


def diagonal_family(dim: int = 2) -> ParametricModel:
    """Commutative family diag(theta_1, .., theta_{dim-1}, 1 - sum theta).

    The classical oracle model: every quantum Fisher quantity computed on it
    must collapse to the classical Fisher information of the probability
    vector.
    """
    if dim < 2:
        raise ValidationError("diagonal family needs dim >= 2")
    d = dim - 1
    diag = np.arange(dim)

    def states(t):
        out = np.zeros(t.shape[:-1] + (dim, dim), dtype=complex)
        out[..., diag, diag] = np.concatenate([t, 1.0 - t.sum(axis=-1, keepdims=True)], axis=-1)
        return out

    # d rho / d theta_k = |k><k| - |dim-1><dim-1|, constant in theta
    derivs = np.zeros((d, dim, dim), dtype=complex)
    derivs[diag[:d], diag[:d], diag[:d]] = 1.0
    derivs[:, d, d] = -1.0

    def check(t):
        return (t > 0).all(axis=-1) & (t.sum(axis=-1) < 1.0)

    return ParametricModel(
        name=f"diag:{dim}",
        param_dim=d,
        hilbert_dim=dim,
        states=states,
        domain_check=check,
        domain_box=((0.0, 1.0),) * d,
        derivatives=lambda t: derivs,
    )


def gaussian_displacement_family(noise: float, cutoff: int | None = None) -> ParametricModel:
    """One-mode Gaussian displacement family on a truncated Fock space.

    Parameters are the quadrature means theta = (sqrt2 Re zeta, sqrt2 Im zeta)
    at fixed thermal noise ``noise``; the Fock cutoff is auto-selected for the
    domain radius unless given.  Derivatives are the exact displacement
    generators d rho/d theta1 = -i[P, rho], d rho/d theta2 = i[Q, rho].
    """
    from . import gaussian  # here, so the qubit and diag models do not load it

    if not 0 <= noise < np.inf:
        raise ValidationError("noise must be finite and nonnegative")
    if cutoff is None:
        # |zeta| = |theta|/sqrt2 <= GAUSS1_THETA_MAX/sqrt2 over the domain disk
        cutoff = gaussian.auto_cutoff(GAUSS1_THETA_MAX / np.sqrt(2.0), noise)
    q_op, p_op = gaussian.quadrature_operators(cutoff)

    def states(t):
        # each Fock state is built from scratch, one point at a time
        mats = [gaussian.fock_density((p[0] + 1j * p[1]) / np.sqrt(2.0), noise, cutoff).matrix
                for p in t.reshape(-1, 2)]
        return np.array(mats).reshape(t.shape[:-1] + (cutoff, cutoff))

    def derivatives(t):
        rho = density_stack(states(t))
        return np.stack([-1j * (p_op @ rho - rho @ p_op), 1j * (q_op @ rho - rho @ q_op)], axis=-3)

    return ParametricModel(
        name=f"gauss1:{noise:g}",
        param_dim=2,
        hilbert_dim=cutoff,
        states=states,
        domain_check=lambda t: np.hypot(t[..., 0], t[..., 1]) <= GAUSS1_THETA_MAX,
        domain_box=((-GAUSS1_THETA_MAX, GAUSS1_THETA_MAX),) * 2,
        derivatives=derivatives,
        meta={"noise": noise, "cutoff": cutoff},
    )


def model_derivatives(model: ParametricModel, theta) -> np.ndarray:
    """Partial derivative matrices of rho_theta, one per parameter.

    ``theta`` is one point (d,) or a stack of points (m, d); the result has
    shape (d, dim, dim) or (m, d, dim, dim).  Analytic derivatives are used
    when the model carries them; otherwise symmetric central differences with
    step ``FD_STEP``, which requires every point to sit at least one step
    inside the domain.  Every returned matrix is symmetrized to exact
    Hermitian; its trace must vanish within 1e-8 of its Frobenius norm
    (analytic) or within 10*h^2 (finite differences).
    """
    t = model._inside(model._points(theta))
    dim = model.hilbert_dim
    shape = t.shape[:-1] + (model.param_dim, dim, dim)
    if model.derivatives is not None:
        out = np.asarray(model.derivatives(t), dtype=complex)
        if out.shape not in (shape, shape[-3:]):
            raise ValidationError(
                f"derivatives of model {model.name!r} must map points (..., d) to (..., d, dim, dim) "
                f"or give one (d, dim, dim) stack: got shape {out.shape} for points {t.shape}"
            )
        # a theta-independent (d, dim, dim) stack broadcasts over the rows
        out = np.broadcast_to(out, shape)
        out = (out + out.conj().swapaxes(-1, -2)) / 2
        # relative to each derivative's own norm, so exact and difference-quotient
        # derivatives pass at any scale
        _check_traceless(out, 1e-8 * np.linalg.norm(out, axis=(-2, -1)))
        return out
    if not np.all(model.is_interior(t, margin=FD_STEP)):
        raise ValidationError(
            "finite-difference derivatives need an interior point "
            f"(margin {FD_STEP}) for model {model.name!r}"
        )
    # row k of ``steps`` moves parameter k: points (..., d, d) give (..., d, dim, dim)
    steps = np.eye(model.param_dim) * FD_STEP
    centre = t[..., None, :]
    out = (model.state_stack(centre + steps) - model.state_stack(centre - steps)) / (2 * FD_STEP)
    out = (out + out.conj().swapaxes(-1, -2)) / 2
    _check_traceless(out, 10 * FD_STEP**2)
    return out


def _check_traceless(m: np.ndarray, bound) -> None:
    """Every derivative's trace within ``bound`` (a scalar or one per derivative)."""
    tr = np.abs(m.diagonal(axis1=-2, axis2=-1).sum(axis=-1))
    bound = np.broadcast_to(bound, tr.shape)
    over = tr > bound
    if over.any():
        raise ValidationError(f"derivative trace {tr[over][0]:.3e} exceeds {bound[over][0]:.1e}")


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
