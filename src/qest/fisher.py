"""Logarithmic derivatives and Fisher information matrices.

Implements the symmetric and right logarithmic derivatives with their quantum
Fisher matrices, the classical Fisher matrix of a measured model, and the
commutator superoperator D used in the bound analysis.  Both quantum Fisher
matrices come from ``qcore.pair_moments``: the SLD one is v(L) under rho,
exactly symmetric, and the RLD one v + i s of the derivatives under rho^-1,
exactly Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .models import ParametricModel, model_derivatives
from .qcore import DensityOperator, Povm, measure_distribution, pair_moments, trace_products

SUPPORT_TOL = 1e-10
OFF_SUPPORT_TOL = 1e-10
RESIDUAL_TOL = 1e-8
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class FisherMatrix:
    """A d x d Fisher information matrix, Hermitian PSD.

    SLD and classical matrices are real symmetric; RLD ones complex
    Hermitian.  ``dropped_mass`` records outcome probability discarded below
    the floor when the matrix came from a measurement.
    """

    matrix: np.ndarray
    dropped_mass: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValidationError("Fisher matrix must be Hermitian")
        if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -1e-8:
            raise ValidationError("Fisher matrix must be positive semidefinite")


@dataclass(frozen=True)
class LogDerivativeSet:
    """Logarithmic derivative operators and their defining-equation residuals."""

    operators: tuple
    residuals: tuple


def sld_fisher(model: ParametricModel, theta) -> tuple[LogDerivativeSet, FisherMatrix]:
    """Symmetric logarithmic derivatives L_k and their Fisher matrix.

    L_k solves the anticommutator equation (L rho + rho L)/2 = d rho/d theta_k
    in the eigenbasis of rho via L_jk = 2 (d rho)_jk / (lam_j + lam_k).
    Matrix elements between eigenvectors with lam_j + lam_k below the support
    tolerance are zeroed when the derivative vanishes there (gauge freedom)
    and rejected otherwise: the derivative leaves the support and the SLD does
    not exist.  This is the one-row call of ``_sld_stack``.
    """
    t = model.require_domain(theta)
    rho = model.state_at(t)
    ops, residuals, j = _sld_stack(rho.matrix[None], model_derivatives(model, t)[None])
    return LogDerivativeSet(tuple(ops[0]), tuple(residuals[0].tolist())), FisherMatrix(j[0])


def _sld_stack(rhos: np.ndarray, derivs: np.ndarray):
    """SLDs (m, d, dim, dim), their residuals (m, d) and Fisher matrices
    (m, d, d) of the states ``rhos`` (m, dim, dim) with derivatives
    ``derivs`` (m, d, dim, dim), every row with the checks of ``sld_fisher``.
    A residual is the Frobenius norm of (L rho + rho L)/2 - d rho, and
    j[a, b] = tr(rho (L_a L_b + L_b L_a)) / 2, the v of ``pair_moments``."""
    lam, u = np.linalg.eigh(rhos)
    u = u[:, None]
    u_adj = u.conj().swapaxes(-1, -2)
    denom = (lam[:, :, None] + lam[:, None, :])[:, None]
    dr_eig = u_adj @ derivs @ u
    small = np.broadcast_to(denom < SUPPORT_TOL, dr_eig.shape)
    leaves = (small & (np.abs(dr_eig) > OFF_SUPPORT_TOL)).any(axis=(-2, -1))
    if leaves.any():
        k = int(np.argwhere(leaves)[0, 1])
        raise NumericalError(f"derivative {k} leaves the support of rho; SLD undefined")
    ok = ~small
    l_eig = np.zeros_like(dr_eig)
    l_eig[ok] = 2.0 * dr_eig[ok] / np.broadcast_to(denom, dr_eig.shape)[ok]
    l_op = u @ l_eig @ u_adj
    l_op = (l_op + l_op.conj().swapaxes(-1, -2)) / 2
    rho_rows = rhos[:, None]
    defects = (l_op @ rho_rows + rho_rows @ l_op) / 2 - derivs
    residuals = np.linalg.norm(defects, axis=(-2, -1))
    if (residuals > RESIDUAL_TOL).any():
        raise NumericalError(f"SLD residual {residuals.max():.3e} exceeds {RESIDUAL_TOL}")
    return l_op, residuals, pair_moments(rhos, l_op)[0]


def rld_fisher(model: ParametricModel, theta) -> tuple[LogDerivativeSet, FisherMatrix]:
    """Right logarithmic derivatives L_k = rho^{-1} d rho and their Fisher matrix.

    Requires strictly positive rho.  The matrix entries are
    j[k, l] = Tr(rho L_k L_l^*) = Tr(rho^-1 d_k rho d_l rho), which is the
    Hermitian PSD ordering that reproduces the Gaussian-family identity
    inverse(j_rld) = v + i s; they are v + i s of ``pair_moments`` of the
    derivatives under rho^-1.
    """
    t = model.require_domain(theta)
    rho = model.state_at(t)
    lam = np.linalg.eigvalsh(rho.matrix)
    if lam.min() <= SUPPORT_TOL:
        raise NumericalError(
            "RLD undefined: state is pure or rank-deficient "
            f"(min eigenvalue {lam.min():.3e})"
        )
    derivs = model_derivatives(model, t)
    rho_inv = np.linalg.inv(rho.matrix)
    ops = rho_inv @ derivs
    residuals = np.linalg.norm(rho.matrix @ ops - derivs, axis=(-2, -1))
    if residuals.max() > RESIDUAL_TOL:
        raise NumericalError(f"RLD residual {residuals.max():.3e} exceeds {RESIDUAL_TOL}")
    v, s = pair_moments(rho_inv, derivs)
    return LogDerivativeSet(tuple(ops), tuple(residuals.tolist())), FisherMatrix(v + 1j * s)


def classical_fisher(model: ParametricModel, theta, m: Povm) -> FisherMatrix:
    """Fisher information of the outcome distribution of measuring ``m``.

    j[k, l] = sum_w (d_k p_w)(d_l p_w) / p_w with p_w = Tr(rho M_w), one
    product of the scaled scores d p_w / sqrt(p_w) with their transpose.
    Outcomes with mass below the floor 1e-12 are dropped and the discarded
    mass recorded on the result.
    """
    t = model.require_domain(theta)
    rho = model.state_at(t)
    if rho.dim != m.dim:
        raise ValidationError("model and POVM dimension mismatch")
    derivs = model_derivatives(model, t)
    probs = measure_distribution(rho, m).probs
    keep = probs > PROB_FLOOR
    dropped = float(probs[~keep].sum())
    if not keep.any():
        raise NumericalError("all outcomes fall below the probability floor")
    scores = trace_products(m.stack[keep], derivs[:, None]) / np.sqrt(probs[keep])
    return FisherMatrix(scores @ scores.T, dropped_mass=dropped)


def d_map(rho: DensityOperator, x: np.ndarray) -> np.ndarray:
    """Commutator superoperator D at state rho applied to Hermitian x.

    Defined by Tr((D(X) o Y) rho) = -i Tr([X, Y] rho) for all Hermitian Y;
    in the eigenbasis of rho this is
    D(X)_jk = -2i (lam_j - lam_k) / (lam_j + lam_k) X_jk.
    """
    x = np.asarray(x, dtype=complex)
    if np.max(np.abs(x - x.conj().T)) > 1e-10:
        raise ValidationError("d_map input must be Hermitian")
    lam, u = np.linalg.eigh(rho.matrix)
    if lam.min() <= SUPPORT_TOL:
        raise NumericalError("d_map requires strictly positive rho")
    x_eig = u.conj().T @ x @ u
    num = lam[:, None] - lam[None, :]
    den = lam[:, None] + lam[None, :]
    out_eig = -2j * (num / den) * x_eig
    out = u @ out_eig @ u.conj().T
    return (out + out.conj().T) / 2
