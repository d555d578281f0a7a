"""Quantum Gaussian machinery.

Abstract canonical-commutation Gaussian specs with moments by pairing
enumeration, the Gaussian-smearing POVM outcome density, truncated-Fock
numerics for one-mode displaced thermal states, number and heterodyne
measurements, the beam-splitter concentration network, and the Monte Carlo
estimation protocol that exploits it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .qcore import OutcomeDistribution, Povm, check_draws, hermitian_function

MOMENT_DEGREE_CAP = 10
DEFAULT_TAIL_TOL = 1e-8
FOCK_MARGIN = 64

# one-mode commutator matrix for quadrature means theta = (sqrt2 Re zeta, sqrt2 Im zeta)
ONE_MODE_S = np.array([[0.0, 0.5], [-0.5, 0.0]])


def one_mode_covariance(noise: float) -> np.ndarray:
    return (noise + 0.5) * np.eye(2)


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector, covariance and commutator matrix of a CCR Gaussian state.

    ``v`` must be symmetric and ``s`` antisymmetric (1e-12), with
    v + i s >= 0 within 1e-10.
    """

    theta: np.ndarray
    v: np.ndarray
    s: np.ndarray

    def __init__(self, theta, v, s):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        v = np.asarray(v, dtype=float)
        s = np.asarray(s, dtype=float)
        d = theta.size
        if v.shape != (d, d) or s.shape != (d, d):
            raise ValidationError("v and s must be d x d for a d-dim mean")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise ValidationError("v must be symmetric")
        if np.max(np.abs(s + s.T)) > 1e-12:
            raise ValidationError("s must be antisymmetric")
        if np.linalg.eigvalsh(v + 1j * s).min() < -1e-10:
            raise ValidationError("v + i s must be positive semidefinite")
        for name, arr in (("theta", theta), ("v", (v + v.T) / 2), ("s", (s - s.T) / 2)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.theta.size


def _pairings(positions: tuple):
    """Yield perfect matchings as tuples of position pairs (p, q), p < q."""
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    for i, second in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _pairings(remaining):
            yield ((first, second),) + tail


def gaussian_moment(spec: GaussianSpec, indices) -> complex:
    """Centered moment of the Gaussian state for an index word.

    Sums over all (2n-1)!! pairings of the 2n word positions, each
    contributing the product of pair factors v[k, j] + i s[k, j] taken in
    position order; an odd word has no pairing and gives zero, the empty
    word its one empty pairing and one.
    """
    word = [int(k) - 1 for k in indices]
    if any(k < 0 or k >= spec.dim for k in word):
        raise ValidationError("moment index out of range (indices are 1-based)")
    if len(word) > MOMENT_DEGREE_CAP:
        raise ValidationError(f"moment degree {len(word)} exceeds cap {MOMENT_DEGREE_CAP}")
    m2 = spec.v + 1j * spec.s
    total = 0.0 + 0.0j
    for pairing in _pairings(tuple(range(len(word)))):
        term = 1.0 + 0.0j
        for p, q in pairing:
            term *= m2[word[p], word[q]]
        total += term
    return total


def smearing_kernel(v_prime: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, float]:
    """Exponent matrix and normalization of the Gaussian-smearing POVM density.

    Returns (A, Z) such that the POVM density at displacement theta' is
    exp(-(X - theta')^T A (X - theta')) / Z, from one eigendecomposition
    i m = U diag(lam) U^dagger of m = v'^{-1/2} s v'^{-1/2}:
    A = v'^{-1/2} f(|m|) v'^{-1/2} with f(x) = log((1+x)/(1-x))/(4x) and
    |m| = U diag(|lam|) U^dagger, and
    Z = (2 pi)^{d/2} det(v')^{1/2} prod(1 - lam^2)^{1/4}.  The eigenvalues of
    |m| must all be below one or the kernel diverges.
    A v' so large or so small that A is not finite or Z is not in (0, inf)
    raises NumericalError.
    """
    v_prime = np.asarray(v_prime, dtype=float)
    s = np.asarray(s, dtype=float)
    d = v_prime.shape[0]
    # an extreme v' overflows or underflows here; A and Z are checked below
    with np.errstate(all="ignore"):

        def isqrt(w):
            if w.min() <= 0:
                raise ValidationError("v' must be positive definite")
            return w**-0.5

        v_isqrt = hermitian_function((v_prime + v_prime.T) / 2, isqrt)
        lam, u = np.linalg.eigh(1j * (v_isqrt @ s @ v_isqrt))
        wa = np.abs(lam)
        if wa.max() >= 1.0 - 1e-12:
            raise NumericalError(
                "eigenvalue condition violated: |v'^{-1/2} s v'^{-1/2}| has an "
                f"eigenvalue {wa.max():.6f} >= 1"
            )
        # f is continuously 1/2 at 0, where its series replaces the 0/0
        f = np.where(wa < 1e-6, 0.5 * (1.0 + wa * wa / 3.0), np.log((1.0 + wa) / (1.0 - wa)) / (4.0 * wa))
        a = v_isqrt @ np.real((u * f) @ u.conj().T) @ v_isqrt
        z = (2 * np.pi) ** (d / 2) * np.sqrt(np.linalg.det(v_prime)) * np.prod(1.0 - lam**2) ** 0.25
    if not (np.isfinite(a).all() and 0 < z < np.inf):
        raise NumericalError(f"smearing kernel out of range (Z = {z:.3e}): v' is too large or too small")
    return a, z


def t_density(theta_prime, v_prime, spec: GaussianSpec):
    """Outcome density of the smearing POVM at theta' under the spec's state.

    The density is the normal law exp(-(th - th')^T (v + v')^{-1} (th - th')/2)
    / ((2 pi)^{d/2} det(v + v')^{1/2}).  ``theta_prime`` is one point (d,),
    giving a float, or an array of points (..., d), giving an array of shape
    (...); the kernel is validated once per call.
    """
    points = np.atleast_1d(np.asarray(theta_prime, dtype=float))
    v_prime = np.asarray(v_prime, dtype=float)
    if points.shape[-1] != spec.dim or v_prime.shape != (spec.dim, spec.dim):
        raise ValidationError("theta' and v' must match the spec dimension")
    if np.max(np.abs(v_prime - v_prime.T)) > 1e-12:
        raise ValidationError("v' must be symmetric")
    smearing_kernel(v_prime, spec.s)  # validates positivity + eigenvalue condition
    total = spec.v + v_prime
    sign, logdet = np.linalg.slogdet(total)
    if sign <= 0:
        raise NumericalError("v + v' is numerically singular")
    d = spec.dim
    diff = (spec.theta - points).reshape(-1, d)
    quad = (diff * np.linalg.solve(total, diff.T).T).sum(axis=1).reshape(points.shape[:-1])
    dens = np.exp(-0.5 * quad) / ((2 * np.pi) ** (d / 2) * np.exp(0.5 * logdet))
    return float(dens) if points.ndim == 1 else dens


# ---------------------------------------------------------------------------
# truncated Fock-space numerics
# ---------------------------------------------------------------------------


def annihilation_operator(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def quadrature_operators(dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = annihilation_operator(dim)
    q = (a + a.conj().T) / np.sqrt(2.0)
    p = 1j * (a.conj().T - a) / np.sqrt(2.0)
    return q, p


def coherent_vector(alpha, dim: int) -> np.ndarray:
    """Fock amplitudes of the coherent state |alpha> on ``dim`` levels; an
    array of alphas gives one row of amplitudes per alpha."""
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    k = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim, dtype=float)))))
    with np.errstate(divide="ignore", invalid="ignore"):
        # alpha = 0 gives log|alpha| = -inf: the vacuum amplitude is 1, the rest 0
        log_pow = np.where(k == 0, 0.0, k * np.log(np.abs(alpha)))
    log_mag = log_pow - 0.5 * log_fact - 0.5 * np.abs(alpha) ** 2
    phase = np.exp(1j * k * np.angle(alpha))
    return np.exp(log_mag) * phase


@dataclass(frozen=True)
class FockState:
    """Truncated Fock-basis density matrix with its recorded tail mass."""

    cutoff: int
    matrix: np.ndarray
    tail_mass: float


def thermal_probabilities(noise: float, dim: int) -> np.ndarray:
    k = np.arange(dim)
    return (noise / (noise + 1.0)) ** k / (noise + 1.0)


def _displaced_thermal(zeta: complex, noise: float, work: int) -> np.ndarray:
    """D(zeta) rho_thermal D(zeta)^dagger on ``work`` Fock levels."""
    a = annihilation_operator(work)
    # D(zeta) = exp(zeta a^dagger - zeta* a) = exp(-i h), h = i (zeta a^dagger - zeta* a)
    disp = hermitian_function(1j * (zeta * a.conj().T - np.conj(zeta) * a), lambda w: np.exp(-1j * w))
    return (disp * thermal_probabilities(noise, work)) @ disp.conj().T


def fock_density(zeta: complex, noise: float, cutoff: int) -> FockState:
    """Displaced thermal state in the Fock basis.

    Built as D(zeta) rho_thermal D(zeta)^dagger on a working space with edge
    margin, then cropped to ``cutoff``.  The mass lost to truncation must stay
    below ``DEFAULT_TAIL_TOL``; the cropped matrix is renormalized to unit
    trace.
    """
    if noise < 0:
        raise ValidationError("noise must be nonnegative")
    if cutoff < 1:
        raise ValidationError("cutoff must be positive")
    margin = max(FOCK_MARGIN, int(8 * abs(zeta) ** 2))
    cropped = _displaced_thermal(zeta, noise, cutoff + margin)[:cutoff, :cutoff]
    tail = float(1.0 - np.real(np.trace(cropped)))
    if tail >= DEFAULT_TAIL_TOL:
        raise NumericalError(
            f"insufficient cutoff {cutoff}: truncation tail {tail:.3e} >= {DEFAULT_TAIL_TOL:.1e}"
        )
    cropped = (cropped + cropped.conj().T) / 2
    cropped = cropped / np.real(np.trace(cropped))
    return FockState(cutoff=cutoff, matrix=cropped, tail_mass=tail)


def auto_cutoff(zeta_mag: float, noise: float) -> int:
    """Smallest power-of-two Fock cutoff keeping the truncation tail below
    ``DEFAULT_TAIL_TOL``."""
    work = 512
    cum = np.cumsum(np.real(np.diag(_displaced_thermal(zeta_mag, noise, work))))
    needed = int(np.searchsorted(cum, 1.0 - DEFAULT_TAIL_TOL * 0.1) + 1)
    cutoff = 1
    while cutoff < needed:
        cutoff *= 2
    if cutoff > work:
        raise NumericalError("auto cutoff exceeds the supported working dimension")
    return max(cutoff, 8)


def characteristic_function(state: FockState, x: float, y: float) -> complex:
    """Tr rho exp(i (x Q + y P)) on the truncated space."""
    q, p = quadrature_operators(state.cutoff)
    weyl = hermitian_function(-(x * q + y * p), lambda w: np.exp(-1j * w))
    return complex(np.trace(state.matrix @ weyl))


def number_distribution(state: FockState) -> OutcomeDistribution:
    """Photon-number statistics probs[k] = <k|rho|k>."""
    probs = np.clip(np.real(np.diag(state.matrix)), 0.0, None)
    return OutcomeDistribution(tuple(range(state.cutoff)), probs / probs.sum())


def number_povm(cutoff: int):
    """Projective number measurement on the truncated space."""
    k = np.arange(cutoff)
    elements = np.zeros((cutoff, cutoff, cutoff), dtype=complex)
    elements[k, k, k] = 1.0
    return Povm(elements)


def heterodyne_povm(cutoff: int, radius: float, n_radial: int, n_angle: int, completeness_tol: float = 1e-3):
    """Gridded coherent-state POVM |alpha><alpha|/pi on a polar grid.

    Labels are the complex grid points; each element is w |alpha><alpha|,
    with w = r dr dphi / pi the quadrature weight of its grid point.  The
    completeness residual on the truncated space is certified against
    ``completeness_tol`` and stored on the result; the disc must cover the
    cutoff (radius of roughly sqrt(cutoff) + 4 or more) or the top Fock
    levels fail the certificate.
    """
    radii = (np.arange(n_radial) + 0.5) * (radius / n_radial)
    angles = 2 * np.pi * np.arange(n_angle) / n_angle
    dr = radius / n_radial
    dphi = 2 * np.pi / n_angle
    # radius-major grid: one row per (r, phi)
    alphas = (radii[:, None] * np.exp(1j * angles)).ravel()
    vecs = coherent_vector(alphas, cutoff)
    elements = vecs[:, :, None] * vecs.conj()[:, None, :]
    weights = np.repeat(radii * dr * dphi / np.pi, n_angle)
    return Povm(elements, labels=alphas.tolist(), weights=weights, completeness_tol=completeness_tol)


def heterodyne_sample(zeta: complex, noise: float, count: int, seed: int) -> np.ndarray:
    """Heterodyne outcomes: complex Gaussians with mean zeta, E|a - zeta|^2 = noise + 1.

    Sampled analytically from the known outcome law; no Fock-space work.
    """
    if noise < 0:
        raise ValidationError("noise must be nonnegative")
    if count < 1:
        raise ValidationError("count must be positive")
    rng = np.random.default_rng(seed)
    sigma = np.sqrt((noise + 1.0) / 2.0)
    return zeta + sigma * (rng.standard_normal(count) + 1j * rng.standard_normal(count))


# ---------------------------------------------------------------------------
# beam-splitter concentration and the estimation protocol
# ---------------------------------------------------------------------------


def half_mirror(zeta_a: complex, zeta_b: complex) -> tuple[complex, complex]:
    """50/50 mirror on mean amplitudes: (a, b) -> ((a+b)/sqrt2, (a-b)/sqrt2)."""
    return (zeta_a + zeta_b) / np.sqrt(2.0), (zeta_a - zeta_b) / np.sqrt(2.0)


@dataclass(frozen=True)
class ConcentrationResult:
    """Output modes of the concentration network plus the amplitude trace."""

    modes: tuple  # ((zeta, noise), ...) with the concentrated mode first
    stage_amplitudes: tuple  # (zeta, sqrt2 zeta, 2 zeta, ..) for power-of-two n


def concentrate(zeta: complex, noise: float, n: int) -> ConcentrationResult:
    """Concentrate n identical displaced thermal modes into one.

    The passive network maps the n-fold product state to a single mode with
    amplitude sqrt(n) zeta and n - 1 zero-mean thermal modes, preserving the
    per-mode noise.  For n a power of two the explicit half-mirror cascade is
    traced: each stage pairs equal-amplitude carriers, doubling the carried
    energy.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    modes = ((np.sqrt(n) * zeta, noise),) + tuple((0.0 + 0.0j, noise) for _ in range(n - 1))
    stages = [complex(zeta)]
    if n > 1 and (n & (n - 1)) == 0:
        # every carrier of a stage holds the same amplitude, so one mirror of
        # an equal pair gives the next stage's amplitude
        for _ in range(int(n).bit_length() - 1):
            stages.append(half_mirror(stages[-1], stages[-1])[0])
    elif n > 1:
        stages.append(complex(np.sqrt(n) * zeta))
    return ConcentrationResult(modes=modes, stage_amplitudes=tuple(stages))


@dataclass(frozen=True)
class GaussianProtocolReport:
    """Monte Carlo error report for the concentration protocol and its baseline."""

    mse_theta: float  # protocol: sum over both quadrature-mean axes
    se_mse_theta: float
    mse_noise: float
    se_mse_noise: float
    baseline_mse_theta: float
    se_baseline_mse_theta: float
    baseline_mse_noise: float
    se_baseline_mse_noise: float
    bound_theta: float  # 2 (N + 1), the quadrature-mean bound per copy
    bound_noise_collective: float  # N (N + 1)
    bound_noise_separable: float  # (N + 1)^2
    relative_se_flag: bool


TRIAL_BLOCK = 8192  # trials drawn and reduced at a time by the protocol sampler


def _mse_and_se(sq_errors: np.ndarray) -> tuple[float, float]:
    mse = float(sq_errors.mean())
    se = float(sq_errors.std(ddof=1) / np.sqrt(sq_errors.size))
    return mse, se


def protocol_trials(zeta: complex, noise: float, n: int, trials: int, seed: int):
    """Per-trial estimators of the concentration protocol and its baseline.

    Yields blocks of at most ``TRIAL_BLOCK`` trials, each the arrays
    ``(zeta_hat, noise_hat, zeta_hat_base, noise_hat_base)``; see
    ``gaussian_protocol_mse`` for the estimators and their laws.  Each drawn
    quantity has its own stream, seeded from ``seed``'s generator in this
    order: heterodyne real and imaginary parts, photon counts, baseline real
    and imaginary parts, baseline chi^2.  A block takes the next slice of
    every stream, so the draws do not depend on the block size.  Counts
    NumPy cannot draw (mean N (n - 1) near 1e18) raise NumericalError.
    """
    if n < 2:
        raise ValidationError("protocol needs n >= 2")
    if trials < 1000:
        raise ValidationError("at least 1000 trials required")
    if not 0 <= noise < np.inf:
        raise ValidationError("noise must be finite and nonnegative")
    if not np.isfinite(zeta):
        raise ValidationError("zeta must be finite")
    check_draws(seed, n=n, trials=trials)
    return _protocol_blocks(zeta, noise, n, trials, seed)


def _protocol_blocks(zeta, noise, n, trials, seed):
    root = np.random.default_rng(seed)
    het_re, het_im, num, base_re, base_im, base_chi = map(np.random.default_rng, root.integers(0, 2**63 - 1, 6))

    amp = np.sqrt(n) * zeta
    sigma = np.sqrt((noise + 1.0) / 2.0)
    for start in range(0, trials, TRIAL_BLOCK):
        size = min(TRIAL_BLOCK, trials - start)
        # protocol: heterodyne on rho_{sqrt n zeta, N}
        alpha = amp + sigma * (het_re.standard_normal(size) + 1j * het_im.standard_normal(size))
        zeta_hat = alpha / np.sqrt(n)
        # total photon count on the n-1 thermal modes (all zero at N = 0)
        try:
            noise_hat = num.negative_binomial(n - 1, 1.0 / (noise + 1.0), size=size) / (n - 1)
        except ValueError as exc:
            raise NumericalError(f"photon counts out of the sampler's range at N = {noise:g}, n = {n}") from exc
        # baseline: sample mean and squared spread of n heterodyne outcomes
        zeta_hat_base = zeta + sigma / np.sqrt(n) * (
            base_re.standard_normal(size) + 1j * base_im.standard_normal(size)
        )
        # divisor n: makes n * MSE equal (N+1)^2 at every n (bias^2 + variance)
        noise_hat_base = sigma**2 * base_chi.chisquare(2 * (n - 1), size=size) / n - 1.0
        yield zeta_hat, noise_hat, zeta_hat_base, noise_hat_base


def gaussian_protocol_mse(zeta: complex, noise: float, n: int, trials: int, seed: int) -> GaussianProtocolReport:
    """Simulate the concentration protocol and the per-copy baseline.

    Protocol trial: concentrate the n copies, heterodyne the amplified mode
    (zeta_hat = outcome / sqrt(n)) and count photons on the n - 1 thermal
    modes (noise_hat = mean count).  Baseline trial: heterodyne every copy,
    estimate the mean by the sample average and the noise by the mean squared
    spread minus the vacuum unit.  Mean-square errors for the mean parameter
    are reported in quadrature units theta = (sqrt2 Re zeta, sqrt2 Im zeta),
    i.e. 2 |zeta_hat - zeta|^2 per trial.

    Each trial draws its estimators from their exact joint law instead of
    the n per-copy outcomes, so time is O(trials) for every n.  The trials
    come in blocks from ``protocol_trials``; memory is the four squared
    errors, 32 bytes per trial, and the rest is bounded by the block.
    The summed count of n - 1 geometric thermal modes with mean N is negative
    binomial NB(n - 1, 1/(N + 1)).  For the baseline's n iid complex Gaussians
    (variance sigma^2 = (N + 1)/2 per axis) the sample mean is
    zeta + sigma/sqrt(n) (Z1 + i Z2), and the summed squared spread is
    sigma^2 chi^2_{2(n-1)}, independent of the mean (Cochran's theorem).
    """
    blocks = protocol_trials(zeta, noise, n, trials, seed)  # validates before sq is allocated
    # rows: protocol mean, protocol noise, baseline mean, baseline noise
    sq = np.empty((4, trials))
    start = 0
    for zeta_hat, noise_hat, zeta_hat_base, noise_hat_base in blocks:
        block = slice(start, start + zeta_hat.size)
        sq[0, block] = 2.0 * np.abs(zeta_hat - zeta) ** 2
        sq[1, block] = (noise_hat - noise) ** 2
        sq[2, block] = 2.0 * np.abs(zeta_hat_base - zeta) ** 2
        sq[3, block] = (noise_hat_base - noise) ** 2
        start = block.stop

    mse_theta, se_theta = _mse_and_se(sq[0])
    mse_noise, se_noise = _mse_and_se(sq[1])
    mse_theta_b, se_theta_b = _mse_and_se(sq[2])
    mse_noise_b, se_noise_b = _mse_and_se(sq[3])
    rel_flag = any(
        se > 0.05 * mse
        for mse, se in [
            (mse_theta, se_theta),
            (mse_noise, se_noise),
            (mse_noise_b, se_noise_b),
        ]
        if mse > 0
    )
    return GaussianProtocolReport(
        mse_theta=mse_theta,
        se_mse_theta=se_theta,
        mse_noise=mse_noise,
        se_mse_noise=se_noise,
        baseline_mse_theta=mse_theta_b,
        se_baseline_mse_theta=se_theta_b,
        baseline_mse_noise=mse_noise_b,
        se_baseline_mse_noise=se_noise_b,
        bound_theta=2.0 * (noise + 1.0),
        bound_noise_collective=noise * (noise + 1.0),
        bound_noise_separable=(noise + 1.0) ** 2,
        relative_se_flag=rel_flag,
    )
