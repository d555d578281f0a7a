import itertools
import tracemalloc

import numpy as np
import pytest

from qest import gaussian
from qest.errors import NumericalError, ValidationError
from qest.gaussian import (
    DEFAULT_TAIL_TOL,
    FOCK_MARGIN,
    TRIAL_BLOCK,
    GaussianSpec,
    ONE_MODE_S,
    _mse_and_se,
    _unitary_exp,
    annihilation_operator,
    auto_cutoff,
    characteristic_function,
    coherent_vector,
    concentrate,
    fock_density,
    gaussian_moment,
    gaussian_protocol_mse,
    half_mirror,
    heterodyne_povm,
    heterodyne_sample,
    number_distribution,
    number_povm,
    one_mode_covariance,
    protocol_trials,
    quadrature_operators,
    smearing_kernel,
    t_density,
    thermal_probabilities,
)


def one_mode_spec(zeta=0j, noise=1.0):
    theta = np.array([np.sqrt(2) * zeta.real, np.sqrt(2) * zeta.imag])
    return GaussianSpec(theta, one_mode_covariance(noise), ONE_MODE_S)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class TestGaussianSpec:
    def test_validation(self):
        spec = one_mode_spec(0.3 + 0.1j, 0.5)
        assert spec.dim == 2

    def test_rejects_nonpsd_pair(self):
        with pytest.raises(ValidationError):
            GaussianSpec(np.zeros(2), 0.1 * np.eye(2), ONE_MODE_S)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            GaussianSpec(np.zeros(2), np.array([[1.0, 0.2], [0.0, 1.0]]), np.zeros((2, 2)))


class TestGaussianMoment:
    def test_second_moment(self):
        spec = one_mode_spec(noise=0.7)
        val = gaussian_moment(spec, (1, 2))
        assert abs(val - (0.0 + 0.5j)) < 1e-15
        assert abs(gaussian_moment(spec, (1, 1)) - 1.2) < 1e-15

    def test_odd_vanishes(self):
        spec = one_mode_spec(noise=0.7)
        assert gaussian_moment(spec, (1, 2, 1)) == 0
        # an odd word has no pairing: exactly zero at every odd degree
        for word in [(1,), (2,), (1, 2, 2, 1, 2), (1,) * 9]:
            assert gaussian_moment(spec, word) == 0

    def test_empty_word_is_one(self):
        # the one empty pairing, whatever the spec
        for spec in (one_mode_spec(0.3 + 0.1j, 0.7), GaussianSpec([0.0], [[0.8]], [[0.0]])):
            assert gaussian_moment(spec, ()) == 1

    def test_classical_kurtosis(self):
        spec = GaussianSpec([0.0], [[0.8]], [[0.0]])
        assert abs(gaussian_moment(spec, (1, 1, 1, 1)) - 3 * 0.8**2) < 1e-15

    def test_double_factorial_exact(self):
        # binary-representable variances make the pairing sum exact in floats
        for v0 in (1.0, 0.5, 2.0):
            spec = GaussianSpec([0.0], [[v0]], [[0.0]])
            for half_deg in (1, 2, 3, 4):
                val = gaussian_moment(spec, (1,) * (2 * half_deg))
                assert val == double_factorial(2 * half_deg - 1) * v0**half_deg

    def test_against_fock_oracle(self):
        # quadrature moments of the displaced thermal state, direct trace
        zeta, noise = 0.4 - 0.3j, 0.8
        spec = one_mode_spec(zeta, noise)
        state = fock_density(zeta, noise, 96)
        q, p = quadrature_operators(96)
        ops = [q - spec.theta[0] * np.eye(96), p - spec.theta[1] * np.eye(96)]
        for word in [(1, 2), (2, 1), (1, 1, 2, 2), (1, 2, 1, 2), (2, 2, 1, 1)]:
            direct = np.trace(state.matrix @ np.linalg.multi_dot([ops[k - 1] for k in word]))
            wick = gaussian_moment(spec, word)
            assert abs(direct - wick) < 1e-8, word

    def test_degree_cap(self):
        spec = one_mode_spec()
        with pytest.raises(ValidationError):
            gaussian_moment(spec, (1,) * 12)


class TestSmearingKernel:
    def test_scalar_case(self):
        a, z = smearing_kernel(np.array([[0.8]]), np.zeros((1, 1)))
        assert abs(a[0, 0] - 1.0 / (2 * 0.8)) < 1e-14
        assert abs(z - np.sqrt(2 * np.pi * 0.8)) < 1e-14

    def test_eigenvalue_condition(self):
        with pytest.raises(NumericalError):
            smearing_kernel(0.4 * np.eye(2), ONE_MODE_S)


class TestTDensity:
    def test_direct_substitution(self):
        spec = GaussianSpec(np.array([0.3, -0.2]), np.eye(2), np.zeros((2, 2)))
        val = t_density(spec.theta, np.eye(2), spec)
        assert abs(val - 1.0 / (4 * np.pi)) < 1e-14

    def test_heterodyne_law(self):
        # v' = |s| + eps approaches the coherent-state POVM: outcome variance
        # per axis tends to noise + 1
        noise = 1.3
        spec = one_mode_spec(0j, noise)
        eps = 1e-9
        vp = (0.5 + eps) * np.eye(2)
        val0 = t_density(np.zeros(2), vp, spec)
        sigma2 = noise + 1.0 + eps
        assert abs(val0 - 1.0 / (2 * np.pi * sigma2)) < 1e-9

    def test_normalization_quadrature(self):
        spec = one_mode_spec(0.2 + 0.1j, 0.6)
        vp = np.array([[0.9, 0.1], [0.1, 0.7]])
        total_cov = spec.v + vp
        sd = np.sqrt(np.linalg.eigvalsh(total_cov).max())
        grid = np.linspace(-6 * sd, 6 * sd, 301)
        step = grid[1] - grid[0]
        gx, gy = np.meshgrid(grid, grid, indexing="ij")
        dens = t_density(spec.theta + np.stack([gx, gy], axis=-1), vp, spec)
        assert dens.shape == (301, 301)
        assert abs(dens.sum() * step * step - 1.0) < 1e-4

    def test_point_array_matches_scalar_calls(self, rng):
        # scalar calls, and the normal density written out, are the oracle
        spec = one_mode_spec(0.2 + 0.1j, 0.6)
        vp = np.array([[0.9, 0.1], [0.1, 0.7]])
        total = spec.v + vp
        points = spec.theta + rng.normal(scale=2.0, size=(2, 3, 2))
        dens = t_density(points, vp, spec)
        assert dens.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            diff = spec.theta - points[idx]
            direct = np.exp(-0.5 * diff @ np.linalg.inv(total) @ diff) / (
                2 * np.pi * np.sqrt(np.linalg.det(total))
            )
            scalar = t_density(points[idx], vp, spec)
            assert isinstance(scalar, float)
            assert abs(dens[idx] - scalar) <= 1e-14 * scalar
            assert abs(scalar - direct) < 1e-14 * direct

    def test_eigenvalue_condition_propagates(self):
        spec = one_mode_spec(0j, 1.0)
        with pytest.raises(NumericalError):
            t_density(np.zeros(2), 0.3 * np.eye(2), spec)


class TestUnitaryExp:
    # scipy.linalg.expm is the oracle here only; the package does not import it

    def test_displacement_operator(self):
        from scipy.linalg import expm

        for dim, zeta in ((16, 0.3 + 0.2j), (80, 0.7 - 0.3j), (192, 1.5 + 1.0j)):
            a = annihilation_operator(dim)
            gen = zeta * a.conj().T - np.conj(zeta) * a
            assert np.max(np.abs(_unitary_exp(1j * gen) - expm(gen))) < 1e-12

    def test_weyl_operator(self):
        from scipy.linalg import expm

        for dim in (16, 128):
            q, p = quadrature_operators(dim)
            for x, y in ((0.3, -0.8), (1.5, 1.2), (-2.0, 0.1)):
                gen = x * q + y * p
                assert np.max(np.abs(_unitary_exp(-gen) - expm(1j * gen))) < 1e-12


class TestFockDensity:
    def test_thermal_diagonal(self):
        state = fock_density(0j, 1.0, 64)
        diag = np.real(np.diag(state.matrix))
        assert abs(diag[0] - 0.5) < 1e-12
        assert abs(diag[1] - 0.25) < 1e-12

    def test_vacuum_limit(self):
        state = fock_density(0j, 0.0, 16)
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.max(np.abs(state.matrix - expected)) < 1e-14

    def test_coherent_poisson(self):
        import math

        state = fock_density(1.0 + 0j, 0.0, 64)
        diag = np.real(np.diag(state.matrix))
        expected = np.exp(-1.0) / np.array([math.factorial(i) for i in range(8)])
        assert np.max(np.abs(diag[:8] - expected)) < 1e-12

    def test_characteristic_function(self, rng):
        # contract: Tr rho exp(i(xQ + yP)) is the displaced Gaussian
        zeta, noise = 0.7 - 0.3j, 1.3
        state = fock_density(zeta, noise, 128)
        for _ in range(5):
            x, y = rng.normal(scale=1.0, size=2)
            lhs = characteristic_function(state, x, y)
            rhs = np.exp(
                1j * np.sqrt(2) * (zeta.real * x + zeta.imag * y)
                - 0.5 * (noise + 0.5) * (x * x + y * y)
            )
            assert abs(lhs - rhs) < 1e-6

    def test_insufficient_cutoff(self):
        with pytest.raises(NumericalError):
            fock_density(0j, 2.0, 8)

    @pytest.mark.parametrize("cutoff", [1, 16, 64])
    @pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
    def test_zero_displacement_is_the_thermal_diagonal(self, cutoff, noise):
        # the displacement builder at zeta = 0 gives the cropped, normalized
        # thermal diagonal bit for bit, or the same truncation-tail raise
        diag = np.diag(thermal_probabilities(noise, cutoff + FOCK_MARGIN)[:cutoff].astype(complex))
        tail = float(1.0 - np.real(np.trace(diag)))
        if tail >= DEFAULT_TAIL_TOL:
            with pytest.raises(NumericalError, match="truncation tail"):
                fock_density(0j, noise, cutoff)
            return
        state = fock_density(0j, noise, cutoff)
        assert state.tail_mass == tail
        assert state.matrix.tobytes() == (diag / np.real(np.trace(diag))).tobytes()

    def test_thermal_probabilities_at_zero_noise(self):
        # the geometric law itself gives the vacuum, with no special case
        expected = np.zeros(12)
        expected[0] = 1.0
        assert np.array_equal(thermal_probabilities(0.0, 12), expected)

    def test_auto_cutoff_power_of_two(self):
        c = auto_cutoff(1.0, 1.0)
        assert c & (c - 1) == 0
        assert fock_density(1.0 + 0j, 1.0, c).tail_mass < 1e-8

    def test_auto_cutoff_at_zero_displacement(self):
        # the smallest power of two, at least 8, whose thermal head holds all
        # but DEFAULT_TAIL_TOL / 10 of the mass
        for noise, cutoff in ((0.0, 8), (0.3, 16), (1.0, 32), (5.0, 128)):
            assert auto_cutoff(0.0, noise) == cutoff


class TestNumberDistribution:
    def test_vacuum(self):
        dist = number_distribution(fock_density(0j, 0.0, 16))
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_thermal_moments(self):
        dist = number_distribution(fock_density(0j, 1.0, 128))
        assert abs(dist.mean() - 1.0) < 1e-6
        assert abs(dist.variance() - 2.0) < 1e-6

    def test_coherent_moments(self):
        dist = number_distribution(fock_density(1.0 + 0j, 0.0, 128))
        assert abs(dist.mean() - 1.0) < 1e-6
        assert abs(dist.variance() - 1.0) < 1e-6

    def test_number_povm_complete(self):
        m = number_povm(12)
        assert m.completeness_residual < 1e-15

    def test_number_povm_elements(self):
        m = number_povm(12)
        assert m.labels == tuple(range(12))
        for k, element in enumerate(m.stack):
            expected = np.zeros((12, 12), dtype=complex)
            expected[k, k] = 1.0
            assert np.array_equal(element, expected)


class TestCoherentResolution:
    def test_identity_on_low_levels(self):
        # quadrature of |a><a|/pi over a radius-6 disc on the first 16 levels;
        # raw polar accumulation, independent of the POVM container
        cutoff = 40
        radius, n_radial, n_angle = 6.0, 240, 128
        dr = radius / n_radial
        dphi = 2 * np.pi / n_angle
        total = np.zeros((cutoff, cutoff), dtype=complex)
        for r in (np.arange(n_radial) + 0.5) * dr:
            vecs = np.array(
                [coherent_vector(r * np.exp(1j * phi), cutoff) for phi in
                 2 * np.pi * np.arange(n_angle) / n_angle]
            )
            total += (r * dr * dphi / np.pi) * (vecs.conj().T @ vecs).T
        block = total[:16, :16]
        assert np.max(np.abs(block - np.eye(16))) < 1e-4

    def test_coherent_rows_match_single_vectors(self):
        alphas = np.array([[0.0, 1.5 - 0.5j], [-2.0j, 0.3 + 4.0j]])
        rows = coherent_vector(alphas, 24)
        assert rows.shape == (2, 2, 24)
        for idx in np.ndindex(alphas.shape):
            assert np.array_equal(rows[idx], coherent_vector(complex(alphas[idx]), 24))
        vacuum = np.zeros(24, dtype=complex)
        vacuum[0] = 1.0
        assert np.array_equal(coherent_vector(0j, 24), vacuum)

    def test_heterodyne_povm_matches_grid_loop(self):
        # the per-point construction: one coherent projector per (r, phi)
        radius, n_radial, n_angle = 5.0, 6, 8
        povm = heterodyne_povm(8, radius=radius, n_radial=n_radial, n_angle=n_angle, completeness_tol=0.5)
        dr, dphi = radius / n_radial, 2 * np.pi / n_angle
        i = 0
        for r in (np.arange(n_radial) + 0.5) * dr:
            for phi in 2 * np.pi * np.arange(n_angle) / n_angle:
                alpha = r * np.exp(1j * phi)
                vec = coherent_vector(alpha, 8)
                outer = np.outer(vec, vec.conj())
                assert povm.labels[i] == complex(alpha)
                # Povm stores each element Hermitian-symmetrized, then weighted
                weight = r * dr * dphi / np.pi
                assert np.array_equal(povm.elements[i], (outer + outer.conj().T) / 2 * weight)
                i += 1
        assert i == len(povm)

    def test_heterodyne_povm_object(self):
        # a disc large enough for the cutoff is a valid gridded POVM;
        # the residual of the weighted stack is certified on construction
        # and stored
        povm = heterodyne_povm(16, radius=8.5, n_radial=340, n_angle=96, completeness_tol=1e-3)
        assert povm.completeness_residual == np.abs(povm.stack.sum(axis=0) - np.eye(16)).max()
        assert povm.completeness_residual < 1e-3

    def test_heterodyne_fisher_on_displacement_family(self):
        # classical Fisher of heterodyne on the displacement family is
        # I / (N + 1) in quadrature-mean coordinates
        from qest.fisher import classical_fisher
        from qest.models import gaussian_displacement_family

        model = gaussian_displacement_family(0.3, cutoff=16)
        povm = heterodyne_povm(16, radius=8.5, n_radial=340, n_angle=96, completeness_tol=1e-3)
        j = classical_fisher(model, np.array([0.1, -0.05]), povm)
        assert np.max(np.abs(j.matrix - np.eye(2) / 1.3)) < 2e-3


class TestHeterodyneSample:
    def test_variance(self):
        samples = heterodyne_sample(0j, 0.0, 10**6, seed=5)
        assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.005

    def test_mean(self):
        samples = heterodyne_sample(2 + 1j, 0.5, 10**6, seed=6)
        assert abs(np.mean(samples.real) - 2.0) < 0.005
        assert abs(np.mean(samples.imag) - 1.0) < 0.005

    def test_seed_reproducible(self):
        a = heterodyne_sample(0.3 + 0.2j, 1.0, 100, seed=9)
        b = heterodyne_sample(0.3 + 0.2j, 1.0, 100, seed=9)
        assert np.array_equal(a, b)


class TestConcentrate:
    def test_single_mode(self):
        res = concentrate(0.5 + 0.5j, 1.0, 1)
        assert res.modes == ((0.5 + 0.5j, 1.0),)

    def test_figure_network(self):
        zeta = 0.3 - 0.7j
        res = concentrate(zeta, 2.0, 4)
        assert np.allclose(res.stage_amplitudes, [zeta, np.sqrt(2) * zeta, 2 * zeta])
        assert res.modes[0] == (2 * zeta, 2.0)
        assert all(m == (0j, 2.0) for m in res.modes[1:])

    def test_stages_match_pairwise_cascade(self):
        # oracle: mirror every pair of every stage and keep the first output
        def cascade(zeta, n):
            stages = [complex(zeta)]
            if n & (n - 1):
                return [complex(zeta), complex(np.sqrt(n) * zeta)]
            amplitudes = [complex(zeta)] * n
            while len(amplitudes) > 1:
                amplitudes = [half_mirror(a, b)[0] for a, b in zip(amplitudes[::2], amplitudes[1::2])]
                stages.append(amplitudes[0])
            return stages

        zeta = 0.37 - 1.21j
        for n in range(2, 1025):
            assert list(concentrate(zeta, 0.5, n).stage_amplitudes) == cascade(zeta, n)

    def test_energy_conservation(self):
        zeta = 1.1 + 0.4j
        for n in (2, 3, 8):
            res = concentrate(zeta, 0.5, n)
            total = sum(abs(m[0]) ** 2 for m in res.modes)
            assert abs(total - n * abs(zeta) ** 2) < 1e-12


def child_streams(seed):
    """The sampler's six streams: heterodyne real and imaginary parts, photon
    counts, baseline real and imaginary parts, baseline chi^2."""
    root = np.random.default_rng(seed)
    return [np.random.default_rng(s) for s in root.integers(0, 2**63 - 1, 6)]


def per_copy_protocol(zeta, noise, n, trials, seed):
    """Per-copy reference for gaussian_protocol_mse: n - 1 geometric photon
    counts and n heterodyne outcomes per trial, drawn from the sampler's
    streams (the chi^2 stream unused)."""
    het_re, het_im, num, base_re, base_im, _ = child_streams(seed)
    sigma = np.sqrt((noise + 1.0) / 2.0)
    alpha = np.sqrt(n) * zeta + sigma * (het_re.standard_normal(trials) + 1j * het_im.standard_normal(trials))
    counts = num.geometric(p=1.0 / (noise + 1.0), size=(trials, n - 1)) - 1
    base = zeta + sigma * (base_re.standard_normal((trials, n)) + 1j * base_im.standard_normal((trials, n)))
    zeta_hat_base = base.mean(axis=1)
    spread = np.abs(base - zeta_hat_base[:, None]) ** 2
    return {
        "zeta_hat": alpha / np.sqrt(n),
        "noise_hat": counts.mean(axis=1),
        "zeta_hat_baseline": zeta_hat_base,
        "noise_hat_baseline": spread.sum(axis=1) / n - 1.0,
    }


ESTIMATORS = ("zeta_hat", "noise_hat", "zeta_hat_baseline", "noise_hat_baseline")


def all_trials(zeta, noise, n, trials, seed):
    """The four estimator arrays of ``protocol_trials``, blocks concatenated."""
    blocks = zip(*protocol_trials(zeta, noise, n, trials, seed))
    return dict(zip(ESTIMATORS, map(np.concatenate, blocks)))


def whole_array_protocol(zeta, noise, n, trials, seed):
    """Whole-array reference for protocol_trials: every stream drawn for all
    trials at once."""
    het_re, het_im, num, base_re, base_im, base_chi = child_streams(seed)
    sigma = np.sqrt((noise + 1.0) / 2.0)
    alpha = np.sqrt(n) * zeta + sigma * (het_re.standard_normal(trials) + 1j * het_im.standard_normal(trials))
    noise_hat = num.negative_binomial(n - 1, 1.0 / (noise + 1.0), size=trials) / (n - 1)
    zeta_hat_base = zeta + sigma / np.sqrt(n) * (base_re.standard_normal(trials) + 1j * base_im.standard_normal(trials))
    noise_hat_base = sigma**2 * base_chi.chisquare(2 * (n - 1), size=trials) / n - 1.0
    return dict(zip(ESTIMATORS, (alpha / np.sqrt(n), noise_hat, zeta_hat_base, noise_hat_base)))


def block_cases():
    """(trials, noise, n, block) at the sampler's block size and at 1000;
    the trial counts end blocks of ``TRIAL_BLOCK`` evenly and unevenly."""
    trial_counts = (1000, TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1, 3 * TRIAL_BLOCK + 5)
    for block, trials, noise, n in itertools.product((TRIAL_BLOCK, 1000), trial_counts, (0.0, 1.5), (2, 40)):
        suffix = "" if block == TRIAL_BLOCK else f"-block{block}"
        yield pytest.param(trials, noise, n, block, id=f"{trials}-{noise}-{n}{suffix}")


class TestBlocksAgainstWholeArray:
    @pytest.mark.parametrize("trials, noise, n, block", block_cases())
    def test_same_draws_and_statistics(self, trials, noise, n, block, monkeypatch):
        monkeypatch.setattr(gaussian, "TRIAL_BLOCK", block)
        zeta, seed = 0.4 - 0.2j, 17
        ref = whole_array_protocol(zeta, noise, n, trials, seed)
        blocks = all_trials(zeta, noise, n, trials, seed)
        for key in ESTIMATORS:
            assert np.array_equal(blocks[key], ref[key]), key
        rep = gaussian_protocol_mse(zeta, noise, n, trials, seed)
        expected = [
            *_mse_and_se(2.0 * np.abs(ref["zeta_hat"] - zeta) ** 2),
            *_mse_and_se((ref["noise_hat"] - noise) ** 2),
            *_mse_and_se(2.0 * np.abs(ref["zeta_hat_baseline"] - zeta) ** 2),
            *_mse_and_se((ref["noise_hat_baseline"] - noise) ** 2),
        ]
        assert [
            rep.mse_theta, rep.se_mse_theta, rep.mse_noise, rep.se_mse_noise,
            rep.baseline_mse_theta, rep.se_baseline_mse_theta, rep.baseline_mse_noise, rep.se_baseline_mse_noise,
        ] == expected

    def test_blocks_are_bounded(self):
        sizes = [len(block[0]) for block in protocol_trials(0.4j, 1.0, 3, 2 * TRIAL_BLOCK + 3, 0)]
        assert sizes == [TRIAL_BLOCK, TRIAL_BLOCK, 3]


class TestSamplerAgainstPerCopy:
    @pytest.mark.parametrize("zeta, noise, n", [(0.4 - 0.2j, 1.5, 2), (0.6 + 0.4j, 0.0, 40)])
    def test_same_law_as_per_copy_draws(self, zeta, noise, n):
        from scipy.stats import ks_2samp

        trials = 20000
        fast = all_trials(zeta, noise, n, trials, seed=101)
        # an independent per-copy run: a different seed, so the samples share no draws
        slow = per_copy_protocol(zeta, noise, n, trials, seed=202)
        for key, part in (
            ("noise_hat", np.real),
            ("zeta_hat_baseline", np.real),
            ("zeta_hat_baseline", np.imag),
            ("noise_hat_baseline", np.real),
        ):
            a, b = part(fast[key]), part(slow[key])
            assert ks_2samp(a, b).pvalue > 1e-3, key
            se_mean = np.sqrt((a.var() + b.var()) / trials)
            assert abs(a.mean() - b.mean()) <= 4 * se_mean, key
            # SE of a sample variance: sqrt((m4 - var^2) / trials)
            se_var = np.sqrt(
                (np.mean((a - a.mean()) ** 4) - a.var() ** 2 + np.mean((b - b.mean()) ** 4) - b.var() ** 2)
                / trials
            )
            assert abs(a.var() - b.var()) <= 4 * se_var, key
        if noise == 0:
            assert not fast["noise_hat"].any()

    @pytest.mark.parametrize("zeta, noise, n", [(0.4 - 0.2j, 1.5, 2), (0.6 + 0.4j, 0.0, 40)])
    def test_protocol_mean_bit_identical(self, zeta, noise, n):
        rep = gaussian_protocol_mse(zeta, noise, n, 5000, seed=303)
        ref = per_copy_protocol(zeta, noise, n, 5000, seed=303)
        assert np.array_equal(all_trials(zeta, noise, n, 5000, seed=303)["zeta_hat"], ref["zeta_hat"])
        mse, se = _mse_and_se(2.0 * np.abs(ref["zeta_hat"] - zeta) ** 2)
        assert rep.mse_theta == mse and rep.se_mse_theta == se


class TestProtocol:
    def test_constants_small_run(self):
        report = gaussian_protocol_mse(0.8 + 0.3j, 1.0, 100, 20000, seed=314)
        n = 100
        # protocol mean error: n * MSE_theta -> 2 (N + 1) = 4
        assert abs(n * report.mse_theta - 4.0) < 3 * n * report.se_mse_theta
        # collective noise error: (n - 1) * MSE -> N (N + 1) = 2
        assert abs((n - 1) * report.mse_noise - 2.0) < 3 * (n - 1) * report.se_mse_noise
        # separable baseline: n * MSE -> (N + 1)^2 = 4
        assert abs(n * report.baseline_mse_noise - 4.0) < 3 * n * report.se_baseline_mse_noise
        assert report.bound_theta == 4.0
        assert report.bound_noise_collective == 2.0
        assert report.bound_noise_separable == 4.0

    def test_reproducible(self):
        a = gaussian_protocol_mse(0.5 + 0j, 0.5, 16, 1000, seed=7)
        b = gaussian_protocol_mse(0.5 + 0j, 0.5, 16, 1000, seed=7)
        assert a.mse_theta == b.mse_theta
        assert a.mse_noise == b.mse_noise

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValidationError):
            gaussian_protocol_mse(0j, 1.0, 10, 10, seed=0)
        with pytest.raises(ValidationError):
            protocol_trials(0j, 1.0, 10, 10, seed=0)


def traced_peak(call) -> int:
    """Peak bytes ``tracemalloc`` sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestProtocolMemory:
    # the squared errors take 32 bytes per trial; the blocks and the CSV
    # writer's slices are bounded whatever the trial count
    TRIALS = 200_000
    LIMIT = 36 * TRIALS + 4 * 2**20

    def test_protocol_mse(self):
        gaussian_protocol_mse(0.6 + 0.4j, 1.0, 100, 1000, seed=1)
        peak = traced_peak(lambda: gaussian_protocol_mse(0.6 + 0.4j, 1.0, 100, self.TRIALS, seed=1))
        assert peak <= self.LIMIT

    def test_gauss_command_with_csv(self, tmp_path):
        from click.testing import CliRunner

        from qest.cli import main

        def gauss(trials, out):
            argv = ["gauss", "--zeta", "0.6,0.4", "--N", "1", "--n", "100", "--trials", str(trials), "--seed", "1"]
            assert CliRunner().invoke(main, argv + ["--out", str(out)], catch_exceptions=False).exit_code == 0

        gauss(1000, tmp_path / "warm")
        peak = traced_peak(lambda: gauss(self.TRIALS, tmp_path / "g"))
        assert (tmp_path / "g.csv").stat().st_size > 0
        assert peak <= self.LIMIT
