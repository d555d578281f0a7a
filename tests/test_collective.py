import numpy as np
import pytest

from qest.bounds import qubit_c1
from qest.clt import CollectiveSpec, build_collective_ops
from qest.collective import (
    _mle_rows,
    ball_grid,
    build_collective_povm,
    collective_estimator_check,
    default_v_prime,
    mixed_basis_povm,
    mle,
    mse_report,
    optimal_qubit_povm,
    two_stage_estimate,
)
from qest.errors import ValidationError
from qest.fisher import classical_fisher, sld_fisher
from qest.models import ParametricModel, qubit_family
from qest.qcore import DensityOperator, Povm, measure_distribution, tensor_power

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z


def one_param_model():
    """diag((1+x)/2, (1-x)/2) with derivative sigma_z/2."""
    return ParametricModel(
        name="one-param",
        param_dim=1,
        hilbert_dim=2,
        state_at=lambda t: DensityOperator(np.diag([(1 + t[0]) / 2, (1 - t[0]) / 2])),
        domain_check=lambda t: abs(t[0]) < 1,
        domain_box=((-1.0, 1.0),),
        derivative_at=lambda t, k: 0.5 * SIGMA_Z.astype(complex),
    )


def pair_inversion(model, povm, counts):
    """Closed-form interior MLE for a POVM made of weighted projector pairs
    (elements 2i, 2i+1), the number of pairs equal to the parameter count.

    Each pair's frequency difference f_i estimates tr(rho(theta) (P+ - P-)),
    which is affine in theta for the qubit families; solving the square
    linear system maximizes every pair's binomial likelihood at once.
    """
    d = model.param_dim
    rows, rhs = [], []
    for i in range(0, len(povm), 2):
        plus, minus = povm.elements[i], povm.elements[i + 1]
        diff = plus / np.trace(plus).real - minus / np.trace(minus).real
        at = lambda th: np.real(np.trace(model.state_at(th).matrix @ diff))
        base = at(np.zeros(d))
        rows.append([at(np.eye(d)[k]) - base for k in range(d)])
        rhs.append((counts[i] - counts[i + 1]) / (counts[i] + counts[i + 1]) - base)
    return np.linalg.solve(np.array(rows), np.array(rhs))


def tangential_model():
    """(x, y) parameters orthogonal to a Bloch vector of length 1/2."""
    derivs = [0.5 * SIGMA_X, 0.5 * SIGMA_Y]
    return ParametricModel(
        name="tangential",
        param_dim=2,
        hilbert_dim=2,
        state_at=lambda t: DensityOperator(
            0.5 * (np.eye(2) + t[0] * SIGMA_X + t[1] * SIGMA_Y + 0.5 * SIGMA_Z)
        ),
        domain_check=lambda t: t[0] ** 2 + t[1] ** 2 <= 0.74,
        domain_box=((-0.86, 0.86),) * 2,
        derivative_at=lambda t, k: derivs[k],
    )


class TestDefaultVPrime:
    def test_identity_weight(self):
        s = np.array([[0.0, 0.5], [-0.5, 0.0]])
        vp = default_v_prime(s, np.eye(2), 0.1)
        assert np.allclose(vp, 0.6 * np.eye(2))

    def test_zero_eps_rejected(self):
        with pytest.raises(ValidationError):
            default_v_prime(np.zeros((2, 2)), np.eye(2), 0.0)


class TestBuildCollectivePovm:
    def test_scalar_spectral_oracle(self):
        # d = 1 smearing is classical: outcome law equals the smoothed
        # spectral measure of X^(n), normalized by the windowed mass
        rho = DensityOperator(np.diag([0.7, 0.3]))
        spec = CollectiveSpec(rho, [SIGMA_Z])
        n = 4
        v_prime = np.array([[0.5]])
        povm = build_collective_povm(spec.x_ops, v_prime, n, s_matrix=spec.s, radius=6.0, grid_step=0.1)
        rho_n = tensor_power(rho, n).matrix
        probs = np.array([np.real(np.sum(rho_n.T * e)) for e in povm.elements])

        xs = build_collective_ops(spec.x_ops, n)[0]
        w, u = np.linalg.eigh(xs)
        weights = np.real(np.diag(u.conj().T @ rho_n @ u))
        grid = povm.outcomes[:, 0] * np.sqrt(n)
        kernel = np.exp(-((grid[:, None] - w[None, :]) ** 2) / (2 * 0.5)) / np.sqrt(2 * np.pi * 0.5)
        window = kernel.sum(axis=0) * 0.1  # per-eigenvalue retained mass
        oracle = (kernel / window[None, :] * weights[None, :]).sum(axis=1) * 0.1
        assert np.max(np.abs(probs - oracle)) < 1e-8

    def test_completeness_qubit_d2(self):
        spec = CollectiveSpec(DensityOperator(np.diag([0.75, 0.25])), [SIGMA_X, SIGMA_Y])
        v_prime = 0.6 * np.eye(2)
        povm = build_collective_povm(
            spec.x_ops, v_prime, 6, s_matrix=spec.s, radius=4.0, grid_step=0.25
        )
        assert povm.completeness_residual < 1e-6
        for e in povm.elements[:50]:
            assert np.linalg.eigvalsh(e).min() > -1e-9
        # retained eigenvalues of S dominate (1 - support_gap) on the support
        kept = np.linalg.eigvalsh(povm.s_operator)
        kept = kept[kept > 1e-8 * kept.max()]
        assert kept.min() >= 1.0 - povm.support_gap - 1e-12

    def test_single_copy_outcome_covariance(self):
        # n = 1 at the maximally mixed state: the accumulated smearing
        # operator is proportional to the identity (so the sandwich only
        # rescales), and the outcome covariance matches the exact radial
        # integral of the single-copy law; the nominal v + v' = 2I is the
        # n -> infinity value, approached from below (~1.7926 at n = 1)
        from scipy.integrate import quad

        rho = DensityOperator(np.eye(2) / 2)
        spec = CollectiveSpec(rho, [SIGMA_X, SIGMA_Y])
        povm = build_collective_povm(
            spec.x_ops, np.eye(2), 1, s_matrix=spec.s, radius=7.0, grid_step=0.25
        )
        off_identity = povm.s_operator - np.trace(povm.s_operator) / 2 * np.eye(2)
        assert np.max(np.abs(off_identity)) < 1e-12
        probs = np.array([np.real(np.sum(rho.matrix.T * e)) for e in povm.elements])
        probs = probs / probs.sum()
        outs = povm.outcomes
        cov = np.einsum("ik,il,i->kl", outs, outs, probs)
        num = quad(lambda r: r**3 * np.exp(-r * r / 2) * np.cosh(r), 0, 20)[0]
        den = quad(lambda r: r * np.exp(-r * r / 2) * np.cosh(r), 0, 20)[0]
        exact = num / den / 2
        assert np.max(np.abs(cov - exact * np.eye(2))) < 2e-3
        assert np.max(np.abs(cov - 2.0 * np.eye(2))) < 0.25

    def test_ball_grid_masks(self):
        pts = ball_grid(2, 1.0, 0.5)
        assert all(p @ p <= 1.0 + 1e-12 for p in pts)


class TestCollectiveEstimatorCheck:
    def test_tangential_trend(self):
        model = tangential_model()
        x_ops = [SIGMA_X, SIGMA_Y]
        v_prime = 0.6 * np.eye(2)  # |s| + 0.1 at this point
        rows = collective_estimator_check(model, np.zeros(2), x_ops, v_prime, [2, 4])
        gaps = [np.linalg.norm(r.a_matrix - np.eye(2)) for r in rows]
        assert gaps[1] < gaps[0]
        traces = [np.trace(r.scaled_covariance) for r in rows]
        target = 3.2  # tr(v + v') = 2 + 1.2
        assert abs(traces[1] - target) < abs(traces[0] - target)
        for r in rows:
            assert r.completeness_residual < 1e-5
            assert abs(r.leakage) < 1e-6

    def test_scalar_limit(self):
        # d = 1: classical smoothing is exact at every n, so the scaled
        # covariance equals 1/j_S + v' (the variance of sigma_z under this
        # model is 1 - x^2 = 1/j_S) up to finite-difference noise
        model = one_param_model()
        theta = np.array([0.4])
        v_prime = np.array([[0.5]])
        rows = collective_estimator_check(
            model, theta, [SIGMA_Z], v_prime, [2, 4, 6], radius=6.0, grid_step=0.1
        )
        _, j_s = sld_fisher(model, theta)
        target = 1.0 / j_s.matrix[0, 0] + 0.5
        for r in rows:
            assert abs(float(r.scaled_covariance[0, 0]) - target) < 1e-4 * target
            assert abs(float(r.a_matrix[0, 0]) - 1.0) < 1e-4


class TestMle:
    def test_bernoulli_closed_form(self):
        model = one_param_model()
        povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        theta, boundary = mle(model, povm, [75, 25])
        assert abs(theta[0] - 0.5) < 1e-6
        assert not boundary

    def test_exact_distribution_recovers_truth(self):
        model = qubit_family("z0")
        povm = mixed_basis_povm()
        truth = np.array([0.3, -0.2])
        probs = measure_distribution(model.state_at(truth), povm).probs
        theta, boundary = mle(model, povm, probs * 10**6)
        assert np.max(np.abs(theta - truth)) < 1e-6
        assert not boundary

    def test_label_permutation_invariance(self):
        model = qubit_family("z0")
        povm = mixed_basis_povm()
        counts = np.array([40.0, 25.0, 20.0, 15.0])
        theta1, _ = mle(model, povm, counts)
        perm = [2, 3, 0, 1]
        povm2 = Povm([povm.elements[i] for i in perm], labels=[povm.labels[i] for i in perm])
        theta2, _ = mle(model, povm2, counts[perm])
        assert np.max(np.abs(theta1 - theta2)) < 1e-9

    @pytest.mark.parametrize("counts", [[47, 9, 21, 23], [37, 10, 33, 20]])
    def test_interior_maximum_is_not_boundary(self, counts):
        # a rounding-level accepted step at these interior maxima used to set
        # the boundary flag, which discarded the trial in two-stage runs
        theta, boundary = mle(qubit_family("z0"), mixed_basis_povm(), counts)
        closed = [(counts[0] - counts[1]) / (counts[0] + counts[1]),
                  (counts[2] - counts[3]) / (counts[2] + counts[3])]
        assert not boundary
        assert np.max(np.abs(theta - closed)) < 1e-6

    def test_batched_kernel_against_linear_inversion(self, rng):
        model = qubit_family("z0")
        mixed = mixed_basis_povm()
        truths = [rng.uniform(0.8, 0.99) * np.array([np.cos(a), np.sin(a)])
                  for a in rng.uniform(0, 2 * np.pi, 50)]
        pilots = [0.8 * t for t in truths[25:]]
        povms = [mixed] * 25 + [optimal_qubit_povm(model, p, np.eye(2)) for p in pilots]
        counts = []
        for t, m in zip(truths, povms):
            probs = measure_distribution(model.state_at(t), m).probs
            c = rng.multinomial(40, probs)
            while (c.reshape(-1, 2).sum(axis=1) == 0).any():
                c = rng.multinomial(40, probs)
            counts.append(c)
        shared_est, shared_boundary = _mle_rows(model, [mixed], counts[:25])
        own_est, own_boundary = _mle_rows(model, povms[25:], counts[25:])
        estimates = np.vstack([shared_est, own_est])
        boundary = np.concatenate([shared_boundary, own_boundary])
        inside = outside = 0
        for i, (m, c) in enumerate(zip(povms, counts)):
            closed = pair_inversion(model, m, c)
            if i < 25:
                assert np.allclose(closed, [(c[0] - c[1]) / (c[0] + c[1]),
                                            (c[2] - c[3]) / (c[2] + c[3])], atol=1e-12)
            radius = float(np.linalg.norm(closed))
            if radius < 1 - 1e-3:
                inside += 1
                assert not boundary[i]
                assert np.max(np.abs(estimates[i] - closed)) < 1e-6
            elif radius > 1 + 1e-3:
                outside += 1
                assert boundary[i]
            # the one-row call is the same kernel
            one, flag = mle(model, m, c)
            assert np.max(np.abs(one - estimates[i])) < 1e-12 and flag == boundary[i]
        assert inside >= 20 and outside >= 5

    def test_too_many_parameters(self):
        model = qubit_family("full")
        object.__setattr__(model, "param_dim", 4)
        with pytest.raises(ValidationError):
            mle(model, mixed_basis_povm(), [1, 2, 3, 4])


class TestMseReport:
    def test_degenerate(self):
        est = np.tile(np.array([0.2, -0.1]), (5, 1))
        report = mse_report(est, [0.2, -0.1], bound_value=1.0)
        assert np.max(np.abs(report.mse_matrix)) == 0

    def test_alternating_unit(self):
        est = np.array([[1.0, 0.0], [-1.0, 0.0]] * 10)
        report = mse_report(est, [0.0, 0.0], bound_value=1.0)
        assert np.allclose(report.mse_matrix, np.diag([1.0, 0.0]))

    def test_gaussian_sampling_oracle(self, rng):
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        chol = np.linalg.cholesky(cov)
        draws = rng.standard_normal((10**5, 2)) @ chol.T
        report = mse_report(draws, [0.0, 0.0], bound_value=0.0)
        for i in range(2):
            for j in range(2):
                assert abs(report.mse_matrix[i, j] - cov[i, j]) <= 3 * report.standard_errors[i, j]

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            mse_report(np.array([[1.0]]), [0.0], bound_value=0.0)


class TestOptimalQubitPovm:
    def test_attains_closed_form(self, rng):
        model = qubit_family("z0")
        for _ in range(5):
            t = rng.uniform(-0.5, 0.5, 2)
            gm = rng.standard_normal((2, 2))
            g = gm @ gm.T + 0.2 * np.eye(2)
            povm = optimal_qubit_povm(model, t, g)
            j_m = classical_fisher(model, t, povm)
            _, j_s = sld_fisher(model, t)
            achieved = np.trace(g @ np.linalg.inv(j_m.matrix))
            assert abs(achieved - qubit_c1(j_s, g)) < 1e-9

    def test_z0_reference_point(self):
        model = qubit_family("z0")
        povm = optimal_qubit_povm(model, np.array([0.5, 0.0]), np.eye(2))
        j_m = classical_fisher(model, np.array([0.5, 0.0]), povm)
        achieved = np.trace(np.linalg.inv(j_m.matrix))
        assert abs(achieved - (np.sqrt(0.75) + 1.0) ** 2) < 1e-9


class TestMixedBasisPovm:
    def test_three_bases_make_full_family_identifiable(self):
        model = qubit_family("full")
        theta = np.array([0.3, 0.2, 0.1])
        assert np.linalg.eigvalsh(classical_fisher(model, theta, mixed_basis_povm()).matrix).min() < 1e-10
        povm = mixed_basis_povm("zxy")
        assert povm.labels == ("z+", "z-", "x+", "x-", "y+", "y-")
        assert np.linalg.eigvalsh(classical_fisher(model, theta, povm).matrix).min() > 0.1

    @pytest.mark.parametrize("bases", ["", "zq", "zz"])
    def test_bad_bases(self, bases):
        with pytest.raises(ValidationError):
            mixed_basis_povm(bases)


class TestTwoStage:
    def test_z0_attainment_light(self):
        model = qubit_family("z0")
        report = two_stage_estimate(
            model, np.array([0.5, 0.0]), mixed_basis_povm(), n=10**4, seed=77, trials=300
        )
        scaled = report.extras["weighted_trace_scaled"]
        c1 = report.bound_value
        assert abs(c1 - (np.sqrt(0.75) + 1.0) ** 2) < 1e-9
        assert abs(scaled - c1) < 0.15 * c1
        assert report.extras["discarded"] < 30

    def test_consistency_scaling(self):
        model = qubit_family("z0")
        truth = np.array([0.5, 0.0])
        reports = {
            n: two_stage_estimate(model, truth, mixed_basis_povm(), n=n, seed=901, trials=500)
            for n in (10**3, 10**4)
        }
        ratio = np.trace(reports[10**3].mse_matrix) / np.trace(reports[10**4].mse_matrix)
        assert 8.0 <= ratio <= 12.0

    def test_trials_are_independent(self):
        # per-trial seeds are a prefix of the longer run's, so the first
        # surviving trials must come out the same whatever runs beside them
        model = qubit_family("z0")
        truth = np.array([0.5, 0.0])
        runs = {
            t: two_stage_estimate(model, truth, mixed_basis_povm(), n=400, seed=3, trials=t,
                                  keep_estimates=True)
            for t in (50, 200)
        }
        short, long = runs[50].extras, runs[200].extras
        assert short["discarded"] > 0
        assert short["discarded"] <= long["discarded"]
        head = long["estimates"][: len(short["estimates"])]
        assert np.max(np.abs(short["estimates"] - head)) < 1e-12
