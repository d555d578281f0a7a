import numpy as np
import pytest

import qest.bounds
from qest.bounds import (
    HolevoOptions,
    cr_value,
    gaussian_shift_bound,
    gill_massar,
    holevo_bound,
    holevo_objective,
    minimize,
    nuclear_norm,
    qubit_c1,
)
from qest.errors import NumericalError, ValidationError
from qest.fisher import classical_fisher, sld_fisher
from qest.models import ParametricModel, diagonal_family, gaussian_displacement_family, qubit_family
from qest.qcore import DensityOperator, Povm

from conftest import SIGMA_X, SIGMA_Z, random_povm

ONE_MODE_S = np.array([[0.0, 0.5], [-0.5, 0.0]])


def submodel_xy(z_fixed):
    full = qubit_family("full")
    derivs = [0.5 * SIGMA_Z, 0.5 * SIGMA_X]
    return ParametricModel(
        name=f"qubit-xy@z={z_fixed}",
        param_dim=2,
        hilbert_dim=2,
        state_at=lambda t: full.state_at(np.array([t[0], t[1], z_fixed])),
        domain_check=lambda t: t[..., 0] ** 2 + t[..., 1] ** 2 + z_fixed**2 <= 1 + 1e-12,
        domain_box=((-0.8, 0.8),) * 2,
        derivative_at=lambda t, k: derivs[k],
    )


def pure_qubit_model():
    """Two-parameter family of pure states (polar, azimuth angles)."""

    def vec(t):
        a, b = t
        return np.array([np.cos(a / 2), np.exp(1j * b) * np.sin(a / 2)])

    def state(t):
        v = vec(t)
        return DensityOperator(np.outer(v, v.conj()))

    def deriv(t, k):
        h = 1e-6
        step = np.zeros(2)
        step[k] = h
        vp, vm = vec(t + step), vec(t - step)
        dm = (np.outer(vp, vp.conj()) - np.outer(vm, vm.conj())) / (2 * h)
        return (dm + dm.conj().T) / 2

    return ParametricModel(
        name="pure-qubit",
        param_dim=2,
        hilbert_dim=2,
        state_at=state,
        domain_check=lambda t: (0.05 < t[..., 0]) & (t[..., 0] < np.pi - 0.05),
        domain_box=((0.05, np.pi - 0.05), (-np.pi, np.pi)),
        derivative_at=deriv,
    )


class TestCrValue:
    def test_identity(self):
        assert abs(cr_value(np.eye(3), np.eye(3)) - 3.0) < 1e-14

    def test_diagonal(self):
        assert abs(cr_value(np.diag([4.0, 1.0]), np.eye(2)) - 1.25) < 1e-14

    def test_random_spd_against_inversion(self, rng):
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            j = a @ a.T + 0.5 * np.eye(4)
            b = rng.standard_normal((4, 4))
            g = b @ b.T
            expected = np.trace(g @ np.linalg.inv(j))
            assert abs(cr_value(j, g) - expected) < 1e-10

    def test_singular_rejected(self):
        with pytest.raises(NumericalError):
            cr_value(np.diag([1.0, 0.0]), np.eye(2))


class TestQubitC1:
    def test_identity_case(self):
        assert abs(qubit_c1(np.eye(3), np.eye(3)) - 9.0) < 1e-12

    def test_z0_point(self):
        # j_S = diag(4/3, 1) at (0.5, 0): closed form (sqrt(3/4) + 1)^2
        value = qubit_c1(np.diag([4.0 / 3.0, 1.0]), np.eye(2))
        assert abs(value - (np.sqrt(0.75) + 1.0) ** 2) < 1e-12

    def test_scalar_collapse(self):
        j = np.array([[2.5]])
        g = np.array([[1.7]])
        assert abs(qubit_c1(j, g) - cr_value(j, g)) < 1e-14


class TestGillMassar:
    def test_origin_basis(self):
        model = qubit_family("full")
        _, j_s = sld_fisher(model, np.zeros(3))
        j_m = classical_fisher(model, np.zeros(3), Povm([np.diag([1.0, 0]), np.diag([0, 1.0])]))
        value, ok = gill_massar(j_s, j_m, 2)
        assert abs(value - 1.0) < 1e-10
        assert ok

    def test_null_measurement(self):
        value, ok = gill_massar(np.eye(2), np.zeros((2, 2)), 2)
        assert value == 0.0 and ok

    def test_sweep(self, rng):
        model = qubit_family("full")
        for _ in range(40):
            t = rng.uniform(-0.4, 0.4, 3)
            povm = random_povm(rng, outcomes=int(rng.integers(2, 5)))
            _, j_s = sld_fisher(model, t)
            j_m = classical_fisher(model, t, povm)
            value, ok = gill_massar(j_s, j_m, 2)
            assert ok, value


class TestHolevoObjective:
    def test_commuting_tuple(self, rng):
        model = diagonal_family(3)
        t = np.array([0.3, 0.4])
        x_ops = [np.diag(rng.standard_normal(3)) for _ in range(2)]
        value, v, s = holevo_objective(model, t, x_ops, np.eye(2))
        assert np.max(np.abs(s)) < 1e-12
        assert abs(value - np.trace(v)) < 1e-12

    def test_submodel_pauli_tuple(self):
        # tangential Pauli pair at Bloch radius 1/2: v = I, |s_12| = 1/2
        model = submodel_xy(0.5)
        value, v, s = holevo_objective(model, np.zeros(2), [SIGMA_Z, SIGMA_X], np.eye(2))
        assert np.allclose(v, np.eye(2), atol=1e-12)
        assert abs(abs(s[0, 1]) - 0.5) < 1e-12
        assert abs(value - 3.0) < 1e-12

    def test_tracenorm_against_svd_oracle(self, rng):
        for _ in range(10):
            d = 4
            raw = rng.standard_normal((d, d))
            s = raw - raw.T
            gm = rng.standard_normal((d, d))
            g = gm @ gm.T + 0.1 * np.eye(d)
            w, u = np.linalg.eigh(g)
            g_sqrt = (u * np.sqrt(w)) @ u.T
            target = np.linalg.svd(g_sqrt @ s @ g_sqrt, compute_uv=False).sum()
            assert abs(nuclear_norm(g_sqrt @ s @ g_sqrt) - target) < 1e-10


class TestHolevoBound:
    def test_one_parameter_inverse_fisher(self):
        model = diagonal_family(2)
        t = np.array([0.3])
        _, j_s = sld_fisher(model, t)
        sol = holevo_bound(model, t, np.eye(1))
        assert abs(sol.value - 1.0 / j_s.matrix[0, 0]) < 1e-9

    def test_full_qubit_origin(self):
        sol = holevo_bound(qubit_family("full"), np.zeros(3), np.eye(3))
        assert abs(sol.value - 3.0) < 1e-4
        assert sol.constraint_residual <= 1e-7
        assert np.max(np.abs(sol.s_matrix)) < 1e-10

    def test_submodel_closed_form(self):
        sol = holevo_bound(submodel_xy(0.5), np.zeros(2), np.eye(2))
        assert abs(sol.value - 3.0) < 2e-4

    def test_multistart_invariance(self):
        sol = holevo_bound(
            submodel_xy(0.5),
            np.zeros(2),
            np.eye(2),
            HolevoOptions(seed=11, n_starts=5),
        )
        assert max(sol.start_values) - min(sol.start_values) < 2e-4

    def test_deterministic_given_seed(self):
        opts = HolevoOptions(seed=13, n_starts=3)
        a = holevo_bound(submodel_xy(0.5), np.zeros(2), np.eye(2), opts)
        b = holevo_bound(submodel_xy(0.5), np.zeros(2), np.eye(2), opts)
        assert a.value == b.value
        assert a.start_values == b.start_values

    def test_z0_point_equals_cr(self):
        # s(L^-1) vanishes at (0.5, 0), so the bound collapses to tr j_S^{-1}
        model = qubit_family("z0")
        t = np.array([0.5, 0.0])
        sol = holevo_bound(model, t, np.eye(2))
        _, j_s = sld_fisher(model, t)
        assert abs(sol.value - cr_value(j_s, np.eye(2))) < 1e-6
        assert abs(sol.value - 1.75) < 1e-6

    def test_ordering_chain(self, rng):
        model = qubit_family("full")
        for _ in range(5):
            t = rng.uniform(-0.4, 0.4, 3)
            gm = rng.standard_normal((3, 3))
            g = gm @ gm.T + 0.2 * np.eye(3)
            _, j_s = sld_fisher(model, t)
            lower = cr_value(j_s, g)
            sol = holevo_bound(model, t, g)
            upper = qubit_c1(j_s, g)
            assert lower <= sol.value + 1e-6
            assert sol.value <= upper + 1e-6

    def test_lemma_one_equality_d1(self):
        model = diagonal_family(2)
        t = np.array([0.25])
        _, j_s = sld_fisher(model, t)
        sol = holevo_bound(model, t, np.eye(1))
        assert abs(sol.value - qubit_c1(j_s, np.eye(1))) < 1e-4

    def test_lemma_one_equality_pure_d2(self):
        model = pure_qubit_model()
        t = np.array([1.1, 0.4])
        _, j_s = sld_fisher(model, t)
        sol = holevo_bound(model, t, np.eye(2))
        assert abs(sol.value - qubit_c1(j_s, np.eye(2))) < 1e-4

    def test_lemma_one_gap_d3_mixed(self):
        model = qubit_family("full")
        t = np.array([0.1, 0.2, 0.15])
        _, j_s = sld_fisher(model, t)
        sol = holevo_bound(model, t, np.eye(3))
        assert qubit_c1(j_s, np.eye(3)) - sol.value > 0.05

    def test_noncommutative_one_parameter(self):
        # d = 1 collapses to the inverse SLD Fisher even when the derivative
        # does not commute with the state
        full = qubit_family("full")
        model = ParametricModel(
            name="x-slice",
            param_dim=1,
            hilbert_dim=2,
            state_at=lambda t: full.state_at(np.array([t[0], 0.3, 0.2])),
            domain_check=lambda t: t[..., 0] ** 2 + 0.13 <= 1,
            domain_box=((-0.9, 0.9),),
            derivative_at=lambda t, k: 0.5 * SIGMA_Z.astype(complex),
        )
        t = np.array([0.25])
        sol = holevo_bound(model, t, np.eye(1))
        _, j_s = sld_fisher(model, t)
        assert abs(sol.value - 1.0 / j_s.matrix[0, 0]) < 1e-8

    def test_gaussian_family_known_value(self):
        # truncated one-mode displacement family: the collective bound is
        # 2 (N + 1) in quadrature-mean units
        from qest.models import gaussian_displacement_family

        model = gaussian_displacement_family(0.3, cutoff=16)
        sol = holevo_bound(model, np.array([0.1, -0.05]), np.eye(2), HolevoOptions(seed=2))
        assert abs(sol.value - 2.6) < 1e-6

    def test_dimension_guard(self):
        from qest.models import gaussian_displacement_family

        model = gaussian_displacement_family(0.3, cutoff=64)
        with pytest.raises(NumericalError):
            holevo_bound(model, np.zeros(2), np.eye(2))

    def test_reparameterization_covariance(self):
        # theta' = c theta multiplies C^H(I) by c^2; g' = g/c^2 keeps the
        # weighted value fixed
        c = 2.0
        base = submodel_xy(0.5)
        scaled = ParametricModel(
            name="scaled",
            param_dim=2,
            hilbert_dim=2,
            state_at=lambda t: base.state_at(t / c),
            domain_check=lambda t: base.domain_check(t / c),
            domain_box=((-1.0, 1.0),) * 2,
            derivative_at=lambda t, k: base.derivative_at(t / c, k) / c,
        )
        v0 = holevo_bound(base, np.zeros(2), np.eye(2)).value
        v_scaled = holevo_bound(scaled, np.zeros(2), np.eye(2)).value
        v_weighted = holevo_bound(scaled, np.zeros(2), np.eye(2) / c**2).value
        assert abs(v_scaled - c**2 * v0) < 1e-6
        assert abs(v_weighted - v0) < 1e-6


def scipy_minimize(fun, x0, *, args=(), bounds=(-np.inf, np.inf), max_iter, ftol, gtol):
    """``qest.bounds.minimize`` with the same arguments, run by SciPy's L-BFGS-B."""
    from scipy.optimize import minimize as reference

    lower, upper = bounds
    return reference(
        fun,
        x0,
        args=args,
        method="L-BFGS-B",
        jac=True,
        bounds=[(lower, upper)] * np.size(x0),
        options={"maxiter": max_iter, "ftol": ftol, "gtol": gtol},
    )


class TestMinimize:
    def test_quadratic_with_active_box(self, rng):
        # 0.5 x'Ax - b'x on [-1, 1]^8 with b built from a KKT point: two
        # coordinates on the upper face, two on the lower, the rest interior
        raw = rng.standard_normal((8, 8))
        a = raw @ raw.T + 0.5 * np.eye(8)
        x_star = rng.uniform(-0.8, 0.8, 8)
        x_star[[1, 4]] = 1.0
        x_star[[2, 6]] = -1.0
        grad_star = np.zeros(8)
        grad_star[[1, 4]] = -rng.uniform(0.5, 2.0, 2)
        grad_star[[2, 6]] = rng.uniform(0.5, 2.0, 2)
        b = a @ x_star - grad_star

        def fun(x):
            return 0.5 * x @ a @ x - b @ x, a @ x - b

        res = minimize(fun, np.zeros(8), bounds=(-1.0, 1.0), max_iter=200, ftol=0.0, gtol=1e-10)
        assert np.max(np.abs(res.x - x_star)) < 1e-8
        assert abs(res.fun - fun(x_star)[0]) < 1e-12
        assert np.array_equal(res.jac, fun(res.x)[1])
        assert 0 < res.nit < res.nfev


class TestHolevoAgainstScipy:
    """The NumPy optimizer against SciPy's L-BFGS-B, same objective and
    stage tolerances: the bound and every start's value agree."""

    @pytest.mark.parametrize(
        "model, theta, opts",
        [
            (submodel_xy(0.5), (0.0, 0.0), HolevoOptions(seed=11, n_starts=5)),
            (qubit_family("z0"), (0.5, 0.0), HolevoOptions(seed=3, n_starts=5)),
            (qubit_family("z0"), (0.2, 0.3), HolevoOptions(seed=3, n_starts=5)),
            (gaussian_displacement_family(0.3, cutoff=16), (0.3, 0.2), HolevoOptions()),
            # rank-one state: a flat valley runs out to the box, and steps
            # taken along it on float noise change the value
            (pure_qubit_model(), (1.1, 0.4), HolevoOptions(seed=3, n_starts=3)),
        ],
        ids=["xy", "z0-a", "z0-b", "gauss1", "pure"],
    )
    def test_same_values(self, monkeypatch, model, theta, opts):
        t = np.array(theta)
        ours = holevo_bound(model, t, np.eye(2), opts)
        monkeypatch.setattr(qest.bounds, "minimize", scipy_minimize)
        reference = holevo_bound(model, t, np.eye(2), opts)
        assert abs(ours.value - reference.value) < 1e-6
        assert np.max(np.abs(np.subtract(ours.start_values, reference.start_values))) < 1e-6


class TestGaussianShiftBound:
    def test_one_mode_constant(self):
        for noise in (0.5, 1.0, 2.0):
            v = (noise + 0.5) * np.eye(2)
            value = gaussian_shift_bound(v, ONE_MODE_S, np.eye(2))
            assert abs(value - 2.0 * (noise + 1.0)) < 1e-12

    def test_commutative_case(self, rng):
        v = np.diag(rng.uniform(0.5, 2.0, 3))
        g = np.diag(rng.uniform(0.1, 1.0, 3))
        value = gaussian_shift_bound(v, np.zeros((3, 3)), g)
        assert abs(value - np.trace(g @ v)) < 1e-12

    def test_minimization_oracle(self, rng):
        # bound <= tr(g a) for every symmetric a >= v + i s
        v = 1.5 * np.eye(2)
        s = ONE_MODE_S
        g = np.diag([1.0, 2.0])
        bound = gaussian_shift_bound(v, s, g)
        found = 0
        for _ in range(200):
            raw = rng.standard_normal((2, 2))
            # 0.5 I dominates i s for the one-mode s, so a - v - i s >= 0
            a = v + 0.5 * np.eye(2) + 0.5 * raw @ raw.T
            assert np.linalg.eigvalsh(a.astype(complex) - (v + 1j * s)).min() > -1e-12
            found += 1
            assert bound <= np.trace(g @ a) + 1e-10
        assert found == 200

    def test_psd_pair_required(self):
        with pytest.raises(ValidationError):
            gaussian_shift_bound(0.1 * np.eye(2), ONE_MODE_S, np.eye(2))
