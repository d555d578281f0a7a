import numpy as np
import pytest

from qest.bounds import (
    GAP_TOL,
    cr_value,
    gaussian_shift_bound,
    gill_massar,
    holevo_bound,
    holevo_objective,
    nuclear_norm,
    qubit_c1,
)
from qest.errors import NumericalError, ValidationError
from qest.fisher import classical_fisher, sld_fisher
from qest.models import (
    ParametricModel,
    diagonal_family,
    gaussian_displacement_family,
    model_derivatives,
    qubit_family,
    _qubit_states,
)
from qest.qcore import Povm

from conftest import SIGMA_X, SIGMA_Z, pure_qubit_model, random_povm

ONE_MODE_S = np.array([[0.0, 0.5], [-0.5, 0.0]])


def submodel_xy(z_fixed):
    derivs = np.array([0.5 * SIGMA_Z, 0.5 * SIGMA_X])
    return ParametricModel(
        name=f"qubit-xy@z={z_fixed}",
        param_dim=2,
        hilbert_dim=2,
        states=lambda t: _qubit_states(t[..., 0], t[..., 1], z_fixed),
        domain_check=lambda t: t[..., 0] ** 2 + t[..., 1] ** 2 + z_fixed**2 <= 1 + 1e-12,
        domain_box=((-0.8, 0.8),) * 2,
        derivatives=lambda t: derivs,
    )


def qutrit_family(seed):
    """Three-parameter linear family rho0 + sum_k theta_k H_k on a qutrit:
    a random full-rank rho0 (eigenvalues >= 0.1) and random traceless
    Hermitian directions H_k of scale 0.1."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho0 = 0.7 * a @ a.conj().T / np.trace(a @ a.conj().T).real + 0.1 * np.eye(3)
    directions = []
    for _ in range(3):
        n = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (n + n.conj().T) / 2
        directions.append(0.1 * (h - np.trace(h) / 3 * np.eye(3)))
    directions = np.array(directions)
    return ParametricModel(
        name=f"qutrit-{seed}",
        param_dim=3,
        hilbert_dim=3,
        states=lambda t: rho0 + np.einsum("...k,kab->...ab", t, directions),
        domain_check=lambda t: (np.abs(t) <= 0.2).all(axis=-1),
        domain_box=((-0.2, 0.2),) * 3,
        derivatives=lambda t: directions,
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
        model = ParametricModel(
            name="x-slice",
            param_dim=1,
            hilbert_dim=2,
            states=lambda t: _qubit_states(t[..., 0], 0.3, 0.2),
            domain_check=lambda t: t[..., 0] ** 2 + 0.13 <= 1,
            domain_box=((-0.9, 0.9),),
            derivatives=lambda t: 0.5 * SIGMA_Z[None],
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
        sol = holevo_bound(model, np.array([0.1, -0.05]), np.eye(2))
        assert abs(sol.value - 2.6) < 1e-6

    @pytest.mark.parametrize(
        "seed, expected",
        [
            pytest.param(seed, value, id=f"seed{seed}")
            for seed, value in enumerate(
                [17.539283286264, 16.478742815397, 27.643032741103, 50.082969188020, 17.124137816829]
            )
        ],
    )
    def test_qutrit_three_parameters(self, seed, expected):
        # the dual optimum lies inside the ball here; a smoothed primal
        # minimizer stalled short of stationarity on these families
        sol = holevo_bound(qutrit_family(seed), np.zeros(3), np.eye(3))
        assert sol.value - sol.dual_value <= GAP_TOL * max(1.0, sol.value)
        assert abs(sol.value - expected) < 1e-7 * expected
        assert sol.constraint_residual <= 1e-7

    def test_singular_weight(self):
        # only the first parameter is weighted: its variance, [j_S^-1]_11,
        # is 1 - x^2 on qubit-z0 and N + 1/2 on gauss1 (N = 0.3), the latter
        # up to the Fock truncation
        g = np.diag([1.0, 0.0])
        z0 = holevo_bound(qubit_family("z0"), np.array([0.2, 0.3]), g)
        assert abs(z0.value - 0.96) < 1e-9
        gauss = holevo_bound(gaussian_displacement_family(0.3, cutoff=16), np.array([0.3, 0.2]), g)
        assert abs(gauss.value - 0.8) < 1e-6
        assert max(z0.constraint_residual, gauss.constraint_residual) <= 1e-7

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
            states=lambda t: base.states(t / c),
            domain_check=lambda t: base.domain_check(t / c),
            domain_box=((-1.0, 1.0),) * 2,
            derivatives=lambda t: base.derivatives(t / c) / c,
        )
        v0 = holevo_bound(base, np.zeros(2), np.eye(2)).value
        v_scaled = holevo_bound(scaled, np.zeros(2), np.eye(2)).value
        v_weighted = holevo_bound(scaled, np.zeros(2), np.eye(2) / c**2).value
        assert abs(v_scaled - c**2 * v0) < 1e-6
        assert abs(v_weighted - v0) < 1e-6


def traceless_hermitian_basis(dim):
    """Orthonormal (trace inner product) basis of the traceless Hermitian matrices."""
    basis = []
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 1
            basis.append(m / np.sqrt(2))
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j], m[j, i] = -1j, 1j
            basis.append(m / np.sqrt(2))
    for l in range(1, dim):
        m = np.diag(np.r_[np.ones(l), -l, np.zeros(dim - l - 1)]).astype(complex)
        basis.append(m / np.sqrt(l * (l + 1)))
    return np.array(basis)


def scipy_holevo(model, theta, g, start_scale):
    """Collective bound by SciPy's L-BFGS-B on the smoothed primal, sharing no
    code with the dual.

    Tuples are expanded in a traceless Hermitian basis with the constraints
    tr(X_k d_j rho) = delta_kj eliminated (least-norm solution plus null
    space).  The trace norm is smoothed to sum sqrt(sigma^2 + mu^2) over the
    eigenvalues of i sqrt(g) s sqrt(g), with mu annealed from 1e-2 to 1e-8.
    The start is the inverse-SLD tuple with standard normal noise of
    ``start_scale`` on its free coordinates; returns the unsmoothed value of
    the last tuple.  Coordinates stay in [-1e4, 1e4]: at a rank-one state
    the infimum lies at the end of a flat valley.
    """
    from scipy.optimize import minimize

    rho = model.state_at(theta).matrix
    derivs = model_derivatives(model, theta)
    d = len(derivs)
    basis = traceless_hermitian_basis(rho.shape[0])
    m = len(basis)
    flat_t = basis.transpose(0, 2, 1).reshape(m, -1)  # tr(A B) = flat(A) . flat(B^T)
    a_con = np.real(derivs.reshape(d, -1) @ flat_t.T)
    moments = (rho @ basis).reshape(m, -1) @ flat_t.T
    mean = np.real(flat_t @ rho.reshape(-1))
    v_form, s_form = np.real(moments) - np.outer(mean, mean), np.imag(moments)
    c_part = np.linalg.pinv(a_con).T
    kernel = np.linalg.svd(a_con)[2][d:].T
    w, u = np.linalg.eigh(g)
    g_sqrt = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T

    def tuple_moments(z):
        c = c_part + (kernel @ z.reshape(-1, d)).T
        return c, c @ v_form @ c.T, c @ s_form @ c.T

    def smoothed(z, mu):
        c, v, s = tuple_moments(z)
        lam, vec = np.linalg.eigh(1j * g_sqrt @ s @ g_sqrt)
        p = (vec * (lam / np.sqrt(lam**2 + mu**2))) @ vec.conj().T
        grad = 2 * g @ c @ v_form + np.real(2j * g_sqrt @ p @ g_sqrt @ c @ s_form)
        return np.trace(g @ v) + np.sqrt(lam**2 + mu**2).sum(), (kernel.T @ grad.T).ravel()

    logs, j_s = sld_fisher(model, theta)
    x_sld = np.einsum("kl,lab->kab", np.linalg.inv(j_s.matrix), logs.operators)
    z = (kernel.T @ (np.real(x_sld.reshape(d, -1) @ flat_t.T) - c_part).T).ravel()
    z += start_scale * np.random.default_rng(0).standard_normal(z.size)
    for mu in 10.0 ** -np.arange(2, 9):
        z = minimize(
            smoothed, z, args=(mu,), jac=True, method="L-BFGS-B", bounds=[(-1e4, 1e4)] * z.size,
            options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10},
        ).x
    _, v, s = tuple_moments(z)
    return np.trace(g @ v) + np.linalg.svd(g_sqrt @ s @ g_sqrt, compute_uv=False).sum()


# (model, theta, oracle start scale): the inverse-SLD tuple is optimal in
# all five cases, so the qubit oracles start away from it; on gauss1 (506
# free coordinates) such a start takes SciPy about two minutes
HOLEVO_CASES = [
    pytest.param(submodel_xy(0.5), (0.0, 0.0), 1.0, id="xy"),
    pytest.param(qubit_family("z0"), (0.5, 0.0), 1.0, id="z0-a"),
    pytest.param(qubit_family("z0"), (0.2, 0.3), 1.0, id="z0-b"),
    pytest.param(gaussian_displacement_family(0.3, cutoff=16), (0.3, 0.2), 0.0, id="gauss1"),
    pytest.param(pure_qubit_model(), (1.1, 0.4), 1.0, id="pure"),
]


class TestHolevoAgainstScipy:
    """The dual against SciPy's L-BFGS-B on the smoothed primal."""

    @pytest.mark.parametrize("model, theta, start_scale", HOLEVO_CASES)
    def test_same_values(self, model, theta, start_scale):
        t = np.array(theta)
        ours = holevo_bound(model, t, np.eye(2))
        assert abs(ours.value - scipy_holevo(model, t, np.eye(2), start_scale)) < 1e-6

    @pytest.mark.parametrize("model, theta, start_scale", HOLEVO_CASES)
    def test_certificate(self, model, theta, start_scale):
        t = np.array(theta)
        sol = holevo_bound(model, t, np.eye(2))
        assert sol.dual_value <= sol.value + 1e-12 * max(1.0, sol.value)
        assert sol.value - sol.dual_value <= GAP_TOL * max(1.0, sol.value)
        assert holevo_objective(model, t, sol.x_ops, np.eye(2))[0] == sol.value


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

    def test_symmetric_v_and_antisymmetric_s_required(self):
        with pytest.raises(ValidationError, match="v must be symmetric"):
            gaussian_shift_bound(np.array([[1.0, 0.1], [0.0, 1.0]]), ONE_MODE_S, np.eye(2))
        with pytest.raises(ValidationError, match="s must be antisymmetric"):
            gaussian_shift_bound(np.eye(2), np.array([[0.0, 0.5], [0.5, 0.0]]), np.eye(2))
