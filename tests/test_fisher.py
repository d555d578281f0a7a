import numpy as np
import pytest

from qest.errors import NumericalError
from qest.fisher import _sld_stack, classical_fisher, d_map, rld_fisher, sld_fisher
from qest.models import (
    ParametricModel,
    diagonal_family,
    gaussian_displacement_family,
    model_derivatives,
    qubit_family,
    _qubit_states,
)
from qest.qcore import DensityOperator, Povm, trace_products

from conftest import SIGMA_X, SIGMA_Z, random_hermitian, random_povm


def basis_povm():
    return Povm([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])


def bernoulli_fisher(p):
    return 1.0 / (p * (1.0 - p))


def submodel_xy(z_fixed):
    """Two-parameter (x, y) slice of the full qubit family at fixed z."""
    derivs = np.array([0.5 * SIGMA_Z, 0.5 * SIGMA_X])
    return ParametricModel(
        name=f"qubit-xy@z={z_fixed}",
        param_dim=2,
        hilbert_dim=2,
        states=lambda t: _qubit_states(t[..., 0], t[..., 1], z_fixed),
        domain_check=lambda t: t[..., 0] ** 2 + t[..., 1] ** 2 + z_fixed**2 <= 1 + 1e-12,
        domain_box=((-1.0, 1.0),) * 2,
        derivatives=lambda t: derivs,
    )


def pointwise_sld(rho, derivs):
    """SLDs, residuals and Fisher matrix one derivative and one entry at a
    time: the reference for the stacked kernel."""
    lam, u = np.linalg.eigh(rho)
    denom = lam[:, None] + lam[None, :]
    ops, residuals = [], []
    for dr in derivs:
        dr_eig = u.conj().T @ dr @ u
        l_eig = np.zeros_like(dr_eig)
        ok = ~(denom < 1e-10)
        l_eig[ok] = 2.0 * dr_eig[ok] / denom[ok]
        l_op = u @ l_eig @ u.conj().T
        l_op = (l_op + l_op.conj().T) / 2
        ops.append(l_op)
        residuals.append(float(np.linalg.norm((l_op @ rho + rho @ l_op) / 2 - dr, axis=(-2, -1))))
    d = len(ops)
    j = np.zeros((d, d))
    for a in range(d):
        for b in range(a, d):
            j[a, b] = j[b, a] = trace_products(rho, (ops[a] @ ops[b] + ops[b] @ ops[a]) / 2)
    return np.array(ops), residuals, j


class TestSld:
    def test_origin_operators_and_fisher(self):
        # L solves L o (I/2) = sigma/2, so L = (sigma_z, sigma_x, -sigma_y)
        # in the family's (x, y, z) parameter order
        model = qubit_family("full")
        logs, j = sld_fisher(model, np.zeros(3))
        expected = [SIGMA_Z, SIGMA_X, 0.5 * 2 * np.array([[0, 1j], [-1j, 0]])]
        for op, want in zip(logs.operators, expected):
            assert np.max(np.abs(op - want)) < 1e-12
        assert np.allclose(j.matrix, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("kind", ["qubit-full", "gauss1"])
    def test_stacked_rows_match_pointwise_loop(self, kind, rng):
        # the stacked kernel and its one-row call give the numbers of the
        # loop over derivatives and Fisher entries bit for bit
        if kind == "gauss1":
            model, pts = gaussian_displacement_family(0.3, cutoff=16), rng.uniform(-0.5, 0.5, (4, 2))
        else:
            model, pts = qubit_family("full"), rng.uniform(-0.5, 0.5, (6, 3))
        states = np.array([model.state_at(p).matrix for p in pts])
        ops, residuals, j = _sld_stack(states, model_derivatives(model, pts))
        for r, p in enumerate(pts):
            ref_ops, ref_residuals, ref_j = pointwise_sld(model.state_at(p).matrix, model_derivatives(model, p))
            logs, one = sld_fisher(model, p)
            for got_ops, got_residuals, got_j in [(ops[r], residuals[r], j[r]),
                                                  (logs.operators, logs.residuals, one.matrix)]:
                assert np.array_equal(np.array(got_ops), ref_ops)
                assert list(got_residuals) == ref_residuals
                assert np.array_equal(got_j, ref_j)
                assert np.array_equal(got_j, got_j.T)

    def test_mixed_point_fisher(self):
        # radial parameter gains 1/(1 - r^2); tangential stay at 1
        model = qubit_family("full")
        _, j = sld_fisher(model, np.array([0.0, 0.0, 0.5]))
        assert np.allclose(j.matrix, np.diag([1.0, 1.0, 4.0 / 3.0]), atol=1e-10)

    def test_mixed_point_vs_classical_oracle(self):
        # radial entry against the Bernoulli Fisher of the eigenbasis
        # measurement: p = (1 + x)/2, so j = (dp/dx)^2 / (p q) = 4/3 at x = 0.5
        model = qubit_family("full")
        _, j = sld_fisher(model, np.array([0.5, 0.0, 0.0]))
        cl = classical_fisher(model, np.array([0.5, 0.0, 0.0]), basis_povm())
        assert abs(j.matrix[0, 0] - cl.matrix[0, 0]) < 1e-9
        assert abs(j.matrix[0, 0] - 0.25 * bernoulli_fisher(0.75)) < 1e-9

    def test_bernoulli_family(self):
        model = diagonal_family(2)
        _, j = sld_fisher(model, np.array([0.3]))
        assert abs(j.matrix[0, 0] - bernoulli_fisher(0.3)) < 1e-9

    def test_residuals_small(self, rng):
        model = qubit_family("full")
        for _ in range(5):
            t = rng.uniform(-0.4, 0.4, 3)
            logs, _ = sld_fisher(model, t)
            assert max(logs.residuals) <= 1e-8

    def test_pure_state_tangent_ok_radial_rejected(self):
        # at a pure point the radial derivative leaves the support
        model = qubit_family("full")
        with pytest.raises(NumericalError):
            sld_fisher(model, np.array([1.0, 0.0, 0.0]))


def half_sigma_z_model():
    """One-parameter diag((1+x)/2, (1-x)/2) family, derivative sigma_z / 2."""
    return ParametricModel(
        name="halved-bernoulli",
        param_dim=1,
        hilbert_dim=2,
        states=lambda t: (np.eye(2) + t[..., 0, None, None] * SIGMA_Z) / 2,
        domain_check=lambda t: np.abs(t[..., 0]) <= 1,
        domain_box=((-1.0, 1.0),),
        derivatives=lambda t: 0.5 * SIGMA_Z[None],
    )


class TestRld:
    def test_direct_two_by_two(self):
        # state diag(3/4, 1/4) with derivative sigma_z/2:
        # L = rho^{-1} d rho = diag(2/3, -2), j = Tr rho L L* = 4/3
        logs, j = rld_fisher(half_sigma_z_model(), np.array([0.5]))
        assert np.allclose(logs.operators[0], np.diag([2.0 / 3.0, -2.0]), atol=1e-12)
        assert abs(j.matrix[0, 0] - 4.0 / 3.0) < 1e-12

    def test_commutative_equals_sld(self):
        model = diagonal_family(3)
        t = np.array([0.2, 0.5])
        _, j_r = rld_fisher(model, t)
        _, j_s = sld_fisher(model, t)
        assert np.max(np.abs(j_r.matrix - j_s.matrix)) < 1e-9

    def test_noncommutative_imaginary_part(self):
        # at this point the inverse Fishers agree on the real part
        # (Re inv(j_rld) = inv(j_sld)); the imaginary part of j_rld is the
        # antisymmetric signature of noncommutativity
        model = submodel_xy(0.5)
        t = np.zeros(2)
        _, j_r = rld_fisher(model, t)
        _, j_s = sld_fisher(model, t)
        assert np.allclose(
            np.real(np.linalg.inv(j_r.matrix)), np.linalg.inv(j_s.matrix), atol=1e-10
        )
        im = np.imag(j_r.matrix)
        assert np.max(np.abs(im + im.T)) < 1e-12
        assert abs(im[0, 1]) > 1e-3

    def test_gaussian_family_inverse_identity(self):
        # inverse RLD Fisher of the displacement family is v + i s; the cutoff
        # must keep the truncated state numerically full rank
        model = gaussian_displacement_family(2.0, cutoff=48)
        theta = np.array([0.3, -0.1])
        _, j_r = rld_fisher(model, theta)
        target = 2.5 * np.eye(2) + 1j * np.array([[0, 0.5], [-0.5, 0]])
        assert np.max(np.abs(np.linalg.inv(j_r.matrix) - target)) < 1e-5
        _, j_s = sld_fisher(model, theta)
        assert np.max(np.abs(j_s.matrix - 0.4 * np.eye(2))) < 1e-6

    def test_singular_state_rejected(self):
        model = qubit_family("full")
        with pytest.raises(NumericalError):
            rld_fisher(model, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("kind", ["qubit-full", "gauss1", "diag"])
    def test_matches_rho_l_l_dagger_oracle(self, kind, rng):
        # j = v + i s of the derivatives under rho^-1, exactly Hermitian,
        # against the former tr(rho L_k L_l^dagger), re-Hermitized
        model, pts = {
            "qubit-full": (qubit_family("full"), rng.uniform(-0.4, 0.4, (5, 3))),
            # the cutoff-16 state's smallest eigenvalue nears the support
            # tolerance away from the origin
            "gauss1": (gaussian_displacement_family(0.3, cutoff=16), [[0.3, 0.2], [0.0, 0.0], [-0.2, 0.1]]),
            "diag": (diagonal_family(4), rng.uniform(0.1, 0.3, (5, 3))),
        }[kind]
        for p in pts:
            logs, j = rld_fisher(model, p)
            rho, ops = model.state_at(p).matrix, np.array(logs.operators)
            oracle = np.array([[np.trace(rho @ a @ b.conj().T) for b in ops] for a in ops])
            oracle = (oracle + oracle.conj().T) / 2
            assert np.array_equal(j.matrix, j.matrix.conj().T)
            assert np.abs(j.matrix - oracle).max() <= 1e-14 * np.abs(oracle).max()


def classical_loop(model, theta, m):
    """j[a, b] = sum_w (d_a p_w)(d_b p_w) / p_w over outcomes above the floor,
    one entry at a time: the former double loop."""
    probs = np.array([np.trace(model.state_at(theta).matrix @ e).real for e in m.elements])
    probs /= probs.sum()
    derivs = model_derivatives(model, theta)
    dp = np.array([[np.trace(d @ e).real for e in m.elements] for d in derivs])
    keep = probs > 1e-12
    j = np.zeros((len(derivs),) * 2)
    for a in range(len(derivs)):
        for b in range(a, len(derivs)):
            j[a, b] = j[b, a] = np.sum(dp[a, keep] * dp[b, keep] / probs[keep])
    return j


class TestClassicalFisher:
    @pytest.mark.parametrize("kind", ["qubit-full", "diag"])
    def test_matches_double_loop(self, kind, rng):
        # one product of the scaled scores, exactly symmetric
        model, dim, pts = {
            "qubit-full": (qubit_family("full"), 2, rng.uniform(-0.4, 0.4, (10, 3))),
            "diag": (diagonal_family(4), 4, rng.uniform(0.1, 0.3, (10, 3))),
        }[kind]
        for p in pts:
            m = random_povm(rng, dim=dim, outcomes=int(rng.integers(2, 7)))
            j = classical_fisher(model, p, m).matrix
            oracle = classical_loop(model, p, m)
            assert np.array_equal(j, j.T)
            assert np.abs(j - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_origin_basis_measurement(self):
        model = qubit_family("full")
        j = classical_fisher(model, np.zeros(3), basis_povm())
        assert np.allclose(j.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_mixed_basis_at_origin(self):
        from qest.collective import mixed_basis_povm

        model = qubit_family("z0")
        j = classical_fisher(model, np.zeros(2), mixed_basis_povm())
        assert np.allclose(j.matrix, np.eye(2) / 2, atol=1e-12)

    def test_diagonal_family_eigenbasis(self):
        model = diagonal_family(2)
        povm = basis_povm()
        j = classical_fisher(model, np.array([0.3]), povm)
        assert abs(j.matrix[0, 0] - bernoulli_fisher(0.3)) < 1e-10

    def test_monotonicity_sweep(self, rng):
        # standard information monotonicity as a test oracle: j_M <= j_S
        model = qubit_family("full")
        for _ in range(100):
            t = rng.uniform(-0.45, 0.45, 3)
            if t @ t > 0.8:
                continue
            povm = random_povm(rng, outcomes=int(rng.integers(2, 5)))
            j_m = classical_fisher(model, t, povm)
            _, j_s = sld_fisher(model, t)
            gap_eigs = np.linalg.eigvalsh(j_s.matrix - j_m.matrix)
            assert gap_eigs.min() > -1e-8

    def test_weighted_povm_against_unweighted_loop(self, rng):
        # oracle: sum_k w_k (tr d_a rho F_k)(tr d_b rho F_k) / tr(rho F_k),
        # one unweighted element F_k at a time
        model = qubit_family("full")
        t = np.array([0.2, -0.3, 0.1])
        w = rng.uniform(0.1, 10.0, 5)
        unweighted = random_povm(rng, outcomes=5).stack / w[:, None, None]
        j = classical_fisher(model, t, Povm(unweighted, weights=w))
        rho = model.state_at(t).matrix
        derivs = model.derivatives(t)
        oracle = np.zeros((3, 3))
        for wk, f in zip(w, unweighted):
            dp = np.array([np.trace(d @ f).real for d in derivs])
            oracle += wk * np.outer(dp, dp) / np.trace(rho @ f).real
        assert np.max(np.abs(j.matrix - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_commutative_collapse(self):
        model = diagonal_family(3)
        t = np.array([0.25, 0.35])
        j_cl = classical_fisher(model, t, Povm([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]))
        _, j_s = sld_fisher(model, t)
        _, j_r = rld_fisher(model, t)
        assert np.max(np.abs(j_cl.matrix - j_s.matrix)) < 1e-8
        assert np.max(np.abs(j_r.matrix - j_s.matrix)) < 1e-8


class TestDMap:
    def test_maximally_mixed_annihilates(self, rng):
        rho = DensityOperator(np.eye(2) / 2)
        x = random_hermitian(rng)
        assert np.max(np.abs(d_map(rho, x))) < 1e-12

    def test_two_level_example(self):
        rho = DensityOperator(np.diag([0.75, 0.25]))
        out = d_map(rho, SIGMA_X)
        assert np.max(np.abs(out - np.array([[0, -1j], [1j, 0]]))) < 1e-12

    def test_defining_relation(self, rng):
        # Tr((D(X) o Y) rho) = -i Tr([X, Y] rho), brute-force trace oracle
        from conftest import random_density

        for _ in range(50):
            rho = random_density(rng, dim=3)
            x = random_hermitian(rng, dim=3)
            y = random_hermitian(rng, dim=3)
            dx = d_map(rho, x)
            lhs = np.trace((dx @ y + y @ dx) / 2 @ rho.matrix)
            rhs = -1j * np.trace((x @ y - y @ x) @ rho.matrix)
            assert abs(lhs - rhs) < 1e-10

    def test_self_action_vanishes(self, rng):
        from conftest import random_density

        rho = random_density(rng)
        x = random_hermitian(rng)
        dx = d_map(rho, x)
        val = np.trace(rho.matrix @ (dx @ x + x @ dx) / 2)
        assert abs(val) < 1e-10
