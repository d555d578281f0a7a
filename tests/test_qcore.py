import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qest import qcore
from qest.errors import NumericalError, ValidationError
from qest.gaussian import heterodyne_povm
from qest.qcore import (
    MAX_ARRAY_BYTES,
    DensityOperator,
    OutcomeDistribution,
    Povm,
    check_array_bytes,
    density_stack,
    hermitian_function,
    matrix_from_json,
    matrix_to_json,
    measure_distribution,
    mix,
    pair_moments,
    povm_stack,
    probability_rows,
    sample_outcomes,
    tensor_power,
    trace_products,
)

from conftest import random_density, random_hermitian, random_povm


def basis_povm():
    return Povm([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])


def qubit(x, y, z):
    return DensityOperator(0.5 * np.array([[1 + x, y + 1j * z], [y - 1j * z, 1 - x]]))


class TestDensityOperator:
    def test_validation(self):
        rho = DensityOperator(np.diag([0.25, 0.75]))
        assert rho.dim == 2
        assert abs(np.trace(rho.matrix) - 1) < 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.array([[0.5, 1e-6], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([0.6, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.1, -0.1]))

    def test_clamps_tiny_negative(self):
        rho = DensityOperator(np.diag([1.0 + 5e-11, -5e-11]))
        assert rho.eigenvalues().min() >= 0
        assert abs(np.trace(rho.matrix) - 1) < 1e-14

    def test_stack_repair_matches_row_by_row(self, rng):
        # rows with an eigenvalue of -5e-11 (above the floor) are clamped in
        # one stacked eigh: bit for bit what repairing each row alone gives
        def one_row(m):
            m = (m + m.conj().T) / 2
            if np.linalg.eigvalsh(m).min() < 0:
                w, u = np.linalg.eigh(m)
                fixed = (u * np.clip(w, 0.0, None)) @ u.conj().T
                m = (fixed + fixed.conj().T) / 2
            return m / np.real(np.trace(m))

        for dim in (2, 3, 4):
            rows = []
            for i in range(7):
                g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                u = np.linalg.qr(g)[0]
                p = rng.uniform(0.1, 1.0, dim)
                p /= p.sum()
                if i % 3 != 2:
                    p[0] = -5e-11
                    p[1:] *= (1 + 5e-11) / p[1:].sum()
                rows.append((u * p) @ u.conj().T)
            stack = np.array(rows)
            assert (np.linalg.eigvalsh(stack).min(axis=-1) < 0).sum() >= 4
            expected = np.array([one_row(m) for m in stack])
            assert density_stack(stack).tobytes() == expected.tobytes()

    def test_immutable(self):
        rho = qubit(0.3, 0.1, 0.0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestPovm:
    def test_discrete_completeness_enforced(self):
        with pytest.raises(ValidationError):
            Povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.9])])

    def test_psd_enforced(self):
        with pytest.raises(ValidationError):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    def test_first_failing_element_named(self):
        # element 1 fails positivity before element 2 fails Hermiticity
        hermitian_fail = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="element 1 is not positive semidefinite"):
            Povm([np.eye(2), np.diag([-0.5, 0.0]), hermitian_fail])
        with pytest.raises(ValidationError, match="element 1 is not Hermitian"):
            Povm([np.eye(2), hermitian_fail, np.diag([-0.5, 0.0])])

    def test_element_shapes(self):
        with pytest.raises(ValidationError, match="at least one element"):
            Povm([])
        with pytest.raises(ValidationError, match="mixed dimensions"):
            Povm([np.eye(2), np.eye(3)])
        with pytest.raises(ValidationError, match="expected a square matrix"):
            Povm([np.ones((2, 3)), np.ones((2, 3))])

    def test_random_povms_complete(self, rng):
        for _ in range(10):
            m = random_povm(rng, dim=3, outcomes=4)
            total = sum(m.elements)
            assert np.max(np.abs(total - np.eye(3))) < 1e-10

    def test_gridded_weights(self):
        # two half-weight copies of a basis measurement
        elems = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])] * 2
        m = Povm(elems, weights=[0.5] * 4, completeness_tol=1e-9)
        assert np.array_equal(m.stack, 0.5 * np.array(elems, dtype=complex))
        assert m.completeness_residual < 1e-12

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, True, "1e-3", [1e-3]])
    def test_completeness_tol_finite_nonnegative_real(self, tol):
        with pytest.raises(ValidationError, match="completeness tolerance"):
            Povm([np.eye(2)], completeness_tol=tol)


class TestPovmStack:
    # weighted projectors on random bases, so elements have zero eigenvalues
    # that a small shift pushes past the positivity threshold
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        dim=st.integers(2, 3),
        bases=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        breaks=st.lists(
            st.tuples(st.sampled_from(["none", "hermitian", "psd", "completeness"]), st.floats(-13.0, -7.0)),
            min_size=1, max_size=4,
        ),
        tol_exp=st.floats(-12.0, -8.0),
    )
    def test_stacked_check_matches_each_povm(self, dim, bases, seed, breaks, tol_exp):
        rng = np.random.default_rng(seed)
        tol = 10.0**tol_exp
        rows = []
        for kind, eps_exp in breaks:
            eps = 10.0**eps_exp
            elems = []
            for _ in range(bases):
                q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
                elems += [np.outer(q[:, a], q[:, a].conj()) / bases for a in range(dim)]
            elems = np.array(elems)
            if kind == "hermitian":
                elems[0, 0, 1] += eps
            elif kind == "psd":
                # move eps |w><w| from element 0 to element 1, w orthogonal to
                # element 0's range: completeness holds, element 0 goes negative
                w = np.linalg.eigh(elems[0])[1][:, 0]
                elems[0] -= eps * np.outer(w, w.conj())
                elems[1] += eps * np.outer(w, w.conj())
            elif kind == "completeness":
                elems *= 1.0 + eps
            rows.append(elems)
        stack = np.array(rows)
        single = []
        for row in stack:
            try:
                single.append(Povm(row, completeness_tol=tol))
            except ValidationError:
                single.append(None)
        if None in single:
            with pytest.raises(ValidationError):
                povm_stack(stack, tol)
            return
        mats, residuals = povm_stack(stack, tol)
        for m, got, res in zip(single, mats, residuals):
            assert np.array_equal(got, m.stack)
            assert res == m.completeness_residual


class TestProbabilityWindow:
    # |sum_k p_k - 1| = |tr(rho (sum_k E_k - I))| <= dim times the largest
    # entry of sum_k E_k - I, so every POVM the constructor admits keeps the
    # total of every state inside its prob_sum_tol window
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        dim=st.integers(2, 5),
        outcomes=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        tol=st.floats(1e-9, 1e-2),
        shrink=st.floats(0.0, 1.0),
        grow=st.floats(0.0, 1.0),
        weighted=st.booleans(),
    )
    def test_total_within_window(self, dim, outcomes, seed, tol, shrink, grow, weighted):
        rng = np.random.default_rng(seed)
        # residual -shrink*tol/2 I + grow*tol/2 u u^dagger, at most tol/2
        # per entry
        elems = random_povm(rng, dim, outcomes).stack * (1 - shrink * tol / 2)
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        elems[0] += grow * tol / 2 * np.outer(u, u.conj())
        if weighted:
            w = rng.uniform(0.1, 10.0, outcomes)
            m = Povm(elems / w[:, None, None], weights=w, completeness_tol=tol)
        else:
            m = Povm(elems, completeness_tol=tol)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        pure = [np.outer(x, x.conj()) / np.vdot(x, x).real for x in (u, v)]
        for rho in [random_density(rng, dim), *map(DensityOperator, pure)]:
            total = trace_products(m.stack, rho.matrix).sum()
            assert abs(total - 1) <= m.prob_sum_tol
            measure_distribution(rho, m)


class TestMeasureDistribution:
    def test_eigenstate(self):
        dist = measure_distribution(DensityOperator(np.diag([1.0, 0.0])), basis_povm())
        assert np.allclose(dist.probs, [1.0, 0.0])

    def test_qubit_family_diagonal(self):
        # paper's qubit matrix: diagonal entries (1 +- x)/2
        for x in (-0.4, 0.0, 0.7):
            dist = measure_distribution(qubit(x, 0.2, -0.1), basis_povm())
            assert np.allclose(dist.probs, [(1 + x) / 2, (1 - x) / 2], atol=1e-12)

    def test_maximally_mixed_against_trace_oracle(self, rng):
        rho = DensityOperator(np.eye(2) / 2)
        for _ in range(10):
            m = random_povm(rng, dim=2, outcomes=3)
            dist = measure_distribution(rho, m)
            oracle = [np.real(np.trace(e)) / 2 for e in m.elements]
            assert np.allclose(dist.probs, oracle, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            measure_distribution(DensityOperator(np.eye(3) / 3), basis_povm())

    def test_sums_to_one(self, rng):
        for _ in range(5):
            dist = measure_distribution(random_density(rng), random_povm(rng, outcomes=5))
            assert abs(dist.probs.sum() - 1) < 1e-8


def born_loop(a, m):
    """Re tr(a M_w) one element at a time: the loop the kernel replaced."""
    return np.array([float(np.real(np.sum(a.T * e))) for e in m.elements])


class TestTraceProducts:
    # the per-element loop is the oracle; the kernel sums the same dim^2
    # products in another order, so both agree to dim^2 roundings of the
    # largest product
    @pytest.mark.parametrize("kind", ["random", "heterodyne"])
    def test_matches_per_element_loop(self, rng, kind):
        if kind == "random":
            m = random_povm(rng, dim=4, outcomes=7)
        else:
            m = heterodyne_povm(8, radius=5.0, n_radial=6, n_angle=8, completeness_tol=0.5)
        # a state (probabilities) and a Hermitian operand (derivatives)
        for a in (random_density(rng, m.dim).matrix, random_hermitian(rng, m.dim)):
            tol = 4 * m.dim**2 * np.finfo(float).eps * np.abs(a).max() * np.abs(m.stack).max()
            assert np.max(np.abs(trace_products(m.stack, a) - born_loop(a, m))) <= tol

    def test_value_independent_of_stack(self, rng):
        m = random_povm(rng, dim=3, outcomes=5)
        a = random_hermitian(rng, 3)
        whole = trace_products(m.stack, a)
        assert all(trace_products(m.stack[i], a) == whole[i] for i in range(len(m)))

    def test_empty_stack(self, rng):
        # no products to sum: an empty result of the broadcast shape
        a = random_hermitian(rng, 3)
        assert trace_products(np.empty((0, 3, 3)), a).shape == (0,)
        assert trace_products(np.empty((4, 0, 3, 3)), a).shape == (4, 0)


def diagonal_pair_moments(rho, x):
    """(v, s) from the diagonals of the (d, d, dim, dim) stack rho X_k X_l:
    the former kernel, the oracle for the Born-rule one."""
    tr = np.diagonal((rho @ x)[:, None] @ x[None], axis1=-2, axis2=-1).sum(axis=-1)
    return 0.5 * np.real(tr + tr.T), np.real(-0.5j * (tr - tr.T))


def random_tuple(rng, rho, d, centred):
    x = np.array([random_hermitian(rng, len(rho)) for _ in range(d)])
    if centred:
        x -= np.real(np.trace(rho @ x, axis1=-2, axis2=-1))[:, None, None] * np.eye(len(rho))
    return x


class TestPairMoments:
    @pytest.mark.parametrize("centred", [False, True])
    @pytest.mark.parametrize("dim, d", [(2, 3), (3, 2), (4, 4)])
    def test_exact_symmetry_and_diagonal_oracle(self, rng, centred, dim, d):
        for _ in range(20):
            rho = random_density(rng, dim).matrix
            x = random_tuple(rng, rho, d, centred)
            v, s = pair_moments(rho, x)
            assert np.array_equal(v, v.T) and np.array_equal(s, -s.T)
            v_old, s_old = diagonal_pair_moments(rho, x)
            scale = np.abs(v_old).max()
            assert np.abs(v - v_old).max() <= 1e-14 * scale
            assert np.abs(s - s_old).max() <= 1e-14 * scale

    def test_stack_matches_one_state_calls(self, rng):
        # a stack of states under one tuple, and a stack of (state, tuple) rows
        states = np.array([random_density(rng, 3).matrix for _ in range(5)])
        x = random_tuple(rng, states[0], 3, False)
        rows = np.array([random_tuple(rng, states[0], 3, False) for _ in range(5)])
        for ops, per_row in [(x, [x] * 5), (rows, rows)]:
            v, s = pair_moments(states, ops)
            for r, (state, row_ops) in enumerate(zip(states, per_row)):
                v_r, s_r = pair_moments(state, row_ops)
                assert np.array_equal(v[r], v_r) and np.array_equal(s[r], s_r)

    def test_qubit_closed_forms(self, rng):
        # sigma_k sigma_l + sigma_l sigma_k = 2 delta_kl I and
        # -i [sigma_x, sigma_y] / 2 = sigma_z: v = I, s_xy = r_z
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        for _ in range(10):
            r = rng.standard_normal(3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            rho = (np.eye(2) + np.einsum("k,kab->ab", r, paulis)) / 2
            v, s = pair_moments(rho, paulis)
            assert np.array_equal(v, np.eye(3))
            assert np.abs(s - np.array([[0, r[2], -r[1]], [-r[2], 0, r[0]], [r[1], -r[0], 0]])).max() < 1e-15


def random_symmetric(rng, dim, kind):
    h = random_hermitian(rng, dim)
    return h if kind == "complex" else h.real


class TestHermitianFunction:
    # scipy.linalg is the oracle here only; the package does not import it
    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_matches_scipy(self, rng, kind, dim):
        from scipy.linalg import expm, fractional_matrix_power, sqrtm

        for _ in range(10):
            h = random_symmetric(rng, dim, kind)
            assert np.abs(hermitian_function(h, lambda w: np.exp(-1j * w)) - expm(-1j * h)).max() < 1e-12
            # positive definite, condition number at most about 10
            m = h @ h.conj().T + np.abs(h).max() ** 2 * np.eye(dim)
            root = hermitian_function(m, np.sqrt)
            inverse_root = hermitian_function(m, lambda w: w**-0.5)
            assert root.dtype == inverse_root.dtype == m.dtype
            assert np.abs(root - sqrtm(m)).max() < 1e-12 * np.abs(m).max() ** 0.5
            assert np.abs(inverse_root - fractional_matrix_power(m, -0.5)).max() < 1e-12 / np.abs(m).max() ** 0.5

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_stack_matches_one_matrix_calls(self, rng, kind):
        stack = np.array([random_symmetric(rng, 4, kind) for _ in range(6)]).reshape(2, 3, 4, 4)
        for f in (lambda w: np.exp(-1j * w), np.abs, lambda w: np.clip(w, 0.0, None)):
            whole = hermitian_function(stack, f)
            assert whole.shape == stack.shape
            for index in np.ndindex(2, 3):
                assert np.array_equal(whole[index], hermitian_function(stack[index], f))

    def test_refusal_of_f_propagates(self, rng):
        def refuse(w):
            raise NumericalError("spectrum refused")

        with pytest.raises(NumericalError, match="spectrum refused"):
            hermitian_function(random_hermitian(rng, 3), refuse)

    def test_callers_keep_their_refusals(self):
        # a singular J_S (the second parameter moves nothing), a singular v',
        # a singular weight and a negative definite Fisher matrix: each caller
        # raises its own class and message from inside the kernel
        from qest.bounds import qubit_c1
        from qest.collective import _optimal_qubit_povms, default_v_prime
        from qest.gaussian import ONE_MODE_S, smearing_kernel
        from qest.models import ParametricModel

        z = np.diag([1.0, -1.0]).astype(complex)
        flat = ParametricModel(
            name="flat", param_dim=2, hilbert_dim=2,
            states=lambda t: (np.eye(2) + t[..., 0, None, None] * z) / 2,
            domain_check=lambda t: np.abs(t[..., 0]) < 1,
            domain_box=((-1.0, 1.0), (-1.0, 1.0)),
            derivatives=lambda t: np.array([z / 2, 0 * z]),
        )
        with pytest.raises(NumericalError, match="^SLD Fisher matrix is singular$"):
            _optimal_qubit_povms(flat, np.array([[0.3, 0.0], [0.1, 0.2]]), np.eye(2))
        for v_prime in (np.diag([1.0, 0.0]), np.diag([1.0, -1.0])):
            with pytest.raises(ValidationError, match="^v' must be positive definite$"):
                smearing_kernel(v_prime, ONE_MODE_S)
        refusal = "^matrix inverse square root needs positive definiteness$"
        with pytest.raises(NumericalError, match=refusal):
            default_v_prime(np.array([[0.0, 0.5], [-0.5, 0.0]]), np.diag([1.0, 0.0]))
        with pytest.raises(NumericalError, match=refusal):
            qubit_c1(-np.eye(2), np.eye(2))


class TestProbabilityRows:
    def test_empty_stack(self):
        assert probability_rows(np.empty((0, 4)), 1e-9).shape == (0, 4)
        assert probability_rows(np.empty((0, 4)), np.empty(0)).shape == (0, 4)

    def test_rules_per_row(self):
        p = probability_rows([[0.5, 0.5 + 1e-10], [1.0, -1e-13]], 1e-9)
        assert np.array_equal(p[1], [1.0, 0.0]) and abs(p[0].sum() - 1) < 1e-15
        with pytest.raises(ValidationError, match="negative"):
            probability_rows([[1.1, -0.1]], 1e-9)
        with pytest.raises(ValidationError, match="sum to"):
            probability_rows([[0.5, 0.5], [0.5, 0.6]], [1e-9, 1e-3])


class TestMix:
    def test_identity_case(self):
        rho = qubit(0.2, -0.3, 0.1)
        assert np.allclose(mix([rho], [1.0]).matrix, rho.matrix)

    def test_symmetric_blend(self):
        out = mix(
            [DensityOperator(np.diag([1.0, 0.0])), DensityOperator(np.diag([0.0, 1.0]))],
            [0.5, 0.5],
        )
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_linearity_against_born_oracle(self, rng):
        rho1, rho2 = random_density(rng), random_density(rng)
        blend = mix([rho1, rho2], [0.3, 0.7])
        for _ in range(20):
            m = random_povm(rng, outcomes=4)
            left = measure_distribution(blend, m).probs
            right = (
                0.3 * measure_distribution(rho1, m).probs
                + 0.7 * measure_distribution(rho2, m).probs
            )
            assert np.max(np.abs(left - right)) < 1e-12

    def test_negative_weight_rejected(self):
        rho = qubit(0, 0, 0)
        with pytest.raises(ValidationError):
            mix([rho, rho], [1.5, -0.5])


class TestTensorPower:
    def test_identity_case(self):
        rho = qubit(0.1, 0.2, 0.3)
        assert np.allclose(tensor_power(rho, 1).matrix, rho.matrix)

    def test_dimension_bookkeeping(self):
        assert tensor_power(qubit(0, 0, 0), 3).dim == 8

    def test_purity_multiplicative(self, rng):
        rho = random_density(rng)
        squared = tensor_power(rho, 2)
        direct = np.real(np.trace(squared.matrix @ squared.matrix))
        assert abs(direct - rho.purity() ** 2) < 1e-12

    def test_trace_preserved(self, rng):
        rho = random_density(rng)
        assert abs(np.real(np.trace(tensor_power(rho, 5).matrix)) - 1) < 1e-9

    def test_cap(self):
        # 8192^2 complex entries are exactly the 1 GiB limit
        with pytest.raises(NumericalError):
            tensor_power(qubit(0, 0, 0), 13)


class TestArrayBytes:
    def test_boundary(self):
        assert MAX_ARRAY_BYTES == 2**30
        check_array_bytes((2**26 - 1,), "an array")  # 2^30 - 16 bytes
        with pytest.raises(NumericalError, match="an array would take 1.00 GiB, over the 1 GiB limit"):
            check_array_bytes((2**26,), "an array")

    def test_sub_gib_limit_is_stated(self, monkeypatch):
        monkeypatch.setattr(qcore, "MAX_ARRAY_BYTES", 16 * 2**20)
        with pytest.raises(NumericalError, match="an array would take 0.03 GiB, over the 16 MiB limit"):
            check_array_bytes((2**21,), "an array")

    def test_no_integer_overflow(self):
        # 16^20 entries overflow int64; the size must still be refused
        with pytest.raises(NumericalError):
            check_array_bytes((16**10, 16**10), "an array")


class TestSampleOutcomes:
    def test_deterministic_distribution(self):
        dist = OutcomeDistribution(["a"], [1.0])
        assert sample_outcomes(dist, seed=7, count=5) == ["a"] * 5

    def test_seed_reproducibility(self):
        dist = OutcomeDistribution([0, 1, 2], [0.2, 0.5, 0.3])
        assert sample_outcomes(dist, 123, 1000) == sample_outcomes(dist, 123, 1000)

    def test_binomial_frequency(self):
        dist = OutcomeDistribution([0, 1], [0.75, 0.25])
        draws = sample_outcomes(dist, seed=42, count=10**6)
        freq = draws.count(0) / 10**6
        # binomial sd sqrt(p q / n) ~ 4.3e-4; 0.0015 is a > 3 sigma margin
        assert abs(freq - 0.75) < 0.0015

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution([], [])


class TestSerialization:
    def test_matrix_roundtrip(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        data = json.loads(json.dumps(matrix_to_json(m)))
        assert np.allclose(matrix_from_json(data), m)

    def test_distribution_csv(self):
        dist = OutcomeDistribution([0, 1], [0.75, 0.25])
        text = dist.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "label,prob"
        assert lines[1].startswith("0,0.75")

    def test_malformed_matrix_json(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})

    def test_density_operator_roundtrip(self):
        rho = qubit(0.2, -0.1, 0.3)
        back = DensityOperator.from_json_dict(json.loads(json.dumps(rho.to_json_dict())))
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15
