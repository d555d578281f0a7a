import numpy as np
import pytest

from qest import qcore
from qest.clt import (
    CollectiveSpec,
    _dense_sectors,
    _smearing_blocks,
    build_collective_ops,
    clt_gap,
    collective_moment,
    collective_moment_bruteforce,
    collective_sectors,
    sector_states,
    t_operator_on_sums,
)
from qest.errors import NumericalError, ValidationError
from qest.gaussian import smearing_kernel, t_density
from qest.qcore import DensityOperator, tensor_power

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, random_density, random_hermitian


def mixed_qubit():
    return DensityOperator(np.eye(2) / 2)


def spec_sigma_z():
    return CollectiveSpec(mixed_qubit(), [SIGMA_Z])


class TestCollectiveSpec:
    def test_centering(self, rng):
        rho = random_density(rng)
        spec = CollectiveSpec(rho, [random_hermitian(rng), random_hermitian(rng)])
        for x in spec.x_ops:
            assert abs(np.trace(rho.matrix @ x)) < 1e-12

    def test_pair_matrices(self):
        spec = CollectiveSpec(DensityOperator(np.diag([0.75, 0.25])), [SIGMA_X, SIGMA_Y])
        assert np.allclose(spec.v, np.eye(2), atol=1e-12)
        assert abs(spec.s[0, 1] - 0.5) < 1e-12

    def test_empty_operator_tuple(self):
        with pytest.raises(ValidationError):
            CollectiveSpec(mixed_qubit(), [])


class TestCollectiveMoment:
    def test_second_moment_n_independent(self):
        spec = CollectiveSpec(DensityOperator(np.diag([0.75, 0.25])), [SIGMA_X, SIGMA_Y])
        base = spec.v + 1j * spec.s
        for n in range(1, 65):
            for word, want in [((1, 2), base[0, 1]), ((1, 1), base[0, 0])]:
                val = collective_moment(spec, n, word)
                assert abs(val - want) < 1e-12

    def test_pauli_cross_moment(self):
        # Tr rho sx sy = i Tr rho sz = i/2 at diag(3/4, 1/4)
        spec = CollectiveSpec(DensityOperator(np.diag([0.75, 0.25])), [SIGMA_X, SIGMA_Y])
        assert abs(collective_moment(spec, 7, (1, 2)) - 0.5j) < 1e-14

    def test_fourth_moment_formula(self):
        # i.i.d. +-1 sum: 3 - 2/n
        spec = spec_sigma_z()
        for n in (1, 2, 5, 10, 64):
            val = collective_moment(spec, n, (1, 1, 1, 1))
            assert abs(val - (3.0 - 2.0 / n)) < 1e-12

    def test_odd_word_vanishes(self):
        spec = spec_sigma_z()
        assert collective_moment(spec, 6, (1, 1, 1)) == 0

    def test_empty_word_is_one(self):
        # the one partition of no positions, with no blocks
        spec = CollectiveSpec(DensityOperator(np.diag([0.75, 0.25])), [SIGMA_X, SIGMA_Y])
        for n in (1, 3, 8):
            assert collective_moment(spec, n, ()) == 1

    def test_against_bruteforce(self, rng):
        for _ in range(3):
            rho = random_density(rng)
            spec = CollectiveSpec(rho, [random_hermitian(rng), random_hermitian(rng)])
            for n in (1, 2, 3, 4):
                for word in [(1, 2), (1, 1, 2), (2, 1, 2, 1), (1, 1, 1, 1)]:
                    fast = collective_moment(spec, n, word)
                    slow = collective_moment_bruteforce(spec, n, word)
                    assert abs(fast - slow) < 1e-10, (n, word)

    def test_degree_cap(self):
        with pytest.raises(ValidationError):
            collective_moment(spec_sigma_z(), 4, (1,) * 9)


class TestCltGap:
    def test_degree_two_zero_gap(self):
        spec = CollectiveSpec(DensityOperator(np.diag([0.75, 0.25])), [SIGMA_X, SIGMA_Y])
        for _, gap in clt_gap(spec, [1, 2, 4, 8, 16], (1, 2)):
            assert gap < 1e-12

    def test_fourth_moment_gap(self):
        rows = clt_gap(spec_sigma_z(), [10], (1, 1, 1, 1))
        assert abs(rows[0][1] - 0.2) < 1e-12

    def test_odd_gap_zero(self):
        rows = clt_gap(spec_sigma_z(), [5], (1, 1, 1))
        assert rows[0][1] == 0

    def test_inverse_n_scaling(self):
        rows = dict(clt_gap(spec_sigma_z(), [8, 16, 32], (1, 1, 1, 1)))
        assert 0.3 <= rows[16] / rows[8] <= 0.7
        assert 0.3 <= rows[32] / rows[16] <= 0.7

    def test_linear_fit_r_squared(self):
        ns = np.array([4, 8, 16, 32])
        gaps = np.array([gap for _, gap in clt_gap(spec_sigma_z(), ns, (1, 1, 1, 1))])
        x = 1.0 / ns
        slope, intercept = np.polyfit(x, gaps, 1)
        pred = slope * x + intercept
        ss_res = np.sum((gaps - pred) ** 2)
        ss_tot = np.sum((gaps - gaps.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.999


class TestSpinSectors:
    def test_multiplicities_fill_the_space(self):
        for n in range(1, 13):
            sectors = collective_sectors([SIGMA_X], n)
            assert sum(sec.multiplicity * (sec.two_j + 1) for sec in sectors) == 2**n
            assert [sec.two_j for sec in sectors] == list(range(n, -1, -2))

    def test_moments_match_combinatorial_engine(self, rng):
        # sum_j m_j tr(pi_j(rho) B_j^{k1} ... B_j^{km}) is the collective
        # moment, checked against the combinatorial engine far beyond the
        # dense cap, for a mixed and a rank-1 state
        pure = np.array([np.cos(0.4), np.exp(0.7j) * np.sin(0.4)])
        for rho in (random_density(rng), DensityOperator(np.outer(pure, pure.conj()))):
            spec = CollectiveSpec(rho, [random_hermitian(rng), random_hermitian(rng)])
            for n in (1, 2, 5, 8, 13, 24):
                sectors = collective_sectors(spec.x_ops, n)
                blocks = sector_states(rho.matrix, n, sectors)
                for word in ((1, 1), (1, 2), (2, 1, 2), (1, 2, 1, 2), (1, 1, 2, 2, 1, 2)):
                    total = 0j
                    for sec, block in zip(sectors, blocks):
                        prod = block
                        for k in word:
                            prod = prod @ sec.ops[k - 1]
                        total += sec.multiplicity * np.trace(prod)
                    exact = collective_moment(spec, n, word)
                    assert abs(total - exact) < 1e-9 * max(1.0, abs(exact))

    def test_spectra_match_dense(self, rng):
        rho = random_density(rng)
        x = random_hermitian(rng)
        for n in range(1, 9):
            sectors = collective_sectors([x], n)
            blocks = sector_states(rho.matrix, n, sectors)

            def spread(mats):
                return np.sort(np.concatenate(
                    [np.repeat(np.linalg.eigvalsh(m), sec.multiplicity) for sec, m in zip(sectors, mats)]
                ))

            dense_x = np.linalg.eigvalsh(build_collective_ops([x], n)[0])
            dense_rho = np.linalg.eigvalsh(tensor_power(rho, n).matrix)
            assert np.max(np.abs(spread([sec.ops[0] for sec in sectors]) - dense_x)) < 1e-12
            assert np.max(np.abs(spread(blocks) - dense_rho)) < 1e-14

    def test_collective_ops_match_site_by_site_sum(self, rng):
        # the recursion S_{k+1} = S_k (x) I + I (x) X adds the same terms in
        # the same order as the sum over sites of one Kronecker chain each
        for dim in (2, 3, 4):
            x_ops = [random_hermitian(rng, dim), random_hermitian(rng, dim)]
            for n in range(1, 6):
                fast = build_collective_ops(x_ops, n)
                for x, op in zip(x_ops, fast):
                    assert np.array_equal(op, _site_by_site_sum(x, n))

    def test_other_dimensions_use_one_dense_block(self):
        ops = [np.diag([1.0, 0.0, -1.0])]
        (sector,) = collective_sectors(ops, 3)
        assert sector.two_j is None and sector.multiplicity == 1
        assert np.allclose(sector.ops[0], build_collective_ops(ops, 3)[0])


def _site_by_site_sum(x, n):
    """X^(n) as the sum over sites j of I (x) .. (x) X (x) .. (x) I, one
    n-factor Kronecker chain per site (n^2 products)."""
    dim = x.shape[0]
    eye = np.eye(dim, dtype=complex)
    total = np.zeros((dim**n, dim**n), dtype=complex)
    for j in range(n):
        factor = np.eye(1, dtype=complex)
        for site in range(n):
            factor = np.kron(factor, x if site == j else eye)
        total += factor
    return total / np.sqrt(n)


class TestTOperatorOnSums:
    def test_scalar_gaussian_kernel(self):
        # d = 1: T = exp(-(X - t)^2 / 2v') / sqrt(2 pi v'), by spectral calculus
        spec = spec_sigma_z()
        v_prime = np.array([[0.8]])
        n = 3
        t_mat = t_operator_on_sums(spec, n, [0.4], v_prime)
        xs = build_collective_ops(spec.x_ops, n)[0]
        w, u = np.linalg.eigh(xs)
        direct = (u * (np.exp(-((w - 0.4) ** 2) / (2 * 0.8)) / np.sqrt(2 * np.pi * 0.8))) @ u.conj().T
        assert np.max(np.abs(t_mat - direct)) < 1e-12

    def test_scalar_integral_identity(self):
        # the theta' integral of the scalar kernel is exactly I
        spec = spec_sigma_z()
        n = 2
        grid = np.arange(-8, 8.0001, 0.02)
        total = t_operator_on_sums(spec, n, grid[:, None], [[0.5]]).sum(axis=0) * 0.02
        assert np.max(np.abs(total - np.eye(4))) < 1e-8

    def test_hermitian_psd(self, rng):
        rho = random_density(rng)
        spec = CollectiveSpec(rho, [random_hermitian(rng), random_hermitian(rng)])
        t_mat = t_operator_on_sums(spec, 3, [0.1, -0.2], spec.v + np.abs(spec.s[0, 1]) * np.eye(2) + 0.1 * np.eye(2))
        assert np.max(np.abs(t_mat - t_mat.conj().T)) < 1e-9
        assert np.linalg.eigvalsh(t_mat).min() > -1e-9

    def test_theorem_two_trend(self):
        # Tr rho^n T_{0,I}(X^(n)) approaches the Gaussian outcome density
        # 1/(4 pi) monotonically on the tested ladder
        spec = CollectiveSpec(mixed_qubit(), [SIGMA_X, SIGMA_Y])
        target = t_density([0.0, 0.0], np.eye(2), spec.limit_spec())
        assert abs(target - 1.0 / (4 * np.pi)) < 1e-14
        gaps = []
        for n in (2, 4, 6, 8):
            t_mat = t_operator_on_sums(spec, n, [0.0, 0.0], np.eye(2))
            rho_n = tensor_power(mixed_qubit(), n).matrix
            val = float(np.real(np.trace(rho_n @ t_mat)))
            gaps.append(abs(val - target))
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))

    def test_grid_completeness_state_weighted(self):
        # the operator-norm completeness defect of the bare smearing family
        # does not vanish for noncommuting tuples (hence the square-root
        # sandwich downstream); the state-weighted defect on a 5 sigma box
        # must shrink toward the exact limit
        spec = CollectiveSpec(mixed_qubit(), [SIGMA_X, SIGMA_Y])
        devs = []
        for n in (1, 2, 4, 6):
            step = 0.5
            grid = np.arange(-5.5, 5.5001, step)
            gx, gy = np.meshgrid(grid, grid, indexing="ij")
            points = np.column_stack([gx.ravel(), gy.ravel()])
            total = t_operator_on_sums(spec, n, points, np.eye(2)).sum(axis=0) * step**2
            rho_n = tensor_power(mixed_qubit(), n).matrix
            devs.append(abs(float(np.real(np.trace(rho_n @ total))) - 1.0))
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
        assert devs[-1] < 0.03

    def test_point_stack_matches_single_points(self, rng):
        # the single-point call is the oracle for the stacked one
        rho = random_density(rng)
        spec = CollectiveSpec(rho, [random_hermitian(rng), random_hermitian(rng)])
        v_prime = spec.v + np.abs(spec.s[0, 1]) * np.eye(2) + 0.1 * np.eye(2)
        points = rng.normal(size=(5, 2))
        stack = t_operator_on_sums(spec, 3, points, v_prime)
        assert stack.shape == (5, 8, 8)
        for point, t_mat in zip(points, stack):
            assert np.max(np.abs(t_mat - t_operator_on_sums(spec, 3, point, v_prime))) < 1e-14
        with pytest.raises(ValidationError):
            t_operator_on_sums(spec, 3, points[None], v_prime)

    def test_eigenvalue_condition(self):
        spec = CollectiveSpec(DensityOperator(np.diag([0.75, 0.25])), [SIGMA_X, SIGMA_Y])
        with pytest.raises(NumericalError):
            t_operator_on_sums(spec, 2, [0.0, 0.0], 0.3 * np.eye(2))

    def test_cap(self):
        # the 8192 x 8192 collective sum is exactly the 1 GiB limit
        spec = spec_sigma_z()
        with pytest.raises(NumericalError):
            t_operator_on_sums(spec, 13, [0.0], [[1.0]])

    def test_smearing_stack_limit(self):
        # 1024 points of 256 x 256 blocks are exactly 1 GiB: refused before
        # the stack is built
        spec = spec_sigma_z()
        with pytest.raises(NumericalError, match="smearing operators"):
            t_operator_on_sums(spec, 8, np.zeros((1024, 1)), [[1.0]])

    def test_symmetrized_in_place(self, rng, monkeypatch):
        # the output is (T + T^dagger) / 2 of the smearing builder bit for bit,
        # and the check counts the builder's two stacks: a limit between one
        # stack and two refuses
        spec = CollectiveSpec(random_density(rng), [random_hermitian(rng), random_hermitian(rng)])
        v_prime = spec.v + np.abs(spec.s[0, 1]) * np.eye(2) + 0.1 * np.eye(2)
        points = rng.normal(size=(5, 2))
        (whole,) = _dense_sectors(spec.x_ops, 3)
        t = _smearing_blocks(whole.ops, *smearing_kernel(v_prime, spec.s), points)
        assert np.array_equal(t_operator_on_sums(spec, 3, points, v_prime), (t + t.conj().swapaxes(-1, -2)) / 2)
        monkeypatch.setattr(qcore, "MAX_ARRAY_BYTES", 16 * 5 * 8 * 8 * 3 // 2)
        with pytest.raises(NumericalError, match="two stacks of smearing operators"):
            t_operator_on_sums(spec, 3, points, v_prime)
