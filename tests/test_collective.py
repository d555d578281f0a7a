import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qest import clt, collective, qcore
from qest.bounds import holevo_bound, qubit_c1
from qest.clt import (
    CollectiveSpec,
    _dense_layout,
    _smearing_blocks,
    build_collective_ops,
    collective_layout,
)
from qest.collective import (
    CollectiveCheckRow,
    _ascend,
    _estimator_rows,
    _grid_starts,
    _grid_table,
    _kernel_and_grid,
    _optimal_qubit_povms,
    _outcome_order,
    _povm_on_sectors,
    _smearing_sums,
    ball_grid,
    build_collective_povm,
    collective_estimator_check,
    default_v_prime,
    mixed_basis_povm,
    mle,
    mse_report,
    optimal_qubit_povm,
    point_rule,
    polar_rule,
    two_stage_estimate,
)
from qest.errors import NumericalError, ValidationError
from qest.fisher import classical_fisher, sld_fisher
from qest.models import ParametricModel, model_from_name, qubit_family
from qest.qcore import (
    DensityOperator,
    Povm,
    measure_distribution,
    povm_stack,
    probability_rows,
    tensor_power,
    trace_products,
)

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, pure_qubit_model


def one_param_model():
    """diag((1+x)/2, (1-x)/2) with derivative sigma_z/2."""
    return ParametricModel(
        name="one-param",
        param_dim=1,
        hilbert_dim=2,
        states=lambda t: (np.eye(2) + t[..., 0, None, None] * SIGMA_Z) / 2,
        domain_check=lambda t: np.abs(t[..., 0]) < 1,
        domain_box=((-1.0, 1.0),),
        derivatives=lambda t: 0.5 * SIGMA_Z[None],
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


def _holevo_spec(name, theta):
    """Spec and default v' (eps = 0.1) of ``estimate --mode collective`` at
    a point of a named model."""
    model = model_from_name(name)
    theta = np.array(theta)
    solution = holevo_bound(model, theta, np.eye(len(theta)))
    spec = CollectiveSpec(model.state_at(theta), solution.x_ops)
    return spec, default_v_prime(solution.s_matrix, np.eye(len(theta)), 0.1)


# what the build's one memory check names; ``ball_grid`` checks its lattice cube before it
BUILD = "the collective build"


def _no_sectors(*args):
    raise AssertionError("a sector was built")


def _forbid_sectors(monkeypatch):
    """Make building any block of either layout fail the test."""
    monkeypatch.setattr(clt, "_spin_sectors", _no_sectors)
    monkeypatch.setattr(clt, "build_collective_ops", _no_sectors)


def _layout_and_rule(spec, v_prime, n, radius=None, grid_step=None):
    """The layout, kernel and rule that ``build_collective_povm`` picks."""
    layout = collective_layout(spec.x_ops)
    return (layout, *_kernel_and_grid(spec, layout, v_prime, n, radius, grid_step))


def _traced_peak(call, limit=None):
    """Peak bytes ``tracemalloc`` sees while ``call()`` runs, checked against
    ``limit`` also when the call raises."""
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert limit is None or peak < limit
    return peak


def _counted_bytes(monkeypatch, call) -> dict:
    """Bytes of every ``qcore.check_array_bytes`` call while ``call()`` runs,
    keyed by the name of what it checks."""
    counted = {}
    check = qcore.check_array_bytes

    def recorded(shape, what):
        assert what not in counted
        counted[what] = 16 * int(np.prod(shape, dtype=object))
        check(shape, what)

    monkeypatch.setattr(qcore, "check_array_bytes", recorded)
    call()
    monkeypatch.setattr(qcore, "check_array_bytes", check)
    return counted


def tangential_model():
    """(x, y) parameters orthogonal to a Bloch vector of length 1/2."""
    return ParametricModel(
        name="tangential",
        param_dim=2,
        hilbert_dim=2,
        states=lambda t: 0.5 * (
            np.eye(2) + t[..., 0, None, None] * SIGMA_X + t[..., 1, None, None] * SIGMA_Y + 0.5 * SIGMA_Z
        ),
        domain_check=lambda t: t[..., 0] ** 2 + t[..., 1] ** 2 <= 0.74,
        domain_box=((-0.86, 0.86),) * 2,
        derivatives=lambda t: np.array([0.5 * SIGMA_X, 0.5 * SIGMA_Y]),
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
        povm = build_collective_povm(spec, v_prime, n, radius=6.0, grid_step=0.1)
        rho_n = tensor_power(rho, n).matrix
        probs = _probabilities(povm, rho)

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
        povm = build_collective_povm(spec, v_prime, 6, radius=4.0, grid_step=0.25)
        assert povm.completeness_residual < 1e-6
        for stack in povm.elements:
            assert np.linalg.eigvalsh(stack[:50]).min() > -1e-9
        # retained eigenvalues of S dominate (1 - support_gap) on the support
        kept = np.concatenate([np.linalg.eigvalsh(block) for block in povm.s_operator])
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
        povm = build_collective_povm(spec, np.eye(2), 1, radius=7.0, grid_step=0.25)
        (s_op,) = povm.s_operator
        off_identity = s_op - np.trace(s_op) / 2 * np.eye(2)
        assert np.max(np.abs(off_identity)) < 1e-12
        probs = _probabilities(povm, rho)
        probs = probs / probs.sum()
        outs = povm.outcomes
        cov = np.einsum("ik,il,i->kl", outs, outs, probs)
        num = quad(lambda r: r**3 * np.exp(-r * r / 2) * np.cosh(r), 0, 20)[0]
        den = quad(lambda r: r * np.exp(-r * r / 2) * np.cosh(r), 0, 20)[0]
        exact = num / den / 2
        assert np.max(np.abs(cov - exact * np.eye(2))) < 2e-3
        assert np.max(np.abs(cov - 2.0 * np.eye(2))) < 0.25

    def test_dense_stack_over_the_byte_limit_is_refused(self, monkeypatch):
        # diag:3 at n = 7: the 2187 x 2187 block's operators, sums and
        # sandwich temporaries come to 2.00 GiB; the build stops before any
        # sector is built
        spec, v_prime = _holevo_spec("diag:3", (0.2, 0.3))
        _forbid_sectors(monkeypatch)
        with pytest.raises(NumericalError, match="the collective build would take 2.00 GiB"):
            _traced_peak(lambda: build_collective_povm(spec, v_prime, 7), limit=100e6)

    def test_dense_sums_over_the_byte_limit_are_not_built(self, monkeypatch):
        # gauss1:0.3:16 at n = 3: the 4096 x 4096 block is refused before
        # its two 256 MiB collective sums are built
        spec, v_prime = _holevo_spec("gauss1:0.3:16", (0.3, 0.2))
        _forbid_sectors(monkeypatch)
        with pytest.raises(NumericalError, match="the collective build would take 7.00 GiB"):
            _traced_peak(lambda: build_collective_povm(spec, v_prime, 3), limit=100e6)

    @pytest.mark.parametrize(
        "bad",
        [{"radius": -1.0}, {"grid_step": 0.0}, {"radius": 0.0}, {"grid_step": -0.1}, {"radius": np.nan}, {"grid_step": np.inf}],
        ids=["radius-negative", "step-zero", "radius-zero", "step-negative", "radius-nan", "step-inf"],
    )
    def test_bad_radius_or_step_rejected(self, bad):
        # these built 797 nodes on a negative radius, or raised
        # ZeroDivisionError or NumPy's reshape and arange errors
        model, x_ops = tangential_model(), [SIGMA_X, SIGMA_Y]
        spec = CollectiveSpec(model.state_at(np.zeros(2)), x_ops)
        message = "radius and grid step must be positive and finite"
        with pytest.raises(ValidationError, match=message):
            build_collective_povm(spec, 0.6 * np.eye(2), 4, **bad)
        with pytest.raises(ValidationError, match=message):
            collective_estimator_check(model, np.zeros(2), x_ops, 0.6 * np.eye(2), [4], **bad)

    def test_ball_grid_masks(self):
        pts = ball_grid(1.0, 0.5, 2)
        assert all(p @ p <= 1.0 + 1e-12 for p in pts)

    def test_elements_derived_on_first_access(self):
        povms = []

        def povm_at(spec, n):
            povms.append(build_collective_povm(spec, 0.6 * np.eye(2), n))
            return povms[-1]

        _estimator_rows(tangential_model(), np.zeros(2), [SIGMA_X, SIGMA_Y], [3], povm_at)
        (povm,) = povms
        assert "elements" not in povm.__dict__
        # the per-point elements fold into the moments the build made without them
        x = povm.outcomes
        monomials = np.column_stack([np.ones(len(x)), x, (x[:, :, None] * x[:, None, :]).reshape(len(x), -1)])
        for stack, moments in zip(povm.elements, povm.moments):
            assert np.max(np.abs(np.tensordot(monomials.T, stack, axes=1) - moments)) < 1e-12
        assert "elements" in povm.__dict__

    def test_byte_guard_checks_the_chosen_path(self, monkeypatch):
        # the rotation path holds one (R, b, b) stack of 32 radii per sector,
        # the per-point path blocks of lattice rows sized from the same
        # budget: at a limit just above the rotation count the symmetric
        # build runs, and a kernel with A not proportional to I is refused
        # before any sector is built
        spec = CollectiveSpec(tangential_model().state_at(np.zeros(2)), [SIGMA_X, SIGMA_Y])
        n = 8
        rotation = _counted_bytes(monkeypatch, lambda: build_collective_povm(spec, 0.6 * np.eye(2), n))[BUILD]
        per_point = _counted_bytes(monkeypatch, lambda: build_collective_povm(spec, np.diag([0.6, 0.7]), n))[BUILD]
        assert rotation < per_point // 4
        monkeypatch.setattr(qcore, "MAX_ARRAY_BYTES", rotation + 16)
        assert build_collective_povm(spec, 0.6 * np.eye(2), n).completeness_residual < 1e-12
        _forbid_sectors(monkeypatch)
        with pytest.raises(NumericalError, match="the collective build would take"):
            build_collective_povm(spec, np.diag([0.6, 0.7]), n)

    def test_budget_counts_blocks_not_the_whole_grid(self, monkeypatch):
        # with the limit at the whole-grid (G, b, b) stack, the per-point
        # build, which holds two blocks of grid rows, runs; only reading the
        # elements builds that stack, and it is refused
        spec, v_prime = _holevo_spec("qubit-full", (0.2, 0.1, 0.3))
        n, b = 8, 9
        layout, _, rule = _layout_and_rule(spec, v_prime, n)
        assert rule.name == "per-point" and not layout.rotates
        monkeypatch.setattr(qcore, "MAX_ARRAY_BYTES", 16 * len(rule.grid) * b * b)
        povm = build_collective_povm(spec, v_prime, n)
        assert povm.completeness_residual < 1e-12
        with pytest.raises(NumericalError, match="the smearing operators would take"):
            povm.elements

    @pytest.mark.parametrize(
        "name, theta, n",
        [
            ("criterion-7", None, 128),
            ("qubit-full", (0.2, 0.1, 0.3), 32),
            ("diag:3", (0.2, 0.3), 4),
            ("qubit-z0", (0.0, 0.0), 1),
            ("qubit-z0", (0.0, 0.0), 2),
            ("qubit-full", (0.2, 0.1, 0.3), 1),
        ],
        ids=["per-radius", "per-point", "dense", "per-radius-n1", "per-radius-n2", "per-point-n1"],
    )
    def test_traced_peak_within_the_count(self, monkeypatch, name, theta, n):
        # tracemalloc sees the NumPy arrays the build holds; the count bounds
        # their peak and is not more than twice it, also at the smallest
        # builds, where the grid's index arrays outweigh the sectors
        if theta is None:
            spec, v_prime = CollectiveSpec(tangential_model().state_at(np.zeros(2)), [SIGMA_X, SIGMA_Y]), 0.6 * np.eye(2)
        else:
            spec, v_prime = _holevo_spec(name, theta)
        peaks = []
        count = _counted_bytes(monkeypatch, lambda: peaks.append(_traced_peak(lambda: build_collective_povm(spec, v_prime, n))))[BUILD]
        assert count / 2 <= peaks[0] <= count

    @pytest.mark.parametrize(
        "name, theta, n",
        [("qubit-full", (0.2, 0.1, 0.3), 8), ("qubit-z0", (0.0, 0.0), 1), ("diag:3", (0.2, 0.3), 3)],
        ids=["spin", "spin-n1", "dense"],
    )
    def test_elements_traced_peak_within_their_count(self, monkeypatch, name, theta, n):
        # reading the elements holds every sector's (G, b, b) stack and the
        # working stacks of one sector; their check counts all of it
        spec, v_prime = _holevo_spec(name, theta)
        povm = build_collective_povm(spec, v_prime, n)
        peaks = []
        (count,) = _counted_bytes(monkeypatch, lambda: peaks.append(_traced_peak(lambda: povm.elements))).values()
        assert count / 2 <= peaks[0] <= count

    @pytest.mark.parametrize(
        "name, theta, n",
        [("qubit-z0", (0.5, 0.0), 6), ("qubit-full", (0.2, 0.1, 0.3), 3), ("qubit-z0", (0.0, 0.0), 7)],
        ids=["spin-per-radius", "spin-per-point", "origin"],
    )
    def test_elements_read_on_the_build_grid(self, monkeypatch, name, theta, n):
        # the elements' smearing operators sit on the build's own nodes, bit
        # for bit, not on outcomes * sqrt(n) (which misses some in the last bit)
        spec, v_prime = _holevo_spec(name, theta)
        grid = _layout_and_rule(spec, v_prime, n)[2].grid
        povm = build_collective_povm(spec, v_prime, n)
        points = []

        def recorded(ops, a_mat, z_norm, at):
            points.append(at)
            return _smearing_blocks(ops, a_mat, z_norm, at)

        monkeypatch.setattr(clt, "_smearing_blocks", recorded)
        povm.elements
        assert len(points) == len(povm.sectors)
        assert all(at.tobytes() == grid.tobytes() for at in points)
        assert np.array_equal(povm.outcomes, grid / np.sqrt(n))

    def test_numerically_zero_s_is_refused(self, monkeypatch):
        # sums that give S = 0 on every sector leave no support to sandwich on
        spec = CollectiveSpec(tangential_model().state_at(np.zeros(2)), [SIGMA_X, SIGMA_Y])
        monkeypatch.setattr(
            collective, "_smearing_sums", lambda sectors, *args: [np.zeros((7,) + sec.ops.shape[1:], complex) for sec in sectors]
        )
        with pytest.raises(NumericalError, match="accumulated smearing operator is numerically zero"):
            build_collective_povm(spec, 0.6 * np.eye(2), 4)

    def test_lattice_cube_checked_before_it_is_built(self, monkeypatch):
        # at d = 3 and step radius / 48 the lattice cube's float arrays take
        # about 45 MB for an 11 MB grid; ball_grid refuses them under a
        # 16 MiB limit before it builds them
        spec, v_prime = _holevo_spec("qubit-full", (0.2, 0.1, 0.3))
        radius = _default_radius(spec, v_prime)
        limit = 16 << 20
        monkeypatch.setattr(qcore, "MAX_ARRAY_BYTES", limit)
        _forbid_sectors(monkeypatch)
        with pytest.raises(NumericalError, match="the ball grid's lattice cube would take"):
            _traced_peak(lambda: build_collective_povm(spec, v_prime, 2, grid_step=radius / 48), limit=limit)

    @pytest.mark.parametrize(
        "name, theta, n",
        [("qubit-z0", (0.5, 0.0), 6), ("qubit-full", (0.2, 0.1, 0.3), 3), ("diag:3", (0.2, 0.3), 2)],
        ids=["spin-per-radius", "spin-per-point", "dense"],
    )
    def test_moments_written_over_the_sums_match_the_sandwich(self, name, theta, n):
        # S and the moments, built in place over the sums one sector at a
        # time, equal the out-of-place sandwich of the sums, with S^-1/2
        # from the spectra of all S blocks at once, bit for bit
        spec, v_prime = _holevo_spec(name, theta)
        layout, kernel, rule = _layout_and_rule(spec, v_prime, n)
        povm = _povm_on_sectors(spec.x_ops, layout, n, kernel, rule)
        raws = _smearing_sums(povm.sectors, n, kernel, rule)
        spectra = [np.linalg.eigh((raw[0] + raw[0].conj().T) / 2) for raw in raws]
        top = max(w.max() for w, _ in spectra)
        for raw, (w, u), s_op, moments in zip(raws, spectra, povm.s_operator, povm.moments):
            assert np.array_equal(s_op, (raw[0] + raw[0].conj().T) / 2)
            keep = w > collective.SUPPORT_THRESHOLD * top
            s_isqrt = (u[:, keep] * (w[keep] ** -0.5)) @ u[:, keep].conj().T
            o = s_isqrt @ raw @ s_isqrt
            assert np.array_equal(moments, (o + o.conj().swapaxes(-1, -2)) / 2)


class TestBallGrid:
    """The ball grid: the cubic lattice through -radius, clipped to the ball
    around 0."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(d=st.integers(1, 3), radius=st.floats(0.2, 5.0), cells=st.floats(2.0, 10.0))
    def test_every_lattice_node_in_the_ball_once(self, d, radius, cells):
        step = radius / cells
        grid = ball_grid(radius, step, d)
        assert (np.einsum("ij,ij->i", grid, grid) <= radius**2 + 1e-12).all()
        offsets = (grid + radius) / step
        lattice = np.rint(offsets)
        assert np.abs(offsets - lattice).max() < 1e-9
        # the nodes -radius + step k of a box around the ball, enumerated directly
        span = np.arange(-1, np.ceil(2 * cells) + 2)
        ks = np.stack([m.ravel() for m in np.meshgrid(*([span] * d), indexing="ij")], axis=1)
        nodes = -radius + step * ks
        squared = np.einsum("ij,ij->i", nodes, nodes)
        got = {tuple(k) for k in lattice}
        assert len(got) == len(grid)
        assert {tuple(k) for k in ks[squared <= radius**2 - 1e-9]} <= got
        assert got <= {tuple(k) for k in ks[squared <= radius**2 + 1e-9]}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unshifted_at_the_origin(self, d):
        # the default step radius / 16 puts 0 on the lattice through -radius:
        # the grid is that lattice clipped to the ball, bit for bit
        for radius in (1.0, np.pi, 16 * 0.2622022120425379):
            step = radius / 16
            axis = np.arange(-radius, radius + step * 1e-9, step)
            pts = np.stack([m.ravel() for m in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
            unshifted = pts[np.einsum("ij,ij->i", pts, pts) <= radius**2 + 1e-12]
            assert ball_grid(radius, step, d).tobytes() == unshifted.tobytes()

    def test_off_origin_build_keeps_the_cell(self):
        # a per-point build off the origin sums over the lattice through
        # -radius, whatever the sums' centre, with cell step^d at every node
        spec, v_prime = _holevo_spec("qubit-full", (0.2, 0.1, 0.3))
        radius = _default_radius(spec, v_prime)
        povm = build_collective_povm(spec, v_prime, 3)
        assert np.abs(np.trace(spec.x_ops, axis1=1, axis2=2)).max() > 1e-3
        assert np.array_equal(povm.grid, ball_grid(radius, radius / 16, 3))
        assert (povm.weights == (radius / 16) ** 3).all()
        assert np.array_equal(povm.outcomes, povm.grid / np.sqrt(3))
        assert povm.completeness_residual < 1e-10


class TestRotationSums:
    """The rotation path: five banded sums per radius of a polar rule about
    the sums' centre, against the per-point fold on the same nodes and
    against the lattice (the slow oracles)."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n=st.integers(1, 8),
        euler=st.tuples(st.floats(0.0, 6.2), st.floats(0.1, 3.0), st.floats(0.0, 6.2)),
        length=st.floats(0.2, 2.0),
        a=st.floats(0.2, 5.0),
        radius=st.floats(0.5, 4.0),
        centre=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    )
    def test_per_radius_sums_match_per_point_fold(self, n, euler, length, a, radius, centre):
        # two orthogonal Bloch vectors of equal length whose rotation axis
        # n_0 x n_1 is tilted from z by the middle Euler angle, and a polar
        # rule about the sums' centre c = sqrt(n) tr(X) / 2 with n + 3
        # azimuths: on its nodes the per-point fold equals the five banded
        # sums to rounding, every other band summing to 0
        alpha, beta, gamma = euler
        frame = _rotation_z(alpha) @ _rotation_y(beta) @ _rotation_z(gamma)
        paulis = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])
        c0 = np.array(centre) / np.sqrt(n)
        x_ops = np.array([c0[k] * np.eye(2) + length * np.tensordot(frame[:, k], paulis, axes=1) for k in range(2)])
        c = np.sqrt(n) * np.real(np.trace(x_ops, axis1=1, axis2=2)) / 2
        kernel = (a * np.eye(2), 1.0)
        layout = collective_layout(x_ops)
        assert layout.rotates
        rule = polar_rule(radius, radius / 8, c, n + 3)
        sectors = list(layout.sectors(x_ops, n))
        banded = _smearing_sums(sectors, n, kernel, rule)
        for got, want in zip(banded, _smearing_sums(sectors, n, kernel, point_rule(rule.grid, rule.weights))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # A not proportional to I, unequal norms and non-orthogonal parts
        # each take the per-point path.  At the maximally mixed state s = 0,
        # so the kernel of v' = (2 a D)^-1 is A = a D
        spec = CollectiveSpec(DensityOperator(np.eye(2) / 2), x_ops)
        for diag, name in (([1.0, 1.0], "per-radius"), ([1.0, 1.0 + 1e-6], "per-point")):
            v_prime = np.diag(0.5 / (a * np.array(diag)))
            (a_mat, _), chosen = _kernel_and_grid(spec, layout, v_prime, n, radius, radius / 8)
            assert chosen.name == name and np.abs(a_mat - a * np.diag(diag)).max() <= 1e-12 * a
        traceless = x_ops - c0[:, None, None] * np.eye(2)
        for broken in (x_ops[1] + 1e-6 * traceless[1], x_ops[1] + 1e-6 * traceless[0]):
            assert not collective_layout(np.array([x_ops[0], broken])).rotates

    @pytest.mark.parametrize("n", [5, 16])
    def test_banded_in_the_rotation_eigenbasis(self, n):
        # in the eigenbasis of K = -i [Y_0, Y_1], S is diagonal and every
        # moment has entries only on the bands |a - b| <= 2, to rounding
        # (measured: at most 2e-15 and 9e-15 of the largest entry)
        spec, v_prime = _holevo_spec("qubit-z0", (0.5, 0.0))
        povm = build_collective_povm(spec, v_prime, n)
        for sec, s_op, moments in zip(povm.sectors, povm.s_operator, povm.moments):
            b = len(s_op)
            y = sec.ops - np.trace(sec.ops, axis1=1, axis2=2)[:, None, None] / b * np.eye(b)
            _, u = np.linalg.eigh(-1j * (y[0] @ y[1] - y[1] @ y[0]))
            rows, cols = np.indices((b, b))
            s_k = u.conj().T @ s_op @ u
            assert np.abs(s_k[rows != cols]).max(initial=0.0) <= 1e-13 * np.abs(s_k).max()
            o_k = u.conj().T @ moments @ u
            assert np.abs(o_k[:, np.abs(rows - cols) > 2]).max(initial=0.0) <= 1e-13 * np.abs(o_k).max()

    @pytest.mark.parametrize("n", [5, 16])
    @pytest.mark.parametrize("name", ["criterion-7", "qubit-z0"])
    def test_s_is_exactly_diagonal_in_the_sector_basis(self, name, n):
        # the sectors are built in the frame where K = J_z, and the constant
        # monomial keeps only its azimuthal mode 0, so S has no off-diagonal bits
        model, theta, x_ops, v_prime = _rotation_case(name)
        povm = build_collective_povm(CollectiveSpec(model.state_at(theta), x_ops), v_prime, n)
        for s_op in povm.s_operator:
            assert np.count_nonzero(s_op - np.diag(np.diag(s_op))) == 0

    @pytest.mark.parametrize("name", ["criterion-7", "qubit-z0-origin"])
    def test_completeness_residual_at_rounding(self, name):
        # S^-1/2 is a diagonal scaling, so sum_x E_x is the projector to
        # rounding at every n (8.6e-9 at criterion-7 n = 128 with a dense eigh of S)
        model, theta, x_ops, v_prime = _rotation_case(name)
        rows = collective_estimator_check(model, theta, x_ops, v_prime, [8, 32, 64, 128])
        assert max(row.completeness_residual for row in rows) <= 1e-13

    @pytest.mark.parametrize("name", ["criterion-7", "qubit-z0"])
    def test_default_rule_matches_twice_the_radii(self, name):
        # n tr on the default rule, 32 Gauss radii per radius + |c|, against 64
        model, theta, x_ops, v_prime = _rotation_case(name)
        radius = _default_radius(CollectiveSpec(model.state_at(theta), x_ops), v_prime)
        for n in (8, 32):
            (row,) = collective_estimator_check(model, theta, x_ops, v_prime, [n])
            (fine,) = collective_estimator_check(model, theta, x_ops, v_prime, [n], radius, radius / 32)
            assert abs(np.trace(row.scaled_covariance) - np.trace(fine.scaled_covariance)) <= 1e-12

    def test_lattice_approaches_the_polar_value_at_the_origin(self):
        # criterion 7 (c = 0) at n = 8: the per-point path over the lattice
        # at steps radius / 16 and / 32 closes in on the polar rule's n tr
        model, theta, x_ops, v_prime = _rotation_case("criterion-7")
        radius = _default_radius(CollectiveSpec(model.state_at(theta), x_ops), v_prime)
        (polar,) = collective_estimator_check(model, theta, x_ops, v_prime, [8])
        errors = [
            abs(np.trace(_lattice_row(model, theta, x_ops, v_prime, 8, radius, radius / cells).scaled_covariance)
                - np.trace(polar.scaled_covariance))
            for cells in (16, 32)
        ]
        assert errors[1] < errors[0] < 2e-6

    def test_off_origin_ball_about_zero_of_the_disk_radius(self):
        # qubit-z0 (0.9, 0.2) at n = 8: the lattice over the ball about 0 of
        # radius R + |c| matches the polar rule over the disk about c of that
        # radius; the default ball about 0 of radius R truncates by about 1e-2
        model, theta, x_ops, v_prime = _rotation_case("qubit-z0-off")
        spec = CollectiveSpec(model.state_at(theta), x_ops)
        radius = _default_radius(spec, v_prime)
        outer = radius + np.sqrt(8) * np.linalg.norm(np.real(np.trace(x_ops, axis1=1, axis2=2))) / 2
        (polar,) = collective_estimator_check(model, theta, x_ops, v_prime, [8])
        lattice = _lattice_row(model, theta, x_ops, v_prime, 8, outer, radius / 16)
        truncated = _lattice_row(model, theta, x_ops, v_prime, 8, radius, radius / 16)
        assert abs(np.trace(lattice.scaled_covariance) - np.trace(polar.scaled_covariance)) < 1e-6
        assert abs(np.trace(truncated.scaled_covariance) - np.trace(polar.scaled_covariance)) > 5e-3


def _default_radius(spec, v_prime):
    """``build_collective_povm``'s default radius 4 sqrt(lmax(v + v'))."""
    return 4.0 * float(np.sqrt(np.linalg.eigvalsh(spec.v + v_prime).max()))


def _rotation_case(name):
    """Model, point, operators and v' of the criterion-7 check (c = 0) or of
    qubit-z0 at (0.5, 0), (0.9, 0.2) ("qubit-z0-off") or (0, 0) ("qubit-z0-origin")."""
    if name == "criterion-7":
        return tangential_model(), np.zeros(2), np.array([SIGMA_X, SIGMA_Y]), 0.6 * np.eye(2)
    points = {"qubit-z0-off": [0.9, 0.2], "qubit-z0-origin": [0.0, 0.0]}
    model, theta = qubit_family("z0"), np.array(points.get(name, [0.5, 0.0]))
    return (model, theta, *_bound_operators(model, theta))


def _lattice_row(model, theta, x_ops, v_prime, n, radius, step):
    """The check's row at n on the per-point path over ``ball_grid(radius,
    step, 2)``: the lattice about 0, the slow oracle for the polar rule."""

    def povm_at(spec, n):
        layout, kernel, _ = _layout_and_rule(spec, v_prime, n)
        grid = ball_grid(radius, step, 2)
        return _povm_on_sectors(spec.x_ops, layout, n, kernel, point_rule(grid, np.full(len(grid), step**2)))

    return _estimator_rows(model, theta, x_ops, [n], povm_at)[0]


class TestPerPointSums:
    def test_blocked_sums_match_one_whole_grid_fold(self, monkeypatch):
        # A not proportional to I takes the per-point path; a block of 7 rows
        # of the 4 x 4 sector, a 16th of the limit, runs every sector in at
        # least 3 blocks
        x_ops = np.array([SIGMA_X, 0.5 * SIGMA_Y + 0.2 * SIGMA_Z + 0.1 * np.eye(2)])
        n, kernel = 3, (np.array([[0.7, 0.1], [0.1, 0.5]]), 1.3)
        grid = ball_grid(2.0, 0.25, 2)
        weights = np.full(len(grid), 0.0625)
        sectors = list(collective_layout(x_ops).sectors(x_ops, n))
        outcomes = grid / np.sqrt(n)
        pairs = (outcomes[:, :, None] * outcomes[:, None, :]).reshape(len(grid), -1)
        monomials = np.column_stack([np.ones(len(grid)), outcomes, pairs]) * weights[:, None]
        wants = [np.tensordot(monomials.T, _smearing_blocks(sec.ops, *kernel, grid), axes=1) for sec in sectors]
        sizes = []

        def recorded(ops, *args):
            sizes.append(ops.shape[-1])
            return _smearing_blocks(ops, *args)

        monkeypatch.setattr(qcore, "MAX_ARRAY_BYTES", 16 * 16 * 4 * 4 * 7)
        monkeypatch.setattr(clt, "_smearing_blocks", recorded)
        gots = _smearing_sums(sectors, n, kernel, point_rule(grid, weights))
        assert min(sizes.count(sec.ops.shape[-1]) for sec in sectors) >= 3
        for got, want in zip(gots, wants):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# every model that ``estimate --mode collective`` documents, at g = I and the
# default v', with the layout and rule its build takes
OFF_ORIGIN = [(0.5, 0.0), (0.3, -0.4), (-0.7, 0.2), (0.1, 0.9), (0.95, 0.1)]
LAYOUTS = [
    ("qubit-z0", (0.0, 0.0), 16, "spin", "per-radius"),
    *[("qubit-z0", theta, n, "spin", "per-radius") for theta in OFF_ORIGIN for n in (16, 64)],
    ("qubit-full", (0.2, 0.1, 0.3), 8, "spin", "per-point"),
    ("diag:2", (0.3,), 4, "spin", "per-point"),
    ("diag:3", (0.2, 0.3), 4, "dense", "per-point"),
    ("gauss1:0.3:16", (0.2, 0.1), 1, "dense", "per-point"),
]
LAYOUT_IDS = [f"{name}-{','.join(map(str, theta))}-n{n}" for name, theta, n, *_ in LAYOUTS]


class TestLayoutAndRule:
    """The one layout value and the one rule a build picks, per documented model."""

    @pytest.mark.parametrize("name, theta, n, layout_name, rule_name", LAYOUTS, ids=LAYOUT_IDS)
    def test_build_takes_the_layout_and_rule(self, monkeypatch, name, theta, n, layout_name, rule_name):
        spec, v_prime = _holevo_spec(name, theta)
        built = []
        monkeypatch.setattr(collective, "_povm_on_sectors", lambda *args: built.append(args))
        build_collective_povm(spec, v_prime, n)
        ((x_ops, layout, _, _, rule),) = built
        assert (layout.name, rule.name) == (layout_name, rule_name)
        # the sizes known before any block is built are the built blocks' sizes, and they fill the space
        sectors = list(layout.sectors(x_ops, n))
        assert layout.sizes(n) == [sec.ops.shape[-1] for sec in sectors]
        assert sum(sec.multiplicity * sec.ops.shape[-1] for sec in sectors) == spec.rho.dim**n
        radius = _default_radius(spec, v_prime)
        if rule_name == "per-point":
            # the lattice through -radius clipped to the ball, cell step^d
            assert np.array_equal(rule.grid, ball_grid(radius, radius / 16, spec.n_ops))
            assert (rule.weights == (radius / 16) ** spec.n_ops).all()
            return
        # polar about the sums' centre c, one radius per 1/32 of radius + |c|, n + 3 azimuths
        centre = np.sqrt(n) * np.real(np.trace(x_ops, axis1=1, axis2=2)) / 2
        assert (np.linalg.norm(centre) > 1e-3) == any(theta)
        outer = radius + np.linalg.norm(centre)
        assert len(rule.grid) == np.ceil(32 * outer / radius) * (n + 3)
        assert np.allclose(rule.grid[: n + 3].mean(axis=0), centre)
        assert abs(rule.weights.sum() - np.pi * outer**2) < 1e-12 * outer**2


def _rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rotation_y(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


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

    def test_tangential_trend_beyond_dense_cap(self):
        # the paper's limit n tr -> tr(v + v') = 3.2 and A_n -> I, past the
        # n = 8 where the dense 2^n construction stops
        rows = collective_estimator_check(
            tangential_model(), np.zeros(2), [SIGMA_X, SIGMA_Y], 0.6 * np.eye(2), [8, 16, 32]
        )
        a_gaps = [np.linalg.norm(r.a_matrix - np.eye(2)) for r in rows]
        trace_gaps = [abs(np.trace(r.scaled_covariance) - 3.2) for r in rows]
        assert a_gaps[2] < a_gaps[1] < a_gaps[0]
        assert trace_gaps[2] < trace_gaps[1] < trace_gaps[0]
        assert trace_gaps[2] < 0.06
        for r in rows:
            assert r.completeness_residual < 1e-5

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

    def test_holds_one_sector_at_a_time(self):
        # above the built POVM the check holds the working set of one sector,
        # its 1 + d states and their (1 + d) m trace products (twice that
        # bounds the peak), not every sector's states and SLD sums, which
        # take 16.8 MiB at criterion-7, n = 128
        model, n, d = tangential_model(), 128, 2
        spec = CollectiveSpec(model.state_at(np.zeros(2)), [SIGMA_X, SIGMA_Y])
        povm = build_collective_povm(spec, 0.6 * np.eye(2), n)
        m, b = 1 + d + d * d, n + 1
        working = 16 * (1 + d) * (1 + m) * b * b
        assert 2 * working < 16 * (1 + d) * sum(s * s for s in range(b, 0, -2))
        _traced_peak(lambda: _estimator_rows(model, np.zeros(2), spec.x_ops, [n], lambda spec, n: povm), limit=2 * working)


class TestSectorsAgainstDense:
    """The spin-sector layout against the dense 2^n layout (the oracle).

    n stops at 6: a dense POVM at n = 7 or 8 holds hundreds of MB to GB.
    """

    def cases(self):
        z0, z0_theta = qubit_family("z0"), np.array([0.5, 0.0])
        pure, pure_theta = pure_qubit_model(), np.array([1.1, 0.4])
        return [
            (z0, z0_theta, *_bound_operators(z0, z0_theta)),
            (tangential_model(), np.zeros(2), [SIGMA_X, SIGMA_Y], 0.6 * np.eye(2)),
            (pure, pure_theta, *_bound_operators(pure, pure_theta)),
        ]

    def test_povm_probabilities(self):
        pure = np.array([np.cos(0.3), np.exp(-0.4j) * np.sin(0.3)])
        rank_one = DensityOperator(np.outer(pure, pure.conj()))
        for model, theta, x_ops, v_prime in self.cases():
            spec = CollectiveSpec(model.state_at(theta), x_ops)
            states = [model.state_at(theta), model.state_at(np.array([0.5, 0.0])),
                      model.state_at(np.array([-0.2, 0.3])), rank_one]
            for n in range(1, 7):
                spin = build_collective_povm(spec, v_prime, n)
                dense = _dense_povm(spec, v_prime, n)
                assert spin.dropped_dimensions == dense.dropped_dimensions
                assert abs(spin.support_gap - dense.support_gap) < 1e-10
                assert spin.completeness_residual < 1e-10 and dense.completeness_residual < 1e-10
                for rho in states:
                    rho_n = tensor_power(rho, n).matrix
                    oracle = np.einsum("ab,gba->g", rho_n, dense.elements[0]).real
                    assert np.max(np.abs(_probabilities(spin, rho) - oracle)) < 1e-10

    def test_estimator_rows(self):
        for model, theta, x_ops, v_prime in self.cases():
            rows = collective_estimator_check(model, theta, x_ops, v_prime, [2, 3, 5, 6])
            dense = _estimator_rows(
                model, theta, x_ops, [2, 3, 5, 6], lambda spec, n: _dense_povm(spec, v_prime, n)
            )
            for r, rd in zip(rows, dense):
                assert np.max(np.abs(r.a_matrix - rd.a_matrix)) < 1e-10
                assert np.max(np.abs(r.scaled_covariance - rd.scaled_covariance)) < 1e-10
                assert abs(r.leakage - rd.leakage) < 1e-10

    def test_moments(self):
        # sum_j m_j tr(rho_j O_j) of the moment stacks against the total, first
        # and second moment of the per-outcome probabilities, on both layouts
        # at a mixed, the maximally mixed and a rank-one state
        model, theta, x_ops, v_prime = self.cases()[0]
        spec = CollectiveSpec(model.state_at(theta), x_ops)
        pure = np.array([np.cos(0.3), np.exp(-0.4j) * np.sin(0.3)])
        states = [spec.rho, DensityOperator(np.eye(2) / 2), DensityOperator(np.outer(pure, pure.conj()))]
        n = 5
        for povm in (build_collective_povm(spec, v_prime, n), _dense_povm(spec, v_prime, n)):
            x = povm.outcomes
            for rho in states:
                blocks = povm.layout.states(rho.matrix, n)
                got = sum(
                    sec.multiplicity * trace_products(block, moments)
                    for sec, block, moments in zip(povm.sectors, blocks, povm.moments)
                )
                p = _probabilities(povm, rho)
                want = np.concatenate([[p.sum()], x.T @ p, np.einsum("gk,gl,g->kl", x, x, p).ravel()])
                assert np.max(np.abs(got - want)) < 1e-12

    def test_pure_state_check(self):
        # at a rank-one rho the SLDs' collective sums still give d(rho^(x)n)
        # exactly; n tr as the central differences gave it
        model, theta, x_ops, v_prime = self.cases()[2]
        rows = collective_estimator_check(model, theta, x_ops, v_prime, [2, 4, 8])
        traces = [np.trace(r.scaled_covariance) for r in rows]
        assert np.max(np.abs(np.array(traces) - [5.219953, 4.939644, 4.806672])) < 1e-5

    def test_dropped_dimensions(self):
        # a narrow kernel on a small ball drops the outer spectrum of
        # sigma_z^(n); each dropped spin-sector eigenvalue counts m_j times
        spec = CollectiveSpec(DensityOperator(np.diag([0.7, 0.3])), [SIGMA_Z])
        for radius in (0.3, 0.6):
            for n in (4, 5, 6):
                spin = build_collective_povm(spec, [[0.05]], n, radius=radius, grid_step=0.05)
                dense = _dense_povm(spec, [[0.05]], n, radius, 0.05)
                assert spin.dropped_dimensions > 0
                assert spin.dropped_dimensions == dense.dropped_dimensions
                oracle = np.einsum("ab,gba->g", tensor_power(spec.rho, n).matrix, dense.elements[0]).real
                assert np.max(np.abs(_probabilities(spin, spec.rho) - oracle)) < 1e-10


def _dense_povm(spec, v_prime, n, radius=None, grid_step=None):
    """``build_collective_povm`` of the spec's operators on the dense layout,
    summed point by point on the nodes and weights of the build's own rule."""
    _, kernel, rule = _layout_and_rule(spec, v_prime, n, radius, grid_step)
    return _povm_on_sectors(spec.x_ops, _dense_layout(spec.rho.dim), n, kernel, point_rule(rule.grid, rule.weights))


def _bound_operators(model, theta):
    """The collective bound's operator tuple at theta and the default v' for
    g = I, as ``qest estimate --mode collective`` sets them up."""
    solution = holevo_bound(model, theta, np.eye(model.param_dim))
    return solution.x_ops, default_v_prime(solution.s_matrix, np.eye(model.param_dim), 0.1)


def _probabilities(povm, rho):
    """Born-rule probabilities tr(rho^(x)n E_x) of every grid outcome, one
    einsum per sector weighted by its multiplicity."""
    blocks = povm.layout.states(rho.matrix, povm.n_copies)
    return sum(
        sec.multiplicity * np.einsum("ab,gba->g", block, stack).real
        for sec, block, stack in zip(povm.sectors, blocks, povm.elements)
    )


def _finite_difference_rows(model, theta, x_ops, n_list, povm_at):
    """The check with A_n from central differences of step 1e-3 on the
    clipped, normalized outcome mean, each from the per-outcome probabilities
    at 1 + 2d states: the oracle for the exact ``_estimator_rows``."""
    step = 1e-3
    t = model.require_domain(theta)
    spec = CollectiveSpec(model.state_at(t), x_ops)
    rows = []
    for n in n_list:
        povm = povm_at(spec, n)
        x = povm.outcomes

        def probs(u):
            return np.clip(_probabilities(povm, model.state_at(t + u)), 0.0, None)

        def mean(p):
            return (x * (p / p.sum())[:, None]).sum(axis=0)

        p0 = probs(np.zeros(model.param_dim))
        shifts = step * np.eye(model.param_dim)
        a_n = np.column_stack([(mean(probs(h)) - mean(probs(-h))) / (2 * step) for h in shifts])
        second = np.einsum("ik,il,i->kl", x, x, p0 / p0.sum())
        a_inv = np.linalg.inv(a_n)
        rows.append(
            CollectiveCheckRow(n, a_n, n * a_inv @ second @ a_inv.T, povm.completeness_residual, 1.0 - p0.sum())
        )
    return rows


class TestCheckAgainstFiniteDifferences:
    """The exact A_n against central differences of the outcome mean: they
    differ by the differences' O(h^2) error only."""

    def check(self, model, theta, x_ops, n_list, build):
        povms = {}

        def povm_at(spec, n):
            if n not in povms:
                povms[n] = build(spec, n)
            return povms[n]

        exact = _estimator_rows(model, theta, x_ops, n_list, povm_at)
        oracle = _finite_difference_rows(model, theta, x_ops, n_list, povm_at)
        for r, ro in zip(exact, oracle):
            assert np.max(np.abs(r.a_matrix - ro.a_matrix)) <= 1e-6
            assert abs(np.trace(r.scaled_covariance) - np.trace(ro.scaled_covariance)) <= 1e-5
            assert abs(r.leakage - ro.leakage) < 1e-12
        return exact

    @pytest.mark.parametrize(
        "name,theta,n_list",
        [("qubit-z0", (0.5, 0.0), [8, 16, 32]), ("qubit-full", (0.2, 0.1, 0.3), [4, 8]), ("diag:3", (0.2, 0.3), [2, 4])],
    )
    def test_exact_response_matches_central_differences(self, name, theta, n_list):
        model, theta = model_from_name(name), np.array(theta)
        x_ops, v_prime = _bound_operators(model, theta)
        self.check(model, theta, x_ops, n_list, lambda spec, n: build_collective_povm(spec, v_prime, n))

    def test_exact_response_with_leakage(self):
        # a narrow kernel on a small ball drops part of the spectrum, so the
        # outcome mass moves with theta and A_n needs its -mean d(mass) term
        rows = self.check(
            one_param_model(), np.array([0.4]), [SIGMA_Z], [4, 5],
            lambda spec, n: build_collective_povm(spec, [[0.05]], n, radius=0.6, grid_step=0.05),
        )
        assert min(r.leakage for r in rows) > 1e-3


def _point_interior(model, t, margin):
    # is_interior one point at a time: 2d + 1 single-point domain checks
    if not model.domain_check(t):
        return False
    for k in range(model.param_dim):
        for sgn in (1.0, -1.0):
            shifted = t.copy()
            shifted[k] += sgn * margin
            if not model.domain_check(shifted):
                return False
    return True


def _grid_mle(model, povm, counts):
    """Grid start and ascent of every count row under one POVM, its outcomes
    sorted as ``mle`` sorts them: the batched path of two-stage stage 1.
    Returns the estimates and their boundary flags."""
    order = _outcome_order(model, povm)
    elements, counts = povm.stack[order], np.asarray(counts, dtype=float)[:, order]
    shared = np.broadcast_to(elements, (len(counts),) + elements.shape)
    starts = _grid_starts(*_grid_table(model, elements), counts)
    theta = _ascend(model, shared, np.full(len(counts), povm.prob_sum_tol), counts, starts)
    return theta, ~model.is_interior(theta, 1e-6)


def _pointwise_grid_mle(model, povm, counts, per_axis, newton=True):
    """The batched MLE run one count row at a time, with its domain tests,
    projection and derivatives made one point at a time: the reference for
    the stacked kernel.  ``newton=False`` climbs by projected gradient from
    the start (step 0.5): the earlier ascent, the oracle for boundary flags."""
    order = _outcome_order(model, povm)
    elements, counts = povm.stack[order], np.asarray(counts, dtype=float)[:, order]
    axes = []
    for lo, hi in model.domain_box:
        pad = (hi - lo) / (per_axis + 1)
        axes.append(np.linspace(lo + pad, hi - pad, per_axis))
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    grid = pts[np.array([_point_interior(model, p, 1e-6) for p in pts])]
    logp_t = np.ascontiguousarray(np.log(collective._batch_probs(model.state_stack(grid), elements)).T)
    starts = _grid_starts(grid, logp_t, counts)
    rows = [_one_row_mle(model, elements, povm.prob_sum_tol, row, start, newton) for row, start in zip(counts, starts)]
    return np.array([theta for theta, _ in rows]), np.array([flag for _, flag in rows])


def _one_row_mle(model, elements, sum_tol, counts, theta, newton):
    total = counts.sum()
    lo_box = np.array([lo + 2e-9 for lo, _ in model.domain_box])
    hi_box = np.array([hi - 2e-9 for _, hi in model.domain_box])

    def loglik_and_grad(th):
        probs = trace_products(model.state_at(th).matrix, elements)
        probs = np.clip(probability_rows(probs[None], sum_tol)[0], 1e-300, None)
        value = (counts * np.log(probs)).sum() / total
        derivs = np.array([(m + m.conj().T) / 2 for m in np.asarray(model.derivatives(th), dtype=complex)])
        dp = trace_products(derivs[:, None], elements)
        return value, (counts * dp / probs).sum(axis=1) / total, dp, probs

    def newton_step(grad, dp, probs):
        scores = dp / probs
        h = (counts / total * scores[:, None, :] * scores[None, :, :]).sum(axis=-1)
        lam, vec = np.linalg.eigh(h)
        coef = (vec * grad[:, None]).sum(axis=0)
        inv = np.array([1.0 / v if v > 1e-12 * lam[-1] else 0.0 for v in lam])
        return (vec * (coef * inv)).sum(axis=1), (coef * coef * inv).sum()

    def converged(value, decrement):
        return decrement < 8 * np.finfo(float).eps * max(1.0, abs(value))

    def project(th):
        th = np.clip(th, lo_box, hi_box)
        scale = 1.0
        while not _point_interior(model, th, 1e-9) and scale > 1e-12:
            th *= 1.0 - 1e-3
            scale *= 1.0 - 1e-3
        return th

    value, grad, dp, probs = loglik_and_grad(theta)
    direction, decrement = newton_step(grad, dp, probs)
    step = 1.0 if newton else 0.5
    for _ in range(400):
        if (newton and converged(value, decrement)) or np.linalg.norm(grad) < 1e-8:
            break
        if newton:
            candidate = theta + step * direction
            in_box = (lo_box <= candidate).all() and (candidate <= hi_box).all()
            newton = in_box and _point_interior(model, candidate, 1e-9)
            step = step if newton else 0.5
        if not newton:
            candidate = project(theta + step * grad)
        cand_value, cand_grad, cand_dp, cand_probs = loglik_and_grad(candidate)
        if cand_value > value:
            moved = np.linalg.norm(candidate - theta)
            theta, value, grad = candidate, cand_value, cand_grad
            step *= 1.3
            if newton:
                direction, decrement = newton_step(grad, cand_dp, cand_probs)
                step = min(step, 1.0)
            if moved < 1e-14:
                break
        else:
            step *= 0.4
            if step < 1e-14:
                break
    return theta, not _point_interior(model, theta, 1e-6)


def _mle_draws(kind, bases, rng):
    """The draws of ``test_stacked_kernel_matches_pointwise_reference``: 50
    count rows of 40 copies at random states, half near the surface of the
    ball."""
    model = qubit_family(kind)
    povm = mixed_basis_povm(bases)
    u = rng.standard_normal((50, model.param_dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    truths = u * np.concatenate([rng.uniform(0, 0.9, 25), rng.uniform(0.95, 1.0, 25)])[:, None]
    return model, povm, [rng.multinomial(40, measure_distribution(model.state_at(t), povm).probs) for t in truths]


def _scipy_mle(model, povm, counts):
    """Interior MLE by SLSQP on the mean log-likelihood, constrained to the
    unit ball, with plain traces of the unvalidated state matrices and of
    the qubit families' constant derivatives: the independent oracle for the
    Newton kernel.  Returns the maximizer and the mean log-likelihood."""
    from scipy.optimize import minimize

    w = np.asarray(counts, dtype=float) / np.sum(counts)
    derivs = model.derivatives(np.zeros(model.param_dim))

    def probs(t):
        return np.array([np.trace(model.states(t) @ e).real for e in povm.elements])

    def loglik(t):
        return (w * np.log(np.clip(probs(t), 1e-300, None))).sum()

    def grad(t):
        return np.array([(w * [np.trace(d @ e).real for e in povm.elements] / probs(t)).sum() for d in derivs])

    ball = {"type": "ineq", "fun": lambda t: 1.0 - t @ t, "jac": lambda t: -2.0 * t}
    res = minimize(lambda t: -loglik(t), np.zeros(model.param_dim), jac=lambda t: -grad(t), method="SLSQP",
                   constraints=[ball], options={"ftol": 1e-15, "maxiter": 500})
    return res.x, loglik


def _broadcast_grid_starts(grid, logp_t, counts):
    """The grid scan as the broadcast sum of log-likelihood terms, one count
    row at a time: the oracle for the blocked matrix products."""
    return grid[[np.argmax((logp_t.T * row).sum(axis=-1)) for row in counts]]


class TestGridStarts:
    @pytest.mark.parametrize("kind,bases", [("z0", "zx"), ("full", "zxy")])
    def test_random_count_rows_match_broadcast_sum(self, kind, bases, rng):
        model = qubit_family(kind)
        elements = mixed_basis_povm(bases).stack
        table = _grid_table(model, elements)
        counts = rng.integers(0, 40, size=(50, len(elements))).astype(float)
        expected = _broadcast_grid_starts(*table, counts)
        assert np.array_equal(_grid_starts(*table, counts), expected)

    @pytest.mark.parametrize("seed", [1, 5, 7])
    @pytest.mark.parametrize("kind,theta", [("z0", (0.5, 0.0)), ("full", (0.3, 0.2, 0.1))])
    def test_two_stage_pilot_rows_match_broadcast_sum(self, kind, theta, seed, monkeypatch):
        # the benchmark's two-stage case and the README's three-parameter one
        scans = []
        scan = collective._grid_starts
        monkeypatch.setattr(collective, "_grid_starts", lambda *args: scans.append(args) or scan(*args))
        m1 = mixed_basis_povm("zxy" if kind == "full" else "zx")
        two_stage_estimate(qubit_family(kind), np.array(theta), m1, n=10**4, seed=seed, trials=200)
        (args,) = scans
        assert np.array_equal(scan(*args), _broadcast_grid_starts(*args))


class TestMle:
    @pytest.mark.parametrize("kind,bases,per_axis", [("z0", "zx", 41), ("full", "zxy", 21)])
    def test_stacked_kernel_matches_pointwise_reference(self, kind, bases, per_axis, rng, monkeypatch):
        # 50 count rows of 40 copies at random states, half of them near the
        # surface of the ball, so some ascents end on the domain boundary
        model = qubit_family(kind)
        povm = mixed_basis_povm(bases)
        d = model.param_dim
        u = rng.standard_normal((50, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        truths = u * np.concatenate([rng.uniform(0, 0.9, 25), rng.uniform(0.95, 1.0, 25)])[:, None]
        counts = [rng.multinomial(40, measure_distribution(model.state_at(t), povm).probs) for t in truths]
        monkeypatch.setattr(collective, "MLE_GRID_POINTS", per_axis)
        theta, boundary = _grid_mle(model, povm, counts)
        ref_theta, ref_boundary = _pointwise_grid_mle(model, povm, counts, per_axis)
        assert np.array_equal(theta, ref_theta)
        assert np.array_equal(boundary, ref_boundary)
        assert 0 < boundary.sum() < 50

    @pytest.mark.parametrize("kind,bases", [("z0", "zx"), ("full", "zxy")])
    def test_blocks_of_two_rows_match_one_block(self, kind, bases, rng):
        # two-stage runs the ascent block by block; blocks of two rows give
        # the one-block estimates and flags bit for bit, boundary rows
        # included, for a shared POVM from grid starts and for one POVM per row
        model = qubit_family(kind)
        povm = mixed_basis_povm(bases)
        d = model.param_dim
        u = rng.standard_normal((30, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        truths = u * np.concatenate([rng.uniform(0, 0.9, 15), rng.uniform(0.95, 1.0, 15)])[:, None]
        counts = [rng.multinomial(40, measure_distribution(model.state_at(t), povm).probs) for t in truths]
        order = _outcome_order(model, povm)
        sorted_povm, counts = povm.stack[order], np.array(counts, dtype=float)[:, order]
        shared = (np.broadcast_to(sorted_povm, (30,) + sorted_povm.shape), np.full(30, povm.prob_sum_tol), counts,
                  _grid_starts(*_grid_table(model, sorted_povm), counts))
        elements, residuals = povm_stack(_optimal_qubit_povms(model, 0.5 * truths, np.eye(d)))
        own = (elements, np.maximum(qcore.PROB_SUM_TOL, 2 * residuals), counts, 0.5 * truths)
        whole = [_ascend(model, *args[:3], args[3].copy()) for args in (shared, own)]
        paired = [np.vstack([_ascend(model, *(part[lo : lo + 2] for part in args[:3]), args[3][lo : lo + 2].copy())
                             for lo in range(0, 30, 2)]) for args in (shared, own)]
        for theta, want in zip(paired, whole):
            assert np.array_equal(theta, want)
            assert np.array_equal(model.is_interior(theta, 1e-6), model.is_interior(want, 1e-6))
        assert 0 < (~model.is_interior(whole[0], 1e-6)).sum() < 30

    @pytest.mark.parametrize("kind,bases,per_axis", [("z0", "zx", 41), ("full", "zxy", 21)])
    def test_boundary_flags_match_gradient_ascent(self, kind, bases, per_axis, rng, monkeypatch):
        # Newton steps move interior estimates by rounding-level amounts only,
        # and leave every boundary flag of the earlier gradient ascent as it was
        model, povm, counts = _mle_draws(kind, bases, rng)
        monkeypatch.setattr(collective, "MLE_GRID_POINTS", per_axis)
        theta, boundary = _grid_mle(model, povm, counts)
        ref_theta, ref_boundary = _pointwise_grid_mle(model, povm, counts, per_axis, newton=False)
        assert np.array_equal(boundary, ref_boundary)
        assert np.max(np.abs(theta - ref_theta)[~boundary]) <= 1e-6

    @pytest.mark.parametrize("kind,bases", [("z0", "zx"), ("full", "zxy")])
    def test_interior_rows_against_scipy(self, kind, bases, rng):
        model, povm, counts = _mle_draws(kind, bases, rng)
        theta, boundary = _grid_mle(model, povm, counts)
        assert (~boundary).sum() >= 25
        for t, row in zip(theta[~boundary], np.array(counts)[~boundary]):
            oracle, loglik = _scipy_mle(model, povm, row)
            assert np.max(np.abs(t - oracle)) <= 1e-6
            assert loglik(t) >= loglik(oracle) - 1e-12

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
        pilots = np.array([0.8 * t for t in truths[25:]])
        povms = [mixed] * 25 + [optimal_qubit_povm(model, p, np.eye(2)) for p in pilots]
        counts = []
        for t, m in zip(truths, povms):
            probs = measure_distribution(model.state_at(t), m).probs
            c = rng.multinomial(40, probs)
            while (c.reshape(-1, 2).sum(axis=1) == 0).any():
                c = rng.multinomial(40, probs)
            counts.append(c)
        # the shared rows start on the grid, the per-row ones at their pilots
        shared_est, shared_boundary = _grid_mle(model, mixed, counts[:25])
        own = (np.array([m.stack for m in povms[25:]]), np.array([m.prob_sum_tol for m in povms[25:]]),
               np.array(counts[25:], dtype=float))
        own_est = _ascend(model, *own, pilots.copy())
        estimates = np.vstack([shared_est, own_est])
        boundary = np.concatenate([shared_boundary, ~model.is_interior(own_est, 1e-6)])
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
            if i < 25:
                one, flag = mle(model, m, c)
            else:
                row = slice(i - 25, i - 24)
                one = _ascend(model, *(part[row] for part in own), pilots[row].copy())
                flag = not model.is_interior(one, 1e-6)[0]
            assert np.max(np.abs(one - estimates[i])) < 1e-12 and flag == boundary[i]
        assert inside >= 20 and outside >= 5

    def test_row_clipped_onto_a_box_face_stays_in_the_domain(self):
        # the maximum lies past the polar face 0.05 of a domain whose origin
        # is outside it: a row clipped at the interior margin itself failed
        # the interior test by rounding and was shrunk out of the domain
        theta, boundary = mle(pure_qubit_model(), mixed_basis_povm("zxy"), [200, 0, 100, 100, 100, 100])
        assert boundary
        assert 0.05 < theta[0] < 0.05 + 1e-8
        assert abs(theta[1] - np.pi / 4) < 1e-3

    @pytest.mark.parametrize("counts", [[-3, 10, 5, 5], [np.nan, 10, 5, 5], [np.inf, 1, 1, 1]])
    def test_impossible_histograms_rejected(self, counts):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            mle(qubit_family("z0"), mixed_basis_povm(), counts)

    def test_fractional_counts_accepted(self):
        theta, boundary = mle(qubit_family("z0"), mixed_basis_povm(), [7.5, 2.5, 5, 5])
        assert not boundary and np.allclose(theta, [0.5, 0.0], atol=1e-6)

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

    def test_errors_match_the_delete_one_jackknife(self, rng):
        est = rng.standard_normal((500, 3)) * [1.0, 0.3, 2.0] + [0.1, -0.2, 0.0]
        truth = np.array([0.0, -0.1, 0.2])
        report = mse_report(est, truth, bound_value=0.0)
        diff = est - truth
        per_trial = np.einsum("ik,il->ikl", diff, diff)
        trials = len(est)
        loo = (per_trial.sum(axis=0) - per_trial) / (trials - 1)
        jackknife = np.sqrt((trials - 1) / trials * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
        assert np.allclose(report.standard_errors, jackknife, rtol=1e-12, atol=0)


def _pointwise_optimal_povm(model, t, g):
    """The optimal POVM built one measurement direction at a time: the
    reference for the stacked construction."""
    slds, j_s = sld_fisher(model, t)
    w, o = np.linalg.eigh(j_s.matrix)
    j_isqrt = (o * (w**-0.5)) @ o.T
    kappa, u = np.linalg.eigh(j_isqrt @ g @ j_isqrt)
    probs = np.sqrt(np.clip(kappa, 0.0, None))
    probs = probs / probs.sum()
    elements, labels = [], []
    for i in range(len(kappa)):
        if probs[i] < 1e-14:
            continue
        direction = j_isqrt @ u[:, i]
        observable = sum(direction[k] * slds.operators[k] for k in range(model.param_dim))
        _, vecs = np.linalg.eigh(observable)
        for a in range(2):
            elements.append(probs[i] * np.outer(vecs[:, a], vecs[:, a].conj()))
            labels.append((i, a))
    return Povm(elements, labels=labels)


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

    @pytest.mark.parametrize("kind", ["z0", "full"])
    @pytest.mark.parametrize("rank", ["full", "one"])
    def test_stacked_rows_match_pointwise_loop(self, kind, rank, rng):
        # two-stage builds every survivor's POVM in one stacked call; each must
        # equal the per-direction loop bit for bit, also for a rank-one weight
        # matrix, whose other directions get weights at rounding level or none
        model = qubit_family(kind)
        d = model.param_dim
        gm = rng.standard_normal((d, d))
        g = gm @ gm.T + 0.2 * np.eye(d) if rank == "full" else np.outer(gm[0], gm[0])
        pts = rng.uniform(-0.55, 0.55, (20, d))
        stacked, _ = povm_stack(_optimal_qubit_povms(model, pts, g))
        dropped = 0
        for elements, p in zip(stacked, pts):
            ref = _pointwise_optimal_povm(model, p, g)
            kept = elements.any(axis=(-2, -1))
            assert np.array_equal(elements[kept], ref.stack) and not elements[~kept].any()
            assert [divmod(int(i), 2) for i in np.flatnonzero(kept)] == list(ref.labels)
            got = optimal_qubit_povm(model, p, g)
            assert np.array_equal(got.stack, ref.stack) and got.labels == ref.labels
            dropped += int((~kept).sum())
        assert (dropped > 0) == (rank == "one")

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


def _record_ascents(monkeypatch):
    """Arguments and results of every ``_ascend`` call, in call order: a
    two-stage run of one block makes stage 1's, then stage 2's."""
    calls = []
    kernel = collective._ascend

    def recorded(model, elements, sum_tol, counts, theta):
        starts = theta.copy()
        theta = kernel(model, elements, sum_tol, counts, theta)
        calls.append({"elements": elements, "counts": counts, "starts": starts, "theta": theta.copy(),
                      "boundary": ~model.is_interior(theta, 1e-6)})
        return theta

    monkeypatch.setattr(collective, "_ascend", recorded)
    return calls


class TestTwoStage:
    @pytest.mark.parametrize(
        "kind,theta,n,trials,seed",
        [("z0", (0.5, 0.0), 400, 60, 17), ("z0", (0.5, 0.0), 10**4, 60, 17),
         ("full", (0.3, 0.2, 0.1), 10**4, 20, 17), ("z0", (0.9, 0.2), 400, 100, 14)],
    )
    def test_stage_two_matches_grid_started_mle(self, kind, theta, n, trials, seed, monkeypatch):
        # stage 2 climbs from each pilot on the stacked POVMs; the oracle is the
        # grid-started one-row mle on each survivor's own Povm.  At (0.9, 0.2)
        # seed 14 gives a stage-2 boundary row: the flags must agree, but
        # boundary estimates are discarded, and projected ascent stops on the
        # boundary at a point that depends on the start
        model = qubit_family(kind)
        calls = _record_ascents(monkeypatch)
        two_stage_estimate(model, np.array(theta), mixed_basis_povm("zx" if kind == "z0" else "zxy"),
                           n=n, seed=seed, trials=trials)
        stage1, stage2 = calls
        grid_starts = _grid_starts(*_grid_table(model, stage1["elements"][0]), stage1["counts"])
        assert np.array_equal(stage1["starts"], grid_starts)
        assert np.array_equal(stage2["starts"], stage1["theta"][~stage1["boundary"]])
        for elements, counts, est, flag in zip(stage2["elements"], stage2["counts"], stage2["theta"],
                                               stage2["boundary"]):
            kept = elements.any(axis=(-2, -1))
            one, one_flag = mle(model, Povm(elements[kept]), counts[kept])
            assert one_flag == flag
            assert flag or np.max(np.abs(one - est)) < 1e-6
        assert stage2["boundary"].sum() == (1 if theta == (0.9, 0.2) else 0)
        assert theta != (0.9, 0.2) or stage2["boundary"].sum() >= 1

    @pytest.mark.parametrize("rank", ["full", "one"])
    def test_pilots_and_counts_match_per_trial_reference(self, rank, monkeypatch):
        # the reference runs each trial alone: mle, optimal_qubit_povm,
        # measure_distribution, multinomial.  Stage-1 counts come trial by
        # trial from the stage-1 stream, and each survivor's stage-2 counts,
        # over its kept elements, in survivor order from the stage-2 stream
        model = qubit_family("z0")
        truth, m1, n, seed, trials = np.array([0.5, 0.0]), mixed_basis_povm(), 400, 29, 40
        g = np.eye(2) if rank == "full" else np.outer([1.0, 0.5], [1.0, 0.5])
        calls = _record_ascents(monkeypatch)
        two_stage_estimate(model, truth, m1, n=n, seed=seed, trials=trials, g=g)
        stage1, stage2 = calls
        rho = model.state_at(truth)
        n1 = int(np.ceil(np.sqrt(n)))
        rng1, rng2 = (np.random.default_rng(s) for s in np.random.default_rng(seed).integers(0, 2**63 - 1, 2))
        r = dropped = 0
        for t in range(trials):
            pilot, flag = mle(model, m1, rng1.multinomial(n1, measure_distribution(rho, m1).probs))
            assert np.array_equal(pilot, stage1["theta"][t]) and flag == stage1["boundary"][t]
            if flag:
                continue
            m_opt = optimal_qubit_povm(model, pilot, g)
            counts = rng2.multinomial(n - n1, measure_distribution(rho, m_opt).probs)
            kept = stage2["elements"][r].any(axis=(-2, -1))
            assert np.array_equal(stage2["elements"][r][kept], m_opt.stack)
            assert np.array_equal(stage2["counts"][r][kept], counts) and not stage2["counts"][r][~kept].any()
            dropped += int((~kept).any())
            r += 1
        assert r == len(stage2["counts"])
        assert (dropped > 0) == (rank == "one")

    @pytest.mark.parametrize("kind,theta", [("z0", (0.5, 0.0)), ("full", (0.3, 0.2, 0.1))])
    def test_one_row_povm_blocks_match_one_block(self, kind, theta, monkeypatch):
        # trials run one block at a time under MLE_ASCENT_BYTES: one-trial
        # blocks, each drawing, climbing and building its stage-2 POVM on its
        # own, give the estimates and the discard count of one block bit for
        # bit, so no row is built at another's pilot and both streams are
        # read in trial order
        def run():
            m1 = mixed_basis_povm("zx" if kind == "z0" else "zxy")
            return two_stage_estimate(qubit_family(kind), np.array(theta), m1, n=10**4, seed=3, trials=40)

        monkeypatch.setattr(collective, "MLE_ASCENT_BYTES", 1 << 40)
        whole = run()
        built, climbed = [], []
        optimal, ascend = collective._optimal_qubit_povms, collective._ascend
        monkeypatch.setattr(collective, "_optimal_qubit_povms", lambda *args: built.append(len(args[1])) or optimal(*args))
        monkeypatch.setattr(collective, "_ascend", lambda *args: climbed.append(len(args[3])) or ascend(*args))
        monkeypatch.setattr(collective, "MLE_ASCENT_BYTES", 1)
        rows = run()
        assert set(built) == {1} and len(built) >= whole.trials
        assert climbed == [1] * 80
        assert np.array_equal(rows.extras["estimates"], whole.extras["estimates"])
        assert rows.extras["discarded"] == whole.extras["discarded"]

    def test_one_grid_scan_and_no_per_trial_povm(self, monkeypatch):
        # and no per-trial generator: as many generators at 20 trials as at 2000
        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        m1 = mixed_basis_povm()
        for name in ("_grid_starts", "_batch_probs"):
            monkeypatch.setattr(collective, name, counted(name, getattr(collective, name)))
        monkeypatch.setattr(Povm, "__init__", counted("Povm", Povm.__init__))
        monkeypatch.setattr(np.random, "default_rng", counted("default_rng", np.random.default_rng))
        generators = {}
        for trials in (20, 2000):
            calls = {"_grid_starts": 0, "_batch_probs": 0, "Povm": 0, "default_rng": 0}
            report = two_stage_estimate(qubit_family("z0"), np.array([0.5, 0.0]), m1, n=10**4, seed=1, trials=trials)
            assert report.trials + report.extras["discarded"] == trials
            generators[trials] = calls.pop("default_rng")
            assert calls == {"_grid_starts": 1, "_batch_probs": 1, "Povm": 0}
        assert generators[20] == generators[2000] > 0

    def test_newton_ascent_work_count(self, monkeypatch):
        # the benchmark's two-stage case: the gradient ascent made 109
        # derivative calls over both stages, Newton steps make about a tenth
        calls = []
        derivatives = collective.model_derivatives
        monkeypatch.setattr(collective, "model_derivatives", lambda *args: calls.append(1) or derivatives(*args))
        report = two_stage_estimate(qubit_family("z0"), np.array([0.5, 0.0]), mixed_basis_povm(),
                                    n=10**4, seed=1, trials=200)
        assert report.trials + report.extras["discarded"] == 200
        assert len(calls) <= 30

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

    @pytest.mark.parametrize("trials", [0, 1])
    def test_too_few_trials_rejected_before_sampling(self, trials, monkeypatch):
        def no_mle(*args, **kwargs):
            raise AssertionError("sampled before checking the trial count")

        monkeypatch.setattr("qest.collective._ascend", no_mle)
        with pytest.raises(ValidationError, match="at least 2 trials"):
            two_stage_estimate(qubit_family("z0"), np.array([0.5, 0.0]), mixed_basis_povm(),
                               n=400, seed=3, trials=trials)

    def test_trials_are_independent(self):
        # per-trial seeds are a prefix of the longer run's, so the first
        # surviving trials must come out the same whatever runs beside them
        model = qubit_family("z0")
        truth = np.array([0.5, 0.0])
        runs = {
            t: two_stage_estimate(model, truth, mixed_basis_povm(), n=400, seed=3, trials=t)
            for t in (50, 200)
        }
        short, long = runs[50].extras, runs[200].extras
        assert short["discarded"] > 0
        assert short["discarded"] <= long["discarded"]
        head = long["estimates"][: len(short["estimates"])]
        assert np.max(np.abs(short["estimates"] - head)) < 1e-12
