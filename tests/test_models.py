import dataclasses

import numpy as np
import pytest

from qest.errors import ValidationError
from qest.models import (
    FD_STEP,
    SIGMA_Z,
    ParametricModel,
    _qubit_states,
    diagonal_family,
    gaussian_displacement_family,
    model_derivatives,
    model_from_name,
    qubit_family,
)

from conftest import pure_qubit_model


class TestQubitFamily:
    def test_center_of_ball(self):
        model = qubit_family("full")
        assert np.allclose(model.state_at(np.zeros(3)).matrix, np.eye(2) / 2)

    def test_pure_point(self):
        model = qubit_family("full")
        rho = model.state_at(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_z0_eigenvalues(self):
        # 2x2 eigenvalue formula: (1 +- |b|)/2 with |b| = sqrt(x^2 + y^2)
        model = qubit_family("z0")
        lam = model.state_at(np.array([0.5, 0.5])).eigenvalues()
        expected = np.array([(1 - np.sqrt(0.5)) / 2, (1 + np.sqrt(0.5)) / 2])
        assert np.allclose(np.sort(lam), expected, atol=1e-12)

    def test_domain(self):
        model = qubit_family("full")
        assert model.domain_check(np.array([0.5, 0.5, 0.5]))
        assert not model.domain_check(np.array([0.9, 0.9, 0.9]))


class TestDerivatives:
    def test_analytic_x(self):
        model = qubit_family("full")
        derivs = model_derivatives(model, np.zeros(3))
        assert np.allclose(derivs[0], np.diag([0.5, -0.5]))

    def test_analytic_z(self):
        model = qubit_family("full")
        derivs = model_derivatives(model, np.zeros(3))
        assert np.allclose(derivs[2], 0.5 * np.array([[0, 1j], [-1j, 0]]))

    def test_finite_difference_matches_analytic(self):
        analytic = qubit_family("full")
        numeric = ParametricModel(
            name="qubit-fd",
            param_dim=3,
            hilbert_dim=2,
            states=analytic.states,
            domain_check=analytic.domain_check,
            domain_box=analytic.domain_box,
        )
        theta = np.array([0.2, 0.1, 0.3])
        exact = model_derivatives(analytic, theta)
        approx = model_derivatives(numeric, theta)
        for a, b in zip(exact, approx):
            assert np.max(np.abs(a - b)) < 1e-9

    def test_traceless(self):
        model = qubit_family("z0")
        for d in model_derivatives(model, np.array([0.3, -0.2])):
            assert abs(np.trace(d)) < 1e-9

    def test_difference_quotient_derivatives_pass(self):
        # central differences at h = 1e-6 leave traces of about 1e-10 from
        # rounding, far inside 1e-8 of the derivatives' norm
        from qest.collective import mixed_basis_povm, mle

        est, boundary = mle(pure_qubit_model(), mixed_basis_povm("zxy"), [30, 10, 25, 15, 20, 20])
        assert not boundary
        assert np.max(np.abs(est - [0.6645, 0.0])) < 1e-4

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_trace_check_relative_to_norm(self, scale):
        # each derivative's trace is held to 1e-8 of its own Frobenius norm:
        # 1e-9 of it passes at every scale, 1e-6 of it raises
        base = qubit_family("z0")
        pauli = scale * np.array([SIGMA_Z, [[0, 1], [1, 0]]]) / 2

        def with_trace(ratio):
            # t I has trace 2t, and |pauli + t I|^2 = |pauli|^2 + 2 t^2
            t = ratio * np.linalg.norm(pauli[0]) / np.sqrt(4 - 2 * ratio**2)
            derivs = pauli + t * np.eye(2)
            return dataclasses.replace(base, derivatives=lambda th: derivs)

        theta = np.array([0.3, -0.2])
        assert model_derivatives(with_trace(1e-9), theta).shape == (2, 2, 2)
        with pytest.raises(ValidationError, match="derivative trace"):
            model_derivatives(with_trace(1e-6), theta)

    def test_boundary_rejected_without_analytic(self):
        base = qubit_family("z0")
        numeric = ParametricModel(
            name="z0-fd",
            param_dim=2,
            hilbert_dim=2,
            states=base.states,
            domain_check=base.domain_check,
            domain_box=base.domain_box,
        )
        with pytest.raises(ValidationError):
            model_derivatives(numeric, np.array([1.0, 0.0]))


# The one-point forms that domain_check, is_interior and model_derivatives had
# before they took stacks, kept as oracles for the stacked forms.
POINT_DOMAIN = {
    "qubit-full": lambda t: float(t @ t) <= 1.0 + 1e-12,
    "qubit-z0": lambda t: float(t @ t) <= 1.0 + 1e-12,
    "diag:3": lambda t: bool((t > 0).all() and t.sum() < 1.0),
    "gauss1:0.3:16": lambda t: float(np.hypot(t[0], t[1])) <= 3.0,
}


def point_is_interior(check, t, margin):
    if not check(t):
        return False
    for k in range(len(t)):
        for sgn in (1.0, -1.0):
            shifted = t.copy()
            shifted[k] += sgn * margin
            if not check(shifted):
                return False
    return True


def point_derivatives(model, check, t):
    if not check(t):
        raise ValidationError("outside the domain")
    out = []
    if model.derivatives is not None:
        for m in np.asarray(model.derivatives(t), dtype=complex):
            out.append((m + m.conj().T) / 2)
        return out
    if not point_is_interior(check, t, FD_STEP):
        raise ValidationError("not interior")
    for k in range(model.param_dim):
        step = np.zeros(model.param_dim)
        step[k] = FD_STEP
        m = (model.state_at(t + step).matrix - model.state_at(t - step).matrix) / (2 * FD_STEP)
        out.append((m + m.conj().T) / 2)
    return out


def _edge_points(spec, rng):
    """Random points of the domain box and beyond, points on the domain's
    edge, 1e-12 and one margin inside and outside it, and NaN entries."""
    if spec.startswith("qubit"):
        d = 3 if spec == "qubit-full" else 2
        u = rng.standard_normal((64, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        radii = [1.0, 1 - 1e-12, 1 + 1e-12, 1 - 1e-9, 1 - 1e-6, 1 - FD_STEP, 1 - 2e-6]
        # |t|^2 within rounding of the check's threshold 1 + 1e-12, where
        # differently rounded dot products disagree
        edge = np.vstack([u[:8] * r for r in radii] + [u * np.sqrt(1 + 1e-12), np.eye(d), -np.eye(d)])
        box = rng.uniform(-1.1, 1.1, size=(40, d))
    elif spec == "diag:3":
        a = rng.uniform(0.05, 0.95, size=8)
        edge = np.array(
            [[x, y] for v in a for x, y in [
                (v, 1 - v), (v, 1 - v - 1e-12), (v, 1 - v + 1e-12), (v, 1 - v - 1e-6),
                (0.0, v / 2), (1e-12, v / 2), (-1e-12, v / 2), (1e-9, v / 2), (v / 2, FD_STEP),
            ]]
        )
        box = rng.uniform(-0.1, 1.1, size=(40, 2))
    else:
        a = rng.uniform(0, 2 * np.pi, size=8)
        u = np.column_stack([np.cos(a), np.sin(a)])
        edge = np.vstack([u * r for r in [3.0, 3 - 1e-12, 3 + 1e-12, 3 - 1e-6, 3 - FD_STEP]])
        box = rng.uniform(-3.3, 3.3, size=(40, 2))
    pts = np.vstack([edge, box])
    nan = pts[:4].copy()
    nan[np.arange(4), np.arange(4) % pts.shape[1]] = np.nan
    return np.vstack([pts, nan])


def _inside_points(spec, check, edge, rng):
    """The domain points among ``edge``; for gauss1 random points near the
    origin, where the cutoff-16 Fock state is accurate."""
    if spec.startswith("gauss1"):
        return rng.uniform(-0.5, 0.5, size=(12, 2))
    return edge[[check(p) for p in edge]]


@pytest.mark.parametrize("spec", sorted(POINT_DOMAIN))
class TestStackedAgainstPointwise:
    def test_domain_check(self, spec, rng):
        model, check = model_from_name(spec), POINT_DOMAIN[spec]
        pts = _edge_points(spec, rng)
        stacked = model.domain_check(pts)
        assert stacked.shape == (len(pts),)
        assert stacked.tolist() == [check(p) for p in pts]
        assert stacked.any() and not stacked.all()
        assert model.domain_check(pts[0]) == check(pts[0])

    @pytest.mark.parametrize("margin", [1e-9, 1e-6, FD_STEP])
    def test_is_interior(self, spec, margin, rng):
        model, check = model_from_name(spec), POINT_DOMAIN[spec]
        pts = _edge_points(spec, rng)
        expected = [point_is_interior(check, p, margin) for p in pts]
        assert model.is_interior(pts, margin).tolist() == expected
        assert [model.is_interior(p, margin) for p in pts] == expected

    def test_state_stack(self, spec, rng):
        model, check = model_from_name(spec), POINT_DOMAIN[spec]
        pts = _inside_points(spec, check, _edge_points(spec, rng), rng)
        stacked = model.state_stack(pts)
        assert stacked.shape == (len(pts), model.hilbert_dim, model.hilbert_dim)
        assert np.array_equal(stacked, [model.state_at(p).matrix for p in pts])
        assert np.array_equal(model.state_stack(pts[0]), stacked[0])
        grid = model.state_stack(pts[:4].reshape(2, 2, -1))
        assert np.array_equal(grid.reshape(stacked[:4].shape), stacked[:4])

    def test_model_derivatives(self, spec, rng):
        model, check = model_from_name(spec), POINT_DOMAIN[spec]
        edge = _edge_points(spec, rng)
        inside = np.array([check(p) for p in edge])
        pts = _inside_points(spec, check, edge, rng)
        expected = np.array([point_derivatives(model, check, p) for p in pts])
        stacked = model_derivatives(model, pts)
        assert stacked.shape == (len(pts), model.param_dim, model.hilbert_dim, model.hilbert_dim)
        assert np.array_equal(stacked, expected)
        assert np.array_equal(stacked, [model_derivatives(model, p) for p in pts])
        # one row outside the domain, or with a NaN entry, rejects the stack
        for bad in (edge[~inside][0], edge[-1]):
            with pytest.raises(ValidationError, match="outside domain"):
                model_derivatives(model, np.vstack([pts[:3], bad]))


class TestStackedFiniteDifferences:
    def test_against_pointwise(self, rng):
        base = qubit_family("full")
        numeric = ParametricModel(
            name="qubit-fd",
            param_dim=3,
            hilbert_dim=2,
            states=base.states,
            domain_check=base.domain_check,
            domain_box=base.domain_box,
        )
        check = POINT_DOMAIN["qubit-full"]
        pts = rng.uniform(-0.55, 0.55, size=(30, 3))
        expected = np.array([point_derivatives(numeric, check, p) for p in pts])
        assert np.array_equal(model_derivatives(numeric, pts), expected)
        assert np.array_equal([model_derivatives(numeric, p) for p in pts], expected)
        edge = np.vstack([pts[:2], [[1 - FD_STEP / 2, 0.0, 0.0]]])
        with pytest.raises(ValidationError, match="interior"):
            model_derivatives(numeric, edge)

    def test_point_only_domain_check_rejected(self):
        base = qubit_family("z0")
        scalar = ParametricModel(
            name="z0-scalar",
            param_dim=2,
            hilbert_dim=2,
            states=base.states,
            domain_check=lambda t: float(np.sum(t * t)) <= 1.0,
            domain_box=base.domain_box,
        )
        with pytest.raises(ValidationError, match="domain_check"):
            scalar.is_interior(np.array([0.1, 0.2]))

    @pytest.mark.parametrize("call", ["require_domain", "sld_fisher", "holevo_bound"])
    def test_per_coordinate_domain_check_rejected_at_one_point(self, call):
        # one flag per coordinate: the one-point check takes the stacked
        # checks' shape test instead of asking NumPy for an array's truth value
        from qest.bounds import holevo_bound
        from qest.fisher import sld_fisher

        model = dataclasses.replace(qubit_family("z0"), domain_check=lambda t: np.abs(t) < 0.9)
        run = {
            "require_domain": lambda: model.require_domain([0.1, 0.2]),
            "sld_fisher": lambda: sld_fisher(model, [0.1, 0.2]),
            "holevo_bound": lambda: holevo_bound(model, [0.1, 0.2], np.eye(2)),
        }[call]
        with pytest.raises(ValidationError, match="domain_check"):
            run()

    @pytest.mark.parametrize("theta", [[0.1, 0.2, 0.3], [[0.1, 0.2]], 0.1])
    def test_require_domain_takes_one_point(self, theta):
        model = qubit_family("z0")
        with pytest.raises(ValidationError, match="expects 2 parameters, got shape"):
            model.require_domain(theta)
        assert model.require_domain((0.1, 0.2)).tolist() == [0.1, 0.2]

    def test_point_only_states_rejected(self):
        base = qubit_family("z0")
        scalar = ParametricModel(
            name="z0-point-states",
            param_dim=2,
            hilbert_dim=2,
            states=lambda t: _qubit_states(t[0], t[1], 0.0),
            domain_check=base.domain_check,
            domain_box=base.domain_box,
        )
        with pytest.raises(ValidationError, match="states"):
            scalar.state_stack(np.array([[0.1, 0.2], [0.3, 0.1], [0.0, 0.5]]))

    def test_one_matrix_derivative_rejected(self):
        # one (dim, dim) matrix would broadcast to every parameter
        base = qubit_family("z0")
        single = ParametricModel(
            name="z0-one-derivative",
            param_dim=2,
            hilbert_dim=2,
            states=base.states,
            domain_check=base.domain_check,
            domain_box=base.domain_box,
            derivatives=lambda t: SIGMA_Z / 2,
        )
        with pytest.raises(ValidationError, match="derivatives"):
            model_derivatives(single, np.array([0.1, 0.2]))


class TestDiagonalFamily:
    def test_state(self):
        model = diagonal_family(3)
        rho = model.state_at(np.array([0.2, 0.3]))
        assert np.allclose(np.diag(rho.matrix), [0.2, 0.3, 0.5])

    def test_derivatives(self):
        model = diagonal_family(2)
        (d,) = model_derivatives(model, np.array([0.3]))
        assert np.allclose(d, np.diag([1.0, -1.0]))

    def test_domain(self):
        model = diagonal_family(3)
        assert model.domain_check(np.array([0.2, 0.3]))
        assert not model.domain_check(np.array([0.7, 0.4]))


class TestGaussianDisplacementFamily:
    def test_state_matches_fock_density(self):
        from qest.gaussian import fock_density

        model = gaussian_displacement_family(0.5, cutoff=32)
        theta = np.array([0.4, -0.2])
        zeta = (theta[0] + 1j * theta[1]) / np.sqrt(2)
        expected = fock_density(zeta, 0.5, 32).matrix
        assert np.max(np.abs(model.state_at(theta).matrix - expected)) < 1e-12

    def test_commutator_derivative_matches_fd(self):
        model = gaussian_displacement_family(0.3, cutoff=24)
        theta = np.array([0.2, 0.1])
        analytic = model_derivatives(model, theta)
        h = 1e-5
        for k in range(2):
            step = np.zeros(2)
            step[k] = h
            fd = (model.state_at(theta + step).matrix - model.state_at(theta - step).matrix) / (2 * h)
            # interior block: edge rows feel the truncation
            assert np.max(np.abs((analytic[k] - fd)[:16, :16])) < 1e-8

    def test_means_are_theta(self):
        from qest.gaussian import quadrature_operators

        model = gaussian_displacement_family(0.4, cutoff=32)
        theta = np.array([0.3, 0.5])
        rho = model.state_at(theta).matrix
        q, p = quadrature_operators(32)
        means = [np.real(np.trace(rho @ q)), np.real(np.trace(rho @ p))]
        assert np.allclose(means, theta, atol=1e-9)


class TestModelFromName:
    @pytest.mark.parametrize(
        "name,dim,hdim",
        [("qubit-full", 3, 2), ("qubit-z0", 2, 2), ("diag:3", 2, 3)],
    )
    def test_known(self, name, dim, hdim):
        model = model_from_name(name)
        assert model.param_dim == dim
        assert model.hilbert_dim == hdim

    def test_gauss1(self):
        model = model_from_name("gauss1:0.5")
        assert model.param_dim == 2
        assert model.meta["noise"] == 0.5

    def test_gauss1_explicit_cutoff(self):
        model = model_from_name("gauss1:0.3:16")
        assert model.hilbert_dim == 16
        assert model.meta["cutoff"] == 16

    def test_unknown(self):
        with pytest.raises(ValidationError):
            model_from_name("qutrit-magic")
