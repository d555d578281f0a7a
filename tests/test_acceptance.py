"""Acceptance suite.

One test per acceptance criterion, each asserting its stated numerical
tolerance and runtime budget and printing a single PASS line on success
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import time

import numpy as np
import pytest

from qest.bounds import (
    cr_value,
    gaussian_shift_bound,
    gill_massar,
    holevo_bound,
    holevo_objective,
    qubit_c1,
)
from qest.clt import CollectiveSpec, clt_gap, collective_moment, collective_moment_bruteforce
from qest.collective import (
    collective_estimator_check,
    mixed_basis_povm,
    two_stage_estimate,
)
from qest.fisher import classical_fisher, sld_fisher
from qest.gaussian import (
    ONE_MODE_S,
    characteristic_function,
    fock_density,
    gaussian_protocol_mse,
    number_distribution,
    one_mode_covariance,
)
from qest.models import ParametricModel, _qubit_states, qubit_family
from qest.qcore import DensityOperator

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, random_povm


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.start


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} — {detail}")
    assert ok, detail


def submodel_xy_at_half():
    """(x, y) parameters of the full family at fixed z = 1/2."""
    derivs = np.array([0.5 * SIGMA_Z, 0.5 * SIGMA_X])
    return ParametricModel(
        name="qubit-xy@z=0.5",
        param_dim=2,
        hilbert_dim=2,
        states=lambda t: _qubit_states(t[..., 0], t[..., 1], 0.5),
        domain_check=lambda t: t[..., 0] ** 2 + t[..., 1] ** 2 <= 0.74,
        domain_box=((-0.86, 0.86),) * 2,
        derivatives=lambda t: derivs,
    )


def test_criterion_1_gaussian_shift_bound():
    budget = Budget(1.0)
    worst = 0.0
    for noise in (0.5, 1.0, 2.0):
        value = gaussian_shift_bound(one_mode_covariance(noise), ONE_MODE_S, np.eye(2))
        worst = max(worst, abs(value - 2.0 * (noise + 1.0)))
    elapsed = budget.elapsed()
    report(
        1,
        worst < 1e-12 and elapsed < budget.limit,
        f"gaussian shift bound = 2(N+1), max dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_protocol_monte_carlo():
    budget = Budget(120.0)
    n = 100
    rep = gaussian_protocol_mse(0.6 + 0.4j, 1.0, n, 10**5, seed=20260808)
    dev_theta = abs(n * rep.mse_theta - 4.0)
    tol_theta = 3 * n * rep.se_mse_theta
    dev_noise = abs((n - 1) * rep.mse_noise - 2.0)
    tol_noise = 3 * (n - 1) * rep.se_mse_noise
    dev_base = abs(n * rep.baseline_mse_noise - 4.0)
    tol_base = 3 * n * rep.se_baseline_mse_noise
    elapsed = budget.elapsed()
    ok = dev_theta < tol_theta and dev_noise < tol_noise and dev_base < tol_base
    report(
        2,
        ok and elapsed < budget.limit,
        "protocol constants: "
        f"n*mse_theta dev {dev_theta:.4f} (3SE {tol_theta:.4f}), "
        f"(n-1)*mse_N dev {dev_noise:.4f} (3SE {tol_noise:.4f}), "
        f"baseline n*mse_N dev {dev_base:.4f} (3SE {tol_base:.4f}), {elapsed:.1f}s",
    )


def test_criterion_3_qubit_bound_chain():
    budget = Budget(30.0)
    model = qubit_family("full")
    theta = np.zeros(3)
    g = np.eye(3)
    _, j_s = sld_fisher(model, theta)
    cr = cr_value(j_s, g)
    sol = holevo_bound(model, theta, g)
    c1 = qubit_c1(j_s, g)
    gap = c1 - sol.value
    elapsed = budget.elapsed()
    ok = (
        abs(cr - 3.0) < 1e-9
        and abs(sol.value - 3.0) < 1e-4
        and abs(c1 - 9.0) < 1e-12
        and abs(gap - 6.0) < 1e-3
        and elapsed < budget.limit
    )
    report(
        3,
        ok,
        f"crSld {cr:.9f}, holevo {sol.value:.6f}, qubitC1 {c1:.12f}, "
        f"gap {gap:.6f}, {elapsed:.1f}s",
    )


def test_criterion_4_holevo_optimizer_correctness():
    budget = Budget(60.0)
    model = submodel_xy_at_half()
    theta = np.zeros(2)
    g = np.eye(2)
    logs, j_s = sld_fisher(model, theta)
    j_inv = np.linalg.inv(j_s.matrix)
    l_inverse = [
        sum(j_inv[k, l] * logs.operators[l] for l in range(2)) for k in range(2)
    ]
    closed_form, _, _ = holevo_objective(model, theta, l_inverse, g)
    sol = holevo_bound(model, theta, g)
    dev = abs(sol.value - closed_form)
    elapsed = budget.elapsed()
    ok = (
        abs(closed_form - 3.0) < 1e-9
        and dev < 2e-4
        and elapsed < budget.limit
    )
    report(
        4,
        ok,
        f"closed form {closed_form:.9f}, holevo {sol.value:.9f} (dual {sol.dual_value:.9f}), "
        f"dev {dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_gill_massar_sweep():
    budget = Budget(60.0)
    rng = np.random.default_rng(5)
    model = qubit_family("full")
    povms = [random_povm(rng, outcomes=int(rng.integers(2, 6))) for _ in range(200)]
    thetas = []
    while len(thetas) < 20:
        t = rng.uniform(-0.7, 0.7, 3)
        if t @ t <= 0.64:
            thetas.append(t)
    worst = -np.inf
    for t in thetas:
        _, j_s = sld_fisher(model, t)
        for povm in povms:
            j_m = classical_fisher(model, t, povm)
            value, ok = gill_massar(j_s, j_m, 2)
            worst = max(worst, value)
            if not ok:
                report(5, False, f"violation {value} at theta {t}")
    elapsed = budget.elapsed()
    report(
        5,
        worst <= 1.0 + 1e-8 and elapsed < budget.limit,
        f"200 POVMs x 20 points, max tr(jS^-1 jM) = {worst:.10f}, {elapsed:.1f}s",
    )


def test_criterion_6_quantum_clt():
    budget = Budget(60.0)
    spec2 = CollectiveSpec(DensityOperator(np.diag([0.75, 0.25])), [SIGMA_X, SIGMA_Y])
    base = spec2.v[0, 1] + 1j * spec2.s[0, 1]
    drift = max(
        abs(collective_moment(spec2, n, (1, 2)) - base) for n in range(1, 65)
    )
    spec_z = CollectiveSpec(DensityOperator(np.eye(2) / 2), [SIGMA_Z])
    gap_dev = max(
        abs(gap - 2.0 / n) for n, gap in clt_gap(spec_z, [2, 5, 10], (1, 1, 1, 1))
    )
    ns = np.array([4, 8, 16, 32])
    gaps = np.array([g for _, g in clt_gap(spec_z, ns, (1, 1, 1, 1))])
    x = 1.0 / ns
    slope, intercept = np.polyfit(x, gaps, 1)
    pred = slope * x + intercept
    r_squared = 1.0 - np.sum((gaps - pred) ** 2) / np.sum((gaps - gaps.mean()) ** 2)
    rng = np.random.default_rng(6)
    engine_dev = 0.0
    for _ in range(3):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = DensityOperator((g @ g.conj().T) / np.real(np.trace(g @ g.conj().T)))
        h1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        spec = CollectiveSpec(rho, [(h1 + h1.conj().T) / 2, (h2 + h2.conj().T) / 2])
        for n in (1, 2, 3, 4):
            for word in [(1, 2), (1, 1, 2, 2), (2, 1, 2, 1)]:
                engine_dev = max(
                    engine_dev,
                    abs(
                        collective_moment(spec, n, word)
                        - collective_moment_bruteforce(spec, n, word)
                    ),
                )
    elapsed = budget.elapsed()
    ok = (
        drift < 1e-12
        and gap_dev < 1e-10
        and r_squared > 0.999
        and engine_dev < 1e-10
        and elapsed < budget.limit
    )
    report(
        6,
        ok,
        f"degree-2 drift {drift:.2e}, degree-4 gap dev {gap_dev:.2e}, "
        f"R^2 {r_squared:.6f}, engine dev {engine_dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_collective_povm():
    budget = Budget(600.0)
    model = ParametricModel(
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
    x_ops = [SIGMA_X, SIGMA_Y]
    epsilon = 0.1
    v_prime = (0.5 + epsilon) * np.eye(2)  # |s| + eps at this point
    rows = collective_estimator_check(model, np.zeros(2), x_ops, v_prime, [2, 4, 6, 8])
    residual = max(r.completeness_residual for r in rows)
    gaps = [float(np.linalg.norm(r.a_matrix - np.eye(2))) for r in rows]
    monotone = all(gaps[i + 1] <= gaps[i] + 1e-3 for i in range(len(gaps) - 1))
    target = 3.2  # tr(v(X) + v')
    trace_gaps = [abs(float(np.trace(r.scaled_covariance)) - target) for r in rows]
    trace_monotone = all(
        trace_gaps[i + 1] <= trace_gaps[i] + 1e-3 for i in range(len(trace_gaps) - 1)
    )
    final_trace = float(np.trace(rows[-1].scaled_covariance))
    rel = abs(final_trace - target) / target
    elapsed = budget.elapsed()
    ok = (
        residual < 1e-5
        and monotone
        and trace_monotone
        and rel < 0.15
        and elapsed < budget.limit
    )
    report(
        7,
        ok,
        f"completeness {residual:.2e}, |A_n - I| {['%.4f' % g for g in gaps]}, "
        f"n*tr at n=8: {final_trace:.4f} vs {target} ({100 * rel:.1f}%), {elapsed:.0f}s",
    )


def test_criterion_8_two_stage():
    budget = Budget(300.0)
    model = qubit_family("z0")
    theta = np.array([0.5, 0.0])
    rep = two_stage_estimate(
        model, theta, mixed_basis_povm(), n=10**4, seed=424242, trials=2000
    )
    n_scaled = rep.extras["weighted_trace_scaled"]
    c1 = rep.bound_value
    holevo = holevo_bound(model, theta, np.eye(2)).value
    se_trace = float(rep.standard_errors[0, 0] + rep.standard_errors[1, 1])
    rel = abs(n_scaled - c1) / c1
    elapsed = budget.elapsed()
    ok = rel < 0.10 and n_scaled >= holevo - 3 * 10**4 * se_trace and elapsed < budget.limit
    report(
        8,
        ok,
        f"n*tr(MSE) {n_scaled:.4f} vs C1 {c1:.4f} ({100 * rel:.1f}%), "
        f"C^H {holevo:.4f}, discarded {rep.extras['discarded']}, {elapsed:.0f}s",
    )


def test_criterion_9_fock_numerics():
    budget = Budget(30.0)
    rng = np.random.default_rng(9)
    char_dev = 0.0
    for zeta, noise in [(0j, 4.0), (1.0 + 1.0j, 2.0), (2.0 * np.exp(0.7j), 0.5)]:
        state = fock_density(zeta, noise, 128)
        for _ in range(10):
            x, y = rng.normal(scale=0.8, size=2)
            lhs = characteristic_function(state, x, y)
            rhs = np.exp(
                1j * np.sqrt(2) * (zeta.real * x + zeta.imag * y)
                - 0.5 * (noise + 0.5) * (x * x + y * y)
            )
            char_dev = max(char_dev, abs(lhs - rhs))
    moment_dev = 0.0
    for noise in (0.5, 2.0, 4.0):
        dist = number_distribution(fock_density(0j, noise, 128))
        moment_dev = max(moment_dev, abs(dist.mean() - noise))
        moment_dev = max(moment_dev, abs(dist.variance() - noise * (noise + 1.0)))
    elapsed = budget.elapsed()
    ok = char_dev < 1e-6 and moment_dev < 1e-6 and elapsed < budget.limit
    report(
        9,
        ok,
        f"characteristic-function dev {char_dev:.2e}, number-moment dev {moment_dev:.2e}, "
        f"{elapsed:.1f}s",
    )
