import contextlib
import io
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from qest.models import ParametricModel
from qest.qcore import DensityOperator, Povm

# hypothesis's pytest plugin imports hypothesis.extra._patching (and libcst
# with it) only when it reports a failing @given test.  Under -W error a
# DeprecationWarning from that import, raised inside the report hook, ends the
# session with INTERNALERROR; imported once here with that warning ignored,
# the failure stays a FAILED line.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_density(rng, dim=2) -> DensityOperator:
    """Ginibre-random full-rank state."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T + 1e-6 * np.eye(dim)
    return DensityOperator(m / np.real(np.trace(m)))


def random_povm(rng, dim=2, outcomes=3) -> Povm:
    """Random complete POVM via the square-root normalization trick."""
    raw = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw.append(g @ g.conj().T + 1e-9 * np.eye(dim))
    total = sum(raw)
    w, u = np.linalg.eigh(total)
    t_isqrt = (u * (w**-0.5)) @ u.conj().T
    return Povm([t_isqrt @ a @ t_isqrt for a in raw])


def pure_qubit_model():
    """Two-parameter family of pure states (polar, azimuth angles)."""

    def states(t):
        a, b = t[..., 0], t[..., 1]
        v = np.stack([np.cos(a / 2) + 0j, np.exp(1j * b) * np.sin(a / 2)], axis=-1)
        return v[..., :, None] * v[..., None, :].conj()

    def derivatives(t):
        h = 1e-6
        steps = np.eye(2) * h
        dm = (states(t[..., None, :] + steps) - states(t[..., None, :] - steps)) / (2 * h)
        return (dm + dm.conj().swapaxes(-1, -2)) / 2

    return ParametricModel(
        name="pure-qubit",
        param_dim=2,
        hilbert_dim=2,
        states=states,
        domain_check=lambda t: (0.05 < t[..., 0]) & (t[..., 0] < np.pi - 0.05),
        domain_box=((0.05, np.pi - 0.05), (-np.pi, np.pi)),
        derivatives=derivatives,
    )


def random_hermitian(rng, dim=2) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke_main(argv) -> CliResult:
    """Run ``qest.cli.main(argv)`` in this process with its standard streams
    captured.  ``main`` ends in ``SystemExit``, whose code is the exit code;
    any other exception propagates."""
    from qest.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    exit_code = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(argv)
        except SystemExit as exc:
            exit_code = exc.code or 0
    return CliResult(exit_code, stdout.getvalue(), stderr.getvalue())
