"""Shared helpers for the test suite.

Test-side code is allowed to use scipy (expm, svdvals) and numpy's
eigenvalue routines as *independent oracles*; the library under test
imports only numpy and never validates a quantity against itself.
"""

import sys

import numpy as np

from qrep import Unitary, random_unitary


def det_normalized(m: np.ndarray) -> np.ndarray:
    """Rescale a unitary matrix by a global phase so its determinant is 1."""
    n = m.shape[0]
    det = np.linalg.det(m)
    return m * np.exp(-1j * np.angle(det) / n)


def haar_det1_unitary(n: int, rng, avoid_minus_one: float = 0.0) -> Unitary:
    """Random unitary with det = 1, optionally resampled until the spectrum
    keeps the given distance from -1 (np.linalg.eigvals is the test-side
    oracle here; the library's winding code never sees these eigenvalues)."""
    while True:
        m = det_normalized(random_unitary(n, rng).m)
        if avoid_minus_one > 0.0:
            lam = np.linalg.eigvals(m)
            if np.min(np.abs(lam + 1.0)) <= avoid_minus_one:
                continue
        return Unitary.of(m)


def diag_unitary(phases) -> Unitary:
    return Unitary.of(np.diag(np.exp(1j * np.asarray(phases, dtype=float))))


def random_hermitian(n: int, rng) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_skew(n: int, rng) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a - a.conj().T) / 2


def hermitian_with_spectrum(values, rng) -> np.ndarray:
    """Hermitian matrix with exactly the given eigenvalues, random basis."""
    values = np.asarray(values, dtype=float)
    g = random_unitary(len(values), rng)
    return g.m @ np.diag(values) @ g.m.conj().T


def spy(monkeypatch, fn, owners=None) -> list:
    """Record the positional arguments of every call to ``fn``.

    Every attribute bound to ``fn`` in ``owners`` (default: every loaded
    qrep module, since qrep binds functions by name at import) is replaced
    by a recording wrapper; monkeypatch restores them after the test.  A
    classmethod is spied through its class, e.g.
    ``spy(monkeypatch, Unitary.of.__func__, [Unitary])``; its calls then
    record the class as the first argument.
    """
    if owners is None:
        owners = [m for name, m in sys.modules.items()
                  if name == "qrep" or name.startswith("qrep.")]
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is fn:
                monkeypatch.setattr(owner, attr, wrapper)
            elif isinstance(value, classmethod) and value.__func__ is fn:
                monkeypatch.setattr(owner, attr, classmethod(wrapper))
    return calls
