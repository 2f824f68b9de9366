"""Reference computations and output checks, made apart from qrep.

Everything here is computed with numpy from the definitions: eigenphases
come from the general eigensolver ``numpy.linalg.eigvals`` (qrep goes
through the Cartesian parts of the unitary instead), operator norms from
``numpy.linalg.norm(., 2)`` (an SVD; qrep takes the top eigenvalue of
m* m), and the shift/phase pair from its closed form.  This module never
imports qrep, so a check cannot agree with the program by sharing its code.

Each ``check_*`` function returns a list of failure messages; an empty list
means the case's outputs are right.
"""

from __future__ import annotations

import json
import math

import numpy as np

# A reported value and its reference agree to this absolute tolerance when
# both are the same quantity computed by two routes; kappa gets the 1e-6 the
# acceptance criteria name, defects a tighter one so that an error of 1e-6
# shows.
KAPPA_TOL = 1e-6
NORM_TOL = 1e-9
# e(u, v) has a usable rank class only below this projection defect.
E_DEFECT_MAX = 1.0 / 8.0


def shift_phase(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic shift u e_j = e_{j+1 mod n} and v = diag(z, ..., z^n),
    z = exp(2 pi i / n)."""
    u = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        u[(j + 1) % n, j] = 1.0
    k = np.arange(1, n + 1)
    v = np.diag(np.exp(2j * np.pi * k / n))
    return u, v


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = a b a* b*."""
    return a @ b @ a.conj().T @ b.conj().T


def norm2(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def kappa_ref(w: np.ndarray) -> float:
    """(1 / 2 pi) times the sum of the principal eigenphases of w."""
    return float(np.angle(np.linalg.eigvals(w)).sum()) / (2.0 * math.pi)


def normal_form(u: np.ndarray, v: np.ndarray, j: int, k: int) -> np.ndarray:
    """u^j v^k, the image of an element with exponent sums (j, k) in the
    two-generator abelian normal form; negative powers use the adjoint."""
    def power(m, e):
        return np.linalg.matrix_power(m if e >= 0 else m.conj().T, abs(e))
    return power(u, j) @ power(v, k)


def mult_defect_ref(u, v, elements) -> tuple[float, float]:
    """(epsilon, inverse defect) of the normal-form extension of (u, v) on a
    set of elements given by their exponent sums:
    epsilon = max ||pi(st) - pi(s) pi(t)||, inverse = max ||pi(s^-1) - pi(s)*||."""
    pi = [normal_form(u, v, j, k) for j, k in elements]
    eps = max(norm2(normal_form(u, v, s[0] + t[0], s[1] + t[1]) - pi[i] @ pi[m])
              for i, s in enumerate(elements) for m, t in enumerate(elements))
    inv = max(norm2(normal_form(u, v, -s[0], -s[1]) - pi[i].conj().T)
              for i, s in enumerate(elements))
    return eps, inv


def _close(failures, label, got, want, tol):
    if not abs(got - want) <= tol:
        failures.append(f"{label}: got {got!r}, reference {want!r}, tolerance {tol}")


def _equal(failures, label, got, want):
    if got != want:
        failures.append(f"{label}: got {got!r}, expected {want!r}")


def check_exel_loring(report, u, v, u0, v0, radius) -> list[str]:
    """An index-formula report on the pair (u, v), a perturbation of radius
    ``radius`` of the shift/phase pair (u0, v0).

    The identity's loop is [v, u]; README fixes the sign of k(u, v) to that
    of kappa([v, u]), which is +1 here.
    """
    f: list[str] = []
    n = u.shape[0]
    loop = commutator(v, u)
    kap = kappa_ref(loop)
    _equal(f, "lhs_k", report.lhs_k, 1)
    _equal(f, "rhs_wn", report.rhs_wn.rounded, 1)
    _equal(f, "rhs_kappa", report.rhs_kappa.rounded, 1)
    _equal(f, "round(kappa_ref([v, u]))", round(kap), 1)
    _close(f, "rhs_kappa.value", report.rhs_kappa.value, kap, KAPPA_TOL)
    _close(f, "rhs_kappa_tau.value * n", report.rhs_kappa_tau.value * n,
           report.rhs_kappa.value, NORM_TOL)
    if not report.defects["e_defect"] < E_DEFECT_MAX:
        f.append(f"e_defect {report.defects['e_defect']!r} is not below 1/8")
    _close(f, "||u - u0||", norm2(u - u0), radius, NORM_TOL)
    _close(f, "||v - v0||", norm2(v - v0), radius, NORM_TOL)
    return f


STABILITY_ELEMENTS = ((1, 0), (0, 1), (-1, 0), (0, -1))   # a, b, A, B


def check_stability(report, wn, k, md, a, b) -> list[str]:
    """One row of the stability experiment on the perturbed pair (a, b):
    the stability report, the winding report of [a, b], the k report of
    (a, b) and the multiplicativity defect over a, b and their inverses."""
    f: list[str] = []
    w = commutator(a, b)
    if not report.homotopy_ok:
        f.append("homotopy_ok is false")
    if not report.equal:
        f.append("equal is false")
    _equal(f, "kappa_start", report.kappa_start.rounded, -1)
    _equal(f, "kappa_end", report.kappa_end.rounded, -1)
    _equal(f, "winding", wn.rounded, -1)
    _close(f, "kappa_end.value", report.kappa_end.value, kappa_ref(w), KAPPA_TOL)
    _equal(f, "k", k.rounded, 1)
    _equal(f, "round(kappa_ref([b, a]))", round(kappa_ref(commutator(b, a))), 1)
    _close(f, "relator_defect_alt", report.relator_defect_alt,
           norm2(w - np.eye(w.shape[0])), NORM_TOL)
    eps, _ = mult_defect_ref(a, b, STABILITY_ELEMENTS)
    _close(f, "mult_defect.epsilon", md.epsilon, eps, NORM_TOL)
    return f


# -- cli-files ------------------------------------------------------------------

CLI_ELEMENTS = ((1, 0), (0, 1), (1, 1))                  # "a,b,a b"


def read_pair(path) -> tuple[np.ndarray, np.ndarray]:
    """The generator images a, b of a qrep JSON file, read with the json module."""
    with open(path) as fh:
        obj = json.load(fh)
    images = obj["result"]["images"]
    return tuple(read_matrix(images[g]) for g in ("a", "b"))


def read_matrix(obj) -> np.ndarray:
    n = obj["dim"]
    re = np.array(obj["re"], dtype=np.float64)
    im = np.array(obj["im"], dtype=np.float64)
    return (re + 1j * im).reshape(n, n)


def read_result(path) -> dict:
    with open(path) as fh:
        return json.load(fh)["result"]


def bits_equal(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def check_cli_files(codes, files, n, in_memory, first_bytes) -> list[str]:
    """One chain of CLI calls.

    ``codes`` maps each command to its exit code; ``files`` maps "pair",
    "pert", "kappa", "winding", "k" and "defect" to the files written;
    ``in_memory`` is the perturbed pair (a, b) as qrep held it before
    writing.  The "pert" file holds the output of ``gen perturbed`` run a
    second time with the same arguments; ``first_bytes`` is the first.
    """
    f: list[str] = []
    for cmd, code in codes.items():
        _equal(f, f"exit code of {cmd}", code, 0)
    if f:
        return f
    u0, v0 = shift_phase(n)
    u, v = read_pair(files["pair"])
    if not (bits_equal(u, u0) and bits_equal(v, v0)):
        f.append("gen voiculescu: written pair differs from the closed form")
    a, b = read_pair(files["pert"])
    if not (bits_equal(a, in_memory[0]) and bits_equal(b, in_memory[1])):
        f.append("gen perturbed: matrices read back differ from those written")
    with open(files["pert"], "rb") as fh:
        if fh.read() != first_bytes:
            f.append("gen perturbed --deterministic: repeated output differs")
    w = commutator(a, b)
    kap = read_result(files["kappa"])
    _equal(f, "kappa", kap.get("rounded"), -1)
    _close(f, "kappa value", kap["value"], kappa_ref(w), KAPPA_TOL)
    _equal(f, "winding", read_result(files["winding"]).get("rounded"), -1)
    _equal(f, "k", read_result(files["k"]).get("rounded"), 1)
    _equal(f, "round(kappa_ref([b, a]))", round(kappa_ref(commutator(b, a))), 1)
    d = read_result(files["defect"])
    _close(f, "relator_defect", d["relator_defect"],
           norm2(w - np.eye(n)), NORM_TOL)
    eps, inv = mult_defect_ref(a, b, CLI_ELEMENTS)
    _close(f, "mult_defect.epsilon", d["mult_defect"]["epsilon"], eps, NORM_TOL)
    _close(f, "mult_defect.inverse_defect", d["mult_defect"]["inverse_defect"],
           inv, NORM_TOL)
    _equal(f, "mult_defect.set_size", d["mult_defect"]["set_size"], 3)
    return f
