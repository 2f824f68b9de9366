"""Dense linear-algebra core: validation, eigensystems, log/exp, projections.

Oracles used here are independent of the implementation under test:
scipy.linalg.expm (scaling-and-squaring) against the eigenphase-based
exponential, numpy's 2-norm (SVD) against the eigenvalue-based operator
norm, and closed-form spectra (roots of unity, chosen diagonals).
"""

import numpy as np
import pytest
import scipy.linalg

from conftest import (diag_unitary, haar_det1_unitary, hermitian_with_spectrum,
                      random_hermitian, random_skew, spy)
from qrep import (DimensionMismatch, EigenSystem, FormatError, NoSpectralGap,
                  NotHermitian, NotUnitary, Unitary, adjoint, as_cmatrix,
                  BranchCut, exp_skew, herm_eig, lu_det, matrix_from_json,
                  matrix_to_json, op_norm, perturbed_copy, principal_log_unitary,
                  random_unitary, spectral_projection, unitary_eig,
                  voiculescu_pair)
from qrep.matcore import identity_defect, product


# -- as_cmatrix / adjoint / det / norm ----------------------------------------

def test_as_cmatrix_accepts_real_and_complex():
    a = as_cmatrix([[1, 2], [3, 4]])
    assert a.dtype == np.complex128 and a.shape == (2, 2)


def test_as_cmatrix_rejects_non_square_and_non_finite():
    with pytest.raises(DimensionMismatch):
        as_cmatrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        as_cmatrix(np.zeros(4))
    with pytest.raises(FormatError):
        as_cmatrix([[np.nan, 0], [0, 1]])
    with pytest.raises(FormatError):
        as_cmatrix([[np.inf, 0], [0, 1]])
    with pytest.raises(FormatError):
        as_cmatrix([["a", "b"], ["c", "d"]])


def test_adjoint_is_conjugate_transpose():
    m = np.array([[1 + 2j, 3], [4j, 5]])
    assert np.array_equal(adjoint(m), m.conj().T)


def test_lu_det_cyclic_shift_sign():
    # the n-cycle permutation has determinant (-1)^(n-1)
    for n in range(2, 12):
        u, _ = voiculescu_pair(n)
        expected = (-1.0) ** (n - 1)
        assert abs(lu_det(u.m) - expected) < 1e-12, n


def test_lu_det_multiplicativity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert abs(lu_det(a @ b) - lu_det(a) * lu_det(b)) < 1e-8 * (
            1 + abs(lu_det(a) * lu_det(b)))


def test_op_norm_matches_svd_two_norm():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert abs(op_norm(m) - np.linalg.norm(m, 2)) < 1e-10 * (1 + op_norm(m))


def test_op_norm_commutator_voiculescu_closed_form():
    for n in (3, 8, 32):
        u, v = voiculescu_pair(n)
        c = u.m @ v.m @ adjoint(u.m) @ adjoint(v.m)
        assert abs(op_norm(c - np.eye(n)) - 2 * np.sin(np.pi / n)) < 1e-12


def test_product_folds_from_the_first_factor_and_identity_defect():
    rng = np.random.default_rng(16)
    u = random_unitary(5, rng).m
    empty = product([], 5)
    assert empty.dtype == np.complex128 and np.array_equal(empty, np.eye(5))
    assert product([u], 5) is u
    assert identity_defect(empty) == 0.0
    assert abs(identity_defect(u) - np.linalg.norm(u - np.eye(5), 2)) < 1e-12


# -- Unitary ------------------------------------------------------------------

def test_unitary_of_accepts_true_unitary_and_rejects_others():
    rng = np.random.default_rng(3)
    u = random_unitary(6, rng)
    assert u.dim == 6
    with pytest.raises(NotUnitary):
        Unitary.of(np.diag([1.0, 2.0]))
    with pytest.raises(NotUnitary):
        Unitary.of(u.m + 1e-4)


def test_unitary_of_gates_on_the_operator_norm_not_the_frobenius_bound():
    # sqrt(1 + 5e-9) * 1 at n = 16: ||m*m - 1|| is 5e-9 in operator norm and
    # 2e-8 in Frobenius norm, on either side of the default 1e-8
    m = np.sqrt(1 + 5e-9) * np.eye(16)
    gram_defect = m.conj().T @ m - np.eye(16)
    assert np.linalg.norm(gram_defect) > 1e-8 > op_norm(gram_defect)
    assert Unitary.of(m).dim == 16


def test_unitary_of_skips_the_eigensolve_under_the_frobenius_bound(monkeypatch):
    import qrep.matcore

    def refuse(m):
        raise AssertionError("op_norm called")

    u, _ = voiculescu_pair(32)
    monkeypatch.setattr(qrep.matcore, "op_norm", refuse)
    assert Unitary.of(u.m).dim == 32


def test_unitary_of_refusal_reports_the_operator_defect():
    # the n = 16 pair times diag(1 +- 2e-7): unitarity defect 4e-7
    u, _ = voiculescu_pair(16)
    m = u.m @ np.diag(1 + 2e-7 * (-1.0) ** np.arange(16))
    with pytest.raises(NotUnitary) as exc:
        Unitary.of(m)
    assert exc.value.details["defect"] == op_norm(m.conj().T @ m - np.eye(16))
    assert abs(exc.value.details["defect"] - 4e-7) < 1e-12
    assert exc.value.details["tol"] == 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e150, 1e154, 1e160, 1e200])
def test_unitary_of_refuses_a_matrix_whose_gram_product_overflows(scale):
    # from 1e154 on m* m overflows to inf, from 1e160 on its diagonal to
    # inf + nan j; each is a unitarity defect, never an acceptance
    with pytest.raises(NotUnitary) as exc:
        Unitary.of(scale * np.eye(3))
    defect = exc.value.details["defect"]
    assert defect > 1e-8
    assert defect == np.inf or abs(defect / scale**2 - 1) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_herm_eig_refuses_a_finite_matrix_whose_defect_overflows():
    with pytest.raises(NotHermitian) as exc:
        herm_eig([[0.0, 1e308], [-1e308, 0.0]])
    assert exc.value.details["defect"] == np.inf


def test_unitary_adjoint_and_matmul():
    rng = np.random.default_rng(4)
    u, v = random_unitary(5, rng), random_unitary(5, rng)
    assert op_norm((u @ u.adjoint()).m - np.eye(5)) < 1e-12
    assert np.allclose((u @ v).m, u.m @ v.m)


# -- herm_eig / unitary_eig ---------------------------------------------------

def test_herm_eig_reconstructs_and_rejects_non_hermitian():
    rng = np.random.default_rng(5)
    h = random_hermitian(7, rng)
    es = herm_eig(h)
    assert op_norm(es.apply(lambda v: v) - h) < 1e-12
    assert np.all(np.diff(es.values.real) >= 0)
    with pytest.raises(NotHermitian):
        herm_eig(h + 1e-3 * 1j * np.eye(7))


def test_herm_eig_skips_the_eigensolve_on_hermitian_input(monkeypatch):
    rng = np.random.default_rng(13)
    h = random_hermitian(32, rng)
    calls = spy(monkeypatch, op_norm)
    herm_eig(h)
    exp_skew(random_skew(32, rng))
    assert calls == []


def test_herm_eig_gates_on_the_operator_norm_not_the_frobenius_bound(monkeypatch):
    # h + 2e-9 i at n = 16: ||a - a*|| is 4e-9 in operator norm and 1.6e-8
    # in Frobenius norm, on either side of the default 1e-8
    h = random_hermitian(16, np.random.default_rng(14)) + 2e-9j * np.eye(16)
    skew = h - h.conj().T
    assert np.linalg.norm(skew) > 1e-8 > op_norm(skew)
    calls = spy(monkeypatch, op_norm)
    assert herm_eig(h).values.shape == (16,)
    assert len(calls) == 1


def test_herm_eig_refusal_reports_the_operator_defect():
    h = random_hermitian(16, np.random.default_rng(15)) + 1e-6j * np.eye(16)
    with pytest.raises(NotHermitian) as exc:
        herm_eig(h)
    assert exc.value.details["defect"] == op_norm(h - h.conj().T)
    assert abs(exc.value.details["defect"] - 2e-6) < 1e-12
    assert exc.value.details["tol"] == 1e-8


def test_herm_eig_is_deterministic():
    rng = np.random.default_rng(6)
    h = random_hermitian(6, rng)
    u, _ = voiculescu_pair(12)                    # conjugate pairs: clusters of 2
    for decompose in (lambda: herm_eig(h), lambda: unitary_eig(u),
                      lambda: unitary_eig(random_unitary(6, np.random.default_rng(7)))):
        a, b = decompose(), decompose()
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


def test_eigensystem_apply_functional_calculus():
    rng = np.random.default_rng(7)
    h = hermitian_with_spectrum([0.0, 1.0, 4.0], rng)
    es = herm_eig(h)
    sq = es.apply(np.sqrt)
    assert op_norm(sq @ sq - h) < 1e-12


def test_unitary_eig_cyclic_shift_roots_of_unity():
    n = 12
    u, _ = voiculescu_pair(n)
    es = unitary_eig(u)
    got = np.sort_complex(es.values)
    want = np.sort_complex(np.exp(2j * np.pi * np.arange(n) / n))
    assert np.max(np.abs(got - want)) < 1e-10
    assert op_norm(es.apply(lambda v: v) - u.m) < 1e-10
    assert np.max(np.abs(np.abs(es.values) - 1.0)) < 1e-10


def test_unitary_eig_resolves_conjugate_phase_pairs():
    # +theta and -theta share the same real part, so the Hermitian-part
    # spectrum is doubly degenerate and only the cluster refinement on the
    # skew part can split it
    theta = 2 * np.pi / 5
    w = diag_unitary([theta, -theta, theta, -theta])
    es = unitary_eig(w)
    got = np.sort(np.angle(es.values))
    want = np.sort([theta, -theta, theta, -theta])
    assert np.max(np.abs(got - want)) < 1e-10
    assert op_norm(es.apply(lambda v: v) - w.m) < 1e-10


def test_unitary_eig_random_unitaries_reconstruct():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        w = random_unitary(n, rng)
        es = unitary_eig(w)
        assert op_norm(es.apply(lambda v: v) - w.m) < 1e-9
        assert op_norm(es.vectors @ adjoint(es.vectors) - np.eye(n)) < 1e-10


def _nearest_gap(xs, ys) -> float:
    # largest distance from a point of xs to its nearest point of ys
    return float(np.abs(xs[:, None] - ys[None, :]).min(axis=1).max())


@pytest.mark.parametrize("n", [64, 256])
def test_unitary_eig_values_match_eigvals_and_the_three_operand_product(n):
    # the BLAS Rayleigh quotient against scipy's nonsymmetric eigensolver and
    # against v* a v taken as one three-operand einsum
    rng = np.random.default_rng(n)
    u, v = voiculescu_pair(n)
    cases = [perturbed_copy(u, 0.02, rng), perturbed_copy(v, 0.02, rng),
             haar_det1_unitary(n, rng), random_unitary(n, rng)]
    for w in cases:
        es = unitary_eig(w)
        oracle = scipy.linalg.eigvals(w.m)
        assert _nearest_gap(es.values, oracle) <= 1e-13
        assert _nearest_gap(oracle, es.values) <= 1e-13
        three = np.einsum("ij,ik,kj->j", es.vectors.conj(), w.m, es.vectors)
        assert np.max(np.abs(es.values - three)) <= 1e-13


def _unit_phase(values):
    return np.exp(1j * values)


def test_eigenvector_phases_change_no_result():
    # no column gauge is fixed: every consumer of an eigenvector (functional
    # calculus, Rayleigh quotients, spectral projectors) reads V diag V* or
    # v* a v, which a unit phase per column leaves unchanged
    rng = np.random.default_rng(12)
    h = random_hermitian(24, rng)
    u, _ = voiculescu_pair(16)
    w = random_unitary(24, rng)
    for es, a in ((herm_eig(h), h), (unitary_eig(u), u.m), (unitary_eig(w), w.m)):
        n = len(es.values)
        turned = EigenSystem(es.values,
                             es.vectors * np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
        assert np.max(np.abs(turned.apply(_unit_phase) - es.apply(_unit_phase))) < 1e-13
        quotients = [np.sum(v.conj() * (a @ v), axis=0) for v in (es.vectors, turned.vectors)]
        assert np.max(np.abs(quotients[1] - quotients[0])) < 1e-13
        above = es.values.real > 0
        projectors = [v[:, above] @ adjoint(v[:, above]) for v in (es.vectors, turned.vectors)]
        assert np.max(np.abs(projectors[1] - projectors[0])) < 1e-13


# -- principal log / exp_skew -------------------------------------------------

def test_exp_skew_matches_scipy_expm():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        k = random_skew(n, rng)
        assert op_norm(exp_skew(k).m - scipy.linalg.expm(k)) < 1e-10


def test_exp_skew_rejects_non_skew():
    with pytest.raises(NotHermitian):
        exp_skew(np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_log_then_exp_recovers_unitary():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        w = haar_det1_unitary(n, rng, avoid_minus_one=1e-3)
        l = principal_log_unitary(w)
        assert op_norm(l + adjoint(l)) < 1e-12          # skew-Hermitian
        assert op_norm(exp_skew(l).m - w.m) < 1e-10


def test_log_phases_stay_in_principal_branch():
    w = diag_unitary([0.3, -2.8, 2.8])
    l = principal_log_unitary(w)
    phases = np.linalg.eigvalsh(-1j * l)
    assert np.max(np.abs(phases)) <= np.pi
    assert np.max(np.abs(np.sort(phases) - np.sort([0.3, -2.8, 2.8]))) < 1e-12


def test_log_branch_cut_margin():
    # distance from exp(i(pi - d)) to -1 is about d
    ok = diag_unitary([np.pi - 1e-4, 0.0])
    principal_log_unitary(ok)  # 1e-4 clears the 1e-6 margin
    with pytest.raises(BranchCut) as err:
        principal_log_unitary(diag_unitary([np.pi - 1e-8, 0.0]))
    assert err.value.exit_code == 2
    assert err.value.details["distance"] <= 1e-6
    with pytest.raises(BranchCut):
        principal_log_unitary(Unitary.of(-np.eye(2)))


# -- spectral_projection -------------------------------------------------------

def test_spectral_projection_rank_and_idempotency():
    rng = np.random.default_rng(11)
    h = hermitian_with_spectrum([0.0, 0.1, 0.2, 0.8, 0.9, 1.0, 1.1], rng)
    p, rank = spectral_projection(h)
    assert rank == 4
    assert op_norm(p @ p - p) < 1e-12
    assert op_norm(p - adjoint(p)) < 1e-14
    assert abs(np.trace(p).real - rank) < 1e-10


def test_spectral_projection_requires_gap():
    rng = np.random.default_rng(12)
    h = hermitian_with_spectrum([0.0, 0.45, 1.0], rng)
    with pytest.raises(NoSpectralGap) as err:
        spectral_projection(h)  # 0.45 is inside (0.4, 0.6)
    assert err.value.exit_code == 2
    p, rank = spectral_projection(h, gap=0.04)  # narrower band clears it
    assert rank == 1


def test_spectral_projection_threshold_parameter():
    rng = np.random.default_rng(13)
    h = hermitian_with_spectrum([0.0, 2.0, 3.0], rng)
    _, rank = spectral_projection(h, threshold=1.0)
    assert rank == 2


# -- matrix JSON codec ----------------------------------------------------------

def test_matrix_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    obj = matrix_to_json(m)
    assert obj["dim"] == 5 and len(obj["re"]) == 25 and len(obj["im"]) == 25
    # plain Python floats, which the CLI's JSON writer joins in one pass
    assert {type(x) for x in obj["re"] + obj["im"]} == {float}
    back = matrix_from_json(obj)
    assert np.array_equal(back, m.astype(np.complex128))
    # through an actual json text cycle as well
    import json
    back2 = matrix_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(back2, m.astype(np.complex128))


def test_matrix_json_rejects_malformed():
    with pytest.raises(FormatError):
        matrix_from_json({"dim": 2, "re": [1, 2, 3]})
    with pytest.raises(FormatError):
        matrix_from_json({"re": [1.0], "im": [0.0]})
    with pytest.raises(FormatError):
        matrix_from_json({"dim": 1, "re": ["x"], "im": [0.0]})
    with pytest.raises(FormatError):
        matrix_from_json([1, 2, 3])
