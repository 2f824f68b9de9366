"""Bott-type almost-projection, its rank class, and the index identity.

Independent oracles: the defect ||e^2 - e|| is cross-checked against
numpy's SVD 2-norm; exactly commuting pairs must give an exact projection
of rank n; the measured defects of the shift/phase family are frozen with
their observed halving trend.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import diag_unitary, spy
from qrep import (DEFAULTS, AlmostProjection, CommutatorDatum, DefectTooLarge,
                  PerturbationSpec, Presentation, PresentationMismatch, QuasiRep,
                  Unitary, WordProduct, bott_almost_projection, defect_gate, evaluate,
                  k_invariant, unitary_eig, kappa, lu_det, op_norm, parse_word, perturb,
                  perturbed_copy, pullback, push_k_class, relator_defect,
                  verify_index_formula, voiculescu_pair, voiculescu_qrep,
                  winding_number_det_segment)
from qrep.bott import _bott_blocks, _bott_matrix, _circle_functions, _trace_class
from qrep.config import Tolerances

FROZEN_DEFECTS = {16: 0.123242, 32: 0.062269, 64: 0.031220, 128: 0.015621}


# -- almost-projection construction ----------------------------------------------

def test_e_is_selfadjoint_with_honest_defect():
    # the n = 24 pair, and a perturbed n = 128 pair at a size the bench runs
    cases = [(24, voiculescu_qrep(24)),
             (128, perturb(voiculescu_qrep(128), PerturbationSpec(radius=0.02, seed=5)))]
    for n, qr in cases:
        ap = bott_almost_projection(qr.images["a"], qr.images["b"])
        assert ap.e.shape == (2 * n, 2 * n)
        assert op_norm(ap.e - ap.e.conj().T) == 0.0
        # defect recomputed with an independent norm
        assert abs(ap.defect - np.linalg.norm(ap.e @ ap.e - ap.e, 2)) < 1e-12, n
        assert ap.base_dim == n


def test_e_exact_projection_for_commuting_pair():
    u = diag_unitary([0.5, 1.5, -2.4, 0.1])
    v = diag_unitary([1.0, -0.3, 2.2, -1.6])
    ap = bott_almost_projection(u, v)
    assert ap.defect < 1e-14
    eig = np.linalg.eigvalsh(ap.e)
    assert np.all((np.abs(eig) < 1e-12) | (np.abs(eig - 1) < 1e-12))
    assert abs(np.trace(ap.e).real - 4) < 1e-10


def test_e_identity_pair_is_trivial_projection():
    one = Unitary.of(np.eye(3))
    ap = bott_almost_projection(one, one)
    want = np.zeros((6, 6))
    want[:3, :3] = np.eye(3)
    assert op_norm(ap.e - want) < 1e-14


@pytest.mark.parametrize("n", [8, 48, 128])
def test_e_is_the_block_matrix_bit_for_bit(n):
    # e is written block by block into one array; the reference assembles
    # [[f, x], [x*, 1 - f]], x = g + h u*, with np.block
    qr = perturb(voiculescu_qrep(n), PerturbationSpec(radius=0.02, seed=2))
    u, v = qr.images["a"], qr.images["b"]
    ap = bott_almost_projection(u, v)
    es = unitary_eig(v)
    f, g, h = (es.apply(lambda z, i=i: _circle_functions(np.angle(z))[i]) for i in range(3))
    f = (f + f.conj().T) / 2
    x = g + h @ u.m.conj().T
    want = np.block([[f, x], [x.conj().T, np.eye(n) - f]])
    assert ap.e.dtype == want.dtype and ap.e.tobytes() == want.tobytes()
    assert ap.spectrum.tobytes() == np.linalg.eigvalsh(want).tobytes()


def _traced_peak(fn, *args) -> int:
    # bytes numpy and Python allocate during fn(*args) above what was live before
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _shift_phase_pair(n, radius, seed=1):
    # the shift/phase pair, perturbed as the benchmark's cases are
    qr = voiculescu_qrep(n)
    if radius:
        qr = perturb(qr, PerturbationSpec(radius=radius, seed=seed))
    return qr.images["a"], qr.images["b"]


def test_bott_step_holds_e_and_little_else():
    # no n x n temporary outlives e's assembly, and verify_index_formula takes
    # k before it forms the loop: the peak stays within 2.5 copies of e
    n = 128
    qr = perturb(voiculescu_qrep(n), PerturbationSpec(radius=0.02, seed=1))
    size_e = (2 * n) ** 2 * 16
    assert _traced_peak(bott_almost_projection, qr.images["a"], qr.images["b"]) <= 2.5 * size_e
    assert _traced_peak(verify_index_formula, qr) <= 2.5 * size_e


def test_trace_route_builds_no_2n_array():
    # k from the trace formula forms no 2n x 2n array: v's eigensystem, the
    # blocks in its eigenbasis and ||[u, v] - 1|| each stay below one e
    n = 128
    u, v = _shift_phase_pair(n, 0.02)
    assert k_invariant(u, v).defect_data["route"] == "trace"
    assert _traced_peak(k_invariant, u, v) < (2 * n) ** 2 * 16


def test_spectrum_route_holds_e_and_little_else():
    # on the spectrum route (F = 0.22 at n = 128, radius 0.1), k frees v's
    # eigensystem and the trace temporaries before e is allocated: within
    # 2.5 copies of e, and no more than bott_almost_projection alone
    n = 128
    u, v = _shift_phase_pair(n, 0.1)
    assert k_invariant(u, v).defect_data["route"] == "spectrum"
    peak = _traced_peak(k_invariant, u, v)
    assert peak <= 2.5 * (2 * n) ** 2 * 16
    assert peak <= _traced_peak(bott_almost_projection, u, v) * 1.01


def test_defect_family_frozen_and_monotone():
    defects = {}
    for n, frozen in FROZEN_DEFECTS.items():
        u, v = voiculescu_pair(n)
        d = bott_almost_projection(u, v).defect
        assert abs(d - frozen) < 5e-6, n
        defects[n] = d
    seq = [defects[n] for n in sorted(defects)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    # roughly halves per doubling (first-order in the commutator defect)
    for a, b in zip(seq, seq[1:]):
        assert 1.8 < a / b < 2.2


# -- orientation -------------------------------------------------------------------

def test_orientation_consistency_with_winding():
    # the pinned +1 orientation: the class of the n=64 pair equals the
    # winding of the reversed-commutator determinant loop
    from qrep import winding_number_det_segment
    u, v = voiculescu_pair(64)
    loop = Unitary.of(v.m @ u.m @ v.m.conj().T @ u.m.conj().T)
    wn = winding_number_det_segment(loop)
    assert k_invariant(u, v).rounded == wn.rounded == 1


# -- rank class ---------------------------------------------------------------------

def test_k_invariant_voiculescu_and_report():
    u, v = voiculescu_pair(64)
    rep = k_invariant(u, v)
    assert rep.name == "k_invariant"
    assert rep.rounded == 1 and rep.value == 1.0 and rep.is_integer
    assert abs(rep.defect_data["e_defect"] - FROZEN_DEFECTS[64]) < 5e-6
    assert rep.defect_data["spectral_gap"] > 0.9
    assert rep.defect_data["orientation"] == 1.0
    assert abs(rep.defect_data["commutator_defect"] - 2 * np.sin(np.pi / 64)) < 1e-12


def test_k_invariant_commuting_pair_is_zero():
    u = diag_unitary([0.5, 1.5, -2.4, 0.1])
    v = diag_unitary([1.0, -0.3, 2.2, -1.6])
    assert k_invariant(u, v).rounded == 0


def test_k_requires_small_defect():
    u, v = voiculescu_pair(4)
    with pytest.raises(DefectTooLarge) as err:
        k_invariant(u, v)
    assert err.value.exit_code == 1
    assert err.value.details["defect"] > 0.125


def test_k_boundary_case_n16_just_inside():
    u, v = voiculescu_pair(16)
    rep = k_invariant(u, v)
    assert rep.rounded == 1
    assert rep.defect_data["e_defect"] < 0.125


def _diagonal_almost_projection(spectrum):
    e = np.diag(spectrum).astype(np.complex128)
    return AlmostProjection(e=e, spectrum=np.linalg.eigvalsh(e),
                            defect=float(np.linalg.norm(e @ e - e, 2)),
                            base_dim=len(spectrum) // 2)


def test_push_k_class_parameter_threading():
    # the gate's one parameter is n, read off ap.base_dim: an eigenvalue
    # parked at 0.45 (defect 0.2475 < 1/4) leaves 1/2 clear, so the spectrum
    # above 1/2 is counted; one at 1/2 (defect 1/4) is refused, with the gate
    # at n = 2 as its bound
    assert push_k_class(_diagonal_almost_projection([1.0, 1.0, 0.45, 0.0])) == 0
    assert push_k_class(_diagonal_almost_projection([1.0, 1.0, 0.55, 0.0])) == 1
    with pytest.raises(DefectTooLarge) as err:
        push_k_class(_diagonal_almost_projection([1.0, 1.0, 0.5, 0.0]))
    assert err.value.details == {"defect": 0.25, "bound": defect_gate(2)}


def test_defect_gate_is_below_one_quarter_by_a_rounding_budget():
    # 1/4 - b(n) with b(n) = 5 c n eps: strictly below 1/4, falling with n,
    # and within 1e-10 of 1/4 at n = 512
    gates = [defect_gate(n) for n in (1, 2, 7, 8, 64, 512, 4096)]
    assert all(g < 0.25 for g in gates)
    assert all(a >= b for a, b in zip(gates, gates[1:]))
    assert 0.25 - defect_gate(512) < 1e-10


def test_unperturbed_pairs_from_n8_have_k_wn_kappa_one():
    # ||e^2 - e|| is 0.237 at n = 8 and 0.131 at n = 15: below 1/4, so the
    # class is defined and the identity holds; at n = 7 it is 0.267, refused
    # with the gate at n = 7 as its bound
    for n in range(8, 16):
        rep = verify_index_formula(voiculescu_qrep(n))
        assert rep.lhs_k == rep.rhs_wn.rounded == rep.rhs_kappa.rounded == 1, n
        assert rep.equal, n
    with pytest.raises(DefectTooLarge) as err:
        verify_index_formula(voiculescu_qrep(7))
    assert abs(err.value.details["defect"] - 0.2666) < 1e-4
    assert err.value.details["bound"] == defect_gate(7)


@pytest.mark.parametrize("n", [16, 48, 64, 128])
def test_defect_gate_keeps_the_spectrum_off_one_half(n):
    # |lambda - 1/2|^2 = 1/4 + lambda^2 - lambda >= 1/4 - e_defect, so the
    # eigenvalues either side of 1/2 are at least twice that root apart:
    # what the band check used to test, on seeded perturbed pairs
    u, v = voiculescu_pair(n)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        u2, v2 = perturbed_copy(u, 0.01, rng), perturbed_copy(v, 0.01, rng)
        rep = k_invariant(u2, v2)
        d = rep.defect_data
        assert d["spectral_gap"] >= 2 * np.sqrt(0.25 - d["e_defect"]) - 1e-12, (n, seed)


def test_k_invariant_echoes_cluster_width_alone():
    # k is an integer by construction, so no residual applies to it; e is
    # built at cluster_width, and its gate and route are constants
    u, v = voiculescu_pair(16)
    rep = k_invariant(u, v)
    assert rep.is_integer
    assert rep.to_json()["tolerances"] == {"cluster_width": DEFAULTS.cluster_width}


def test_each_report_echoes_exactly_the_tolerances_its_call_reads():
    read = set()

    class Recording(Tolerances):
        def __getattribute__(self, name):
            if name in Tolerances.__dataclass_fields__:
                read.add(name)
            return super().__getattribute__(name)

    u, v = voiculescu_pair(16)
    w = Unitary(u.m @ v.m @ u.m.conj().T @ v.m.conj().T)
    for call in (lambda tol: kappa(w, tolerances=tol),
                 lambda tol: winding_number_det_segment(w, tolerances=tol),
                 lambda tol: k_invariant(u, v, tolerances=tol)):
        tol = Recording()
        read.clear()
        echoed = call(tol).to_json()["tolerances"]
        assert set(echoed) == read


def test_k_stable_under_small_perturbations():
    u, v = voiculescu_pair(48)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        u2 = perturbed_copy(u, 0.01, rng)
        v2 = perturbed_copy(v, 0.01, rng)
        assert k_invariant(u2, v2).rounded == 1, seed


def test_k_invariant_decomposes_e_once(monkeypatch):
    # rank, defect and gap all come from one eigensolve of the 32 x 32 e
    eigh = spy(monkeypatch, np.linalg.eigh, [np.linalg])
    eigvalsh = spy(monkeypatch, np.linalg.eigvalsh, [np.linalg])
    u, v = voiculescu_pair(16)
    assert k_invariant(u, v).rounded == 1
    assert [args[0].shape for args in eigh + eigvalsh].count((32, 32)) == 1


def test_k_invariant_takes_a_formed_commutator(monkeypatch):
    # a caller's [u, v] (same fold, same bits) gives the same report, and its
    # cached ||[u, v] - 1|| is read instead of measured again
    rng = np.random.default_rng(3)
    u, v = voiculescu_pair(32)
    u2, v2 = perturbed_copy(u, 0.05, rng), perturbed_copy(v, 0.05, rng)
    w = Unitary(u2.m @ v2.m @ u2.m.conj().T @ v2.m.conj().T)
    defect = w.distance_from_one
    norms = spy(monkeypatch, op_norm)
    rep = k_invariant(u2, v2, commutator=w)
    assert not any(args[0].shape == (32, 32) for args in norms)
    monkeypatch.undo()
    assert rep == k_invariant(u2, v2)
    assert rep.defect_data["commutator_defect"] == defect


# -- the two routes to k -----------------------------------------------------------------

@pytest.mark.parametrize("n, radius, route", [
    (256, 0.02, "trace"),
    (128, 0.0, "trace"),
    (64, 0.0, "spectrum"),
    (64, 0.02, "spectrum"),
    (48, 0.19, "spectrum"),
    (16, 0.0, "spectrum"),
    (32, 0.0, "spectrum"),
    (128, 0.02, "trace"),
])
def test_k_route_follows_the_frobenius_certificate(n, radius, route):
    # F = ||e^2 - e||_F is about 1.15 / sqrt(n) on the unperturbed pair, 0.09
    # at n = 256 with radius 0.02 and 0.15 at n = 64: the trace route is
    # taken exactly where F < TRACE_ROUTE_F = 1/8.  These inputs, the Tier-1
    # fixtures' and the benchmark's, have ||e^2 - e|| < 1/8, so a gate of 1/8
    # took them too, with the same route and k
    for seed in (1, 2):
        rep = k_invariant(*_shift_phase_pair(n, radius, seed))
        assert rep.defect_data["route"] == route
        assert rep.defect_data["e_defect"] < 0.125
        assert rep.rounded == 1


@pytest.mark.parametrize("n", [48, 64, 128, 256])
@pytest.mark.parametrize("radius", [0.0, 0.02])
def test_both_routes_give_the_same_k(n, radius):
    # the trace formula rounded, under its certificate F < 1/4, against the
    # count of e's spectrum above 1/2; k_invariant reports the same integer
    # on whichever route it takes
    u, v = _shift_phase_pair(n, radius)
    value, frobenius = _trace_class(u, unitary_eig(v))
    assert frobenius < 0.25
    ap = bott_almost_projection(u, v)
    counted = int(np.count_nonzero(ap.spectrum > 0.5)) - n
    assert round(value) == counted == k_invariant(u, v).rounded == 1
    assert abs(value - counted) <= 8 * frobenius ** 2


def test_trace_route_e_defect_is_the_frobenius_norm_of_e2_minus_e():
    # on the trace route e_defect is ||e^2 - e||_F of the assembled e, and
    # spectral_gap its lower bound 2 sqrt(1/4 - F) on e's gap around 1/2
    n = 256
    u, v = _shift_phase_pair(n, 0.02)
    rep = k_invariant(u, v)
    assert rep.defect_data["route"] == "trace"
    e = _bott_matrix(*_bott_blocks(u, unitary_eig(v)))
    frobenius = np.linalg.norm(e @ e - e)
    assert abs(rep.defect_data["e_defect"] - frobenius) < 1e-12
    assert rep.defect_data["spectral_gap"] == 2 * np.sqrt(0.25 - rep.defect_data["e_defect"])
    spectrum = np.linalg.eigvalsh(e)
    true_gap = spectrum[spectrum > 0.5].min() - spectrum[spectrum < 0.5].max()
    assert rep.defect_data["spectral_gap"] <= true_gap
    # the certificate: |-tr X^3 / 4 - k| <= 8 F^2 < 1/2
    x = 2 * e - np.eye(2 * n)
    trace = -np.trace(x @ x @ x).real / 4
    assert abs(trace - rep.rounded) <= 8 * frobenius ** 2 < 0.5


def test_spectrum_route_is_bott_almost_projection():
    # F = 0.29 at n = 256, radius 0.1: the trace route is not taken, and the
    # spectrum route reports what bott_almost_projection and push_k_class
    # give, bit for bit
    u, v = _shift_phase_pair(256, 0.1)
    rep = k_invariant(u, v)
    ap = bott_almost_projection(u, v)
    d = rep.defect_data
    assert d["route"] == "spectrum"
    assert rep.rounded == push_k_class(ap) == 1
    assert d["e_defect"] == ap.defect
    above, below = ap.spectrum[ap.spectrum >= 0.5], ap.spectrum[ap.spectrum < 0.5]
    assert d["spectral_gap"] == float(above.min() - below.max())


def test_trace_route_takes_no_eigensolve_of_order_2n(monkeypatch):
    # the trace route's eigensolves are v's (order n) and ||[u, v] - 1||'s
    # Gram matrix (order n); none is of e's order 2n
    n = 128
    u, v = _shift_phase_pair(n, 0.02)
    eigvalsh = spy(monkeypatch, np.linalg.eigvalsh, [np.linalg])
    eigh = spy(monkeypatch, np.linalg.eigh, [np.linalg])
    assert k_invariant(u, v).defect_data["route"] == "trace"
    assert eigvalsh and all(args[0].shape[0] == n for args in eigvalsh)
    assert eigh and all(args[0].shape[0] <= n for args in eigh)


def test_k_dimension_mismatch():
    from qrep import DimensionMismatch
    u, _ = voiculescu_pair(4)
    _, v = voiculescu_pair(6)
    with pytest.raises(DimensionMismatch):
        k_invariant(u, v)


# -- index identity harness -----------------------------------------------------------

def test_verify_z2_case():
    rep = verify_index_formula(voiculescu_qrep(64))
    assert rep.case == "z2-bott"
    assert rep.lhs_k == 1
    assert rep.rhs_wn.rounded == 1 and rep.rhs_kappa.rounded == 1
    assert rep.equal and rep.trace_close
    assert rep.datum_class == 1
    assert rep.orientation == 1
    assert rep.normalized_lhs == 1.0 / 64.0
    assert abs(rep.rhs_kappa_tau.value - 1.0 / 64.0) < 1e-12
    assert abs(rep.defects["relator_defect"] - 2 * np.sin(np.pi / 64)) < 1e-12
    # the datum product evaluated raw keeps the scalar obstruction
    assert abs(rep.defects["datum_product_defect"] - 2 * np.sin(np.pi / 64)) < 1e-12


def test_verify_decomposes_each_unitary_once(monkeypatch):
    # one eigensystem of v for e(u, v), one of the loop for kappa and kappa_tau
    calls = spy(monkeypatch, unitary_eig)
    qr = voiculescu_qrep(16)
    rep = verify_index_formula(qr)
    assert rep.equal
    assert len(calls) == 2
    assert calls[0][0] is qr.images["b"]
    assert rep.defects["loop_defect"] == rep.rhs_kappa.defect_data["norm_w_minus_1"]


def test_verify_measures_the_commutator_once(monkeypatch):
    # on the default datum, [a, b] - 1 is one matrix for relator_defect,
    # datum_product_defect and k's commutator_defect: one op_norm for all
    # three, one for the loop; each equals its own evaluation bit for bit
    qr = perturb(voiculescu_qrep(32), PerturbationSpec(radius=0.02, seed=3))
    calls = spy(monkeypatch, op_norm)
    rep = verify_index_formula(qr)
    assert len(calls) == 2
    monkeypatch.undo()
    comm = op_norm(evaluate(parse_word("[a, b]"), qr.images).m - np.eye(32))
    assert rep.defects["relator_defect"] == relator_defect(qr) == comm
    assert rep.defects["datum_product_defect"] == comm
    assert rep.defects["commutator_defect"] == comm
    loop = evaluate(parse_word("[b, a]"), qr.images).m
    assert rep.defects["loop_defect"] == op_norm(loop - np.eye(32))


def test_verify_takes_the_loop_determinant_once(monkeypatch):
    # det(w) of the loop serves the winding's loop gate and kappa's det(w)
    # check; every other determinant is a sample of the grid
    qr = perturb(voiculescu_qrep(64), PerturbationSpec(radius=0.02, seed=3))
    calls = spy(monkeypatch, lu_det)
    rep = verify_index_formula(qr)
    wn = rep.rhs_wn.defect_data
    assert wn["route"] == "grid"
    assert len(calls) == wn["det_evaluations"] + 1 < 10
    assert rep.rhs_wn.rounded == rep.rhs_kappa.rounded == rep.lhs_k == 1


def test_verify_evaluates_a_datum_other_than_the_relator(monkeypatch):
    qr = perturb(voiculescu_qrep(16), PerturbationSpec(radius=0.02, seed=4))
    datum = CommutatorDatum(((parse_word("a b"), parse_word("b")),))
    calls = spy(monkeypatch, op_norm)
    rep = verify_index_formula(qr, datum=datum)
    assert len(calls) == 3
    monkeypatch.undo()
    word = datum.commutator_product()
    assert rep.defects["datum_product_defect"] == op_norm(
        evaluate(word, qr.images).m - np.eye(16))
    assert rep.defects["relator_defect"] == relator_defect(qr)


def test_verify_empty_datum_is_the_empty_product():
    # a datum of no pairs: the loop is the empty product, the identity, whose
    # invariants are 0, unlike k of the base pair
    qr = voiculescu_qrep(16)
    rep = verify_index_formula(qr, datum=CommutatorDatum(()))
    assert rep.rhs_wn.rounded == rep.rhs_kappa.rounded == 0
    assert rep.defects["datum_product_defect"] == rep.defects["loop_defect"] == 0.0
    assert rep.datum_class == 0
    # wn = kappa = 0 = 0 * k: the identity holds on the class-0 datum
    assert rep.lhs_k != 0 and rep.equal is True


def test_verify_surface_pullback_case():
    images = {"s1": "a", "t1": "b", "s2": "", "t2": ""}
    rep = verify_index_formula(pullback(voiculescu_qrep(64), images))
    assert rep.case == "surface-pullback-g2"
    assert rep.equal and rep.trace_close
    assert rep.datum_class == 1
    assert rep.lhs_k == 1


def test_verify_genus_mismatch_and_non_z2():
    # a perturbed pullback no longer factors through its base, and a custom
    # presentation has no base pair: both are refused
    qr = voiculescu_qrep(16)
    moved = perturb(pullback(qr, {"s1": "a", "t1": "b"}),
                    PerturbationSpec(radius=0.01, seed=1))
    assert isinstance(moved.strategy, WordProduct)
    custom = QuasiRep(Presentation.custom(("a", "b"), (parse_word("[a, b]"),)),
                      qr.images, WordProduct())
    for bad in (moved, custom):
        with pytest.raises(PresentationMismatch, match="surface pullback"):
            verify_index_formula(bad)


@pytest.mark.parametrize("pairs, d", [
    ([("a^2", "b")], 2),
    ([("b", "a")], -1),
    ([("a", "b"), ("a", "b")], 2),
    ([("a^3", "b^-1")], -3),
])
def test_verify_datum_of_class_d_gives_d_times_k(pairs, d):
    # naturality: a datum of class d on the base pair has wn = kappa = d * k
    qr = voiculescu_qrep(64)
    datum = CommutatorDatum(tuple((parse_word(x), parse_word(y)) for x, y in pairs))
    rep = verify_index_formula(qr, datum=datum)
    assert rep.datum_class == d and rep.lhs_k == 1
    assert rep.rhs_wn.rounded == rep.rhs_kappa.rounded == d
    assert rep.normalized_lhs == d / 64
    assert rep.equal is True and rep.trace_close is True


@pytest.mark.parametrize("images, d", [
    ({"s1": "a^2", "t1": "b"}, 2),
    ({"s1": "a", "t1": "b", "s2": "b", "t2": "a^-1"}, 2),
])
def test_verify_pullback_of_degree_d(images, d):
    # a surface pullback of a perturbed pair carries the class d of its
    # substitution; the base pair keeps k = 1
    base = perturb(voiculescu_qrep(64), PerturbationSpec(radius=0.01, seed=2))
    rep = verify_index_formula(pullback(base, images))
    assert rep.case == f"surface-pullback-g{len(images) // 2}"
    assert rep.datum_class == d and rep.lhs_k == 1
    assert rep.rhs_wn.rounded == rep.rhs_kappa.rounded == d
    assert rep.equal is True and rep.trace_close is True


def test_verify_pullback_reads_the_base_pair():
    # k is taken on the base images, not on the surface generator images
    base = perturb(voiculescu_qrep(32), PerturbationSpec(radius=0.01, seed=3))
    pb = pullback(base, {"s1": "b", "t1": "a^2"})
    rep = verify_index_formula(pb)
    assert rep.lhs_k_report.to_json() == k_invariant(base.images["a"],
                                                     base.images["b"]).to_json()
    assert rep.defects["relator_defect"] == relator_defect(pb)
    assert rep.datum_class == -2 and rep.equal is True


def test_verify_report_json_schema():
    obj = verify_index_formula(voiculescu_qrep(32)).to_json()
    assert {"case", "lhs_k", "rhs_wn", "rhs_kappa", "normalized_lhs",
            "rhs_kappa_tau", "equal", "trace_close", "orientation",
            "datum_class", "defects", "reports"} <= set(obj)
    assert obj["orientation"] in ("+1", "-1")
    assert obj["rhs_wn"] == obj["rhs_kappa"] == obj["lhs_k"] == 1
    assert isinstance(obj["defects"], dict)
    assert set(obj["reports"]) == {"lhs_k", "rhs_wn", "rhs_kappa", "rhs_kappa_tau"}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_at_the_benchmark_size(seed):
    # the size and radius the benchmark's exel-loring-large case runs: the
    # three routes agree on the perturbed n = 256 pair, and the winding takes
    # the certified grid
    qr = perturb(voiculescu_qrep(256), PerturbationSpec(0.02, seed))
    report = verify_index_formula(qr)
    assert report.lhs_k == report.rhs_wn.rounded == report.rhs_kappa.rounded == 1
    assert report.equal and report.trace_close
    assert report.rhs_wn.defect_data["route"] == "grid"
