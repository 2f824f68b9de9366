"""Standard constructions: the shift/phase pair, random unitaries,
perturbations, pullbacks, and direct sums.

Oracles: the shift/phase pair has closed-form commutator scalar
exp(-2 pi i/n) and commutator distance 2 sin(pi/n); perturbations are
pinned to an exact operator-norm distance by construction.
"""

import numpy as np
import pytest

from conftest import spy
from qrep import (DimensionMismatch, PerturbationSpec, Presentation, PresentationMismatch,
                  PullbackThrough, QuasiRep, RadiusTooLarge, UnboundGenerator,
                  Unitary, WordProduct, Z2NormalForm, direct_sum, evaluate,
                  kappa, kazhdan_stability, mult_defect, op_norm, parse_word,
                  perturb, perturbed_copy, pullback, qrep_from_json, qrep_to_json,
                  random_unitary, relator_defect, verify_index_formula,
                  voiculescu_pair, voiculescu_qrep)


# -- the shift/phase pair -------------------------------------------------------

def test_voiculescu_pair_action_and_commutator():
    n = 6
    u, v = voiculescu_pair(n)
    # u is the cyclic shift e_j -> e_{j+1 (mod n)}
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        shifted = u.m @ e
        assert shifted[(j + 1) % n] == 1.0
        assert np.count_nonzero(shifted) == 1
    # v is diagonal with n-th root-of-unity phases
    assert np.count_nonzero(v.m - np.diag(np.diag(v.m))) == 0
    got = np.sort(np.angle(np.diag(v.m)))
    want = np.sort(np.angle(np.exp(2j * np.pi * np.arange(1, n + 1) / n)))
    assert np.max(np.abs(got - want)) < 1e-12
    # the commutator is the scalar exp(-2 pi i / n)
    c = u.m @ v.m @ u.m.conj().T @ v.m.conj().T
    assert op_norm(c - np.exp(-2j * np.pi / n) * np.eye(n)) < 1e-13
    assert abs(op_norm(c - np.eye(n)) - 2 * np.sin(np.pi / n)) < 1e-13


def test_voiculescu_pair_rejects_tiny_dim():
    with pytest.raises(DimensionMismatch):
        voiculescu_pair(1)
    with pytest.raises(DimensionMismatch):
        voiculescu_pair(0)


def test_voiculescu_qrep_shape():
    qr = voiculescu_qrep(8)
    assert qr.presentation.kind == "Z2"
    assert isinstance(qr.strategy, Z2NormalForm)
    assert qr.dim == 8
    assert abs(relator_defect(qr) - 2 * np.sin(np.pi / 8)) < 1e-12


# -- random unitaries -------------------------------------------------------------

def test_random_unitary_is_unitary_and_seeded():
    rng = np.random.default_rng(300)
    w = random_unitary(7, rng)
    assert op_norm(w.m @ w.m.conj().T - np.eye(7)) < 1e-12
    again = random_unitary(7, np.random.default_rng(300))
    assert np.array_equal(w.m, again.m)
    other = random_unitary(7, np.random.default_rng(301))
    assert not np.array_equal(w.m, other.m)


# -- perturbations ----------------------------------------------------------------

def test_perturbed_copy_exact_distance():
    rng = np.random.default_rng(301)
    for n in (8, 256):
        u = random_unitary(n, rng)
        for radius in (0.01, 0.19, 1.0, 1.9):
            u2 = perturbed_copy(u, radius, np.random.default_rng(5))
            assert abs(op_norm(u2.m - u.m) - radius) < 1e-10, (n, radius)
            assert op_norm(u2.m @ u2.m.conj().T - np.eye(n)) < 1e-12


@pytest.mark.parametrize("n", [8, 48])
def test_perturbed_copy_decomposes_once(monkeypatch, n):
    # ||K|| and exp(K) come from one eigensystem of -iK
    u = random_unitary(n, np.random.default_rng(303))
    eigh = spy(monkeypatch, np.linalg.eigh, [np.linalg])
    eigvalsh = spy(monkeypatch, np.linalg.eigvalsh, [np.linalg])
    perturbed_copy(u, 0.1, np.random.default_rng(6))
    assert len(eigh) + len(eigvalsh) == 1


def test_perturbed_copy_radius_domain():
    rng = np.random.default_rng(302)
    u = random_unitary(4, rng)
    assert perturbed_copy(u, 0.0, rng) is u
    for bad in (-0.1, 2.0, 2.5):
        with pytest.raises(RadiusTooLarge):
            perturbed_copy(u, bad, rng)


def test_perturb_moves_only_targets_deterministically():
    qr = voiculescu_qrep(8)
    spec = PerturbationSpec(radius=0.1, seed=42, targets=("a",))
    out = perturb(qr, spec)
    assert abs(op_norm(out.images["a"].m - qr.images["a"].m) - 0.1) < 1e-10
    assert np.array_equal(out.images["b"].m, qr.images["b"].m)
    again = perturb(qr, spec)
    assert np.array_equal(out.images["a"].m, again.images["a"].m)
    full = perturb(qr, PerturbationSpec(radius=0.1, seed=42))
    assert abs(op_norm(full.images["b"].m - qr.images["b"].m) - 0.1) < 1e-10


def test_perturb_validates():
    qr = voiculescu_qrep(4)
    assert perturb(qr, PerturbationSpec(radius=0.0, seed=1)) is qr
    with pytest.raises(UnboundGenerator):
        perturb(qr, PerturbationSpec(radius=0.1, seed=1, targets=("z",)))
    with pytest.raises(RadiusTooLarge):
        perturb(qr, PerturbationSpec(radius=2.0, seed=1))


def test_perturb_checks_targets_at_radius_zero():
    # radius 0 returns the base unchanged only once the targets are generators
    qr = voiculescu_qrep(4)
    assert perturb(qr, PerturbationSpec(radius=0.0, seed=1, targets=("a",))) is qr
    with pytest.raises(UnboundGenerator) as err:
        perturb(qr, PerturbationSpec(radius=0.0, seed=1, targets=("zz",)))
    assert err.value.details["symbols"] == ["zz"]


def test_perturb_degrades_pullback_strategy():
    base = voiculescu_qrep(8)
    pb = pullback(base, {"s1": "a", "t1": "b"})
    assert isinstance(pb.strategy, PullbackThrough)
    moved = perturb(pb, PerturbationSpec(radius=0.05, seed=3))
    assert isinstance(moved.strategy, WordProduct)


# -- pullbacks ---------------------------------------------------------------------

def test_pullback_genus_inference_and_images():
    base = voiculescu_qrep(16)
    pb = pullback(base, {"s1": "a", "t1": "b", "s2": "", "t2": ""})
    assert pb.presentation.kind == "surface"
    assert pb.presentation.genus == 2
    assert np.array_equal(pb.images["s1"].m, base.images["a"].m)
    assert op_norm(pb.images["s2"].m - np.eye(16)) == 0.0
    # generator images pass through the base normal form
    pb2 = pullback(base, {"s1": "a b a^-1", "t1": "b"})
    assert np.array_equal(pb2.images["s1"].m, base.apply("a b a^-1").m)
    assert op_norm(pb2.images["s1"].m - base.images["b"].m) < 1e-12


def test_pullback_relator_defect_matches_base():
    base = voiculescu_qrep(64)
    pb = pullback(base, {"s1": "a", "t1": "b", "s2": "", "t2": ""})
    assert abs(relator_defect(pb) - 2 * np.sin(np.pi / 64)) < 1e-12


def test_pullback_swap_flips_invariant():
    base = voiculescu_qrep(32)
    pb = pullback(base, {"s1": "b", "t1": "a"})
    w = evaluate(pb.presentation.relators[0], pb.images)
    assert kappa(w).rounded == 1


def test_pullback_validation():
    base = voiculescu_qrep(8)
    with pytest.raises(PresentationMismatch):
        pullback(base, {"s1": "a"})            # odd count
    with pytest.raises(PresentationMismatch):
        pullback(base, {"x": "a", "y": "b"})   # wrong names
    with pytest.raises(UnboundGenerator):
        pullback(base, {"s1": "a z", "t1": "b"})
    word_product = QuasiRep(base.presentation, dict(base.images), WordProduct())
    with pytest.raises(PresentationMismatch):
        pullback(word_product, {"s1": "a", "t1": "b"})


# -- direct sums ---------------------------------------------------------------------

def test_direct_sum_blocks_and_kappa_additivity():
    qr1, qr2 = voiculescu_qrep(4), voiculescu_qrep(6)
    s = direct_sum(qr1, qr2)
    assert s.dim == 10
    w = evaluate(parse_word("[a,b]"), s.images)
    w1 = evaluate(parse_word("[a,b]"), qr1.images)
    w2 = evaluate(parse_word("[a,b]"), qr2.images)
    assert abs(kappa(w).value - kappa(w1).value - kappa(w2).value) < 1e-12
    assert kappa(w).rounded == -2


def test_direct_sum_structural_requirements():
    qr1 = voiculescu_qrep(4)
    surface = pullback(qr1, {"s1": "a", "t1": "b"})
    with pytest.raises(PresentationMismatch):
        direct_sum(qr1, surface)
    word_product = QuasiRep(qr1.presentation, dict(qr1.images), WordProduct())
    with pytest.raises(PresentationMismatch):
        direct_sum(qr1, word_product)


def test_direct_sum_of_pullbacks_sums_base():
    p1 = pullback(voiculescu_qrep(4), {"s1": "a", "t1": "b"})
    p2 = pullback(voiculescu_qrep(6), {"s1": "a", "t1": "b"})
    s = direct_sum(p1, p2)
    assert isinstance(s.strategy, PullbackThrough)
    assert s.strategy.base.images["a"].dim == 10
    got = s.apply("s1 t1")
    want1, want2 = p1.apply("s1 t1"), p2.apply("s1 t1")
    assert op_norm(got.m[:4, :4] - want1.m) < 1e-12
    assert op_norm(got.m[4:, 4:] - want2.m) < 1e-12


def test_direct_sum_of_a_pullback_and_its_json_round_trip():
    # the reader builds a two-generator base as the Z2 presentation pullback
    # requires, so a pullback read back sums with the one it was written from
    pb = pullback(voiculescu_qrep(4), {"s1": "a b", "t1": "b"})
    back = qrep_from_json(qrep_to_json(pb))
    s = direct_sum(pb, back)
    assert s.strategy.base.presentation == Presentation.z2()
    got, want = s.apply("s1 t1^2").m, pb.apply("s1 t1^2").m
    assert op_norm(got[:4, :4] - want) < 1e-12
    assert op_norm(got[4:, 4:] - want) < 1e-12


# -- unitarity is checked where a matrix enters, not on what qrep builds ----------

def _stability_inputs():
    u, v = voiculescu_pair(32)
    gen = np.random.default_rng(0)
    return 1, [(u, v)], [(perturbed_copy(u, 0.1, gen), perturbed_copy(v, 0.1, gen))]


@pytest.mark.parametrize("build, run", [
    (lambda: voiculescu_qrep(16),
     lambda qr: perturb(qr, PerturbationSpec(radius=0.05, seed=1))),
    (lambda: voiculescu_qrep(16), verify_index_formula),
    (_stability_inputs, lambda args: kazhdan_stability(*args)),
    (lambda: voiculescu_qrep(8),
     lambda qr: mult_defect(qr, ["a", "b", "a b", "[a, b]"])),
    (lambda: voiculescu_qrep(8), lambda qr: pullback(qr, {"s1": "a b", "t1": "b"})),
    (lambda: pullback(voiculescu_qrep(4), {"s1": "a", "t1": "b"}),
     lambda qr: direct_sum(qr, qr)),
], ids=["perturb", "verify_index_formula", "kazhdan_stability", "mult_defect",
        "pullback", "direct_sum"])
def test_products_of_unitaries_are_not_rechecked(monkeypatch, build, run):
    # products, adjoints, powers and block sums of checked unitaries are
    # unitaries by construction; only a matrix entering qrep pays Unitary.of
    inputs = build()
    calls = spy(monkeypatch, Unitary.of.__func__, [Unitary])
    run(inputs)
    assert calls == []
