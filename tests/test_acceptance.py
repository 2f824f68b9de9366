"""Acceptance harness: eight criteria, one printed PASS/FAIL line each.

Run under pytest (use -s to see every line, since pytest captures stdout
for passing tests) or directly:

    python3 -m pytest tests/test_acceptance.py -v -s
    python3 tests/test_acceptance.py

Criterion 1 sweeps n = 2..64.  At n = 2 the commutator of the shift/phase
pair is exactly the scalar -1: its spectrum sits on the branch point of the
principal logarithm, and the invariant's own contract requires refusing
that input.  So the criterion demands a BranchCut there, with the measured
distance to -1 inside ``branch_margin``; a returned value or any other
exception fails it.  Every n from 3 to 64 must give kappa = -1 within 1e-6.
All eight criteria hold: the script prints "8/8 acceptance criteria hold"
and exits 0.
"""

import sys
import time
import zlib

import numpy as np

from conftest import haar_det1_unitary, hermitian_with_spectrum
from qrep import (BranchCut, CommutatorDatum, FreeWord, Presentation,
                  QrepError, QuasiRep, Unitary, Z2NormalForm, adjoint,
                  evaluate, exp_skew, k_invariant, kappa, kazhdan_stability,
                  mult_defect, op_norm, parse_word, perturbed_copy,
                  principal_log_unitary, random_unitary, render,
                  spectral_projection, verify_index_formula, voiculescu_pair,
                  voiculescu_qrep, winding_number_det_segment,
                  bott_almost_projection)


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def commutator_unitary(n: int) -> Unitary:
    u, v = voiculescu_pair(n)
    return Unitary.of(u.m @ v.m @ adjoint(u.m) @ adjoint(v.m))


def reversed_commutator_unitary(n: int) -> Unitary:
    u, v = voiculescu_pair(n)
    return Unitary.of(v.m @ u.m @ adjoint(v.m) @ adjoint(u.m))


# -- criterion 1: trace-log invariant of the shift/phase commutator ------------------

def _refusal_at_2():
    """(ok, text): kappa must refuse the n = 2 commutator, which is exactly
    -1, with a BranchCut whose distance to -1 lies inside the margin."""
    try:
        rep = kappa(commutator_unitary(2))
    except BranchCut as exc:
        dist, margin = exc.details["distance"], exc.details["margin"]
        ok = dist <= margin
        return ok, (f"BranchCut at distance {dist:.1e} "
                    f"{'<=' if ok else '>'} margin {margin:.0e}")
    except QrepError as exc:
        return False, f"{type(exc).__name__} instead of BranchCut ({exc})"
    return False, f"returned {rep.value!r} instead of refusing"


def criterion_1():
    t0 = time.time()
    failures = []
    refused, refusal = _refusal_at_2()
    if not refused:
        failures.append(f"n=2: {refusal}")
    for n in range(3, 65):
        try:
            rep = kappa(commutator_unitary(n))
            if rep.rounded != -1 or abs(rep.value - (-1.0)) > 1e-6:
                failures.append(f"n={n}: value {rep.value!r}")
        except QrepError as exc:
            failures.append(f"n={n}: {type(exc).__name__} ({exc})")
    elapsed = time.time() - t0
    if elapsed >= 10.0:
        failures.append(f"elapsed {elapsed:.2f}s >= 10s budget")
    ok = not failures
    detail = (f"n=2 refused ({refusal}); kappa = -1 within 1e-6 "
              f"for n in 3..64 in {elapsed:.2f}s"
              if ok else
              f"{len(failures)} failure(s): {'; '.join(failures)}")
    return ok, detail


def test_criterion_1_commutator_invariant():
    ok, detail = criterion_1()
    assert _report(1, ok, detail), detail


# -- criterion 2: winding number equals kappa on random determinant loops -------------

def criterion_2():
    rng = np.random.default_rng(20260815)
    cases, mismatches = 0, 0
    while cases < 200:
        n = int(rng.integers(2, 17))
        w = haar_det1_unitary(n, rng, avoid_minus_one=0.1)
        if winding_number_det_segment(w).rounded != kappa(w).rounded:
            mismatches += 1
        cases += 1
    ok = mismatches == 0
    return ok, (f"winding = kappa exactly on {cases} random unitaries "
                f"(dims 2-16, det 1, spectrum 0.1 clear of -1)"
                if ok else f"{mismatches}/{cases} disagreements")


def test_criterion_2_winding_cross_validation():
    ok, detail = criterion_2()
    assert _report(2, ok, detail), detail


# -- criterion 3: rank class = winding = trace-log, defect shrinks -------------------

def criterion_3():
    problems = []
    for n in (64, 96, 128):
        u, v = voiculescu_pair(n)
        k = k_invariant(u, v)
        loop = reversed_commutator_unitary(n)
        wn = winding_number_det_segment(loop)
        kp = kappa(loop)
        if not (k.rounded == wn.rounded == kp.rounded == 1):
            problems.append(f"n={n}: k={k.rounded} wn={wn.rounded} kappa={kp.rounded}")
        if not k.defect_data["e_defect"] < 0.125:
            problems.append(f"n={n}: defect {k.defect_data['e_defect']:.4f} >= 1/8")
    defects = []
    for n in (16, 32, 64, 128):
        u, v = voiculescu_pair(n)
        defects.append(bott_almost_projection(u, v).defect)
    if not all(a > b for a, b in zip(defects, defects[1:])):
        problems.append(f"defects not monotone: {defects}")
    ok = not problems
    return ok, ("k = winding = kappa = +1 at n in {64,96,128}; defect < 1/8 and "
                f"decreasing over {{16,32,64,128}}: {[round(d, 6) for d in defects]}"
                if ok else "; ".join(problems))


def test_criterion_3_rank_class_identity():
    ok, detail = criterion_3()
    assert _report(3, ok, detail), detail


# -- criterion 4: invariance under hypothesis-sized perturbations --------------------

def criterion_4():
    u, v = voiculescu_pair(32)
    bad = []
    worst_bound = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u2 = perturbed_copy(u, 0.19, rng)
        v2 = perturbed_copy(v, 0.19, rng)
        rep = kazhdan_stability(1, [(u, v)], [(u2, v2)])
        worst_bound = max(worst_bound, rep.homotopy_bound)
        if not (rep.homotopy_ok and rep.equal
                and rep.kappa_start.rounded == -1 and rep.kappa_end.rounded == -1):
            bad.append(seed)
    ok = not bad
    return ok, (f"20 seeded radius-0.19 perturbations at n = 32: all kappa pairs "
                f"(-1, -1), homotopy bound max {worst_bound:.3f} < 1"
                if ok else f"failing seeds {bad}")


def test_criterion_4_perturbation_stability():
    ok, detail = criterion_4()
    assert _report(4, ok, detail), detail


# -- criterion 5: normalized-trace version of the identity ---------------------------

def criterion_5():
    rep = verify_index_formula(voiculescu_qrep(64))
    gap = abs(rep.normalized_lhs - rep.rhs_kappa_tau.value)
    ok = rep.trace_close and gap <= 1e-9
    return ok, (f"k/n = {rep.normalized_lhs} matches normalized trace invariant "
                f"within {gap:.2e} (<= 1e-9) at n = 64"
                if ok else f"|k/n - kappa_tau| = {gap:.3e} > 1e-9")


def test_criterion_5_trace_identity():
    ok, detail = criterion_5()
    assert _report(5, ok, detail), detail


# -- criterion 6: datum-representative independence -----------------------------------

def criterion_6():
    qr = voiculescu_qrep(64)
    a, b = FreeWord((("a", 1),)), FreeWord((("b", 1),))
    g = parse_word("a b")
    data = {
        "plain": CommutatorDatum(((a, b),)),
        "conjugated": CommutatorDatum(((g * a * g.inverse(), g * b * g.inverse()),)),
        "padded": CommutatorDatum(((a, b), (FreeWord(), FreeWord()))),
    }
    values = {label: verify_index_formula(qr, datum=datum).rhs_kappa.rounded
              for label, datum in data.items()}
    ok = len(set(values.values())) == 1
    return ok, (f"plain, conjugated, genus-2-padded representatives all give "
                f"kappa = {values['plain']} at n = 64"
                if ok else f"values differ: {values}")


def test_criterion_6_representative_independence():
    ok, detail = criterion_6()
    assert _report(6, ok, detail), detail


# -- criterion 7: exactly commuting pairs carry no obstruction ------------------------

def criterion_7():
    problems = []
    # permutation pair: shift and shift^2 commute with *exact* 0/1 arithmetic
    s, _ = voiculescu_pair(9)
    s2 = Unitary.of(s.m @ s.m)
    w = Unitary.of(s.m @ s2.m @ adjoint(s.m) @ adjoint(s2.m))
    rep = kappa(w)
    if rep.value != 0.0 or rep.rounded != 0:
        problems.append(f"permutation pair kappa = {rep.value!r}")
    if k_invariant(s, s2).rounded != 0:
        problems.append("permutation pair k != 0")
    # random diagonal pairs: commuting to machine precision
    rng = np.random.default_rng(7)
    worst_kappa, worst_eps = 0.0, 0.0
    for _ in range(10):
        n = int(rng.integers(2, 17))
        u = Unitary.of(np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n))))
        v = Unitary.of(np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n))))
        w = Unitary.of(u.m @ v.m @ adjoint(u.m) @ adjoint(v.m))
        rep = kappa(w)
        worst_kappa = max(worst_kappa, abs(rep.value))
        if rep.rounded != 0 or abs(rep.value) > 1e-12:
            problems.append(f"diagonal pair kappa = {rep.value!r}")
        if k_invariant(u, v).rounded != 0:
            problems.append("diagonal pair k != 0")
        qr = QuasiRep(Presentation.z2(), {"a": u, "b": v}, Z2NormalForm())
        md = mult_defect(qr, ["a", "b", "a^-1", "b^-1"])
        worst_eps = max(worst_eps, md.epsilon, md.inverse_defect)
        if md.epsilon > 1e-12:
            problems.append(f"mult defect {md.epsilon:.2e}")
    ok = not problems
    return ok, (f"commuting pairs: kappa = 0 (worst |kappa| = {worst_kappa:.1e}, "
                f"exactly 0.0 on the permutation pair), k = 0, "
                f"mult defect <= {worst_eps:.1e} <= 1e-12"
                if ok else "; ".join(problems))


def test_criterion_7_genuine_representation_null():
    ok, detail = criterion_7()
    assert _report(7, ok, detail), detail


# -- criterion 8: property suites ------------------------------------------------------

def _suite_additivity(rng, cases):
    fails = 0
    for _ in range(cases):
        n1, n2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        w1 = haar_det1_unitary(n1, rng, avoid_minus_one=1e-3)
        w2 = haar_det1_unitary(n2, rng, avoid_minus_one=1e-3)
        s = np.zeros((n1 + n2, n1 + n2), dtype=np.complex128)
        s[:n1, :n1], s[n1:, n1:] = w1.m, w2.m
        total = kappa(Unitary.of(s)).value
        if abs(total - kappa(w1).value - kappa(w2).value) > 1e-10:
            fails += 1
    return fails


def _suite_conjugation(rng, cases):
    fails = 0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        w = haar_det1_unitary(n, rng, avoid_minus_one=1e-3)
        g = random_unitary(n, rng)
        conj = Unitary.of(g.m @ w.m @ adjoint(g.m))
        if abs(kappa(conj).value - kappa(w).value) > 1e-10:
            fails += 1
    return fails


def _suite_inversion(rng, cases):
    fails = 0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        w = haar_det1_unitary(n, rng, avoid_minus_one=1e-3)
        if abs(kappa(w.adjoint()).value + kappa(w).value) > 1e-10:
            fails += 1
    return fails


def _suite_integrality(rng, cases):
    fails = 0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        w = haar_det1_unitary(n, rng, avoid_minus_one=1e-3)
        rep = kappa(w)
        if not rep.is_integer or abs(rep.value - rep.rounded) > 1e-6:
            fails += 1
    return fails


def _suite_exp_log(rng, cases):
    fails = 0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        w = haar_det1_unitary(n, rng, avoid_minus_one=1e-3)
        back = exp_skew(principal_log_unitary(w))
        if op_norm(back.m - w.m) > 1e-8:
            fails += 1
    return fails


def _suite_projection_idempotency(rng, cases):
    fails = 0
    for _ in range(cases):
        n = int(rng.integers(2, 10))
        low = rng.uniform(-0.2, 0.35, size=n)
        high = rng.uniform(0.65, 1.3, size=n)
        pick = rng.random(n) < 0.5
        h = hermitian_with_spectrum(np.where(pick, high, low), rng)
        p, rank = spectral_projection(h)
        if op_norm(p @ p - p) > 1e-8 or rank != int(pick.sum()):
            fails += 1
    return fails


def _suite_parser_round_trip(rng, cases):
    fails = 0
    symbols = ["a", "b", "c", "x_1", "Y2", "gen_9"]
    for _ in range(cases):
        letters = tuple((symbols[rng.integers(len(symbols))],
                         1 if rng.random() < 0.5 else -1)
                        for _ in range(rng.integers(0, 14)))
        word = FreeWord(letters)
        if parse_word(render(word)) != word:
            fails += 1
    return fails


def criterion_8():
    suites = {
        "kappa additivity": _suite_additivity,
        "kappa conjugation invariance": _suite_conjugation,
        "kappa inversion antisymmetry": _suite_inversion,
        "integrality at det 1": _suite_integrality,
        "exp(log) reconstruction": _suite_exp_log,
        "projection idempotency": _suite_projection_idempotency,
        "parser round trip": _suite_parser_round_trip,
    }
    cases = 100
    bad = {}
    for label, suite in suites.items():
        seed = zlib.crc32(label.encode())  # stable across processes
        fails = suite(np.random.default_rng(seed), cases)
        if fails:
            bad[label] = fails
    ok = not bad
    return ok, (f"7 property suites x {cases} randomized cases: 0 failures"
                if ok else f"failures: {bad}")


def test_criterion_8_property_suites():
    ok, detail = criterion_8()
    assert _report(8, ok, detail), detail


# -- script entry point -----------------------------------------------------------------

def _main() -> int:
    criteria = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8]
    bad = 0
    for k, fn in enumerate(criteria, start=1):
        ok, detail = fn()
        _report(k, ok, detail)
        bad += 0 if ok else 1
    print(f"{len(criteria) - bad}/{len(criteria)} acceptance criteria hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main())
