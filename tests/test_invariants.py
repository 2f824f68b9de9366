"""Trace-log invariant, determinant-loop winding, homotopy gap, stability.

Closed-form oracles: diagonal unitaries with chosen phases (kappa equals
the phase sum over 2 pi), the midpoint chord-vs-arc formula
1 - cos(theta/2) for the homotopy gap, and the Voiculescu family.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import diag_unitary, haar_det1_unitary, spy
from qrep import (DEFAULTS, BranchCut, DimensionMismatch, HypothesisViolated,
                  NotALoop, PathSingular, Unitary,
                  adjoint, evaluate, exel_homotopy_gap, herm_eig, kappa,
                  kazhdan_stability, op_norm, parse_word, perturbed_copy,
                  random_unitary, voiculescu_pair, voiculescu_qrep,
                  winding_number_det_segment)


def commutator_unitary(n: int) -> Unitary:
    qr = voiculescu_qrep(n)
    return evaluate(parse_word("[a,b]"), qr.images)


# -- kappa ---------------------------------------------------------------------

def test_kappa_diagonal_phase_sum():
    phases = [0.4, -1.2, 2.0]
    rep = kappa(diag_unitary(phases))
    assert rep.name == "kappa"
    assert abs(rep.value - sum(phases) / (2 * np.pi)) < 1e-14
    assert rep.is_integer is False
    assert rep.rounded is None


def test_kappa_voiculescu_commutator_is_minus_one():
    for n in (3, 8, 33):
        rep = kappa(commutator_unitary(n))
        assert rep.rounded == -1
        assert abs(rep.value + 1.0) < 1e-12, n
        assert rep.is_integer is True


def test_kappa_integrality_iff_det_one():
    rng = np.random.default_rng(200)
    w = haar_det1_unitary(6, rng, avoid_minus_one=1e-3)
    rep = kappa(w)
    assert rep.is_integer and abs(rep.value - rep.rounded) < 1e-12
    assert rep.defect_data["det_deviation"] < 1e-12
    # knock the determinant off 1: integrality is no longer claimed
    rep2 = kappa(Unitary.of(w.m * np.exp(0.1j)))
    assert rep2.is_integer is False


def test_kappa_normalized_mode():
    w = commutator_unitary(16)
    rep = kappa(w, trace_mode="normalized")
    assert rep.name == "kappa_tau"
    assert abs(rep.value - (-1.0 / 16.0)) < 1e-14
    assert rep.is_integer is False
    assert rep.defect_data["domain_lt_1"] is True   # ||w-1|| = 2 sin(pi/16)
    assert rep.defect_data["domain_lt_2"] is True


def test_kappa_defect_data_and_branch_cut():
    w = commutator_unitary(8)
    rep = kappa(w)
    assert abs(rep.defect_data["norm_w_minus_1"] - 2 * np.sin(np.pi / 8)) < 1e-12
    assert abs(rep.defect_data["min_dist_to_minus_1"]
               - abs(np.exp(-2j * np.pi / 8) + 1)) < 1e-12
    with pytest.raises(BranchCut) as err:
        kappa(Unitary.of(-np.eye(2)))
    assert err.value.exit_code == 2
    # custom margin widens the refusal zone
    with pytest.raises(BranchCut):
        kappa(diag_unitary([np.pi - 1e-4, 0.0]),
              tolerances=dataclasses.replace(DEFAULTS, branch_margin=1e-3))


def test_kappa_report_json_round_trip():
    nonint = kappa(diag_unitary([0.4, -1.2, 2.0]))
    assert "rounded" not in nonint.to_json()


# -- winding number --------------------------------------------------------------

def test_winding_voiculescu_commutator():
    rep = winding_number_det_segment(commutator_unitary(8))
    assert rep.name == "winding_number"
    assert rep.rounded == -1
    assert abs(rep.value + 1.0) < 1e-9
    # w = e^{2 pi i/8} 1, so ||w - 1|| = |e^{2 pi i/8} - 1| = r < 1 and the
    # certified grid has ceil(2 L/pi) = 17 intervals, L = 8 r/(1 - r): its
    # 16 interior points and no bisection
    r = abs(np.exp(2j * np.pi / 8) - 1)
    assert rep.defect_data["certified"] is True
    assert abs(rep.defect_data["phase_rate_bound"] - 8 * r / (1 - r)) < 1e-12
    assert rep.defect_data["det_evaluations"] == 16


def _winding_by_direct_pencils(w: np.ndarray) -> tuple[float, int, bool, int]:
    # the tracker of winding_number_det_segment at default tolerances, each
    # pencil formed as (1 - t) eye + t w; determinants are Python complex
    # numbers, as lu_det returns them.  With L = sqrt(n) ||w - 1||_F / s,
    # where N = ceil(2 L/pi) <= winding_samples, the grid has N intervals and
    # no dip rule; otherwise winding_samples intervals, adaptively bisected.
    # s is Weyl's 1 - ||w - 1||, or, where that certifies no grid, the larger
    # of it and the polar bound sigma_min(1 + w)/2 - 1.5 ||w* w - 1||_F.
    # t = 0 is not evaluated and t = 1 is det(w); the count is of the other
    # determinants.
    n = w.shape[0]
    eye = np.eye(n)

    def intervals(s):
        return 2 * np.sqrt(n) * np.linalg.norm(w - eye) / s / np.pi if s > DEFAULTS.path_floor else np.inf

    s = 1 - np.linalg.norm(w - eye, 2)
    if intervals(s) > DEFAULTS.winding_samples:
        s = max(s, np.linalg.svd(w + eye, compute_uv=False)[-1] / 2
                - 1.5 * np.linalg.norm(w.conj().T @ w - eye))
    needed = intervals(s)
    certified = bool(needed <= DEFAULTS.winding_samples)
    samples = max(1, int(np.ceil(needed))) if certified else DEFAULTS.winding_samples
    det_w = complex(np.linalg.det(w))
    dets = [1.0 + 0.0j, det_w]
    evaluations = 0

    def det(t):
        nonlocal evaluations
        evaluations += 1
        dets.append(complex(np.linalg.det((1.0 - t) * eye + t * w)))
        return dets[-1]

    def track(t0, d0, t1, d1, depth):
        step = np.angle(d1 / d0)
        runmax = max(abs(d) for d in dets)
        dipped = not certified and min(abs(d0), abs(d1)) < 0.1 * runmax
        if abs(step) <= (np.pi / 16 if dipped else np.pi / 2):
            return step
        assert depth < DEFAULTS.winding_max_depth
        tm = 0.5 * (t0 + t1)
        dm = det(tm)
        return track(t0, d0, tm, dm, depth + 1) + track(tm, dm, t1, d1, depth + 1)

    ts = np.linspace(0.0, 1.0, samples + 1)
    ds = [1.0 + 0.0j] + [det(float(t)) for t in ts[1:-1]] + [det_w]
    total = sum(track(float(ts[i]), ds[i], float(ts[i + 1]), ds[i + 1], 0)
                for i in range(samples))
    return total / (2 * np.pi), evaluations, certified, samples


def test_winding_pencils_in_place_match_direct_pencils():
    # at n = 64: the commutator of a perturbed pair (winding -1, on the
    # certified grid), and a det-1 unitary with one eigenvalue 0.05 from -1,
    # whose determinants dip so that the tracker bisects; value and
    # evaluation count match bit for bit
    rng = np.random.default_rng(21)
    u, v = voiculescu_pair(64)
    u2, v2 = perturbed_copy(u, 0.05, rng), perturbed_copy(v, 0.05, rng)
    commutator = u2.m @ v2.m @ u2.m.conj().T @ v2.m.conj().T
    theta = rng.uniform(-0.5, 0.5, 64)
    theta[0] = np.pi - 0.05
    theta[1:] -= theta.sum() / 63
    q = random_unitary(64, rng).m
    near_minus_one = (q * np.exp(1j * theta)) @ q.conj().T
    routes = []
    for w, winding in ((commutator, -1), (near_minus_one, 0)):
        rep = winding_number_det_segment(Unitary(w))
        value, evaluations, certified, samples = _winding_by_direct_pencils(w)
        assert rep.rounded == winding
        assert rep.value == value
        assert rep.defect_data["det_evaluations"] == evaluations
        assert rep.defect_data["certified"] is certified
        routes.append((certified, samples, evaluations))
    (c_cert, c_samples, c_evals), (b_cert, b_samples, b_evals) = routes
    assert c_cert and c_samples < DEFAULTS.winding_samples and c_evals == c_samples - 1
    assert not b_cert and b_samples == DEFAULTS.winding_samples
    assert b_evals > DEFAULTS.winding_samples - 1


def test_winding_zero_for_real_positive_paths():
    # conjugate phase pairs make det((1-t)1+tw) = |(1-t)+t e^{i theta}|^2 > 0
    w = diag_unitary([1.0, -1.0])
    rep = winding_number_det_segment(w)
    assert rep.rounded == 0 and abs(rep.value) < 1e-12


def test_winding_matches_kappa_on_awkward_dips():
    # an unbalanced near-pi phase makes |det| dip close to zero while
    # arg(det) swings fast, exercising the adaptive refinement
    th = np.pi - 0.05
    w = diag_unitary([th, -th / 3, -th / 3, -th / 3])
    wn = winding_number_det_segment(w)
    assert wn.defect_data["det_evaluations"] > 65  # refinement actually ran
    assert wn.rounded == kappa(w).rounded == 0
    # same stress but with a nontrivial answer: phases sum to 2 pi
    w2 = diag_unitary([th, th, np.pi - th, np.pi - th])
    wn2 = winding_number_det_segment(w2)
    assert wn2.defect_data["det_evaluations"] > 65
    assert wn2.rounded == kappa(w2).rounded == 1


def test_winding_not_a_loop_for_det_away_from_one():
    rng = np.random.default_rng(201)
    w = random_unitary(5, rng)
    if abs(np.linalg.det(w.m) - 1) < 1e-3:  # vanishing chance, but be exact
        w = Unitary.of(w.m * np.exp(0.3j))
    with pytest.raises(NotALoop) as err:
        winding_number_det_segment(w)
    assert err.value.exit_code == 1


def test_winding_singular_path():
    # for w = -1 the path det((1-t)1+tw) = (1-2t)^2 hits 0 at t = 1/2
    with pytest.raises(PathSingular) as err:
        winding_number_det_segment(Unitary.of(-np.eye(2)))
    assert err.value.exit_code == 2


def test_winding_agrees_with_kappa_randomized():
    rng = np.random.default_rng(202)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        w = haar_det1_unitary(n, rng, avoid_minus_one=0.1)
        assert winding_number_det_segment(w).rounded == kappa(w).rounded


# -- the winding certificate -----------------------------------------------------

@pytest.mark.parametrize("n", [48, 64, 128, 256])
def test_winding_matches_kappa_on_haar_det1_at_scale(n):
    # |det| along these paths falls to 1e-15 at n = 48 and 1e-77 at n = 256,
    # while the sigma_min bound stays above 1e-4: the winding is well defined
    # and equals kappa
    for seed in range(5):
        w = haar_det1_unitary(n, np.random.default_rng(seed))
        wn = winding_number_det_segment(w)
        assert wn.defect_data["sigma_min_bound"] > DEFAULTS.path_floor
        assert wn.defect_data["certified"] is False
        assert wn.is_integer and wn.rounded == kappa(w).rounded, seed


@pytest.mark.xfail(strict=True, reason=(
    "the bisected (uncertified) route aliases whole turns: every chord factor "
    "1 - t + t lambda of a unitary comes closest to 0 at t = 1/2, so the factors "
    "of eigenvalues near -1 each turn by about pi there, together, inside one "
    "grid interval, and the winding reads 0 with is_integer true where kappa "
    "is 2, 2 and 4"))
def test_winding_matches_kappa_on_loops_turning_faster_than_the_grid():
    # n - 1 eigenvalues at pi - eps and one at -(n - 1)(pi - eps): det = 1,
    # sigma_min bound about eps / 2, so no grid is certified
    loops = [diag_unitary([np.pi - eps] * (n - 1) + [-(n - 1) * (np.pi - eps)])
             for n, eps in ((5, 1e-3), (6, 1e-2), (9, 1e-3))]
    assert ([winding_number_det_segment(w).rounded for w in loops]
            == [kappa(w).rounded for w in loops] == [2, 2, 4])


def _phase_along_segment(w: np.ndarray, ts: np.ndarray) -> np.ndarray:
    # arg det((1 - t) 1 + t w), continuous in t: det is the product of the
    # factors (1 - t) + t lambda over the eigenvalues lambda of w (a test-side
    # oracle), each on a chord of the unit circle that meets the negative
    # real axis only if lambda = -1, so the phase is the sum of principal args
    lam = np.linalg.eigvals(w)
    return np.angle((1.0 - ts[:, None]) + ts[:, None] * lam).sum(axis=1)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_phase_rate_bound_holds_and_certified_grid_never_bisects(n):
    rng = np.random.default_rng(300 + n)
    u, v = voiculescu_pair(n)
    ts = np.linspace(0.0, 1.0, 4097)
    for radius in (0.02, 0.1):
        u2, v2 = perturbed_copy(u, radius, rng), perturbed_copy(v, radius, rng)
        w = u2.m @ v2.m @ adjoint(u2.m) @ adjoint(v2.m)
        rep = winding_number_det_segment(Unitary(w))
        data = rep.defect_data
        phase = _phase_along_segment(w, ts)
        if n == 16:
            dets = np.linalg.det((1.0 - ts[:, None, None]) * np.eye(n)
                                 + ts[:, None, None] * w)
            assert np.abs(np.unwrap(np.angle(dets)) - phase).max() < 1e-9
        assert data["phase_rate_bound"] >= np.abs(np.diff(phase)).max() * 4096
        assert data["sigma_min_bound"] == 1.0 - op_norm(w - np.eye(n))
        # the certified grid: ceil(2 L/pi) intervals, each interior point
        # evaluated once, nothing bisected
        assert data["certified"] is True
        assert data["det_evaluations"] == np.ceil(2 * data["phase_rate_bound"] / np.pi) - 1
        assert rep.rounded == round(phase[-1] / (2 * np.pi)) == -1


def test_winding_refusal_carries_the_sigma_min_bound():
    # w = -1: sigma_min(1 + w) = 0, the path passes through 0 at t = 1/2
    with pytest.raises(PathSingular) as err:
        winding_number_det_segment(Unitary.of(-np.eye(2)))
    assert err.value.details["sigma_min_bound"] <= DEFAULTS.path_floor
    # path_floor is a floor on s: at s itself the loop is refused, below it
    # accepted
    w = haar_det1_unitary(64, np.random.default_rng(0))
    s = winding_number_det_segment(w).defect_data["sigma_min_bound"]
    with pytest.raises(PathSingular) as err:
        winding_number_det_segment(w, tolerances=dataclasses.replace(DEFAULTS, path_floor=s))
    assert err.value.details == {"sigma_min_bound": s, "path_floor": s}
    below = dataclasses.replace(DEFAULTS, path_floor=0.5 * s)
    assert winding_number_det_segment(w, tolerances=below).rounded == kappa(w).rounded


@pytest.mark.parametrize("bad", [0j, complex("nan"), complex("inf")])
def test_winding_vanishing_determinant_raises_at_once(monkeypatch, bad):
    # a sampled determinant of 0 or inf/nan has no argument to track: the
    # first one refuses, with no bisection around it.  det(w) comes through
    # Unitary.det in matcore, the path through invariants: both are patched
    import qrep.invariants
    import qrep.matcore
    real, calls = qrep.invariants.lu_det, []

    def lu_det(m):
        calls.append(m)
        return real(m) if len(calls) == 1 else bad  # det(w) first, then the path
    for module in (qrep.matcore, qrep.invariants):
        monkeypatch.setattr(module, "lu_det", lu_det)
    with pytest.raises(PathSingular) as err:
        winding_number_det_segment(commutator_unitary(8))
    assert len(calls) == 2
    assert err.value.details["t"] == 1 / 17


@pytest.mark.parametrize("phases, winding, evaluations", [
    ([2.0, -2.0], 0, 3),
    ([2.0, 2.0, -2.0, -2.0], 0, 7),
    ([1.5, 1.5, 1.5, -4.5], 1, 5),
])
def test_polar_bound_certifies_loops_weyl_cannot(phases, winding, evaluations):
    # ||w - 1|| > 1, so Weyl's s certifies no grid; the polar bound
    # sigma_min(1 + w)/2 = min |1 + lambda|/2 does, with ceil(2 L/pi) intervals
    # inside winding_samples: a few determinants instead of the 63 of the
    # bisected grid, bit for bit the direct-pencil tracker's
    w = diag_unitary(phases)
    n = len(phases)
    assert op_norm(w.m - np.eye(n)) > 1
    rep = winding_number_det_segment(w)
    data = rep.defect_data
    s = np.abs(1 + np.exp(1j * np.asarray(phases))).min() / 2
    assert abs(data["sigma_min_bound"] - s) < 1e-12
    assert data["certified"] is True
    assert data["det_evaluations"] == np.ceil(2 * data["phase_rate_bound"] / np.pi) - 1
    assert data["det_evaluations"] == evaluations
    value, count, certified, _ = _winding_by_direct_pencils(w.m)
    assert (rep.value, data["det_evaluations"], certified) == (value, count, True)
    assert rep.rounded == kappa(w).rounded == winding


def test_winding_depth_cap_refusal_carries_its_details():
    # the awkward-dip loop needs bisection; with no depth allowed, the first
    # increment above its cap is refused, and the refusal says where
    th = np.pi - 0.05
    w = diag_unitary([th, -th / 3, -th / 3, -th / 3])
    no_depth = dataclasses.replace(DEFAULTS, winding_max_depth=0)
    with pytest.raises(PathSingular, match="unresolvable at depth cap") as err:
        winding_number_det_segment(w, tolerances=no_depth)
    details = err.value.details
    assert set(details) == {"t0", "t1", "increment", "depth", "sigma_min_bound"}
    assert details["depth"] == 0
    assert details["t1"] - details["t0"] == pytest.approx(1 / DEFAULTS.winding_samples)
    assert abs(details["increment"]) > np.pi / 16
    assert details["sigma_min_bound"] == winding_number_det_segment(w).defect_data[
        "sigma_min_bound"]


# -- homotopy gap -----------------------------------------------------------------

def test_homotopy_gap_closed_form_single_phase():
    # max_t |(1-t) + t e^{i theta} - e^{i t theta}| = 1 - cos(theta/2),
    # attained at t = 1/2 (chord midpoint vs arc midpoint)
    for theta in (np.pi / 4, np.pi / 2, 3 * np.pi / 4, 2.8):
        w = diag_unitary([theta, -theta])
        got = exel_homotopy_gap(w)
        assert abs(got - (1 - np.cos(theta / 2))) < 1e-9, theta


def test_homotopy_gap_frozen_values():
    assert abs(exel_homotopy_gap(diag_unitary([np.pi / 2, -np.pi / 2]))
               - 0.2928932188134525) < 1e-12
    assert abs(exel_homotopy_gap(diag_unitary([3 * np.pi / 4, -3 * np.pi / 4]))
               - 0.6173165676349103) < 1e-12


def test_homotopy_gap_voiculescu_below_one():
    for n in (3, 8, 64):
        gap = exel_homotopy_gap(commutator_unitary(n))
        assert abs(gap - (1 - np.cos(np.pi / n))) < 1e-9
        assert gap < 1.0


def test_homotopy_gap_mixed_spectrum_takes_worst_phase():
    w = diag_unitary([0.3, 2.0, -1.0])
    assert abs(exel_homotopy_gap(w) - (1 - np.cos(1.0))) < 1e-9


def test_homotopy_gap_closed_form_at_tiny_phases():
    # the chord and the arc agree to about theta^2 / 8 here, so a sampled
    # maximum of their difference is mostly rounding
    for theta in (1e-5, 1e-7):
        want = 2 * np.sin(theta / 4) ** 2
        got = exel_homotopy_gap(diag_unitary([theta, -theta]))
        assert abs(got - want) <= 1e-12 * want, theta


def test_homotopy_gap_bounds_a_fine_scan_of_haar_unitaries():
    # np.linalg.eigvals is the test-side oracle; t = 1/2 is a grid point
    t = np.linspace(0.0, 1.0, 4097)[:, None]
    for n in (4, 16):
        for seed in range(5):
            w = random_unitary(n, np.random.default_rng(seed))
            lam = np.linalg.eigvals(w.m)[None, :]
            scan = np.abs((1 - t) + t * lam - np.exp(1j * t * np.angle(lam))).max()
            gap = exel_homotopy_gap(w)
            assert scan <= gap + 1e-15, (n, seed)
            assert scan >= gap - 1e-14, (n, seed)


def test_homotopy_gap_below_one_unless_an_eigenvalue_is_at_minus_one():
    near = np.pi - 1e-3
    assert exel_homotopy_gap(diag_unitary([near, -near])) < 1.0
    with pytest.raises(BranchCut) as err:
        exel_homotopy_gap(diag_unitary([np.pi, -np.pi]))
    assert err.value.details["distance"] <= DEFAULTS.branch_margin


# -- stability --------------------------------------------------------------------

def test_stability_trivial_perturbation():
    # n = 32 keeps the base defect 2 sin(pi/32) = 0.196 under the 0.2 budget
    u, v = voiculescu_pair(32)
    rep = kazhdan_stability(1, [(u, v)], [(u, v)])
    assert rep.equal and rep.homotopy_ok
    assert rep.max_generator_distance == 0.0
    assert rep.kappa_start.rounded == rep.kappa_end.rounded == -1
    assert rep.relator_defect == rep.relator_defect_alt
    assert rep.samples >= 65
    assert abs(rep.bound - 0.2) < 1e-15


def test_stability_perturbed_keeps_invariant():
    u, v = voiculescu_pair(32)
    rng = np.random.default_rng(203)
    u2 = perturbed_copy(u, 0.15, rng)
    v2 = perturbed_copy(v, 0.15, rng)
    rep = kazhdan_stability(1, [(u, v)], [(u2, v2)])
    assert rep.equal and rep.homotopy_ok
    assert rep.kappa_start.rounded == rep.kappa_end.rounded == -1
    assert abs(rep.max_generator_distance - 0.15) < 1e-12
    assert rep.homotopy_max_deviation < 1.0


def test_stability_homotopy_matches_scipy_oracle(monkeypatch):
    # the arcs exp(t log(u* u')) are read off the eigensystem of u* u' that
    # carries the branch-cut check; scipy's logm/expm recompute the path
    u, v = voiculescu_pair(32)
    rng = np.random.default_rng(7)
    u2 = perturbed_copy(u, 0.19, rng)
    v2 = perturbed_copy(v, 0.19, rng)
    calls = spy(monkeypatch, herm_eig)
    rep = kazhdan_stability(1, [(u, v)], [(u2, v2)])
    assert calls == []
    lu = scipy.linalg.logm(u.m.conj().T @ u2.m)
    lv = scipy.linalg.logm(v.m.conj().T @ v2.m)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, rep.samples):
        ut = u.m @ scipy.linalg.expm(t * lu)
        vt = v.m @ scipy.linalg.expm(t * lv)
        w = ut @ vt @ ut.conj().T @ vt.conj().T
        worst = max(worst, np.linalg.norm(w - np.eye(32), 2))
    assert abs(rep.homotopy_max_deviation - worst) < 1e-10


def test_stability_measures_each_matrix_once(monkeypatch):
    # w0 - 1 is measured once, for the relator gate, and reported again as
    # kappa_start's norm_w_minus_1
    u, v = voiculescu_pair(32)
    rng = np.random.default_rng(8)
    u2, v2 = perturbed_copy(u, 0.1, rng), perturbed_copy(v, 0.1, rng)
    calls = spy(monkeypatch, op_norm)
    rep = kazhdan_stability(1, [(u, v)], [(u2, v2)])
    assert len({args[0].tobytes() for args in calls}) == len(calls)
    monkeypatch.undo()
    w0 = u.m @ v.m @ u.m.conj().T @ v.m.conj().T
    assert rep.relator_defect == op_norm(w0 - np.eye(32))
    assert rep.kappa_start.defect_data["norm_w_minus_1"] == rep.relator_defect
    assert rep.kappa_start == kappa(Unitary(w0))


def test_stability_hypothesis_violations():
    u, v = voiculescu_pair(32)
    rng = np.random.default_rng(204)
    # base commutator too large: n = 8 gives 2 sin(pi/8) = 0.765 >= 0.2
    u8, v8 = voiculescu_pair(8)
    with pytest.raises(HypothesisViolated) as err:
        kazhdan_stability(1, [(u8, v8)], [(u8, v8)])
    assert err.value.details["which"] == "relator"
    assert err.value.exit_code == 1
    # perturbation radius 0.3 >= 1/5
    u2 = perturbed_copy(u, 0.3, rng)
    with pytest.raises(HypothesisViolated) as err:
        kazhdan_stability(1, [(u, v)], [(u2, v)])
    assert err.value.details["which"] == "u_1"
    assert abs(err.value.details["value"] - 0.3) < 1e-12


def test_stability_shape_errors():
    u, v = voiculescu_pair(32)
    with pytest.raises(DimensionMismatch):
        kazhdan_stability(2, [(u, v)], [(u, v)])
    with pytest.raises(DimensionMismatch):
        kazhdan_stability(1, [(u, v)], [voiculescu_pair(8)])


def test_stability_report_json_keys():
    u, v = voiculescu_pair(32)
    obj = kazhdan_stability(1, [(u, v)], [(u, v)]).to_json()
    assert set(obj) == {"genus", "dim", "bound", "relator_defect",
                        "relator_defect_alt", "max_generator_distance",
                        "homotopy_max_deviation", "homotopy_ok", "samples",
                        "kappa_start", "kappa_end", "equal"}
    assert obj["kappa_start"]["rounded"] == -1
