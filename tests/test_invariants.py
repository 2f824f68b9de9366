"""Trace-log invariant, determinant-loop winding, homotopy gap, stability.

Closed-form oracles: diagonal unitaries with chosen phases (kappa equals
the phase sum over 2 pi), the midpoint chord-vs-arc formula
1 - cos(theta/2) for the homotopy gap, and the Voiculescu family.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import qrep.invariants
from conftest import diag_unitary, haar_det1_unitary, spy
from qrep import (DEFAULTS, BranchCut, DimensionMismatch, HypothesisViolated,
                  NotALoop, PathSingular, Unitary,
                  adjoint, evaluate, exp_skew, exel_homotopy_gap, herm_eig, kappa,
                  kazhdan_stability, op_norm, parse_word, perturbed_copy,
                  random_unitary, unitary_eig, voiculescu_pair, voiculescu_qrep,
                  winding_number_det_segment)
from qrep.invariants import GRID_CAP, STEP_PHASE, _step_length


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
    # grid has ceil(2 L/pi) = 17 intervals, L = 8 r/(1 - r): its 16 interior
    # points
    r = abs(np.exp(2j * np.pi / 8) - 1)
    assert rep.defect_data["route"] == "grid"
    assert abs(rep.defect_data["phase_rate_bound"] - 8 * r / (1 - r)) < 1e-12
    assert rep.defect_data["det_evaluations"] == 16


def _winding_by_direct_pencils(w: np.ndarray) -> tuple[float, int]:
    # the grid of winding_number_det_segment at default tolerances, each
    # pencil formed as (1 - t) eye + t w; determinants are Python complex
    # numbers, as lu_det returns them.  With s = 1 - ||w - 1|| and
    # L = sqrt(n) ||w - 1||_F / s the grid has N = ceil(2 L/pi) intervals,
    # which must fit in GRID_CAP.  t = 0 is not evaluated and t = 1 is
    # det(w); the count is of the other determinants.
    n = w.shape[0]
    eye = np.eye(n)
    s = 1 - np.linalg.norm(w - eye, 2)
    needed = 2 * np.sqrt(n) * np.linalg.norm(w - eye) / s / np.pi
    assert s > DEFAULTS.path_floor and needed <= GRID_CAP
    samples = max(1, int(np.ceil(needed)))
    ts = np.linspace(0.0, 1.0, samples + 1)
    ds = ([1.0 + 0.0j] + [complex(np.linalg.det((1.0 - t) * eye + t * w)) for t in ts[1:-1]]
          + [complex(np.linalg.det(w))])
    total = sum(np.angle(d1 / d0) for d0, d1 in zip(ds, ds[1:]))
    return total / (2 * np.pi), samples - 1


def test_winding_pencils_in_place_match_direct_pencils():
    # at n = 64: the commutator of a perturbed pair (winding -1, on the
    # grid), whose value and evaluation count match bit for bit; and a det-1
    # unitary with one eigenvalue 0.05 from -1, which no grid certifies, so
    # it takes the step route
    rng = np.random.default_rng(21)
    u, v = voiculescu_pair(64)
    u2, v2 = perturbed_copy(u, 0.05, rng), perturbed_copy(v, 0.05, rng)
    commutator = u2.m @ v2.m @ u2.m.conj().T @ v2.m.conj().T
    theta = rng.uniform(-0.5, 0.5, 64)
    theta[0] = np.pi - 0.05
    theta[1:] -= theta.sum() / 63
    q = random_unitary(64, rng).m
    near_minus_one = Unitary((q * np.exp(1j * theta)) @ q.conj().T)
    rep = winding_number_det_segment(Unitary(commutator))
    value, evaluations = _winding_by_direct_pencils(commutator)
    assert rep.rounded == -1
    assert rep.value == value
    assert rep.defect_data["det_evaluations"] == evaluations < GRID_CAP - 1
    assert rep.defect_data["route"] == "grid"
    rep = winding_number_det_segment(near_minus_one)
    assert rep.defect_data["route"] == "steps"
    assert rep.rounded == kappa(near_minus_one).rounded == 0


def test_winding_zero_for_real_positive_paths():
    # conjugate phase pairs make det((1-t)1+tw) = |(1-t)+t e^{i theta}|^2 > 0
    w = diag_unitary([1.0, -1.0])
    rep = winding_number_det_segment(w)
    assert rep.rounded == 0 and abs(rep.value) < 1e-12


def test_winding_matches_kappa_on_awkward_dips():
    # an unbalanced near-pi phase makes |det| dip close to zero while
    # arg(det) swings fast; no grid is certified, so the steps shorten there
    th = np.pi - 0.05
    w = diag_unitary([th, -th / 3, -th / 3, -th / 3])
    wn = winding_number_det_segment(w)
    assert wn.defect_data["route"] == "steps"
    assert wn.rounded == kappa(w).rounded == 0
    # same stress but with a nontrivial answer: phases sum to 2 pi
    w2 = diag_unitary([th, th, np.pi - th, np.pi - th])
    wn2 = winding_number_det_segment(w2)
    assert wn2.defect_data["route"] == "steps"
    assert wn2.rounded == kappa(w2).rounded == 1


def test_winding_not_a_loop_for_det_away_from_one():
    rng = np.random.default_rng(201)
    w = random_unitary(5, rng)
    if abs(np.linalg.det(w.m) - 1) < 1e-3:  # vanishing chance, but be exact
        w = Unitary.of(w.m * np.exp(0.3j))
    with pytest.raises(NotALoop) as err:
        winding_number_det_segment(w)
    assert err.value.exit_code == 1


def test_kappa_and_winding_share_the_det_one_gate():
    # the loop [b, a] at n = 16 with its first column turned by 1e-7: both
    # read |det(w) - 1| ~ 1e-7 <= det_one as det(w) = 1 and give the integer 1
    m = evaluate(parse_word("[b,a]"), voiculescu_qrep(16).images).m.copy()
    m[:, 0] *= np.exp(1e-7j)
    k, wn = kappa(Unitary.of(m)), winding_number_det_segment(Unitary.of(m))
    assert 0.9e-7 < k.defect_data["det_deviation"] <= DEFAULTS.det_one
    assert k.rounded == wn.rounded == 1 and k.is_integer and wn.is_integer
    # turned by 2e-6, past det_one: kappa claims no integer, the winding no loop
    m[:, 0] *= np.exp(1.9e-6j)
    assert kappa(Unitary.of(m)).rounded is None
    with pytest.raises(NotALoop):
        winding_number_det_segment(Unitary.of(m))


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
    # and ||w - 1|| is near 2, so no grid is certified; the steps stay far
    # above path_floor, and the winding equals kappa
    for seed in range(5):
        w = haar_det1_unitary(n, np.random.default_rng(seed))
        wn = winding_number_det_segment(w)
        assert wn.defect_data["route"] == "steps"
        assert wn.defect_data["min_step"] > 1e-4
        assert wn.is_integer and wn.rounded == kappa(w).rounded, seed


def test_winding_matches_kappa_on_loops_turning_faster_than_the_grid():
    # n - 1 eigenvalues at pi - eps and one at -(n - 1)(pi - eps): det = 1,
    # and every chord factor 1 - t + t lambda comes closest to 0 at t = 1/2,
    # so the factors of the eigenvalues near -1 each turn by about pi there,
    # together.  A uniform grid would need intervals of about eps; the steps
    # shorten around t = 1/2 instead
    loops = [diag_unitary([np.pi - eps] * (n - 1) + [-(n - 1) * (np.pi - eps)])
             for n, eps in ((5, 1e-3), (6, 1e-2), (9, 1e-3))]
    reports = [winding_number_det_segment(w) for w in loops]
    assert all(r.defect_data["route"] == "steps" and r.is_integer for r in reports)
    assert ([r.rounded for r in reports]
            == [kappa(w).rounded for w in loops] == [2, 2, 4])


def test_winding_steps_through_an_underflowing_determinant():
    # 50 eigenvalues at e^{i(pi - 1e-3)} and 50 at their conjugates: at
    # t = 1/2, |det| = (1e-3 / 2)^100 underflows to 0, while sigma_min of the
    # path stays at least 5e-4.  The steps multiply determinants of
    # 1 + hM, never det p(t), so the path is not refused
    th = np.pi - 1e-3
    w = diag_unitary([th] * 50 + [-th] * 50)
    rep = winding_number_det_segment(w)
    assert rep.defect_data["route"] == "steps"
    assert rep.is_integer and rep.rounded == kappa(w).rounded == 0


@pytest.mark.parametrize("n", [2, 8, 32])
def test_step_bound_holds_on_a_fine_scan(n):
    # over tau in [0, h], h the certified step of M, |arg det(1 + tau M)|
    # stays within tau |Im Tr M| + (tau ||M||_F)^2 / (2 (1 - tau ||M||_F)),
    # which reaches STEP_PHASE at h.  Every eigenvalue of tau M lies inside
    # the unit disc, so the continuous phase is the sum of the principal
    # args of the factors 1 + tau lambda (np.linalg.eigvals is the test-side
    # oracle)
    rng = np.random.default_rng(400 + n)
    for scale in (0.1, 1.0, 30.0):
        for shift in (0.0, 1.0, -4.0):
            m = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            m += 1j * shift * scale * np.eye(n)
            h = _step_length(m)
            a, f = abs(np.trace(m).imag), np.linalg.norm(m)
            assert h * f < 1
            tau = np.linspace(0.0, h, 4097)
            bound = tau * a + (tau * f) ** 2 / (2 * (1 - tau * f))
            assert abs(bound[-1] - STEP_PHASE) <= 1e-12
            lam = np.linalg.eigvals(m)
            phase = np.angle(1 + tau[:, None] * lam).sum(axis=1)
            assert np.all(np.abs(phase) <= bound + 1e-12), (scale, shift)


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
        # the grid: ceil(2 L/pi) intervals, each interior point evaluated
        # once
        assert data["route"] == "grid"
        assert data["det_evaluations"] == np.ceil(2 * data["phase_rate_bound"] / np.pi) - 1
        assert rep.rounded == round(phase[-1] / (2 * np.pi)) == -1


def test_winding_refusal_carries_the_step():
    # w = -1: det p(t) = (1 - 2t)^2, and the steps shorten geometrically
    # towards t = 1/2 until one is at or below path_floor
    with pytest.raises(PathSingular) as err:
        winding_number_det_segment(Unitary.of(-np.eye(2)))
    details = err.value.details
    assert set(details) == {"t", "step", "path_floor"}
    assert details["step"] <= DEFAULTS.path_floor == details["path_floor"]
    assert abs(details["t"] - 0.5) < 1e-11
    # path_floor is a floor on the step: at the shortest step the loop is
    # refused there, below it accepted
    w = haar_det1_unitary(64, np.random.default_rng(0))
    least = winding_number_det_segment(w).defect_data["min_step"]
    with pytest.raises(PathSingular) as err:
        winding_number_det_segment(w, tolerances=dataclasses.replace(DEFAULTS, path_floor=least))
    assert err.value.details["step"] == err.value.details["path_floor"] == least
    below = dataclasses.replace(DEFAULTS, path_floor=0.5 * least)
    assert winding_number_det_segment(w, tolerances=below).rounded == kappa(w).rounded
    # and a floor on the grid's s: diag(e^{i}, e^{-i}) has s = 1 - |e^{i} - 1|
    # = 0.041 on the grid; with that floor it takes steps, which are longer
    w = diag_unitary([1.0, -1.0])
    grid = winding_number_det_segment(w).defect_data
    floor = dataclasses.replace(DEFAULTS, path_floor=grid["sigma_min_bound"])
    steps = winding_number_det_segment(w, tolerances=floor)
    assert grid["route"] == "grid" and steps.defect_data["route"] == "steps"
    assert steps.rounded == 0
    # w = 1: the path is constant, so above every s the one step is unbounded
    huge = dataclasses.replace(DEFAULTS, path_floor=1e300)
    rep = winding_number_det_segment(Unitary.of(np.eye(3)), tolerances=huge)
    assert rep.defect_data["route"] == "steps" and rep.defect_data["det_evaluations"] == 1
    assert rep.rounded == 0


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


@pytest.mark.parametrize("phases, winding", [
    ([2.0, -2.0], 0),
    ([2.0, 2.0, -2.0, -2.0], 0),
    ([1.5, 1.5, 1.5, -4.5], 1),
])
def test_loops_weyl_cannot_certify_take_the_step_route(phases, winding):
    # ||w - 1|| > 1, so Weyl's s is negative and certifies no grid; the step
    # route reports its step count and shortest step, and no s or L
    w = diag_unitary(phases)
    assert op_norm(w.m - np.eye(len(phases))) > 1
    rep = winding_number_det_segment(w)
    data = rep.defect_data
    assert set(data) == {"det_deviation", "route", "det_evaluations", "min_step"}
    assert data["route"] == "steps"
    assert rep.rounded == kappa(w).rounded == winding


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
    # n = 32 keeps the base defect 2 sin(pi/32) = 0.196 under the 0.2 budget;
    # an unmoved tuple has a flat homotopy: L = 0 and the bound is f(0)
    u, v = voiculescu_pair(32)
    rep = kazhdan_stability(1, [(u, v)], [(u, v)])
    assert rep.equal and rep.homotopy_ok
    assert rep.max_generator_distance == 0.0
    assert rep.kappa_start.rounded == rep.kappa_end.rounded == -1
    assert rep.relator_defect == rep.relator_defect_alt
    assert rep.lipschitz == 0.0 and rep.homotopy_bound == rep.relator_defect
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
    # both generators moved by 0.15: L = 2 * 4 arcsin(0.15 / 2)
    assert abs(rep.lipschitz - 8.0 * np.arcsin(0.075)) < 1e-11
    assert rep.homotopy_bound == (rep.relator_defect + rep.relator_defect_alt
                                  + rep.lipschitz) / 2.0 < 1.0


def test_stability_homotopy_matches_scipy_oracle(monkeypatch):
    # scipy's logm/expm recompute the path: its eigenphase Lipschitz constant
    # 2 (||theta_u|| + ||theta_v||) is the reported one, and no sample of the
    # path exceeds the bound
    u, v = voiculescu_pair(32)
    rng = np.random.default_rng(7)
    u2 = perturbed_copy(u, 0.19, rng)
    v2 = perturbed_copy(v, 0.19, rng)
    calls = spy(monkeypatch, herm_eig)
    rep = kazhdan_stability(1, [(u, v)], [(u2, v2)])
    assert calls == []
    lu = scipy.linalg.logm(u.m.conj().T @ u2.m)
    lv = scipy.linalg.logm(v.m.conj().T @ v2.m)
    phases = [np.abs(np.linalg.eigvals(x).imag).max() for x in (lu, lv)]
    assert abs(rep.lipschitz - 2.0 * sum(phases)) < 1e-12
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 65):
        ut = u.m @ scipy.linalg.expm(t * lu)
        vt = v.m @ scipy.linalg.expm(t * lv)
        w = ut @ vt @ ut.conj().T @ vt.conj().T
        worst = max(worst, np.linalg.norm(w - np.eye(32), 2))
    assert rep.relator_defect <= worst <= rep.homotopy_bound < 1.0


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


def _perturbed_tuple(n, g, radius, seed):
    u, v = voiculescu_pair(n)
    eye = Unitary(np.eye(n, dtype=np.complex128))
    pairs = [(u, v)] + [(eye, eye)] * (g - 1)
    gen = np.random.default_rng(seed)
    return pairs, [(perturbed_copy(a, radius, gen), perturbed_copy(b, radius, gen))
                   for a, b in pairs]


def _conjugated_pair(n=32, scale=0.05):
    # (x u x*, x v x*) with x = exp(K), ||K|| = scale: both ends of the
    # homotopy are conjugates of [u, v], and ||w(t) - 1|| peaks at t = 1/2
    u, v = voiculescu_pair(n)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (a - a.conj().T) / 2
    x = exp_skew(k * (scale / op_norm(k)))
    return [(u, v)], [(x @ u @ x.adjoint(), x @ v @ x.adjoint())]


def _homotopy_scan(pairs, pairs_alt, points=4097, chunk=128):
    # f(t) = ||w(t) - 1|| at `points` uniform t, the arcs u exp(t log(u* u'))
    # taken from scipy's complex Schur form of the unitary u* u' (diagonal up
    # to rounding, with a unitary basis), a chunk of t at a time
    n = pairs[0][0].dim
    arcs = []
    for (u, v), (u2, v2) in zip(pairs, pairs_alt):
        for a, b in ((u, u2), (v, v2)):
            tri, q = scipy.linalg.schur(a.m.conj().T @ b.m, output="complex")
            arcs.append((a.m @ q, np.angle(np.diag(tri)), q.conj().T))
    ts = np.linspace(0.0, 1.0, points)
    values = []
    for start in range(0, points, chunk):
        t = ts[start:start + chunk, None, None]
        moved = [(left * np.exp(1j * t * theta[None, None, :])) @ right
                 for left, theta, right in arcs]
        w = np.broadcast_to(np.eye(n, dtype=complex), moved[0].shape)
        for x, y in zip(moved[::2], moved[1::2]):
            w = w @ x @ y @ np.conj(np.swapaxes(x, 1, 2)) @ np.conj(np.swapaxes(y, 1, 2))
        d = w - np.eye(n)
        gram = np.conj(np.swapaxes(d, 1, 2)) @ d
        values.append(np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0)))
    return ts, np.concatenate(values)


def _assert_bound_covers_scan(rep, ts, values):
    # every sampled f(t) lies below the bound, f is L-Lipschitz between
    # neighbours, and the ends are the two measured relator defects
    assert values.max() <= rep.homotopy_bound < 1.0
    assert rep.homotopy_ok and rep.equal
    assert np.all(np.abs(np.diff(values)) <= rep.lipschitz * np.diff(ts) + 1e-10)
    assert abs(values[0] - rep.relator_defect) < 1e-10
    assert abs(values[-1] - rep.relator_defect_alt) < 1e-10


@pytest.mark.parametrize("n, g, radius, seeds", [
    (32, 1, 0.19, 3), (48, 1, 0.19, 1), (64, 2, 0.05, 1),
], ids=["32-1-0.19", "48-1-0.19", "64-2-0.05"])
def test_stability_bound_covers_a_fine_scan(n, g, radius, seeds):
    for seed in range(seeds):
        pairs, pairs_alt = _perturbed_tuple(n, g, radius, seed)
        rep = kazhdan_stability(g, pairs, pairs_alt)
        ts, values = _homotopy_scan(pairs, pairs_alt)
        _assert_bound_covers_scan(rep, ts, values)
        # the Lipschitz constant is not vacuous: f moves by a visible part of L
        assert np.ptp(values) > 0.01 * rep.lipschitz > 0.0, seed


def test_stability_bound_covers_an_interior_maximum():
    pairs, pairs_alt = _conjugated_pair()
    rep = kazhdan_stability(1, pairs, pairs_alt)
    ts, values = _homotopy_scan(pairs, pairs_alt)
    assert 0 < int(np.argmax(values)) < len(values) - 1
    assert values.max() > max(values[0], values[-1])
    _assert_bound_covers_scan(rep, ts, values)


@pytest.mark.parametrize("n, g, radius", [(32, 1, 0.19), (64, 2, 0.05)], ids=["g1", "g2"])
def test_stability_samples_no_homotopy(monkeypatch, n, g, radius):
    # kappa's eigensolves of w0 and w1 are the only ones; op_norm runs for
    # the 2g generator distances and the two relator defects, nothing else
    pairs, pairs_alt = _perturbed_tuple(n, g, radius, 0)
    eigs = spy(monkeypatch, unitary_eig)
    norms = spy(monkeypatch, op_norm)
    rep = kazhdan_stability(g, pairs, pairs_alt)
    assert len(eigs) == 2 and len(norms) == 2 * g + 2
    assert eigs[0][0].distance_from_one == rep.relator_defect
    assert eigs[1][0] is rep.product_alt


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
                        "lipschitz", "homotopy_bound", "homotopy_ok",
                        "kappa_start", "kappa_end", "equal"}
    assert obj["kappa_start"]["rounded"] == -1
