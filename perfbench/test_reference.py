"""The benchmark's checks accept qrep's right answers and reject wrong ones.

    python3 -m pytest perfbench -q

Each check is first run on real qrep outputs at small dimensions, where it
must pass, and then on the same outputs with one thing wrong: a sign, a
defect off by 1e-6, a matrix entry off by one ulp, a repeated
``--deterministic`` output that differs.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import qrep
import reference
import run
import tracing
import worker
import workloads

N = 32


class SmallExel(workloads.ExelLoringLarge):
    n = N


class SmallCli(workloads.CliFiles):
    n = N


@pytest.fixture(scope="module")
def exel():
    wl = SmallExel(3, "")
    return wl, wl.case(1)


def _exel_check(wl, qr, report):
    return reference.check_exel_loring(report, qr.images["a"].m, qr.images["b"].m,
                                       wl.u0, wl.v0, wl.radius)


def test_exel_loring_accepts_qrep(exel):
    wl, out = exel
    assert wl.check(1, out) == []


@pytest.mark.parametrize("change", [
    lambda r: dataclasses.replace(r, rhs_kappa=dataclasses.replace(
        r.rhs_kappa, value=-r.rhs_kappa.value, rounded=-r.rhs_kappa.rounded)),
    lambda r: dataclasses.replace(r, rhs_kappa=dataclasses.replace(
        r.rhs_kappa, value=r.rhs_kappa.value + 2e-6)),
    lambda r: dataclasses.replace(r, lhs_k=-1),
    lambda r: dataclasses.replace(r, rhs_wn=dataclasses.replace(r.rhs_wn, rounded=0)),
    lambda r: dataclasses.replace(r, rhs_kappa_tau=dataclasses.replace(
        r.rhs_kappa_tau, value=r.rhs_kappa_tau.value * (1 + 1e-6))),
    lambda r: dataclasses.replace(r, defects={**r.defects, "e_defect": 0.125}),
], ids=["kappa-sign", "kappa-off-2e-6", "k-sign", "winding", "kappa-tau", "e-defect"])
def test_exel_loring_rejects(exel, change):
    wl, (qr, report) = exel
    assert _exel_check(wl, qr, change(report))


def test_exel_loring_rejects_wrong_radius(exel):
    wl, (qr, report) = exel
    assert reference.check_exel_loring(report, qr.images["a"].m, qr.images["b"].m,
                                       wl.u0, wl.v0, wl.radius + 1e-6)


@pytest.fixture(scope="module")
def stability():
    wl = workloads.StabilitySweep(5, "")
    return wl, wl.case(1)


def test_stability_accepts_qrep(stability):
    wl, out = stability
    assert wl.check(1, out) == []


@pytest.mark.parametrize("change", [
    lambda a, b, r, wn, k, md: (a, b, dataclasses.replace(
        r, relator_defect_alt=r.relator_defect_alt + 1e-6), wn, k, md),
    lambda a, b, r, wn, k, md: (a, b, r, wn, k, dataclasses.replace(
        md, epsilon=md.epsilon + 1e-6)),
    lambda a, b, r, wn, k, md: (a, b, r, wn, dataclasses.replace(k, rounded=-1), md),
    lambda a, b, r, wn, k, md: (a, b, r, dataclasses.replace(wn, rounded=1), k, md),
    lambda a, b, r, wn, k, md: (a, b, dataclasses.replace(r, homotopy_ok=False), wn, k, md),
    lambda a, b, r, wn, k, md: (a, b, dataclasses.replace(r, equal=False), wn, k, md),
    lambda a, b, r, wn, k, md: (a, b, dataclasses.replace(r, kappa_end=dataclasses.replace(
        r.kappa_end, value=-r.kappa_end.value, rounded=1)), wn, k, md),
], ids=["relator-defect-1e-6", "mult-defect-1e-6", "k-sign", "winding-sign",
        "homotopy", "equal", "kappa-sign"])
def test_stability_rejects(stability, change):
    wl, out = stability
    assert wl.check(1, change(*out))


@pytest.fixture()
def cli_case(tmp_path):
    wl = SmallCli(7, str(tmp_path))
    codes = wl.case(1)
    spec = qrep.PerturbationSpec(wl.radius, workloads.case_seed(7, 1))
    held = qrep.perturb(qrep.voiculescu_qrep(N), spec)
    return wl, codes, (held.images["a"].m, held.images["b"].m)


def _check_cli(wl, codes, in_memory):
    with open(wl.files["pert"], "rb") as fh:
        first = fh.read()
    return reference.check_cli_files(codes, wl.files, N, in_memory, first)


def _edit(path, edit):
    with open(path) as fh:
        obj = json.load(fh)
    edit(obj["result"])
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _one_ulp(obj, image, part, index):
    x = obj["images"][image][part][index]
    obj["images"][image][part][index] = float(np.nextafter(x, np.inf))


def test_cli_files_accepts_qrep(cli_case):
    wl, codes, _ = cli_case
    assert wl.check(1, codes) == []


def test_cli_files_rejects_nonzero_exit(cli_case):
    wl, codes, in_memory = cli_case
    assert _check_cli(wl, {**codes, "invariant k": 2}, in_memory)


def test_cli_files_rejects_one_ulp_in_written_pair(cli_case):
    wl, codes, in_memory = cli_case
    assert _check_cli(wl, codes, in_memory) == []
    _edit(wl.files["pair"], lambda r: _one_ulp(r, "b", "re", 0))
    assert _check_cli(wl, codes, in_memory)


def test_cli_files_rejects_one_ulp_in_perturbed_pair(cli_case):
    wl, codes, in_memory = cli_case
    _edit(wl.files["pert"], lambda r: _one_ulp(r, "a", "im", N + 3))
    assert _check_cli(wl, codes, in_memory)


def test_cli_files_rejects_non_identical_repeat(cli_case):
    wl, codes, in_memory = cli_case
    with open(wl.files["pert"], "rb") as fh:
        first = fh.read()
    assert reference.check_cli_files(codes, wl.files, N, in_memory, first + b" ")


@pytest.mark.parametrize("key,edit", [
    ("kappa", lambda r: r.update(value=-r["value"], rounded=-r["rounded"])),
    ("winding", lambda r: r.update(rounded=1)),
    ("k", lambda r: r.update(rounded=-1)),
    ("defect", lambda r: r.update(relator_defect=r["relator_defect"] + 1e-6)),
    ("defect", lambda r: r["mult_defect"].update(epsilon=r["mult_defect"]["epsilon"] + 1e-6)),
    ("defect", lambda r: r["mult_defect"].update(
        inverse_defect=r["mult_defect"]["inverse_defect"] + 1e-6)),
], ids=["kappa-sign", "winding-sign", "k-sign", "relator-defect", "mult-defect",
        "inverse-defect"])
def test_cli_files_rejects_wrong_result(cli_case, key, edit):
    wl, codes, in_memory = cli_case
    _edit(wl.files[key], edit)
    assert _check_cli(wl, codes, in_memory)


def test_references_on_closed_forms():
    u, v = reference.shift_phase(7)
    assert reference.kappa_ref(reference.commutator(u, v)) == pytest.approx(-1, abs=1e-12)
    assert reference.kappa_ref(reference.commutator(v, u)) == pytest.approx(1, abs=1e-12)
    # ||u v - v u|| = |1 - z| for the shift/phase pair
    eps, inv = reference.mult_defect_ref(u, v, reference.CLI_ELEMENTS)
    assert eps == pytest.approx(abs(1 - np.exp(2j * np.pi / 7)), abs=1e-12)
    assert inv == pytest.approx(abs(1 - np.exp(2j * np.pi / 7)), abs=1e-12)


def test_tracer_records_nested_spans_and_restores():
    u, v = qrep.voiculescu_pair(8)
    w = qrep.Unitary.of(reference.commutator(u.m, v.m))
    originals = (qrep.invariants.op_norm, qrep.matcore.Unitary.__dict__["of"],
                 np.linalg.eigh)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        qrep.kappa(w)
    finally:
        tracer.uninstall()
    assert (qrep.invariants.op_norm, qrep.matcore.Unitary.__dict__["of"],
            np.linalg.eigh) == originals
    assert tracer.spans[0][:2] == ["invariants.kappa", -1]
    tot = tracer.totals()
    assert tot["calls"]["matcore.unitary_eig"] == 1
    assert tot["calls"]["matcore.op_norm"] == 1
    assert tot["calls"]["linalg.det"] == 1
    assert tot["linalg.det_n3"] == 8 ** 3
    kappa_span = tracer.spans[0]
    assert 0 <= tot["self_s"]["invariants.kappa"] <= kappa_span[3] - kappa_span[2]


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    end_to_end = {n: u for n, (_, u) in worker._end_to_end([1.0, 2.0]).items()}
    end_to_end["setup_s"] = "s"
    per_layer = {n: u for n, (_, u) in worker._per_layer(
        tracing.Tracer(), 1, [65.0], {True: [1.0], False: [1.0]}).items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == end_to_end
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
