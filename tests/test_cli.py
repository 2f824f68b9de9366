"""Command-line front end: envelopes, determinism, sweeps, exit codes.

Commands run in-process through qrep.cli.main; one subprocess test checks
the installed console script where ``qrep`` is on PATH, and another
resolves the ``[project.scripts]`` entry point from pyproject.toml without
an install. JSON outputs are parsed and compared as data; determinism is
asserted byte-for-byte.
"""

import csv
import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import spy
from qrep import (DEFAULTS, InputError, Presentation, QuasiRep, Unitary, Z2NormalForm,
                  kazhdan_stability, matrix_to_json, perturbed_copy, pullback, qrep_to_json,
                  verify_index_formula, voiculescu_pair, voiculescu_qrep)
from qrep.cli import CSV_COLUMNS, _json_chunks, main
from qrep.matcore import commutator_product


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture()
def pair_file(tmp_path, capsys):
    path = tmp_path / "pair.json"
    code = main(["gen", "voiculescu", "--n", "8", "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


@pytest.fixture()
def matrix_file(tmp_path):
    # commutator of the n = 8 pair as a plain matrix
    u, v = voiculescu_pair(8)
    w = u.m @ v.m @ u.m.conj().T @ v.m.conj().T
    path = tmp_path / "w.json"
    path.write_text(json.dumps(matrix_to_json(w)))
    return str(path)


# -- envelopes and determinism ----------------------------------------------------

def test_gen_voiculescu_envelope(capsys):
    obj = run_json(capsys, "gen", "voiculescu", "--n", "6", "--deterministic")
    assert obj["command"] == "gen voiculescu"
    assert obj["config"]["n"] == 6
    assert "timestamp" not in obj
    assert obj["tolerances"]["branch_margin"] == 1e-6
    res = obj["result"]
    assert res["presentation"]["kind"] == "Z2"
    assert set(res["images"]) == {"a", "b"}
    assert res["images"]["a"]["dim"] == 6


def test_timestamp_unless_deterministic(capsys):
    obj = run_json(capsys, "gen", "voiculescu", "--n", "3")
    assert "timestamp" in obj


def test_deterministic_runs_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "a.json"
    snapshots = []
    for _ in range(2):
        code = main(["gen", "perturbed", "--n", "6", "--radius", "0.1",
                     "--seed", "7", "--deterministic", "-o", str(path)])
        capsys.readouterr()
        assert code == 0
        snapshots.append(path.read_bytes())
    assert snapshots[0] == snapshots[1]


@pytest.mark.skipif(shutil.which("qrep") is None,
                    reason="no qrep console script on PATH; install it with "
                           "`pip install -e .`")
def test_console_script_installed():
    out = subprocess.run(["qrep", "invariant", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "kappa" in out.stdout


def test_console_script_entry_point_resolves(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["qrep"] == "qrep.cli:main"
    module, _, attr = scripts["qrep"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exc:
        entry(["invariant", "--help"])
    assert exc.value.code == 0
    assert "kappa" in capsys.readouterr().out


# -- gen -----------------------------------------------------------------------------

def test_gen_perturbed_targets_and_radius(capsys, pair_file):
    obj = run_json(capsys, "gen", "perturbed", "-i", pair_file,
                   "--radius", "0.15", "--targets", "a", "--seed", "3",
                   "--deterministic")
    moved = np.asarray(obj["result"]["images"]["a"]["re"])
    base = json.loads(open(pair_file).read())["result"]["images"]["a"]["re"]
    assert not np.array_equal(moved, np.asarray(base))
    same = obj["result"]["images"]["b"]
    assert same == json.loads(open(pair_file).read())["result"]["images"]["b"]


def test_gen_pullback_and_direct_sum(tmp_path, capsys, pair_file):
    pb = tmp_path / "pb.json"
    code = main(["gen", "pullback", "-i", pair_file,
                 "--images", "s1=a,t1=b,s2=,t2=", "-o", str(pb),
                 "--deterministic"])
    capsys.readouterr()
    assert code == 0
    obj = json.loads(pb.read_text())
    assert obj["result"]["presentation"]["kind"] == "surface"
    assert obj["result"]["presentation"]["genus"] == 2

    obj2 = run_json(capsys, "gen", "direct-sum", "-i", pair_file, "-i",
                    pair_file, "--deterministic")
    assert obj2["result"]["images"]["a"]["dim"] == 16


def test_gen_pullback_bad_image_spec(capsys, pair_file):
    code, _ = run_cli(capsys, "gen", "pullback", "-i", pair_file,
                      "--images", "s1")
    assert code == 3


def test_gen_pullback_refuses_a_generator_given_twice(tmp_path, capsys, pair_file):
    out_json = tmp_path / "pb.json"
    code = main(["gen", "pullback", "-i", pair_file, "--images", "s1=a,s1=b^2,t1=b",
                 "-o", str(out_json)])
    assert code == 3
    err = capsys.readouterr().err
    assert "InputError" in err and "'s1'" in err
    assert not out_json.exists()


@pytest.mark.parametrize("targets", [",", "", " , "])
def test_gen_perturbed_refuses_targets_naming_no_generator(tmp_path, capsys, pair_file,
                                                           targets):
    out_json = tmp_path / "pe.json"
    code = main(["gen", "perturbed", "-i", pair_file, "--radius", "0.1",
                 "--targets", targets, "-o", str(out_json)])
    assert code == 3
    assert "InputError" in capsys.readouterr().err
    assert not out_json.exists()


# -- invariants ------------------------------------------------------------------------

def test_invariant_kappa_word_on_qrep(capsys, pair_file):
    obj = run_json(capsys, "invariant", "kappa", "--word", "[a,b]",
                   "-i", pair_file, "--deterministic")
    res = obj["result"]
    assert res["rounded"] == -1
    assert abs(res["value"] + 1.0) < 1e-9
    assert res["is_integer"] is True


def test_invariant_kappa_normalized_trace(capsys, pair_file):
    obj = run_json(capsys, "invariant", "kappa", "--word", "[a,b]",
                   "-i", pair_file, "--trace", "normalized", "--deterministic")
    assert obj["result"]["name"] == "kappa_tau"
    assert abs(obj["result"]["value"] + 1.0 / 8.0) < 1e-9


def test_invariant_winding_matrix_input(capsys, matrix_file):
    obj = run_json(capsys, "invariant", "winding", "-i", matrix_file,
                   "--deterministic")
    assert obj["result"]["rounded"] == -1


def test_invariant_k_needs_qrep(tmp_path, capsys, pair_file, matrix_file):
    big = tmp_path / "pair16.json"
    code = main(["gen", "voiculescu", "--n", "16", "-o", str(big)])
    capsys.readouterr()
    assert code == 0
    obj = run_json(capsys, "invariant", "k", "-i", str(big), "--deterministic")
    assert obj["result"]["rounded"] == 1
    # the n = 8 pair sits above the defect gate: hypothesis error, exit 1
    code, _ = run_cli(capsys, "invariant", "k", "-i", pair_file)
    assert code == 1
    code, _ = run_cli(capsys, "invariant", "k", "-i", matrix_file)
    assert code == 3
    code, _ = run_cli(capsys, "invariant", "k", "-i", str(big),
                      "--word", "[a,b]")
    assert code == 3


def test_invariant_word_flag_usage_errors(capsys, pair_file, matrix_file):
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", pair_file)
    assert code == 3  # qrep input needs --word
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", matrix_file,
                      "--word", "[a,b]")
    assert code == 3  # matrix input forbids --word


# -- defect -------------------------------------------------------------------------

def test_defect_default_set(capsys, pair_file):
    obj = run_json(capsys, "defect", "-i", pair_file, "--deterministic")
    res = obj["result"]
    assert abs(res["relator_defect"] - 2 * np.sin(np.pi / 8)) < 1e-9
    assert res["mult_defect"]["set_size"] == 4
    assert abs(res["mult_defect"]["epsilon"] - 2 * np.sin(np.pi / 8)) < 1e-9


def test_defect_custom_set(capsys, pair_file):
    obj = run_json(capsys, "defect", "-i", pair_file,
                   "--set", "a,b,[a,b],a b^-1", "--deterministic")
    assert obj["result"]["mult_defect"]["set_size"] == 4


# -- verify --------------------------------------------------------------------------

def test_verify_exel_loring_single(capsys):
    obj = run_json(capsys, "verify", "exel-loring", "--n", "16",
                   "--deterministic")
    res = obj["result"]
    assert res["equal"] is True
    assert res["lhs_k"] == res["rhs_wn"] == res["rhs_kappa"] == 1
    assert res["orientation"] == "+1"
    assert res["trace_close"] is True


def _gen_pullback(tmp_path, capsys, n, images, name="pb.json") -> str:
    pair, pb = tmp_path / f"pair{n}.json", tmp_path / name
    assert main(["gen", "voiculescu", "--n", str(n), "-o", str(pair)]) == 0
    assert main(["gen", "pullback", "-i", str(pair), "--images", images,
                 "-o", str(pb)]) == 0
    capsys.readouterr()
    return str(pb)


def test_verify_exel_loring_reads_a_pullback(tmp_path, capsys):
    # gen pullback's output verifies as the library verifies the pullback
    pb = _gen_pullback(tmp_path, capsys, 32, "s1=a,t1=b^2")
    obj = run_json(capsys, "verify", "exel-loring", "-i", pb, "--deterministic")
    expected = verify_index_formula(pullback(voiculescu_qrep(32), {"s1": "a", "t1": "b^2"}))
    assert obj["result"] == json.loads("".join(_json_chunks(expected.to_json())))
    res = obj["result"]
    assert res["case"] == "surface-pullback-g1" and res["datum_class"] == 2
    assert res["rhs_wn"] == res["rhs_kappa"] == 2 and res["lhs_k"] == 1
    assert res["equal"] is True and res["trace_close"] is True


def test_verify_exel_loring_direct_sum_of_pullbacks(tmp_path, capsys):
    # the base pairs are summed too, so k of the sum is 1 + 1
    pb = _gen_pullback(tmp_path, capsys, 32, "s1=a,t1=b,s2=,t2=")
    both = tmp_path / "sum.json"
    assert main(["gen", "direct-sum", "-i", pb, "-i", pb, "-o", str(both)]) == 0
    res = run_json(capsys, "verify", "exel-loring", "-i", str(both))["result"]
    assert res["case"] == "surface-pullback-g2"
    assert res["lhs_k"] == res["rhs_wn"] == res["rhs_kappa"] == 2
    assert res["equal"] is True and res["trace_close"] is True


def test_verify_exel_loring_refuses_a_three_generator_base(tmp_path, capsys):
    pb = _gen_pullback(tmp_path, capsys, 8, "s1=a,t1=b")
    obj = json.loads(Path(pb).read_text())
    strategy = obj["result"]["strategy"]
    strategy["base_generators"].append("c")
    strategy["base_images"]["c"] = strategy["base_images"]["a"]
    Path(pb).write_text(json.dumps(obj))
    code = main(["verify", "exel-loring", "-i", pb])
    assert code == 1
    assert "PresentationMismatch" in capsys.readouterr().err


def test_pullback_base_images_must_match_base_generators(tmp_path, capsys):
    # a base generator without an image is refused when the file is read
    pb = _gen_pullback(tmp_path, capsys, 8, "s1=a,t1=b")
    obj = json.loads(Path(pb).read_text())
    del obj["result"]["strategy"]["base_images"]["b"]
    Path(pb).write_text(json.dumps(obj))
    code = main(["verify", "exel-loring", "-i", pb])
    assert code == 3
    assert "FormatError" in capsys.readouterr().err


def test_verify_exel_loring_sweep_csv(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    obj = run_json(capsys, "verify", "exel-loring", "--n-range", "16:64:16",
                   "--csv", str(out_csv), "--deterministic")
    rows = obj["result"]["rows"]
    assert [r["n"] for r in rows] == [16, 32, 48, 64]
    assert all(r["status"] == "ok" for r in rows)
    with open(out_csv) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_COLUMNS
        file_rows = list(reader)
    assert len(file_rows) == 4
    assert file_rows[0]["k"] == "1" and file_rows[0]["status"] == "ok"


def test_verify_exel_loring_sweep_reports_failures(tmp_path, capsys):
    # n = 4 fails the defect gate; the row must survive with its error named
    obj = run_json(capsys, "verify", "exel-loring", "--n-range", "4:8:4",
                   "--deterministic")
    rows = obj["result"]["rows"]
    assert rows[0]["status"] == "DefectTooLarge"
    assert rows[1]["status"] == "DefectTooLarge"  # n = 8 defect 0.24 > 1/8


def test_verify_exel_loring_bad_range(capsys):
    code, _ = run_cli(capsys, "verify", "exel-loring", "--n-range", "64:16:8")
    assert code == 3
    code, _ = run_cli(capsys, "verify", "exel-loring", "--n-range", "x:y:z")
    assert code == 3


def test_verify_remark25(capsys):
    obj = run_json(capsys, "verify", "remark25", "--n", "16",
                   "--deterministic")
    res = obj["result"]
    assert set(res["reports"]) == {"plain", "conjugated", "padded"}
    assert res["all_equal"] is True
    assert set(res["kappa_values"].values()) == {1}


# -- stability -----------------------------------------------------------------------

def test_stability_csv_and_all_ok(tmp_path, capsys):
    out_csv = tmp_path / "stab.csv"
    obj = run_json(capsys, "stability", "--g", "1", "--n", "32",
                   "--radius", "0.19", "--seeds", "3", "--csv", str(out_csv),
                   "--deterministic")
    res = obj["result"]
    assert res["all_ok"] is True
    assert len(res["rows"]) == 3
    assert [e["equal"] for e in res["reports"]] == [True] * 3
    for row in res["rows"]:
        assert row["kappa"] == -1
        assert row["k"] == 1
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["0", "1", "2"]
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["kappa"] == "-1" for r in rows)


def test_stability_hypothesis_violation_recorded_not_fatal(capsys):
    obj = run_json(capsys, "stability", "--g", "1", "--n", "32",
                   "--radius", "0.3", "--seeds", "1", "--deterministic")
    res = obj["result"]
    assert res["all_ok"] is False
    assert res["rows"][0]["status"] == "HypothesisViolated"


def test_stability_genus_two_padding(capsys):
    # g = 2 tightens the budget to 1/10; the n = 64 base defect
    # 2 sin(pi/64) = 0.098 just fits, and the identity padding pair
    # contributes nothing to the commutator product
    obj = run_json(capsys, "stability", "--g", "2", "--n", "64",
                   "--radius", "0.09", "--seeds", "1", "--deterministic")
    res = obj["result"]
    assert res["all_ok"] is True
    assert res["rows"][0]["kappa"] == -1


# -- homotopy gap ----------------------------------------------------------------------

def test_homotopy_gap_matrix(capsys, matrix_file):
    obj = run_json(capsys, "homotopy-gap", "-i", matrix_file,
                   "--deterministic")
    got = obj["result"]["homotopy_gap"]
    assert abs(got - (1 - np.cos(np.pi / 8))) < 1e-9


def test_homotopy_gap_rejects_qrep(capsys, pair_file):
    code, _ = run_cli(capsys, "homotopy-gap", "-i", pair_file)
    assert code == 3


# -- tolerances: env vars and flags ------------------------------------------------------

def test_tol_flag_changes_behavior(capsys, matrix_file):
    # the n = 8 commutator spectrum sits 2 sin(pi/8) - ish from -1;
    # an absurdly wide branch margin must turn kappa into a branch-cut error
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", matrix_file,
                      "--tol-branch-margin", "1.9")
    assert code == 2


def test_tol_env_override(capsys, matrix_file, monkeypatch):
    monkeypatch.setenv("QREP_TOL_BRANCH_MARGIN", "1.9")
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", matrix_file)
    assert code == 2
    # flags beat the environment
    monkeypatch.setenv("QREP_TOL_BRANCH_MARGIN", "1.9")
    obj = run_json(capsys, "invariant", "kappa", "-i", matrix_file,
                   "--tol-branch-margin", "1e-6", "--deterministic")
    assert obj["result"]["rounded"] == -1
    assert obj["tolerances"]["branch_margin"] == 1e-6


def test_tol_env_unknown_name_rejected(capsys, matrix_file, monkeypatch):
    monkeypatch.setenv("QREP_TOL_NO_SUCH_FIELD", "1.0")
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", matrix_file)
    assert code == 3


def test_tol_env_value_not_a_number_names_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QREP_TOL_UNITARITY", "abc")
    out_json = tmp_path / "pair.json"
    code = main(["gen", "voiculescu", "--n", "4", "-o", str(out_json)])
    assert code == 3
    err = capsys.readouterr().err
    assert "InputError" in err and "QREP_TOL_UNITARITY" in err and "'abc'" in err
    assert not out_json.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e154, 1e160, 1e200])
def test_matrix_file_whose_gram_product_overflows_is_refused(tmp_path, capsys, scale):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(matrix_to_json(scale * np.eye(3))))
    out_json = tmp_path / "huge-k.json"
    code = main(["invariant", "kappa", "-i", str(path), "-o", str(out_json)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("qrep: NotUnitary: ") and err.count("\n") == 1
    assert not out_json.exists()


def test_lapack_failure_exits_2_and_names_itself(tmp_path, capsys, monkeypatch, matrix_file):
    # numpy's LinAlgError is a ValueError, but a numerical failure, not an
    # input error
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    out_json = tmp_path / "kappa.json"
    code = main(["invariant", "kappa", "-i", matrix_file, "-o", str(out_json)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "qrep: LinAlgError: Eigenvalues did not converge\n"
    assert not out_json.exists()


def test_tol_reported_in_envelope(capsys, matrix_file):
    obj = run_json(capsys, "invariant", "winding", "-i", matrix_file,
                   "--tol-loop-closure", "2e-6", "--deterministic")
    assert obj["tolerances"]["loop_closure"] == 2e-6
    assert obj["result"]["tolerances"]["loop_closure"] == 2e-6


# every Tolerances field moved off its default, but not far enough to turn
# an ok case into a refusal
TOL_FLAGS = {
    "unitarity": "2e-8", "branch_margin": "2e-6",
    "cluster_width": "2e-7",
    "defect_max": "0.13", "integer_residual": "2e-6",
    "det_one": "2e-8", "loop_closure": "2e-6", "path_floor": "1e-13",
}


def _nested_tolerances(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "tolerances":
                yield value
            else:
                yield from _nested_tolerances(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _nested_tolerances(value)


@pytest.mark.parametrize("command", [
    ["stability", "--g", "1", "--n", "32", "--radius", "0.19", "--seeds", "2"],
    ["verify", "exel-loring", "--n", "16"],
    ["invariant", "kappa", "--word", "[a, b]"],
    ["invariant", "winding", "--word", "[a, b]"],
    ["invariant", "k"],
], ids=["stability", "exel-loring", "kappa", "winding", "k"])
def test_tol_flags_reach_every_report(tmp_path, capsys, command):
    pair = str(tmp_path / "pair16.json")
    assert main(["gen", "voiculescu", "--n", "16", "-o", pair]) == 0
    if command[0] == "invariant":
        command = command + ["-i", pair]
    flags = [a for name, value in TOL_FLAGS.items()
             for a in (f"--tol-{name.replace('_', '-')}", value)]
    obj = run_json(capsys, *command, *flags, "--deterministic")
    envelope = obj["tolerances"]
    assert all(envelope[name] == float(value) for name, value in TOL_FLAGS.items())
    nested = list(_nested_tolerances(obj["result"]))
    assert nested
    for tolerances in nested:
        for key, value in tolerances.items():
            assert value == envelope[key], key
    if command[0] == "stability":
        assert obj["result"]["all_ok"] is True


def test_stability_honours_path_floor(capsys):
    obj = run_json(capsys, "stability", "--n", "32", "--radius", "0.19",
                   "--seeds", "2", "--tol-path-floor", "1e300", "--deterministic")
    assert [r["status"] for r in obj["result"]["rows"]] == ["PathSingular"] * 2


@pytest.mark.parametrize("flags, error", [
    # the winding column and the k column fail after kazhdan_stability passed
    (["--seeds", "2", "--tol-path-floor", "1e300"], "PathSingular"),
    (["--seeds", "2", "--tol-defect-max", "0.01"], "DefectTooLarge"),
    # kazhdan_stability itself refuses
    (["--seeds", "2", "--radius", "0.3"], "HypothesisViolated"),
])
def test_stability_failed_rows_have_one_error_entry_each(capsys, flags, error):
    obj = run_json(capsys, "stability", "--n", "32", "--radius", "0.19", *flags,
                   "--seed", "5", "--deterministic")
    rows, reports = obj["result"]["rows"], obj["result"]["reports"]
    assert [r["status"] for r in rows] == [error] * 2
    assert len(reports) == len(rows)
    for row, entry in zip(rows, reports):
        assert set(entry) == {"seed", "error", "message"}
        assert entry["seed"] == row["seed"]
        assert entry["error"] == error
    assert [r["seed"] for r in rows] == [5, 6]


def test_stability_mismatch_row_keeps_its_report(capsys, monkeypatch):
    import qrep.cli

    def unequal(*args, **kwargs):
        return dataclasses.replace(kazhdan_stability(*args, **kwargs), equal=False)
    monkeypatch.setattr(qrep.cli, "kazhdan_stability", unequal)
    obj = run_json(capsys, "stability", "--n", "32", "--radius", "0.19",
                   "--seeds", "2", "--deterministic")
    rows, reports = obj["result"]["rows"], obj["result"]["reports"]
    assert [r["status"] for r in rows] == ["mismatch"] * 2
    assert [r["kappa"] for r in rows] == [-1, -1]
    assert [e["equal"] for e in reports] == [False, False]
    assert obj["result"]["all_ok"] is False


@pytest.mark.parametrize("g, n, radius", [(1, 32, 0.19), (2, 64, 0.05)], ids=["g1", "g2"])
def test_stability_forms_the_perturbed_product_once_per_row(capsys, monkeypatch, g, n, radius):
    # the wn column winds kazhdan_stability's product_alt, whose det and
    # ||w - 1|| kappa_end already took, instead of forming it again
    import qrep.cli

    drawn, real = [], qrep.cli.perturbed_copy

    def drawing(*args, **kwargs):
        out = real(*args, **kwargs)
        drawn.append(out.m)
        return out
    monkeypatch.setattr(qrep.cli, "perturbed_copy", drawing)
    products = spy(monkeypatch, commutator_product)
    obj = run_json(capsys, "stability", "--g", str(g), "--n", str(n),
                   "--radius", str(radius), "--seeds", "2", "--deterministic")
    assert [r["status"] for r in obj["result"]["rows"]] == ["ok", "ok"]
    assert len(drawn) == 2 * 2 * g
    for row in range(2):
        alt = drawn[2 * g * row:2 * g * (row + 1)]
        formed = [args for args in products
                  if len(args[0]) == g
                  and all(m is a for m, a in zip((m for p in args[0] for m in p), alt))]
        assert len(formed) == 1, row


# -- the JSON writer ----------------------------------------------------------------

def _write(value) -> str:
    return "".join(_json_chunks(value))


def _plain(value):
    # the conversion the envelope used to apply before json.dumps
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else None
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value


def _dumps(value) -> str:
    return json.dumps(_plain(value), indent=2, sort_keys=True, allow_nan=False)


WRITER_VALUES = {
    "float-list": [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1 / 3, 2.0 ** 53, 1.0, -2.0, 1e308,
                   123456789.0, 0.1],
    "lone-float": 0.1,
    "integer-valued-floats": [3.0, -1.0, 1e22, 1e15],
    "mixed-list": [1, 2.5, True, None, "x", [0.5], {}],
    "overflowing-sum": [1e308, 1e308, -1e308],
    "empty": {"dict": {}, "list": [], "tuple": ()},
    "nested": {"b": [[1.0, 2.0], [], [[-0.0]]], "a": {"z": {"y": [{"x": 1}]}}},
    "tuple": (1.5, (2, 3.0), ["a"]),
    "non-string-keys": {2: "int", 0.5: "float", True: "bool"},
    "scalars": {"t": True, "f": False, "none": None, "int": -7, "big": 10 ** 30,
                "float": -1.25},
    "strings": {"quote": 'say "hi"', "newline": "a\nb", "unicode": "κ τ ∮ é",
                "back\\slash": "\t\x01", "ключ": "value"},
}


@pytest.mark.parametrize("value", WRITER_VALUES.values(), ids=WRITER_VALUES.keys())
def test_json_writer_matches_json_dumps(value):
    assert _write(value) == _dumps(value)


def test_json_writer_matches_json_dumps_on_reports():
    qr = voiculescu_qrep(16)
    # n = 32 keeps the base defect under the stability budget
    u, v = voiculescu_pair(32)
    rng = np.random.default_rng(5)
    alt = (perturbed_copy(u, 0.05, rng), perturbed_copy(v, 0.05, rng))
    for report in [
        qrep_to_json(qr),
        verify_index_formula(qr, tolerances=DEFAULTS).to_json(),
        kazhdan_stability(1, [(u, v)], [alt], tolerances=DEFAULTS).to_json(),
    ]:
        assert _write(report) == _dumps(report)


def test_json_writer_nulls_non_finite_and_unwraps_numpy():
    value = {"nan": float("nan"), "inf": [1.0, float("inf"), -np.inf],
             "np": [np.float64(0.1), np.float32(0.5), np.int64(-3), np.bool_(True)],
             "np_nan": np.float64("nan"), "tuple": (np.float64(2.0),)}
    expected = json.dumps({"nan": None, "inf": [1.0, None, None],
                           "np": [0.1, float(np.float32(0.5)), -3, True],
                           "np_nan": None, "tuple": [2.0]}, indent=2, sort_keys=True)
    assert _write(value) == _dumps(value) == expected


def test_cli_result_with_non_finite_value_is_null(capsys, matrix_file, monkeypatch):
    monkeypatch.setattr("qrep.cli.exel_homotopy_gap", lambda *a, **k: np.float64("inf"))
    code, out = run_cli(capsys, "homotopy-gap", "-i", matrix_file, "--deterministic")
    assert code == 0
    assert '"homotopy_gap": null' in out
    assert json.loads(out)["result"] == {"homotopy_gap": None}


@pytest.mark.parametrize("command", [
    ["gen", "voiculescu", "--n", "6"],
    ["gen", "perturbed", "-i", "{pair}", "--radius", "0.05"],
    ["gen", "pullback", "-i", "{pair}", "--images", "s1=a,t1=b,s2=,t2="],
    ["gen", "direct-sum", "-i", "{pair}", "-i", "{pair}"],
    ["invariant", "kappa", "-i", "{pair}", "--word", "[a, b]"],
    ["invariant", "winding", "-i", "{pair}", "--word", "[a, b]"],
    ["invariant", "k", "-i", "{pair}"],
    ["defect", "-i", "{pair}", "--set", "a,b,a b"],
    ["verify", "exel-loring", "--n", "16"],
    ["verify", "exel-loring", "--n-range", "8:16:8"],
    ["verify", "remark25", "--n", "16"],
    ["stability", "--n", "16", "--radius", "0.05", "--seeds", "2"],
    ["homotopy-gap", "-i", "{matrix}"],
], ids=lambda c: "-".join(w for w in c if not w.startswith(("-", "{", "[")))[:40])
def test_cli_output_is_indented_sorted_json(tmp_path, capsys, matrix_file, command):
    # every subcommand writes json.dumps(..., indent=2, sort_keys=True) text
    pair = str(tmp_path / "pair16.json")
    assert main(["gen", "voiculescu", "--n", "16", "-o", pair]) == 0
    argv = [a.format(pair=pair, matrix=matrix_file) for a in command]
    code, out = run_cli(capsys, *argv, "--deterministic")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# -- exit codes --------------------------------------------------------------------------

def test_exit_code_missing_file(capsys):
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", "/no/such/file.json")
    assert code == 3


def test_exit_code_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", str(bad))
    assert code == 3


def test_exit_code_invalid_json_in_a_file_reference(tmp_path, capsys):
    (tmp_path / "u.json").write_text('{"dim": 2, ')
    obj = qrep_to_json(voiculescu_qrep(2))
    obj["images"]["a"] = {"$file": "u.json"}
    path = tmp_path / "qr.json"
    path.write_text(json.dumps(obj))
    code = main(["defect", "-i", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert f"FormatError: invalid JSON in {tmp_path / 'u.json'}" in err


def test_exit_code_word_syntax(capsys, pair_file):
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", pair_file,
                      "--word", "a^")
    assert code == 3


def test_exit_code_hypothesis_failure(tmp_path, capsys):
    # det != 1 makes the determinant path not a loop: precondition, exit 1
    w = np.diag(np.exp(1j * np.array([0.4, 0.9, -0.3])))
    path = tmp_path / "w.json"
    path.write_text(json.dumps(matrix_to_json(w)))
    code, _ = run_cli(capsys, "invariant", "winding", "-i", str(path))
    assert code == 1


def test_exit_code_numerical_failure(tmp_path, capsys):
    # -1 is in the spectrum: branch cut, exit 2
    path = tmp_path / "w.json"
    path.write_text(json.dumps(matrix_to_json(-np.eye(2))))
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", str(path))
    assert code == 2


def test_exit_code_not_unitary_input(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([1.0, 2.0]))))
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", str(path))
    assert code == 1


@pytest.mark.parametrize("source", ["qrep", "matrix"])
def test_tol_unitarity_checks_input_files(tmp_path, capsys, pair_file, matrix_file,
                                          source):
    # a tolerance below every measured defect refuses the file's matrices
    if source == "qrep":
        pert = str(tmp_path / "pert.json")
        assert main(["gen", "perturbed", "-i", pair_file, "--radius", "0.02",
                     "-o", pert]) == 0
        args = ["-i", pert, "--word", "[a, b]"]
    else:
        args = ["-i", matrix_file]
    code = main(["invariant", "kappa", *args, "--tol-unitarity", "1e-300"])
    assert code == 1
    assert "NotUnitary" in capsys.readouterr().err


def _near_unitary_pair_file(tmp_path) -> str:
    # the n = 16 pair times diag(1 +- 2e-7): unitarity defect 4e-7, det unchanged
    u, v = voiculescu_pair(16)
    d = np.diag(1 + 2e-7 * (-1.0) ** np.arange(16))
    qr = QuasiRep(Presentation.z2(), {"a": Unitary(u.m @ d), "b": Unitary(v.m @ d)},
                  Z2NormalForm())
    path = tmp_path / "near.json"
    path.write_text(json.dumps(qrep_to_json(qr)))
    return str(path)


@pytest.mark.parametrize("command", [
    ["invariant", "kappa", "--word", "[a, b]"],
    ["invariant", "winding", "--word", "[a, b]"],
    ["defect"],
    ["verify", "exel-loring"],
], ids=["kappa", "winding", "defect", "exel-loring"])
def test_tol_unitarity_is_the_only_unitarity_policy(tmp_path, capsys, command):
    # the file check refuses the pair at the default 1e-8; once it passes
    # --tol-unitarity, nothing inside the pipeline refuses it again
    path = _near_unitary_pair_file(tmp_path)
    assert main([*command, "-i", path]) == 1
    assert "NotUnitary" in capsys.readouterr().err
    obj = run_json(capsys, *command, "-i", path, "--tol-unitarity", "1e-6",
                   "--deterministic")
    assert obj["tolerances"]["unitarity"] == 1e-6


@pytest.mark.parametrize("keys, value", [
    (("images",), [1, 2]),
    (("strategy",), "x"),
    (("presentation", "generators"), "ab"),
    (("presentation", "relators"), "ab"),
    (("strategy", "words"), ["a", "b"]),
    (("strategy", "base_generators"), "ab"),
    (("strategy", "base_images"), [1, 2]),
], ids=["images", "strategy", "generators", "relators", "words", "base_generators",
        "base_images"])
def test_exit_code_malformed_qrep_field(tmp_path, capsys, pair_file, keys, value):
    # a field of the wrong JSON type is a format error, never a traceback
    # and never a string silently split into one-letter generators
    source = pair_file
    if keys[0] == "strategy" and len(keys) > 1:
        source = str(tmp_path / "pullback.json")
        assert main(["gen", "pullback", "-i", pair_file, "--images", "s1=a,t1=b",
                     "-o", source]) == 0
    obj = json.loads(Path(source).read_text())["result"]
    parent = obj
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["defect", "-i", str(path)]) == 3
    assert "FormatError" in capsys.readouterr().err


def _edit_z2_duplicate(obj):
    # (u, u): read as the pair it names, its class would be 0
    obj["presentation"]["generators"] = ["a", "a"]
    del obj["images"]["b"]


def _edit_surface_odd(obj):
    obj["presentation"]["generators"] = ["s1", "t1", "s2"]
    obj["images"]["s2"] = obj["images"]["s1"]


def _edit_base_duplicate(obj):
    obj["strategy"]["base_generators"] = ["a", "a"]
    del obj["strategy"]["base_images"]["b"]


@pytest.mark.parametrize("edit, command", [
    (_edit_z2_duplicate, ["invariant", "k"]),
    (_edit_surface_odd, ["verify", "exel-loring"]),
    (_edit_base_duplicate, ["verify", "exel-loring"]),
], ids=["z2-generators", "surface-odd", "base-generators"])
def test_qrep_file_with_repeated_or_unpaired_generators_is_refused(
        tmp_path, capsys, edit, command):
    # each edited file is otherwise consistent (n = 16 leaves the k class a
    # usable gap), so only the generator list can refuse it; images s1=a,
    # t1=a^2 leave b unused by the pullback
    source = str(tmp_path / "pair16.json")
    assert main(["gen", "voiculescu", "--n", "16", "-o", source]) == 0
    if edit is not _edit_z2_duplicate:
        pair, source = source, str(tmp_path / "pullback.json")
        assert main(["gen", "pullback", "-i", pair, "--images", "s1=a,t1=a^2",
                     "-o", source]) == 0
    obj = json.loads(Path(source).read_text())["result"]
    edit(obj)
    path, out_json = tmp_path / "bad.json", tmp_path / "out.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([*command, "-i", str(path), "-o", str(out_json)]) == 3
    assert "FormatError" in capsys.readouterr().err
    assert not out_json.exists()


@pytest.mark.parametrize("source, genus, command", [
    ("pullback", 3, ["verify", "exel-loring"]),
    ("pullback", "x", ["verify", "exel-loring"]),
    ("pullback", 1.0, ["verify", "exel-loring"]),
    ("Z2", 2, ["verify", "exel-loring"]),
    ("Z2", True, ["verify", "exel-loring"]),
    ("custom", 1, ["defect"]),
], ids=["surface-3", "surface-string", "surface-float", "z2-2", "z2-bool", "custom-1"])
def test_qrep_file_with_a_wrong_genus_is_refused(tmp_path, capsys, source, genus,
                                                 command):
    # genus is len(generators)/2 for surface, 1 for Z2 and null for custom;
    # anything else, kept as given, would be echoed in the case label
    pair = str(tmp_path / "pair32.json")
    assert main(["gen", "voiculescu", "--n", "32", "-o", pair]) == 0
    path = pair
    if source == "pullback":
        path = str(tmp_path / "pullback.json")
        assert main(["gen", "pullback", "-i", pair, "--images", "s1=a,t1=b",
                     "-o", path]) == 0
    obj = json.loads(Path(path).read_text())["result"]
    if source == "custom":
        obj["presentation"]["kind"] = "custom"
    bad, out_json = tmp_path / "bad.json", tmp_path / "out.json"
    for value, code in [(None, 0), (genus, 3)]:
        obj["presentation"]["genus"] = value
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main([*command, "-i", str(bad), "-o", str(out_json)]) == code
        assert out_json.exists() == (code == 0)
        out_json.unlink(missing_ok=True)
    err = capsys.readouterr().err
    assert "FormatError" in err and "genus" in err


@pytest.mark.parametrize("dim", [2.9, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("command", ["kappa", "winding"])
def test_matrix_file_dim_must_be_an_integer(tmp_path, capsys, command, dim):
    # entries for the identity of the size int(dim) would give
    n = int(dim)
    path, out_json = tmp_path / "m.json", tmp_path / "out.json"
    eye = np.eye(n).ravel().tolist()
    path.write_text(json.dumps({"dim": dim, "re": eye, "im": [0.0] * (n * n)}))
    assert main(["invariant", command, "-i", str(path), "-o", str(out_json)]) == 3
    assert "FormatError" in capsys.readouterr().err
    assert not out_json.exists()


@pytest.mark.parametrize("flags", [
    ["--g", "0"], ["--g", "-1"], ["--seeds", "0"],
], ids=["g0", "g-1", "seeds0"])
def test_stability_rejects_empty_sweeps(capsys, flags):
    assert main(["stability", "--n", "16", "--radius", "0.05", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "InputError" in captured.err


@pytest.mark.parametrize("command, flags", [
    (["invariant", "k", "-i", "{pair}"], ["--tol-defect-max", "0.25"]),
    (["stability", "--n", "32", "--radius", "0.19", "--csv", "{csv}"],
     ["--tol-defect-max", "0.3"]),
    (["stability", "--n", "32", "--radius", "0.19", "--csv", "{csv}"],
     ["--tol-branch-margin", "nan"]),
    (["verify", "exel-loring", "--n-range", "16:32:16", "--csv", "{csv}"],
     ["--tol-branch-margin", "nan"]),
    (["invariant", "kappa", "-i", "{pair}", "--word", "[a, b]"],
     ["--tol-unitarity", "-0.5"]),
    (["invariant", "kappa", "-i", "{pair}", "--word", "[a, b]"],
     ["--tol-cluster-width", "inf"]),
], ids=["defect-max-quarter", "defect-max-0.3", "stability-nan", "exel-loring-nan", "unitarity-neg", "cluster-width-inf"])
def test_tolerances_that_void_a_check_are_refused(tmp_path, capsys, pair_file,
                                                  command, flags):
    # refused with exit 3 before any work: no report and no CSV
    csv_path = tmp_path / "rows.csv"
    argv = [a.format(pair=pair_file, csv=csv_path) for a in command]
    assert main([*argv, *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "InputError" in captured.err
    assert flags[0][len("--tol-"):].replace("-", "_") in captured.err
    assert not csv_path.exists()


def test_tolerance_variables_are_checked(tmp_path, capsys, pair_file, monkeypatch):
    out_json = tmp_path / "out.json"
    for field, value in [("path_floor", "-1"), ("defect_max", "0.25"),
                         ("defect_max", "0.3")]:
        with monkeypatch.context() as env:
            env.setenv(f"QREP_TOL_{field.upper()}", value)
            assert main(["invariant", "k", "-i", pair_file, "-o", str(out_json)]) == 3
        err = capsys.readouterr().err
        assert "InputError" in err and field in err
        assert not out_json.exists()


@pytest.mark.parametrize("field, value", [
    ("path_floor", -1e-12), ("det_one", float("nan")), ("defect_max", float("inf")),
    ("defect_max", 0.25), ("defect_max", 0.3),
])
def test_tolerances_reject_invalid_values(field, value):
    with pytest.raises(InputError) as exc:
        dataclasses.replace(DEFAULTS, **{field: value})
    assert exc.value.details["field"] == field


def test_tolerances_accept_their_least_values():
    least = dataclasses.replace(
        DEFAULTS, **{f.name: 0.0 for f in dataclasses.fields(DEFAULTS)})
    assert least.unitarity == 0.0 and least.defect_max == 0.0
    assert dataclasses.replace(DEFAULTS, defect_max=0.2499).defect_max == 0.2499


def test_tolerances_are_float_thresholds_only():
    fields = dataclasses.fields(DEFAULTS)
    assert len(fields) == 8
    assert all(f.type == "float" for f in fields)


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "kappa", "--no-such-flag"])
    assert exc.value.code == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["gen", "voiculescu", "--n", "4"],
    ["invariant", "kappa", "-i", "w.json"],
    ["verify", "remark25", "--n", "4"],
])
def test_csv_only_on_sweeps(tmp_path, capsys, command):
    out_csv = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--csv", str(out_csv)])
    assert exc.value.code == 3
    assert "unrecognized arguments: --csv" in capsys.readouterr().err
    assert not out_csv.exists()


def test_verify_csv_needs_n_range(tmp_path, capsys):
    # a single verification has no rows: --csv without --n-range is refused
    # before any work, and neither file is written
    out_csv, out_json = tmp_path / "x.csv", tmp_path / "x.json"
    code = main(["verify", "exel-loring", "--n", "16", "--csv", str(out_csv),
                 "-o", str(out_json)])
    assert code == 3
    assert "--n-range" in capsys.readouterr().err
    assert not out_csv.exists() and not out_json.exists()


@pytest.mark.parametrize("command", [
    ["verify", "exel-loring", "--n", "16"],
    ["invariant", "winding", "-i", "{matrix}"],
    ["stability", "--n", "16", "--radius", "0.1", "--csv", "{csv}"],
], ids=["verify", "winding", "stability"])
def test_trace_outside_kappa_is_refused(tmp_path, capsys, matrix_file, command):
    # only invariant kappa reads --trace; elsewhere a non-default mode would
    # be ignored, so it is an InputError and no file is written
    out_json, out_csv = tmp_path / "x.json", tmp_path / "x.csv"
    argv = [a.replace("{matrix}", matrix_file).replace("{csv}", str(out_csv))
            for a in command]
    code = main(argv + ["--trace", "normalized", "-o", str(out_json)])
    assert code == 3
    assert "--trace" in capsys.readouterr().err
    assert not out_json.exists() and not out_csv.exists()
    # the default mode is accepted everywhere, and normalized by kappa
    assert main(argv + ["--trace", "standard", "-o", str(out_json)]) == 0
    assert main(["invariant", "kappa", "-i", matrix_file, "--trace", "normalized"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["verify", "exel-loring", "--n", "16"],
    ["verify", "exel-loring", "--n-range", "8:8:8", "--csv", "{csv}"],
    ["gen", "voiculescu", "--n", "4"],
    ["invariant", "kappa", "-i", "{matrix}"],
], ids=["verify", "verify-sweep", "voiculescu", "kappa"])
def test_seed_outside_random_commands_is_refused(tmp_path, capsys, matrix_file, command):
    # only gen perturbed and stability draw random numbers; elsewhere a
    # non-default seed would be ignored, so it is an InputError and no file
    # is written
    out_json, out_csv = tmp_path / "x.json", tmp_path / "x.csv"
    argv = [a.replace("{matrix}", matrix_file).replace("{csv}", str(out_csv))
            for a in command]
    code = main(argv + ["--seed", "5", "-o", str(out_json)])
    assert code == 3
    assert "--seed" in capsys.readouterr().err
    assert not out_json.exists() and not out_csv.exists()
    # the default seed is accepted everywhere, and echoed
    assert main(argv + ["--seed", "0", "-o", str(out_json)]) == 0
    assert json.loads(out_json.read_text())["config"]["seed"] == 0


def test_seed_is_read_by_perturbed_and_stability(tmp_path, capsys):
    def images(seed):
        obj = run_json(capsys, "gen", "perturbed", "--n", "4", "--radius", "0.05",
                       "--seed", str(seed), "--deterministic")
        assert obj["config"]["seed"] == seed
        return obj["result"]["images"]
    assert images(9) != images(0)
    obj = run_json(capsys, "stability", "--n", "16", "--radius", "0.1",
                   "--seed", "5", "--seeds", "2", "--deterministic")
    assert [r["seed"] for r in obj["result"]["rows"]] == [5, 6]


# herm_eig's gate has no setting; the homotopy gap and the stability bound
# are closed forms, the Bott threshold the constant 1/2 with defect_max
# keeping the spectrum off it, the winding's step route has no depth to cap
# and its grid cap is a constant, so none of these is a tolerance any more
@pytest.mark.parametrize("flag", ["--tol-hermiticity", "--tol-homotopy-grid",
                                  "--tol-projection-threshold",
                                  "--tol-winding-max-depth",
                                  "--tol-stability-samples",
                                  "--tol-projection-gap",
                                  "--tol-winding-samples"])
def test_removed_tolerance_flags_are_refused(tmp_path, capsys, flag):
    out_json = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "voiculescu", "--n", "4", flag, "1", "-o", str(out_json)])
    assert exc.value.code == 3
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out_json.exists()


@pytest.mark.parametrize("variable", ["QREP_TOL_HERMITICITY", "QREP_TOL_HOMOTOPY_GRID",
                                      "QREP_TOL_PROJECTION_THRESHOLD",
                                      "QREP_TOL_WINDING_MAX_DEPTH",
                                      "QREP_TOL_STABILITY_SAMPLES",
                                      "QREP_TOL_PROJECTION_GAP",
                                      "QREP_TOL_WINDING_SAMPLES"])
def test_removed_tolerance_variables_are_refused(tmp_path, capsys, monkeypatch,
                                                 variable):
    out_json = tmp_path / "x.json"
    monkeypatch.setenv(variable, "1")
    assert main(["gen", "voiculescu", "--n", "4", "-o", str(out_json)]) == 3
    assert f"unknown tolerance variable {variable}" in capsys.readouterr().err
    assert not out_json.exists()


def test_exit_code_gen_requires_source(capsys):
    code, _ = run_cli(capsys, "gen", "perturbed", "--radius", "0.1")
    assert code == 3


@pytest.mark.parametrize("command", [
    ["gen", "perturbed", "--radius", "0.1", "--n", "4", "-i", "{pair}"],
    ["gen", "pullback", "--images", "s1=a,t1=b", "--n", "4", "-i", "{pair}"],
    ["verify", "exel-loring", "--n", "16", "-i", "{pair}"],
    ["verify", "exel-loring", "--n-range", "8:8:8", "-i", "{pair}"],
    ["verify", "exel-loring", "--n-range", "8:8:8", "--n", "16"],
], ids=["perturbed-n-and-i", "pullback-n-and-i", "verify-n-and-i", "sweep-and-i",
        "sweep-and-n"])
def test_ignored_inputs_are_refused(tmp_path, capsys, pair_file, command):
    # an input the command would not read is an InputError before any work,
    # and neither the report nor the CSV is written
    out_json, out_csv = tmp_path / "x.json", tmp_path / "x.csv"
    argv = [a.replace("{pair}", pair_file) for a in command] + ["-o", str(out_json)]
    if "--n-range" in command:
        argv += ["--csv", str(out_csv)]
    code = main(argv)
    assert code == 3
    assert "InputError" in capsys.readouterr().err
    assert not out_json.exists() and not out_csv.exists()
