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
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import spy
from qrep import (DEFAULTS, InputError, Presentation, QuasiRep, Unitary, Z2NormalForm,
                  defect_gate, kazhdan_stability, matrix_to_json, perturbed_copy, pullback, qrep_from_json,
                  qrep_to_json, verify_index_formula, voiculescu_pair, voiculescu_qrep)
from qrep import cli, config
from qrep.cli import _FLOAT_SLICE, CSV_COLUMNS, _json_chunks, main
from qrep.matcore import commutator_product, matrix_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def exit_code(argv) -> int:
    """main's exit code, a usage error's (argparse's SystemExit) included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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


@pytest.mark.parametrize("command, offset", [
    (["defect", "-i", "{pair}", "--set", "a b c d, b^"], 11),
    (["gen", "pullback", "-i", "{pair}", "--images", "s1=a,t1=[b"], 10),
], ids=["set", "images"])
def test_word_list_flags_locate_a_syntax_error_in_the_flag_text(tmp_path, capsys,
                                                                pair_file, command, offset):
    out_json = tmp_path / "x.json"
    argv = [a.format(pair=pair_file) for a in command]
    assert main([*argv, "-o", str(out_json)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qrep: WordSyntaxError: ")
    assert f"(offset={offset})" in err
    assert not out_json.exists()


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


def test_gen_perturbed_radius_zero_refuses_an_unknown_target(tmp_path, capsys, pair_file):
    # the targets are checked before radius 0 returns the base unchanged
    out_json = tmp_path / "refused.json"
    code = main(["gen", "perturbed", "--n", "8", "--radius", "0", "--targets", "zz",
                 "-o", str(out_json)])
    assert code == 1
    assert "UnboundGenerator" in capsys.readouterr().err
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
    # the n = 8 pair has ||e^2 - e|| = 0.237 < 1/4, so its class is defined
    obj = run_json(capsys, "invariant", "k", "-i", pair_file, "--deterministic")
    assert obj["result"]["rounded"] == 1
    assert obj["result"]["tolerances"] == {"cluster_width": DEFAULTS.cluster_width}
    # the n = 7 pair (0.267) sits above the gate: hypothesis error, exit 1
    small = tmp_path / "pair7.json"
    assert main(["gen", "voiculescu", "--n", "7", "-o", str(small)]) == 0
    code, _ = run_cli(capsys, "invariant", "k", "-i", str(small))
    assert code == 1
    code, _ = run_cli(capsys, "invariant", "k", "-i", matrix_file)
    assert code == 3
    # k is taken on the generator pair, so invariant k has no --word
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "k", "-i", str(big), "--word", "[a,b]"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --word" in capsys.readouterr().err


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


def test_verify_exel_loring_reads_the_base_off_a_z2_pullback(tmp_path, capsys):
    # a pullback strategy supplies the base pair on a Z2 file too: a <-> b
    # swaps the pair, so the default datum [a, b] has class -1 and its loop
    # integer -1 = -1 * k(u, v)
    pair = tmp_path / "pair16.json"
    assert main(["gen", "voiculescu", "--n", "16", "-o", str(pair)]) == 0
    obj = json.loads(pair.read_text())["result"]
    obj["strategy"] = {"kind": "pullback", "words": {"a": "b", "b": "a"},
                       "base_generators": ["a", "b"], "base_images": obj.pop("images")}
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    result = run_json(capsys, "verify", "exel-loring", "-i", str(path),
                      "--deterministic")["result"]
    assert result["case"] == "z2-bott"
    assert result["datum_class"] == -1 and result["lhs_k"] == 1
    assert result["rhs_wn"] == result["rhs_kappa"] == -1
    assert result["equal"] is True and result["trace_close"] is True


def test_gen_pullback_writes_its_base_and_words_only(tmp_path, capsys):
    # a pullback's generator images are derived from its base, so the file
    # holds the base pair and the words, and reads back to the same JSON
    pb = _gen_pullback(tmp_path, capsys, 16, "s1=a,t1=b,s2=b,t2=a")
    obj = json.loads(Path(pb).read_text())["result"]
    assert set(obj) == {"presentation", "strategy"}
    assert set(obj["strategy"]) == {"kind", "words", "base_generators", "base_images"}
    assert qrep_to_json(qrep_from_json(obj)) == obj


@pytest.mark.parametrize("command", [
    ["verify", "exel-loring"], ["defect"], ["invariant", "kappa", "--word", "[t1, s1]"],
], ids=["verify", "defect", "kappa"])
@pytest.mark.parametrize("stored", ["derived", "s1-identity"])
def test_a_pullback_file_that_carries_images_is_refused_unread(
        tmp_path, capsys, monkeypatch, command, stored):
    # generator images stored beside the base, as an older gen pullback wrote
    # them, are a second copy of what base_images and words fix; with s1 -> 1
    # the stored copy gave kappa 0 and relator_defect 1e-16 while the loop
    # through the base gave 1, so the file is refused before any matrix is read
    pb = _gen_pullback(tmp_path, capsys, 16, "s1=a,t1=b")
    obj = json.loads(Path(pb).read_text())
    base = obj["result"]["strategy"]["base_images"]
    obj["result"]["images"] = {"s1": base["a"], "t1": base["b"]}
    if stored == "s1-identity":
        obj["result"]["images"]["s1"] = matrix_to_json(np.eye(16))
    Path(pb).write_text(json.dumps(obj))
    out_json = tmp_path / "out.json"
    reads = spy(monkeypatch, matrix_from_json)
    assert main([*command, "-i", pb, "-o", str(out_json)]) == 3
    assert ("FormatError: a pullback's images are derived from base_images and words; "
            "delete the images key") in capsys.readouterr().err
    assert reads == [] and not out_json.exists()


@pytest.mark.parametrize("source, relator", [("pair", "a b"), ("pullback", "s1 t1")])
@pytest.mark.parametrize("command", [["defect"], ["verify", "exel-loring"]],
                         ids=["defect", "verify"])
def test_a_relator_other_than_its_kinds_is_refused(
        tmp_path, capsys, monkeypatch, pair_file, source, relator, command):
    # read as given, relator a b would be reported as the Z2 pair's
    # relator_defect ||ab - 1||, under the z2-bott label
    path = pair_file if source == "pair" else _gen_pullback(tmp_path, capsys, 8, "s1=a,t1=b")
    obj = json.loads(Path(path).read_text())
    obj["result"]["presentation"]["relators"] = [relator]
    Path(path).write_text(json.dumps(obj))
    capsys.readouterr()
    reads = spy(monkeypatch, matrix_from_json)
    assert main([*command, "-i", path]) == 3
    assert "relator must be the one its kind fixes" in capsys.readouterr().err
    assert reads == []


def test_a_surface_file_without_relators_reads_its_kinds_relator(tmp_path, capsys):
    # [] means the relator the kind fixes, for surface as for Z2
    pb = _gen_pullback(tmp_path, capsys, 16, "s1=a,t1=b^2")
    obj = json.loads(Path(pb).read_text())
    obj["result"]["presentation"]["relators"] = []
    Path(pb).write_text(json.dumps(obj))
    res = run_json(capsys, "defect", "-i", pb)["result"]
    qr = pullback(voiculescu_qrep(16), {"s1": "a", "t1": "b^2"})
    expected = np.linalg.norm(commutator_product(
        [(qr.images["s1"].m, qr.images["t1"].m)], 16) - np.eye(16), 2)
    assert res["relator_defect"] == pytest.approx(expected, rel=1e-12)
    assert res["relator_defect"] > 0.7


@pytest.mark.parametrize("edit", ["extra", "missing"])
def test_images_must_name_exactly_the_generators_before_any_is_read(
        tmp_path, capsys, monkeypatch, edit):
    pair = tmp_path / "pair32.json"
    assert main(["gen", "voiculescu", "--n", "32", "-o", str(pair)]) == 0
    obj = json.loads(pair.read_text())
    images = obj["result"]["images"]
    if edit == "extra":
        images["c"] = images["a"]
    else:
        del images["b"]
    pair.write_text(json.dumps(obj))
    capsys.readouterr()
    reads = spy(monkeypatch, matrix_from_json)
    assert main(["defect", "-i", str(pair)]) == 3
    assert "FormatError: images must cover exactly the generators" in capsys.readouterr().err
    assert reads == []


def test_direct_sum_checks_both_kinds_before_any_matrix_is_read(
        tmp_path, capsys, monkeypatch, pair_file, matrix_file):
    out_json = tmp_path / "out.json"
    reads = spy(monkeypatch, matrix_from_json)
    assert main(["gen", "direct-sum", "-i", pair_file, "-i", matrix_file,
                 "-o", str(out_json)]) == 3
    assert "FormatError: expected a quasi-representation object" in capsys.readouterr().err
    assert reads == [] and not out_json.exists()


def _edit_result(src, dst, edit) -> str:
    # a copy of the report at ``src``, with ``edit`` applied to its result
    obj = json.loads(Path(src).read_text())
    edit(obj["result"])
    Path(dst).write_text(json.dumps(obj))
    return str(dst)


@pytest.mark.parametrize("source, edit, message", [
    ("pair", lambda r: r["presentation"].update(genus=5),
     "FormatError: presentation genus disagrees with its generators"),
    ("pair", lambda r: r.update(strategy={"kind": "nope"}), "FormatError: unknown strategy kind"),
    ("pullback", lambda r: r["strategy"].update(base_generators=["a", "a"]),
     "FormatError: pullback base: a generator is named twice"),
], ids=["genus-5", "unknown-strategy", "base-generator-twice"])
def test_direct_sum_checks_every_rule_of_both_inputs_before_any_matrix_is_read(
        tmp_path, capsys, monkeypatch, pair_file, source, edit, message):
    # the first input is valid; the second breaks one rule of a file, which
    # once was found only after every matrix of the first had been read
    second = pair_file if source == "pair" else _gen_pullback(tmp_path, capsys, 8, "s1=a,t1=b")
    second = _edit_result(second, tmp_path / "second.json", edit)
    out_json = tmp_path / "out.json"
    reads = spy(monkeypatch, matrix_from_json)
    assert main(["gen", "direct-sum", "-i", pair_file, "-i", second,
                 "-o", str(out_json)]) == 3
    assert message in capsys.readouterr().err
    assert reads == [] and not out_json.exists()


def test_direct_sum_names_a_rule_broken_before_a_missing_file_of_the_first_input(
        tmp_path, capsys, pair_file):
    # the first input's $file is never opened: the second's genus is refused first
    first = _edit_result(pair_file, tmp_path / "first.json",
                         lambda r: r["images"].update(a={"$file": "missing.json"}))
    second = _edit_result(pair_file, tmp_path / "second.json",
                          lambda r: r["presentation"].update(genus=5))
    out_json = tmp_path / "out.json"
    assert main(["gen", "direct-sum", "-i", first, "-i", second, "-o", str(out_json)]) == 3
    assert capsys.readouterr().err.startswith(
        "qrep: FormatError: presentation genus disagrees with its generators")
    assert not out_json.exists()


def test_a_file_reference_that_is_not_a_string_is_refused_before_any_image_is_read(
        tmp_path, capsys, monkeypatch, pair_file):
    path = _edit_result(pair_file, tmp_path / "file5.json",
                        lambda r: r["images"].update(b={"$file": 5}))
    reads = spy(monkeypatch, matrix_from_json)
    assert main(["defect", "-i", path]) == 3
    assert "FormatError: $file must be a path string" in capsys.readouterr().err
    assert reads == []


@pytest.mark.parametrize("command", [["gen", "perturbed", "--radius", "0.1"],
                                     ["gen", "direct-sum", "-i", "{empty}"]],
                         ids=["perturbed", "direct-sum"])
def test_a_quasi_representation_with_no_generators_is_refused(tmp_path, capsys, command):
    # it has no dimension; gen once wrote it back out, with none either
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"presentation": {"kind": "custom", "generators": []},
                                 "images": {}}))
    out_json = tmp_path / "out.json"
    argv = [a.format(empty=empty) for a in command]
    assert main([*argv, "-i", str(empty), "-o", str(out_json)]) == 1
    assert "DimensionMismatch: a quasi-representation needs a generator" in (
        capsys.readouterr().err)
    assert not out_json.exists()


def test_pullback_base_images_must_match_base_generators(tmp_path, capsys):
    # a base generator without an image is refused when the file is read
    pb = _gen_pullback(tmp_path, capsys, 8, "s1=a,t1=b")
    obj = json.loads(Path(pb).read_text())
    del obj["result"]["strategy"]["base_images"]["b"]
    Path(pb).write_text(json.dumps(obj))
    code = main(["verify", "exel-loring", "-i", pb])
    assert code == 3
    assert "FormatError" in capsys.readouterr().err


@pytest.mark.parametrize("images", ["s1=a,t1=b", "s1=a b,t1=b"])
def test_a_pullback_base_of_mixed_dimensions_is_refused(tmp_path, capsys, images):
    # an n = 8 base whose b is the n = 4 pair's is refused by the base
    # quasi-representation's own check, whatever the words; with s1=a b the
    # product a b once reached numpy and exited 3 with a bare matmul message
    pb = _gen_pullback(tmp_path, capsys, 8, images)
    small = tmp_path / "pair4.json"
    assert main(["gen", "voiculescu", "--n", "4", "-o", str(small)]) == 0
    obj = json.loads(Path(pb).read_text())
    obj["result"]["strategy"]["base_images"]["b"] = \
        json.loads(small.read_text())["result"]["images"]["b"]
    Path(pb).write_text(json.dumps(obj))
    capsys.readouterr()
    out_json = tmp_path / "out.json"
    assert main(["defect", "-i", pb, "-o", str(out_json)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("qrep: DimensionMismatch: ")
    assert not out_json.exists()


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
    assert rows[1]["status"] == "ok"  # n = 8 defect 0.237 < 1/4


def test_verify_exel_loring_holds_from_n8(tmp_path, capsys):
    # ||e^2 - e|| < 1/4 from n = 8 on, so k = wn = kappa = 1 there; n = 7
    # (0.267) is refused, with no report and the gate at n = 7 as its bound
    obj = run_json(capsys, "verify", "exel-loring", "--n-range", "8:15:1",
                   "--deterministic")
    rows = obj["result"]["rows"]
    assert [r["n"] for r in rows] == list(range(8, 16))
    assert all(r["status"] == "ok" and r["k"] == r["wn"] == r["kappa"] == 1 for r in rows)
    obj = run_json(capsys, "verify", "exel-loring", "--n", "8", "--deterministic")
    assert obj["result"]["equal"] is True and obj["result"]["lhs_k"] == 1
    out_json = tmp_path / "refused.json"
    code = main(["verify", "exel-loring", "--n", "7", "-o", str(out_json)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("qrep: DefectTooLarge: ")
    assert f"bound={defect_gate(7)!r}" in err
    assert not out_json.exists()


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


def test_stability_row_at_the_benchmark_size(capsys):
    # the size and radius the benchmark's stability-sweep case runs: one row
    # at n = 48 holds, and its three routes agree (k of the pair is the
    # opposite of kappa and the winding of its commutator)
    obj = run_json(capsys, "stability", "--g", "1", "--n", "48", "--radius", "0.19",
                   "--deterministic")
    row, = obj["result"]["rows"]
    assert row["status"] == "ok"
    assert row["kappa"] == row["wn"] == -1 and row["k"] == 1


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


# -- tolerances: flags only -------------------------------------------------------------

def test_tol_flag_changes_behavior(capsys, matrix_file):
    # the n = 8 commutator spectrum sits 2 sin(pi/8) - ish from -1;
    # an absurdly wide branch margin must turn kappa into a branch-cut error
    code, _ = run_cli(capsys, "invariant", "kappa", "-i", matrix_file,
                      "--tol-branch-margin", "1.9")
    assert code == 2


def test_tolerance_variables_are_not_read(capsys, matrix_file, monkeypatch):
    # the command line is the whole configuration: a QREP_TOL_* variable,
    # valid, unknown or not a number, changes nothing
    monkeypatch.setenv("QREP_TOL_BRANCH_MARGIN", "1.9")
    monkeypatch.setenv("QREP_TOL_NO_SUCH_FIELD", "x")
    monkeypatch.setenv("QREP_TOL_UNITARITY", "abc")
    obj = run_json(capsys, "invariant", "kappa", "-i", matrix_file, "--deterministic")
    assert obj["result"]["rounded"] == -1
    assert obj["tolerances"] == dataclasses.asdict(DEFAULTS)
    assert obj["tolerances"]["branch_margin"] == 1e-6


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


def test_an_unreadable_input_names_its_class(tmp_path, capsys):
    # a missing -i file, and a pullback whose base_images are $file references
    # to missing paths, each exit 3 with one stderr line that names the
    # OSError's class, as every other refusal names its own
    pb = _gen_pullback(tmp_path, capsys, 8, "s1=a,t1=b")
    obj = json.loads(Path(pb).read_text())
    base = obj["result"]["strategy"]["base_images"]
    base["a"], base["b"] = {"$file": "nofile1.json"}, {"$file": "nofile2.json"}
    Path(pb).write_text(json.dumps(obj))
    for path in (str(tmp_path / "missing.json"), pb):
        out_json = tmp_path / "d.json"
        assert main(["defect", "-i", path, "-o", str(out_json)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("qrep: FileNotFoundError: "), err
        assert not out_json.exists()


def test_tol_reported_in_envelope(capsys, matrix_file):
    obj = run_json(capsys, "invariant", "winding", "-i", matrix_file,
                   "--tol-det-one", "2e-6", "--deterministic")
    assert obj["tolerances"]["det_one"] == 2e-6
    assert obj["result"]["tolerances"]["det_one"] == 2e-6


# every Tolerances field moved off its default, but not far enough to turn
# an ok case into a refusal
TOL_FLAGS = {
    "unitarity": "2e-8", "branch_margin": "2e-6",
    "cluster_width": "2e-7", "integer_residual": "2e-6",
    "det_one": "2e-6", "path_floor": "1e-13",
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


def _tol_fields(argv) -> list[str]:
    """The Tolerances fields whose --tol-<field> flags the command ``argv``
    takes, read off the namespace its parse gives."""
    return [key[len("tol_"):] for key in vars(cli.build_parser().parse_args(argv))
            if key.startswith("tol_")]


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
    # each command is given the flags it takes, and only those
    taken = _tol_fields(command)
    flags = [a for name in taken
             for a in (f"--tol-{name.replace('_', '-')}", TOL_FLAGS[name])]
    obj = run_json(capsys, *command, *flags, "--deterministic")
    envelope = obj["tolerances"]
    assert all(envelope[name] == float(TOL_FLAGS[name]) for name in taken)
    assert all(envelope[name] == getattr(DEFAULTS, name)
               for name in TOL_FLAGS if name not in taken)
    nested = list(_nested_tolerances(obj["result"]))
    assert nested
    for tolerances in nested:
        for key, value in tolerances.items():
            assert value == envelope[key], key
    if command[0] == "stability":
        assert obj["result"]["all_ok"] is True


# valid runs of each command that between them take every route on which it
# reads a tolerance: gen perturbed, gen pullback and verify exel-loring read
# unitarity only through -i, and stability takes k only at g = 1
_TOLERANCE_RUNS = {
    ("gen", "voiculescu"): [["--n", "4"]],
    ("gen", "perturbed"): [["--n", "4", "--radius", "0.05"],
                           ["-i", "{pair}", "--radius", "0.05"]],
    ("gen", "pullback"): [["-i", "{pair}", "--images", "s1=a,t1=b"]],
    ("gen", "direct-sum"): [["-i", "{pair}", "-i", "{pair}"]],
    ("invariant", "kappa"): [["-i", "{matrix}"], ["-i", "{pair}", "--word", "[a, b]"]],
    ("invariant", "winding"): [["-i", "{matrix}"], ["-i", "{pair}", "--word", "[a, b]"]],
    ("invariant", "k"): [["-i", "{pair16}"]],
    ("defect",): [["-i", "{pair}"]],
    ("verify", "exel-loring"): [["--n", "16"], ["-i", "{pair16}"],
                                ["--n-range", "16:32:16"]],
    ("verify", "remark25"): [["--n", "16"]],
    ("stability",): [["--n", "32", "--radius", "0.19", "--seeds", "2"],
                     ["--g", "2", "--n", "64", "--radius", "0.05"]],
    ("homotopy-gap",): [["-i", "{matrix}"]],
}


def test_each_command_takes_the_tolerance_flags_it_reads(tmp_path, capsys, monkeypatch,
                                                         matrix_file, pair_file):
    # a Tolerances that records each field read while a command works, from
    # the resolved object's making to the report's writing (which echoes all
    # six); the fields a command reads are the flags it takes
    files = {"matrix": matrix_file, "pair": pair_file, "pair16": str(tmp_path / "p16.json")}
    assert main(["gen", "voiculescu", "--n", "16", "-o", files["pair16"]]) == 0
    window = {"reads": None}

    class Recording(config.Tolerances):
        def __getattribute__(self, name):
            if window["reads"] is not None and name in TOL_FLAGS:
                window["reads"].add(name)
            return super().__getattribute__(name)

    resolve, emit = cli._resolve_tolerances, cli._emit

    def resolving(args):
        tol = resolve(args)
        window["reads"] = reads
        return tol

    def emitting(*args):
        window["reads"] = None
        emit(*args)

    monkeypatch.setattr(config, "DEFAULTS", Recording())
    monkeypatch.setattr(cli, "_resolve_tolerances", resolving)
    monkeypatch.setattr(cli, "_emit", emitting)
    taken = {}
    for command, runs in _TOLERANCE_RUNS.items():
        reads = set()
        for run in runs:
            argv = [*command, *(a.format(**files) for a in run), "--deterministic"]
            assert main(argv) == 0, argv
        taken[command] = set(_tol_fields(argv))
        assert reads == taken[command], command
    capsys.readouterr()
    assert len(taken) == 12
    assert sum(map(len, taken.values())) == 34


def test_tolerance_flags_a_command_does_not_read_are_refused(tmp_path, capsys, matrix_file,
                                                             pair_file):
    # any other --tol-<field> flag is a usage error, at any value, before
    # any work and with no -o file: 72 - 34 = 38 of them
    files = {"matrix": matrix_file, "pair": pair_file, "pair16": pair_file}
    out_json = tmp_path / "x.json"
    refused = 0
    for command, runs in _TOLERANCE_RUNS.items():
        argv = [*command, *(a.format(**files) for a in runs[0])]
        for name in set(TOL_FLAGS) - set(_tol_fields(argv)):
            flag = f"--tol-{name.replace('_', '-')}"
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, TOL_FLAGS[name], "-o", str(out_json)])
            assert exc.value.code == 3
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            assert not out_json.exists()
            refused += 1
    assert refused == 38


def test_stability_honours_path_floor(capsys):
    obj = run_json(capsys, "stability", "--n", "32", "--radius", "0.19",
                   "--seeds", "2", "--tol-path-floor", "1e300", "--deterministic")
    assert [r["status"] for r in obj["result"]["rows"]] == ["PathSingular"] * 2


@pytest.mark.parametrize("flags, error", [
    # the winding column fails after kazhdan_stability passed (no k column
    # has been seen to: under its 1/(5g) budget ||e^2 - e|| stayed below 0.11
    # over 450 seeded rows at n = 32 to 48 and radius 0.199, against a gate
    # of 1/4)
    (["--seeds", "2", "--tol-path-floor", "1e300"], "PathSingular"),
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


@pytest.mark.parametrize("radius", ["2.5", "2", "-0.1", "nan"])
def test_stability_refuses_a_radius_outside_0_2_before_any_row(tmp_path, capsys,
                                                                 monkeypatch, radius):
    # refused once, as gen perturbed refuses it (RadiusTooLarge, exit 1), not
    # once per row; no row runs and neither the report nor the CSV is written
    def not_reached(*args, **kwargs):
        raise AssertionError("a row ran before the radius was refused")

    monkeypatch.setattr(cli, "kazhdan_stability", not_reached)
    monkeypatch.chdir(tmp_path)
    for command in [["stability", "--n", "24", "--seeds", "3", "--csv", "rows.csv"],
                    ["gen", "perturbed", "--n", "4"]]:
        assert main([*command, "--radius", radius, "-o", "out.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qrep: RadiusTooLarge: radius must lie in [0, 2)")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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


def _sliced_floats() -> list[float]:
    # three slices of the writer's joined float path: the first is joined,
    # the second's sum overflows and the third holds a NaN, so each of those
    # two alone takes the entry-by-entry path
    value = [i / 7 - 200.0 for i in range(3 * _FLOAT_SLICE - 70)]
    value[_FLOAT_SLICE + 5] = value[_FLOAT_SLICE + 6] = 1e308
    value[2 * _FLOAT_SLICE + 9] = float("nan")
    return value


WRITER_VALUES = {
    "float-list": [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1 / 3, 2.0 ** 53, 1.0, -2.0, 1e308,
                   123456789.0, 0.1],
    "lone-float": 0.1,
    "integer-valued-floats": [3.0, -1.0, 1e22, 1e15],
    "mixed-list": [1, 2.5, True, None, "x", [0.5], {}],
    "overflowing-sum": [1e308, 1e308, -1e308],
    "sliced-floats": _sliced_floats(),
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


def test_gen_perturbed_holds_little_beyond_its_output(tmp_path, capsys):
    # the writer streams the envelope to -o in slices; joining the whole
    # document first held about 4.2 times the file's size at once
    pair, out = str(tmp_path / "pair128.json"), str(tmp_path / "pert.json")
    assert main(["gen", "voiculescu", "--n", "128", "-o", pair]) == 0
    argv = ["gen", "perturbed", "-i", pair, "--radius", "0.02", "-o", out, "--deterministic"]
    # a first run also pays for lazy imports, which are not the writer's
    assert main(argv) == 0
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2.0 * os.path.getsize(out), (peak, os.path.getsize(out))


def test_stdout_and_file_outputs_agree(tmp_path, capsys):
    # n = 48 spreads each re and im list over three of the writer's slices
    pair = str(tmp_path / "pair48.json")
    assert main(["gen", "voiculescu", "--n", "48", "-o", pair]) == 0
    argv = ["gen", "perturbed", "-i", pair, "--radius", "0.05", "--deterministic"]
    printed = run_json(capsys, *argv)
    out = tmp_path / "pert.json"
    assert main([*argv, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed["result"] == json.loads(out.read_text())["result"]


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
    # malformed text, nesting past the decoder's recursion limit and text
    # that is not UTF-8 are each one FormatError line naming the file
    out_json = tmp_path / "out.json"
    for name, content in [("bad.json", b"{not json"), ("deep.json", b"[" * 200000),
                          ("utf16.json", '{"dim": 1}'.encode("utf-16"))]:
        bad = tmp_path / name
        bad.write_bytes(content)
        code = main(["invariant", "kappa", "-i", str(bad), "-o", str(out_json)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"qrep: FormatError: invalid JSON in {bad}: "), err
        assert err.count("\n") == 1, err
        assert not out_json.exists()


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
    # a bracket nesting past the parser's cap is a syntax error too, not a
    # RecursionError
    for word in ["a^", "(" * 5000 + "a" + ")" * 5000]:
        code, _ = run_cli(capsys, "invariant", "kappa", "-i", pair_file,
                          "--word", word)
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
    obj["strategy"]["words"]["s2"] = obj["strategy"]["words"]["s1"]


def _edit_base_duplicate(obj):
    obj["strategy"]["base_generators"] = ["a", "a"]
    del obj["strategy"]["base_images"]["b"]


def _edit_base_not_identifier(obj):
    # b is unused by the words, so only the name can refuse it
    obj["strategy"]["base_generators"] = ["a", "b c"]
    obj["strategy"]["base_images"]["b c"] = obj["strategy"]["base_images"].pop("b")


def _edit_words_extra(obj):
    obj["strategy"]["words"]["x9"] = "a"


def _edit_words_missing(obj):
    del obj["strategy"]["words"]["t1"]


def _edit_words_off_base(obj):
    obj["strategy"]["words"]["t1"] = "c"


@pytest.mark.parametrize("edit, command", [
    (_edit_z2_duplicate, ["invariant", "k"]),
    (_edit_surface_odd, ["verify", "exel-loring"]),
    (_edit_base_duplicate, ["verify", "exel-loring"]),
    (_edit_base_not_identifier, ["verify", "exel-loring"]),
    (_edit_words_extra, ["defect"]),
    (_edit_words_missing, ["defect"]),
    (_edit_words_off_base, ["defect"]),
], ids=["z2-generators", "surface-odd", "base-generators", "base-not-identifier",
        "words-extra", "words-missing", "words-off-base"])
def test_qrep_file_with_repeated_or_unpaired_generators_is_refused(
        tmp_path, capsys, monkeypatch, edit, command):
    # each edited file is otherwise consistent (n = 16 leaves the k class a
    # usable gap), so only the edited generator list or substitution words
    # can refuse it, when the file is read; images s1=a, t1=a^2 leave b
    # unused by the pullback
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
    # the generator lists and the substitution words are checked before
    # any matrix of the file is read
    reads = spy(monkeypatch, matrix_from_json)
    assert main([*command, "-i", str(path), "-o", str(out_json)]) == 3
    assert "FormatError" in capsys.readouterr().err
    assert not out_json.exists()
    assert reads == []


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
    (["stability", "--n", "32", "--radius", "0.19", "--csv", "{csv}"],
     ["--tol-branch-margin", "nan"]),
    (["verify", "exel-loring", "--n-range", "16:32:16", "--csv", "{csv}"],
     ["--tol-branch-margin", "nan"]),
    (["invariant", "kappa", "-i", "{pair}", "--word", "[a, b]"],
     ["--tol-unitarity", "-0.5"]),
    (["invariant", "kappa", "-i", "{pair}", "--word", "[a, b]"],
     ["--tol-cluster-width", "inf"]),
], ids=["stability-nan", "exel-loring-nan", "unitarity-neg", "cluster-width-inf"])
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


@pytest.mark.parametrize("field, value", [
    ("path_floor", -1e-12), ("det_one", float("nan")), ("branch_margin", float("inf")),
])
def test_tolerances_reject_invalid_values(field, value):
    with pytest.raises(InputError) as exc:
        dataclasses.replace(DEFAULTS, **{field: value})
    assert exc.value.details["field"] == field


def test_tolerances_accept_their_least_values():
    least = dataclasses.replace(
        DEFAULTS, **{f.name: 0.0 for f in dataclasses.fields(DEFAULTS)})
    assert least.unitarity == 0.0 and least.path_floor == 0.0


def test_tolerances_are_float_thresholds_only():
    fields = dataclasses.fields(DEFAULTS)
    assert len(fields) == 6
    assert all(f.type == "float" for f in fields)


@pytest.mark.parametrize("argv", [
    ["verify", "exel-loring", "--n", "64", "-o", "{dir}"],
    ["verify", "exel-loring", "--n", "64", "-o", "{dir}/no/such/dir/x.json"],
    ["stability", "--n", "24", "--radius", "0.19", "--seeds", "4", "--csv", ""],
    ["stability", "--n", "24", "--radius", "0.19", "--seeds", "2",
     "--csv", "same.json", "-o", "same.json"],
    ["verify", "exel-loring", "--n-range", "16:32:16",
     "--csv", "same.json", "-o", "{dir}/./same.json"],
], ids=["out-directory", "out-missing-directory", "csv-empty", "csv-is-out",
        "csv-is-out-spelt-apart"])
def test_unwritable_output_path_is_refused_before_the_work(tmp_path, capsys,
                                                           monkeypatch, argv):
    def not_reached(*args, **kwargs):
        raise AssertionError("the work ran before the path was refused")

    monkeypatch.setattr(cli, "verify_index_formula", not_reached)
    monkeypatch.setattr(cli, "kazhdan_stability", not_reached)
    monkeypatch.chdir(tmp_path)
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "InputError" in err and ("--csv" if "--csv" in argv else "-o") in err
    assert list(tmp_path.iterdir()) == []


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


# one invocation of each command; {matrix}, {pair} and {csv} are filled in
_COMMANDS = {
    "voiculescu": ["gen", "voiculescu", "--n", "4"],
    "perturbed": ["gen", "perturbed", "--n", "4", "--radius", "0.05"],
    "pullback": ["gen", "pullback", "--n", "4", "--images", "s1=a,t1=b"],
    "direct-sum": ["gen", "direct-sum", "-i", "{pair}", "-i", "{pair}"],
    "kappa": ["invariant", "kappa", "-i", "{matrix}"],
    "winding": ["invariant", "winding", "-i", "{matrix}"],
    "k": ["invariant", "k", "-i", "{pair}"],
    "defect": ["defect", "-i", "{pair}"],
    "verify": ["verify", "exel-loring", "--n", "16"],
    "verify-sweep": ["verify", "exel-loring", "--n-range", "8:8:8", "--csv", "{csv}"],
    "remark25": ["verify", "remark25", "--n", "4"],
    "stability": ["stability", "--n", "16", "--radius", "0.1", "--csv", "{csv}"],
    "homotopy-gap": ["homotopy-gap", "-i", "{matrix}"],
}


def _run_refused(tmp_path, capsys, matrix_file, pair_file, name, flags):
    """Run _COMMANDS[name] with ``flags`` and -o; return the exit code, usage
    errors included, and stderr, asserting that no report or CSV was written."""
    out_json, out_csv = tmp_path / "x.json", tmp_path / "x.csv"
    argv = [a.format(matrix=matrix_file, pair=pair_file, csv=out_csv)
            for a in _COMMANDS[name]]
    code = exit_code(argv + flags + ["-o", str(out_json)])
    assert not out_json.exists() and not out_csv.exists()
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", [c for c in _COMMANDS if c not in ("kappa", "winding", "k")])
def test_trace_outside_invariant_is_a_usage_error(tmp_path, capsys, matrix_file, pair_file,
                                                  command):
    # only invariant has --trace; any other command refuses it at any value,
    # as it refuses --csv, before any work
    for mode in ["standard", "normalized"]:
        code, err = _run_refused(tmp_path, capsys, matrix_file, pair_file, command,
                                 ["--trace", mode])
        assert code == 3
        assert "unrecognized arguments: --trace" in err


@pytest.mark.parametrize("command", ["verify", "winding", "stability", "k"])
def test_trace_outside_kappa_is_refused(tmp_path, capsys, matrix_file, pair_file, command):
    # only invariant kappa has a trace mode, so only it takes --trace; the
    # winding and k, which have none, refuse it at any value as a usage error
    for mode in ["standard", "normalized"]:
        code, err = _run_refused(tmp_path, capsys, matrix_file, pair_file, command,
                                 ["--trace", mode])
        assert code == 3
        assert "unrecognized arguments: --trace" in err
    assert main(["invariant", "kappa", "-i", matrix_file, "--trace", "normalized"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", [c for c in _COMMANDS if c not in ("perturbed", "stability")])
def test_seed_outside_random_commands_is_refused(tmp_path, capsys, matrix_file, pair_file,
                                                 command):
    # only gen perturbed and stability draw random numbers and have --seed;
    # any other command refuses it at any value, the default 0 included
    for seed in ["0", "5"]:
        code, err = _run_refused(tmp_path, capsys, matrix_file, pair_file, command,
                                 ["--seed", seed])
        assert code == 3
        assert "unrecognized arguments: --seed" in err


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
# are closed forms, the Bott threshold the constant 1/2 with a gate that
# rounding of order n alone keeps below 1/4, the winding's step route has no
# depth to cap and its grid cap is a constant, so none of these is a
# tolerance any more
@pytest.mark.parametrize("flag", ["--tol-hermiticity", "--tol-homotopy-grid",
                                  "--tol-projection-threshold",
                                  "--tol-winding-max-depth",
                                  "--tol-stability-samples",
                                  "--tol-projection-gap",
                                  "--tol-defect-max",
                                  "--tol-winding-samples"])
def test_removed_tolerance_flags_are_refused(tmp_path, capsys, flag):
    out_json, out_csv = tmp_path / "x.json", tmp_path / "x.csv"
    for command in (["gen", "voiculescu", "--n", "4"],
                    ["stability", "--n", "16", "--radius", "0.05", "--csv", str(out_csv)]):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "1", "-o", str(out_json)])
        assert exc.value.code == 3
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out_json.exists() and not out_csv.exists()


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


@pytest.mark.parametrize("command", [
    ["gen", "perturbed", "--n", "0", "--radius", "0.1"],
    ["gen", "pullback", "--n", "0", "--images", "s1=a,t1=b"],
    ["verify", "exel-loring", "--n", "0"],
], ids=["perturbed", "pullback", "verify"])
def test_n_zero_is_a_given_dimension(capsys, command):
    # --n 0 is given, not absent: the pair refuses it as on gen voiculescu
    assert main(["gen", "voiculescu", "--n", "0"]) == 1
    refusal = capsys.readouterr().err
    assert refusal.startswith("qrep: DimensionMismatch: ")
    assert main(command) == 1
    assert capsys.readouterr().err == refusal


@pytest.mark.parametrize("command, message", [
    (["invariant", "k", "-i", "{pair}", "--word", ""], "unrecognized arguments: --word"),
    (["invariant", "kappa", "-i", "{matrix}", "--word", ""], "InputError: --word applies"),
    (["gen", "perturbed", "-i", "", "--n", "4", "--radius", "0.1"],
     "InputError: give exactly one"),
    (["verify", "exel-loring", "--n", "8", "--csv", ""], "InputError: --csv is not a path"),
    (["verify", "exel-loring", "--n-range", ""], "InputError: range must look like A:B:STEP"),
], ids=["k-word", "matrix-word", "perturbed-i", "verify-csv", "n-range"])
def test_empty_values_are_given(tmp_path, capsys, matrix_file, pair_file, command, message):
    # an empty value is given, not absent, so it meets the same checks as
    # any other value: each of these is refused before any work, invariant
    # k's --word by argparse, since k takes no word
    out_json = tmp_path / "x.json"
    argv = [a.format(matrix=matrix_file, pair=pair_file) for a in command]
    assert exit_code(argv + ["-o", str(out_json)]) == 3
    assert message in capsys.readouterr().err
    assert not out_json.exists()


def _bad_image_inputs(tmp_path, pair_file) -> dict:
    """Input files, each of which a command that reads it refuses for a matrix
    (2 I, NotUnitary, exit 1): a matrix, the n = 8 pair, its genus-1 and
    genus-2 pullbacks with a bad generator image, and a file of neither kind."""
    bad = matrix_to_json(2 * np.eye(8))
    files = {"matrix": tmp_path / "bad-matrix.json", "neither": tmp_path / "neither.json"}
    files["matrix"].write_text(json.dumps(bad))
    files["neither"].write_text(json.dumps({"generators": ["a", "b"]}))
    for name, images in [("pair", None), ("pullback", "s1=a,t1=b"),
                         ("genus2", "s1=a,t1=b,s2=,t2=")]:
        source = pair_file
        if images is not None:
            source = str(tmp_path / f"{name}-good.json")
            assert main(["gen", "pullback", "-i", pair_file, "--images", images,
                         "-o", source]) == 0
        obj = json.loads(Path(source).read_text())["result"]
        # a pullback's generator images are derived from its base images
        target = obj["images"] if images is None else obj["strategy"]["base_images"]
        target[sorted(target)[-1]] = bad
        files[name] = tmp_path / f"bad-{name}.json"
        files[name].write_text(json.dumps(obj))
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("command, message", [
    (["homotopy-gap", "-i", "{pair}"], "InputError: homotopy-gap takes a matrix JSON input"),
    (["invariant", "k", "-i", "{matrix}"],
     "InputError: the k class needs a two-generator quasi-representation"),
    (["invariant", "k", "-i", "{genus2}"],
     "InputError: the k class needs a two-generator quasi-representation"),
    (["invariant", "kappa", "-i", "{pair}"],
     "InputError: quasi-representation inputs need --word"),
    (["invariant", "winding", "-i", "{matrix}", "--word", "a"],
     "InputError: --word applies to quasi-representation inputs only"),
    (["defect", "-i", "{matrix}"], "FormatError: expected a quasi-representation object"),
    (["invariant", "kappa", "-i", "{neither}"],
     "FormatError: input is neither a matrix nor a quasi-representation"),
    (["invariant", "k", "-i", "{pullback}", "--word", "a"], "unrecognized arguments: --word"),
], ids=["gap-of-qrep", "k-of-matrix", "k-of-genus2", "kappa-no-word", "winding-matrix-word",
        "defect-of-matrix", "neither", "k-word"])
def test_wrong_kind_of_input_is_refused_before_any_matrix_is_read(
        tmp_path, capsys, monkeypatch, pair_file, command, message):
    # each file holds a 2 I image, so a read of its matrices would exit 1;
    # the kind of the file, and a --word it cannot use, are refused first
    files = _bad_image_inputs(tmp_path, pair_file)
    out_json = tmp_path / "out.json"
    reads = spy(monkeypatch, matrix_from_json)
    capsys.readouterr()
    assert exit_code([a.format(**files) for a in command] + ["-o", str(out_json)]) == 3
    assert message in capsys.readouterr().err
    assert reads == [] and not out_json.exists()
    # a command that takes the file reads it, and refuses its matrix
    assert main(["defect", "-i", files["pair"]]) == 1
    assert reads and "NotUnitary" in capsys.readouterr().err


def test_empty_output_paths_are_given(tmp_path, capsys):
    # -o "" and --csv "" name no file, so the run is refused before any work
    # (exit 3); neither falls back to stdout or to no CSV
    assert main(["gen", "voiculescu", "--n", "4", "-o", ""]) == 3
    assert main(["stability", "--n", "8", "--radius", "0.1", "--csv", "",
                 "-o", str(tmp_path / "x.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("is not a path a file can be written to (path='')") == 2
    assert not (tmp_path / "x.json").exists()


def test_empty_word_is_the_identity(capsys, pair_file):
    # --word "" is the empty word, the identity, as in --images s2=
    for which in ["kappa", "winding"]:
        obj = run_json(capsys, "invariant", which, "-i", pair_file, "--word", "",
                       "--deterministic")
        assert obj["result"]["rounded"] == 0
    obj = run_json(capsys, "defect", "-i", pair_file, "--set", "", "--deterministic")
    assert obj["result"]["mult_defect"] == {"epsilon": 0.0, "inverse_defect": 0.0,
                                            "set_size": 1}
