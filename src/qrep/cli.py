"""Command line front end.

    qrep gen voiculescu --n 32 -o pair.json
    qrep invariant kappa --word "[a,b]" -i pair.json
    qrep verify exel-loring --n 64
    qrep stability --g 1 --n 32 --radius 0.19 --seeds 20 --csv runs.csv

Every command emits one JSON report (stdout or -o) embedding the resolved
configuration and tolerances; the two sweeps (``verify exel-loring --n-range``,
``stability``) also write their rows, with --csv, in the fixed column set

    n, g, seed, radius, kappa, wn, k, relator_defect, mult_defect,
    e_defect, gap, status

one row per case, errors appearing in the status column rather than
truncating the sweep.  Exit codes: 0 success; 1 violated precondition or
hypothesis; 2 numerical failure (branch cut, singular path, LAPACK);
3 I/O, format, or usage errors.

The command line is a run's whole configuration: tolerance defaults may be
overridden by --tol-<name> flags, and nothing else (no QREP_TOL_* variable)
changes them.  A command takes only the flags it reads: the --tol-<name>
flags of the tolerances its work reads (``build_parser`` holds the table),
--trace invariant kappa, --word kappa and winding, --seed gen perturbed and
stability.  An -i file of a kind a command does not take is refused unread.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import functools
import json
import math
import os
import sys

import numpy as np

from . import config
from .bott import k_invariant, verify_index_formula
from .errors import FormatError, InputError, QrepError
from .examples import (
    PerturbationSpec,
    check_radius,
    direct_sum,
    perturb,
    perturbed_copy,
    pullback,
    voiculescu_pair,
    voiculescu_qrep,
)
from .invariants import (
    exel_homotopy_gap,
    kappa,
    kazhdan_stability,
    winding_number_det_segment,
)
from .matcore import Unitary, matrix_from_json
from .words import (
    CommutatorDatum,
    FreeWord,
    Presentation,
    QuasiRep,
    Z2NormalForm,
    check_qrep_json,
    evaluate,
    generators_and_inverses,
    mult_defect,
    parse_word,
    parse_word_list,
    qrep_from_json,
    qrep_to_json,
    read_json,
    relator_defect,
)

CSV_COLUMNS = ["n", "g", "seed", "radius", "kappa", "wn", "k",
               "relator_defect", "mult_defect", "e_defect", "gap", "status"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is taken by numerical
    # failures here, so usage problems are remapped to the I/O/syntax code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache
def _shared_flags() -> dict[str, argparse.Action]:
    # -o, --deterministic and each --tol-<field> flag, by dest, made once
    holder = argparse.ArgumentParser(add_help=False)
    holder.add_argument("-o", "--out", metavar="PATH",
                        help="write the JSON report here instead of stdout")
    holder.add_argument("--deterministic", action="store_true",
                        help="omit the timestamp so identical runs are byte-identical")
    for f in dataclasses.fields(config.Tolerances):
        holder.add_argument(f"--tol-{f.name.replace('_', '-')}", dest=f"tol_{f.name}", type=float,
                            metavar="X", help=f"override {f.name} (default {f.default})")
    return {action.dest: action for action in holder._actions}


_PIPELINE = "branch_margin cluster_width integer_residual det_one path_floor"


def _leaf(sub, name: str, func, tolerances: str, **kwargs) -> argparse.ArgumentParser:
    # with -o, --deterministic and the --tol-* flags its work reads, as parents= adds them
    p = sub.add_parser(name, **kwargs)
    for dest in ["out", "deterministic", *("tol_" + f for f in tolerances.split())]:
        p._add_action(_shared_flags()[dest])
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="qrep",
                     description="invariants of almost-commuting unitaries")
    # prog= as argparse derives it (no positional precedes a command), unformatted
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)

    gen = sub.add_parser("gen", help="generate quasi-representations")
    gen_sub = gen.add_subparsers(dest="family", required=True, prog=gen.prog)

    p = _leaf(gen_sub, "voiculescu", cmd_gen_voiculescu, "",
              help="shift/phase pair over the two-generator abelian group")
    p.add_argument("--n", type=int, required=True)

    p = _leaf(gen_sub, "perturbed", cmd_gen_perturbed, "unitarity",
              help="random perturbation of a quasi-representation")
    p.add_argument("--n", type=int, help="dimension of the built-in base pair")
    p.add_argument("-i", "--input", metavar="QREP", help="base quasi-representation")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--targets", help="comma list of generators (default: all)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = _leaf(gen_sub, "pullback", cmd_gen_pullback, "unitarity",
              help="surface-group pullback of a two-generator base")
    p.add_argument("--n", type=int, help="dimension of the built-in base pair")
    p.add_argument("-i", "--input", metavar="QREP", help="base quasi-representation")
    p.add_argument("--images", required=True,
                   help='substitution like "s1=a,t1=b,s2=,t2=" (empty = identity word)')

    p = _leaf(gen_sub, "direct-sum", cmd_gen_direct_sum, "unitarity",
              help="block-diagonal sum of two quasi-representations")
    p.add_argument("-i", "--input", action="append", required=True, metavar="QREP",
                   help="give twice: the two summands")

    inv = sub.add_parser("invariant", help="compute kappa, the winding number, or the k class")
    inv_sub = inv.add_subparsers(dest="which", required=True, prog=inv.prog)
    kappa_p = _leaf(inv_sub, "kappa", cmd_invariant,
                    "unitarity branch_margin cluster_width integer_residual det_one",
                    help="trace-log invariant of a unitary")
    winding_p = _leaf(inv_sub, "winding", cmd_invariant,
                      "unitarity integer_residual det_one path_floor",
                      help="winding number of det((1 - t) 1 + t w)")
    for p in kappa_p, winding_p:
        p.add_argument("-i", "--input", required=True, metavar="FILE",
                       help="matrix JSON or quasi-representation JSON")
        p.add_argument("--word", help="word to evaluate (quasi-representation inputs)")
    kappa_p.add_argument("--trace", choices=["standard", "normalized"],
                         default="standard", help="trace mode")
    p = _leaf(inv_sub, "k", cmd_invariant, "unitarity cluster_width",
              help="Bott class of a two-generator quasi-representation")
    p.add_argument("-i", "--input", required=True, metavar="QREP")

    p = _leaf(sub, "defect", cmd_defect, "unitarity",
              help="relator and multiplicativity defects")
    p.add_argument("-i", "--input", required=True, metavar="QREP")
    p.add_argument("--set", dest="element_set",
                   help="comma list of words (default: generators and inverses)")

    verify = sub.add_parser("verify", help="index-identity verifications")
    verify_sub = verify.add_subparsers(dest="check", required=True, prog=verify.prog)

    p = _leaf(verify_sub, "exel-loring", cmd_verify_exel_loring, "unitarity " + _PIPELINE,
              help="k class vs winding number vs kappa")
    p.add_argument("--n", type=int, help="single dimension")
    p.add_argument("--n-range", metavar="A:B:STEP",
                   help="sweep dimensions A..B inclusive in steps")
    p.add_argument("-i", "--input", metavar="QREP",
                   help="verify this quasi-representation instead of the built-in pair")
    p.add_argument("--csv", metavar="PATH", help="write the --n-range rows as CSV")

    p = _leaf(verify_sub, "remark25", cmd_verify_remark25, _PIPELINE,
              help="invariance across commutator representatives of one class")
    p.add_argument("--n", type=int, required=True)

    p = _leaf(sub, "stability", cmd_stability, _PIPELINE,
              help="perturbation stability sweep for commutator products")
    p.add_argument("--g", type=int, default=1, help="number of commutator pairs (>= 1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the first run")
    p.add_argument("--seeds", type=int, default=1, help="number of seeded runs (>= 1)")
    p.add_argument("--csv", metavar="PATH", help="write the rows as CSV")

    p = _leaf(sub, "homotopy-gap", cmd_homotopy_gap, "unitarity branch_margin cluster_width",
              help="max deviation between the linear segment and exp(t log w)")
    p.add_argument("-i", "--input", required=True, metavar="MATRIX")

    return parser


# -- plumbing -----------------------------------------------------------------

def _resolve_tolerances(args) -> config.Tolerances:
    overrides = {key[len("tol_"):]: value for key, value in vars(args).items()
                 if key.startswith("tol_") and value is not None}
    return dataclasses.replace(config.DEFAULTS, **overrides)


def _check_out_paths(args) -> None:
    # refuse, before any work, an -o or --csv path that open() cannot create:
    # an empty one, a directory, or one in a directory that does not exist;
    # and one file named by both, which the report would overwrite
    out, csv_path = args.out, getattr(args, "csv", None)
    for flag, path in (("-o", out), ("--csv", csv_path)):
        if path is not None and (not path or os.path.isdir(path)
                                 or not os.path.isdir(os.path.dirname(path) or ".")):
            raise InputError(f"{flag} is not a path a file can be written to", path=path)
    if out is not None and csv_path is not None and (
            os.path.realpath(out) == os.path.realpath(csv_path)):
        raise InputError("-o and --csv name the same file", path=out)


def _read_input(paths: list[str], tol: config.Tolerances, takes: str, word=None) -> list:
    """Each -i file of ``paths`` as what the command ``takes``: a QuasiRep ("qrep",
    or "pair" of two generators), a matrix, or "either", a quasi-representation
    giving the Unitary of ``word``.  A kind it does not take, or a file that
    ``check_qrep_json`` refuses, is refused before any matrix of any file is read."""
    checked = []
    for path in paths:
        obj = read_json(path)
        # unwrap a report's envelope, so gen output feeds straight back into -i
        if isinstance(obj, dict) and "result" in obj and "command" in obj:
            inner = obj["result"]
            if isinstance(inner, dict) and ("presentation" in inner or "dim" in inner):
                obj = inner
        kind = None
        if isinstance(obj, dict):
            kind = "matrix" if "dim" in obj else "qrep" if "presentation" in obj else None
        if takes == "qrep" and kind != "qrep":
            raise FormatError("expected a quasi-representation object", path=path)
        if kind is None:
            raise FormatError("input is neither a matrix nor a quasi-representation", path=path)
        if takes == "matrix" and kind != "matrix":
            raise InputError("homotopy-gap takes a matrix JSON input")
        if takes == "either" and (kind == "matrix") == (word is not None):
            raise InputError("quasi-representation inputs need --word" if word is None
                             else "--word applies to quasi-representation inputs only")
        pres = check_qrep_json(obj) if kind == "qrep" else None
        if takes == "pair" and not (pres is not None and len(pres.generators) == 2):
            raise InputError("the k class needs a two-generator quasi-representation")
        checked.append((path, obj, kind))
    word = None if word is None else parse_word(word)

    def value(path, obj, kind):
        if kind == "matrix":
            return Unitary.of(matrix_from_json(obj), tol.unitarity)
        qr = qrep_from_json(obj, base_dir=os.path.dirname(os.path.abspath(path)), tolerances=tol)
        return qr if word is None else evaluate(word, qr.images)
    return [value(*c) for c in checked]


# floats per joined slice of a matrix's re or im list: about 30 KB of text,
# under glibc's 128 KiB mmap threshold, so each slice reuses freed heap
_FLOAT_SLICE = 1024


def _json_chunks(value, pad: str = ""):
    """Yield, in pieces, the text ``json.dumps`` writes for ``value`` with a
    two-space indent and sorted keys, with numpy scalars as Python values,
    tuples as lists and non-finite floats as ``null``.

    A list of plain floats (a matrix's ``re`` or ``im``) is joined in C
    through ``float.__repr__``, the text ``json`` writes for a finite float,
    ``_FLOAT_SLICE`` entries at a time, so no piece holds a whole matrix;
    every other scalar goes through ``json.dumps``.
    """
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            # json writes a non-string key as its scalar text, quoted
            yield sep + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": "
            yield from _json_chunks(value[key], inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = pad + "  "
        sep = ",\n" + inner
        yield "[\n" + inner
        floats = set(map(type, value)) == {float}
        step = _FLOAT_SLICE if floats else len(value)
        for start in range(0, len(value), step):
            piece = value[start:start + step]
            if start:
                yield sep
            # a NaN, an inf or a sum overflowing to inf sends only its slice
            # the slow way
            if floats and math.isfinite(sum(piece)):
                yield sep.join(map(float.__repr__, piece))
            else:
                for i, item in enumerate(piece):
                    if i:
                        yield sep
                    yield from _json_chunks(item, inner)
        yield "\n" + pad + "]"
    elif isinstance(value, (float, np.floating)):
        yield float.__repr__(float(value)) if math.isfinite(value) else "null"
    elif isinstance(value, (np.integer, np.bool_)):
        yield json.dumps(value.item())
    else:
        yield json.dumps(value)


def _emit(args, tol: config.Tolerances, command: str, result) -> None:
    """Write the report envelope to ``-o`` or to ``sys.stdout`` as
    ``_json_chunks`` yields it, so no string holds the whole document.

    Every refusal is raised before this is called, so a refused command
    writes no ``-o`` file.  An exception inside the writer itself (an
    ``OSError``, or a value ``_json_chunks`` cannot write) can leave a
    truncated one.
    """
    cfg = {k: v for k, v in vars(args).items()
           if k != "func" and not k.startswith("tol_") and v is not None}
    report = {
        "command": command,
        "config": cfg,
        "tolerances": dataclasses.asdict(tol),
        "result": result,
    }
    if not args.deterministic:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    # sys.stdout is looked up here, so redirect_stdout and capsys see the output
    out = open(args.out, "w") if args.out is not None else contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.writelines(_json_chunks(report))
        fh.write("\n")


def _sweep(csv_path, cases, row) -> tuple[list[dict], list[dict]]:
    """For each (case, fixed columns) in ``cases``, ``row(case)`` returns
    (columns, report); a QrepError becomes the row's status and its one report
    entry, an unequal report the status mismatch.  Writes rows to ``--csv``."""
    rows, reports = [], []
    for case, fixed in cases:
        line = dict(fixed, status="ok")
        try:
            columns, report = row(case)
        except QrepError as exc:
            line["status"] = type(exc).__name__
            reports.append({"seed": line["seed"], "error": type(exc).__name__,
                            "message": str(exc)})
        else:
            line.update(columns)
            if not report.equal:
                line["status"] = "mismatch"
            reports.append(report.to_json())
        rows.append(line)
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, restval="")
            writer.writeheader()
            writer.writerows(rows)
    return rows, reports


def _base_qrep(args, tol):
    if args.input is not None and args.n is None:
        return _read_input([args.input], tol, "qrep")[0]
    if args.n is not None and args.input is None:
        return voiculescu_qrep(args.n)
    raise InputError("give exactly one of -i and --n")


# -- command handlers ----------------------------------------------------------

def cmd_gen_voiculescu(args, tol):
    _emit(args, tol, "gen voiculescu", qrep_to_json(voiculescu_qrep(args.n)))


def cmd_gen_perturbed(args, tol):
    base = _base_qrep(args, tol)
    targets = None
    if args.targets is not None:
        targets = tuple(filter(None, map(str.strip, args.targets.split(","))))
        if not targets:
            raise InputError("--targets names no generator", targets=args.targets)
    spec = PerturbationSpec(radius=args.radius, seed=args.seed, targets=targets)
    _emit(args, tol, "gen perturbed", qrep_to_json(perturb(base, spec)))


def cmd_gen_pullback(args, tol):
    base = _base_qrep(args, tol)
    images = {}
    for name, word in parse_word_list(args.images, named=True):
        if name in images:
            raise InputError("generator given twice in --images", generator=name)
        images[name] = word
    _emit(args, tol, "gen pullback", qrep_to_json(pullback(base, images)))


def cmd_gen_direct_sum(args, tol):
    if len(args.input) != 2:
        raise InputError("direct-sum needs exactly two -i inputs",
                         given=len(args.input))
    qr = direct_sum(*_read_input(args.input, tol, "qrep"))
    _emit(args, tol, "gen direct-sum", qrep_to_json(qr))


def cmd_invariant(args, tol):
    if args.which == "k":
        qr, = _read_input([args.input], tol, "pair")
        report = k_invariant(*(qr.images[g] for g in qr.presentation.generators), tolerances=tol)
    else:
        w, = _read_input([args.input], tol, "either", args.word)
        report = (kappa(w, args.trace, tolerances=tol) if args.which == "kappa"
                  else winding_number_det_segment(w, tolerances=tol))
    _emit(args, tol, f"invariant {args.which}", report.to_json())


def cmd_defect(args, tol):
    qr, = _read_input([args.input], tol, "qrep")
    if args.element_set is not None:
        elements = parse_word_list(args.element_set)
    else:
        elements = generators_and_inverses(qr.presentation)
    md = mult_defect(qr, elements)
    result = {
        "relator_defect": relator_defect(qr),
        "mult_defect": {"epsilon": md.epsilon,
                        "inverse_defect": md.inverse_defect,
                        "set_size": md.set_size},
    }
    _emit(args, tol, "defect", result)


def _parse_range(text: str) -> list[int]:
    try:
        a, b, step = (int(x) for x in text.split(":"))
    except ValueError:
        raise InputError("range must look like A:B:STEP", given=text) from None
    if step <= 0 or b < a:
        raise InputError("range needs A <= B and STEP > 0", given=text)
    return list(range(a, b + 1, step))


def cmd_verify_exel_loring(args, tol):
    if args.csv is not None and args.n_range is None:
        raise InputError("--csv writes the rows of an --n-range sweep; give --n-range",
                         csv=args.csv)
    if args.n_range is not None and (args.input is not None or args.n is not None):
        raise InputError("--n-range sweeps the built-in pair; give neither -i nor --n")
    if args.n_range is not None:
        def row(n):
            qr = voiculescu_qrep(n)
            report = verify_index_formula(qr, tolerances=tol)
            return {
                "kappa": report.rhs_kappa.rounded,
                "wn": report.rhs_wn.rounded,
                "k": report.lhs_k,
                "relator_defect": report.defects["relator_defect"],
                "mult_defect": mult_defect(qr, generators_and_inverses(qr.presentation)).epsilon,
                "e_defect": report.defects["e_defect"],
                "gap": report.defects["spectral_gap"],
            }, report
        cases = ((n, {"n": n, "g": 1, "seed": "", "radius": ""})
                 for n in _parse_range(args.n_range))
        rows, _ = _sweep(args.csv, cases, row)
        _emit(args, tol, "verify exel-loring", {"rows": rows})
        return
    qr = _base_qrep(args, tol)
    report = verify_index_formula(qr, tolerances=tol)
    _emit(args, tol, "verify exel-loring", report.to_json())


def cmd_verify_remark25(args, tol):
    qr = voiculescu_qrep(args.n)
    a, b = map(parse_word, qr.presentation.generators)
    conj = parse_word("a b")
    empty = FreeWord()
    cases = {
        "plain": CommutatorDatum(((a, b),)),
        "conjugated": CommutatorDatum(
            ((conj * a * conj.inverse(), conj * b * conj.inverse()),)),
        "padded": CommutatorDatum(((a, b), (empty, empty))),
    }
    reports = {label: verify_index_formula(qr, datum=datum, tolerances=tol).to_json()
               for label, datum in cases.items()}
    values = {label: rep["rhs_kappa"] for label, rep in reports.items()}
    result = {
        "reports": reports,
        "kappa_values": values,
        "all_equal": len(set(values.values())) == 1,
    }
    _emit(args, tol, "verify remark25", result)


def cmd_stability(args, tol):
    g, n = args.g, args.n
    if g < 1 or args.seeds < 1:
        raise InputError("stability needs --g >= 1 and --seeds >= 1",
                         g=g, seeds=args.seeds)
    check_radius(args.radius)
    u, v = voiculescu_pair(n)
    eye = Unitary(np.eye(n, dtype=np.complex128))
    base_pairs = [(u, v)] + [(eye, eye)] * (g - 1)

    def row(seed):
        gen = np.random.default_rng(seed)
        alt_pairs = [(perturbed_copy(a, args.radius, gen),
                      perturbed_copy(b, args.radius, gen))
                     for a, b in base_pairs]
        report = kazhdan_stability(g, base_pairs, alt_pairs, tolerances=tol)
        columns = {
            "kappa": report.kappa_end.rounded,
            "wn": winding_number_det_segment(report.product_alt, tolerances=tol).rounded,
            "relator_defect": report.relator_defect_alt,
        }
        if g == 1:
            (a, b), = alt_pairs
            k_rep = k_invariant(a, b, commutator=report.product_alt, tolerances=tol)
            qr_alt = QuasiRep(Presentation.z2(), {"a": a, "b": b}, Z2NormalForm())
            columns.update({
                "k": k_rep.rounded,
                "e_defect": k_rep.defect_data["e_defect"],
                "gap": k_rep.defect_data["spectral_gap"],
                "mult_defect": mult_defect(
                    qr_alt, generators_and_inverses(qr_alt.presentation)).epsilon,
            })
        return columns, report

    cases = ((seed, {"n": n, "g": g, "seed": seed, "radius": args.radius})
             for seed in range(args.seed, args.seed + args.seeds))
    rows, reports = _sweep(args.csv, cases, row)
    ok = all(r["status"] == "ok" for r in rows)
    _emit(args, tol, "stability",
          {"rows": rows, "reports": reports, "all_ok": ok})


def cmd_homotopy_gap(args, tol):
    value = exel_homotopy_gap(*_read_input([args.input], tol, "matrix"), tolerances=tol)
    _emit(args, tol, "homotopy-gap", {"homotopy_gap": value})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _resolve_tolerances(args)
        _check_out_paths(args)
        args.func(args, tol)
    except QrepError as exc:
        print(f"qrep: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        # a ValueError, but a numerical failure inside LAPACK, not an input error
        print(f"qrep: LinAlgError: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"qrep: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
