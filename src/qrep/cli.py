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
hypothesis; 2 numerical failure (branch cut, missing spectral gap,
singular path); 3 I/O, format, or usage errors.

Tolerance defaults may be overridden by QREP_TOL_<NAME> environment
variables and per-invocation --tol-<name> flags (flags win).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
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
    evaluate,
    generators_and_inverses,
    mult_defect,
    parse_word,
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


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trace", choices=["standard", "normalized"],
                        default="standard", help="trace mode for kappa")
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument("-o", "--out", metavar="PATH",
                        help="write the JSON report here instead of stdout")
    common.add_argument("--deterministic", action="store_true",
                        help="omit the timestamp so identical runs are byte-identical")
    for f in dataclasses.fields(config.Tolerances):
        common.add_argument(f"--tol-{f.name.replace('_', '-')}",
                            dest=f"tol_{f.name}", type=float, default=None,
                            metavar="X", help=f"override {f.name} (default {f.default})")
    return common


def build_parser() -> _Parser:
    parser = _Parser(prog="qrep",
                     description="invariants of almost-commuting unitaries")
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate quasi-representations")
    gen_sub = gen.add_subparsers(dest="family", required=True)

    p = gen_sub.add_parser("voiculescu", parents=[common],
                           help="shift/phase pair over the two-generator abelian group")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_gen_voiculescu)

    p = gen_sub.add_parser("perturbed", parents=[common],
                           help="random perturbation of a quasi-representation")
    p.add_argument("--n", type=int, help="dimension of the built-in base pair")
    p.add_argument("-i", "--input", metavar="QREP", help="base quasi-representation")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--targets", help="comma list of generators (default: all)")
    p.set_defaults(func=cmd_gen_perturbed)

    p = gen_sub.add_parser("pullback", parents=[common],
                           help="surface-group pullback of a two-generator base")
    p.add_argument("--n", type=int, help="dimension of the built-in base pair")
    p.add_argument("-i", "--input", metavar="QREP", help="base quasi-representation")
    p.add_argument("--images", required=True,
                   help='substitution like "s1=a,t1=b,s2=,t2=" (empty = identity word)')
    p.set_defaults(func=cmd_gen_pullback)

    p = gen_sub.add_parser("direct-sum", parents=[common],
                           help="block-diagonal sum of two quasi-representations")
    p.add_argument("-i", "--input", action="append", required=True, metavar="QREP",
                   help="give twice: the two summands")
    p.set_defaults(func=cmd_gen_direct_sum)

    p = sub.add_parser("invariant", parents=[common],
                       help="compute kappa, the winding number, or the k class")
    p.add_argument("which", choices=["kappa", "winding", "k"])
    p.add_argument("-i", "--input", required=True, metavar="FILE",
                   help="matrix JSON or quasi-representation JSON")
    p.add_argument("--word", help="word to evaluate (quasi-representation inputs)")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("defect", parents=[common],
                       help="relator and multiplicativity defects")
    p.add_argument("-i", "--input", required=True, metavar="QREP")
    p.add_argument("--set", dest="element_set",
                   help="comma list of words (default: generators and inverses)")
    p.set_defaults(func=cmd_defect)

    verify = sub.add_parser("verify", help="index-identity verifications")
    verify_sub = verify.add_subparsers(dest="check", required=True)

    p = verify_sub.add_parser("exel-loring", parents=[common],
                              help="k class vs winding number vs kappa")
    p.add_argument("--n", type=int, help="single dimension")
    p.add_argument("--n-range", metavar="A:B:STEP",
                   help="sweep dimensions A..B inclusive in steps")
    p.add_argument("-i", "--input", metavar="QREP",
                   help="verify this quasi-representation instead of the built-in pair")
    p.add_argument("--csv", metavar="PATH", help="write the --n-range rows as CSV")
    p.set_defaults(func=cmd_verify_exel_loring)

    p = verify_sub.add_parser("remark25", parents=[common],
                              help="invariance across commutator representatives of one class")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify_remark25)

    p = sub.add_parser("stability", parents=[common],
                       help="perturbation stability sweep for commutator products")
    p.add_argument("--g", type=int, default=1, help="number of commutator pairs (>= 1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--seeds", type=int, default=1, help="number of seeded runs (>= 1)")
    p.add_argument("--csv", metavar="PATH", help="write the rows as CSV")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("homotopy-gap", parents=[common],
                       help="max deviation between the linear segment and exp(t log w)")
    p.add_argument("-i", "--input", required=True, metavar="MATRIX")
    p.set_defaults(func=cmd_homotopy_gap)

    return parser


# -- plumbing -----------------------------------------------------------------

def _resolve_tolerances(args) -> config.Tolerances:
    tol = config.from_env()
    overrides = {}
    for f in dataclasses.fields(config.Tolerances):
        value = getattr(args, f"tol_{f.name}", None)
        if value is not None:
            overrides[f.name] = value
    return dataclasses.replace(tol, **overrides) if overrides else tol


def _load_json(path: str):
    obj = read_json(path)
    # reports written by this tool wrap the payload in an envelope; accept
    # those transparently so gen output feeds straight back into -i
    if isinstance(obj, dict) and "result" in obj and "command" in obj:
        inner = obj["result"]
        if isinstance(inner, dict) and ("presentation" in inner or "dim" in inner):
            return inner
    return obj


def _load_qrep(path: str, tol: config.Tolerances):
    obj = _load_json(path)
    if not isinstance(obj, dict) or "presentation" not in obj:
        raise FormatError("expected a quasi-representation object", path=path)
    return qrep_from_json(obj, base_dir=os.path.dirname(os.path.abspath(path)), tolerances=tol)


def _load_matrix_or_qrep(path: str, tol: config.Tolerances):
    obj = _load_json(path)
    if isinstance(obj, dict) and "dim" in obj:
        return "matrix", Unitary.of(matrix_from_json(obj), tol.unitarity)
    if isinstance(obj, dict) and "presentation" in obj:
        return "qrep", qrep_from_json(obj, base_dir=os.path.dirname(os.path.abspath(path)),
                                      tolerances=tol)
    raise FormatError("input is neither a matrix nor a quasi-representation",
                      path=path)


def _split_top_level(text: str) -> list[str]:
    # Commas nested inside [] or () belong to words, not the list.
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def _json_chunks(value, pad: str = ""):
    """Yield, in pieces, the text ``json.dumps`` writes for ``value`` with a
    two-space indent and sorted keys, with numpy scalars as Python values,
    tuples as lists and non-finite floats as ``null``.

    A list of plain finite floats (a matrix's ``re`` or ``im``) is joined in
    C through ``float.__repr__``, the text ``json`` writes for a finite
    float; every other scalar goes through ``json.dumps``.
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
        # a float sum overflowing to inf only sends the list the slow way
        if set(map(type, value)) == {float} and math.isfinite(sum(value)):
            yield sep.join(map(float.__repr__, value))
        else:
            for i, item in enumerate(value):
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
    text = "".join(_json_chunks(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, restval="")
            writer.writeheader()
            writer.writerows(rows)
    return rows, reports


def _base_qrep(args, tol):
    if args.input and args.n is None:
        return _load_qrep(args.input, tol)
    if args.n and not args.input:
        return voiculescu_qrep(args.n)
    raise InputError("give exactly one of -i and --n")


# -- command handlers ----------------------------------------------------------

def cmd_gen_voiculescu(args, tol):
    _emit(args, tol, "gen voiculescu", qrep_to_json(voiculescu_qrep(args.n)))


def cmd_gen_perturbed(args, tol):
    base = _base_qrep(args, tol)
    targets = None
    if args.targets is not None:
        targets = tuple(s for s in _split_top_level(args.targets) if s)
        if not targets:
            raise InputError("--targets names no generator", targets=args.targets)
    spec = PerturbationSpec(radius=args.radius, seed=args.seed, targets=targets)
    _emit(args, tol, "gen perturbed", qrep_to_json(perturb(base, spec)))


def cmd_gen_pullback(args, tol):
    base = _base_qrep(args, tol)
    images = {}
    for part in _split_top_level(args.images):
        if not part:
            continue
        if "=" not in part:
            raise InputError("each image must look like s1=word", part=part)
        name, _, word = part.partition("=")
        name = name.strip()
        if name in images:
            raise InputError("generator given twice in --images", generator=name)
        images[name] = parse_word(word)
    _emit(args, tol, "gen pullback", qrep_to_json(pullback(base, images)))


def cmd_gen_direct_sum(args, tol):
    if len(args.input) != 2:
        raise InputError("direct-sum needs exactly two -i inputs",
                         given=len(args.input))
    qr = direct_sum(_load_qrep(args.input[0], tol), _load_qrep(args.input[1], tol))
    _emit(args, tol, "gen direct-sum", qrep_to_json(qr))


def _input_unitary(args, tol) -> Unitary:
    kind, payload = _load_matrix_or_qrep(args.input, tol)
    if kind == "matrix":
        if args.word:
            raise InputError("--word applies to quasi-representation inputs only")
        return payload
    if not args.word:
        raise InputError("quasi-representation inputs need --word")
    return evaluate(parse_word(args.word), payload.images)


def cmd_invariant(args, tol):
    if args.which == "kappa":
        report = kappa(_input_unitary(args, tol), args.trace, tolerances=tol)
    elif args.which == "winding":
        report = winding_number_det_segment(_input_unitary(args, tol), tolerances=tol)
    else:
        kind, payload = _load_matrix_or_qrep(args.input, tol)
        if kind != "qrep" or len(payload.presentation.generators) != 2:
            raise InputError("the k class needs a two-generator quasi-representation")
        if args.word:
            raise InputError("the k class is computed from the generator pair, not a word")
        g0, g1 = payload.presentation.generators
        report = k_invariant(payload.images[g0], payload.images[g1], tolerances=tol)
    _emit(args, tol, f"invariant {args.which}", report.to_json())


def cmd_defect(args, tol):
    qr = _load_qrep(args.input, tol)
    if args.element_set:
        elements = [parse_word(w) for w in _split_top_level(args.element_set)]
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
    if args.csv and not args.n_range:
        raise InputError("--csv writes the rows of an --n-range sweep; give --n-range",
                         csv=args.csv)
    if args.n_range and (args.input or args.n is not None):
        raise InputError("--n-range sweeps the built-in pair; give neither -i nor --n")
    if args.n_range:
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
    pres = qr.presentation
    a, b = map(parse_word, pres.generators)
    conj = parse_word("a b")
    empty = FreeWord()
    cases = {
        "plain": CommutatorDatum(((a, b),), pres),
        "conjugated": CommutatorDatum(
            ((conj * a * conj.inverse(), conj * b * conj.inverse()),), pres),
        "padded": CommutatorDatum(((a, b), (empty, empty)), pres),
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
    kind, payload = _load_matrix_or_qrep(args.input, tol)
    if kind != "matrix":
        raise InputError("homotopy-gap takes a matrix JSON input")
    value = exel_homotopy_gap(payload, tolerances=tol)
    _emit(args, tol, "homotopy-gap", {"homotopy_gap": value})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # only kappa has a trace mode, and only gen perturbed and stability
        # draw random numbers; any other command would ignore these
        if args.trace != "standard" and getattr(args, "which", None) != "kappa":
            raise InputError("--trace applies to invariant kappa only", trace=args.trace)
        if args.seed != 0 and args.func not in (cmd_gen_perturbed, cmd_stability):
            raise InputError("--seed applies to gen perturbed and stability only",
                             seed=args.seed)
        tol = _resolve_tolerances(args)
        args.func(args, tol)
    except QrepError as exc:
        print(f"qrep: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        # a ValueError, but a numerical failure inside LAPACK, not an input error
        print(f"qrep: LinAlgError: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"qrep: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"qrep: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
