"""The three workloads.  Each builds its inputs from the run's seed.

A workload object is built once per process (its inputs are part of the
set-up time); ``case(i)`` is the timed unit of work and returns qrep's
outputs, ``check(i, out)`` compares them with :mod:`reference` and returns
failure messages, and ``det_evaluations(out)`` reads the winding report's
own count of determinant evaluations.  A traced run traces
``traced_cases`` cases.  Case ``i`` draws its random input
from ``case_seed(seed, i)`` alone, so a seed fixes every input of a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import qrep
from qrep import cli

import reference


def case_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class ExelLoringLarge:
    """``verify_index_formula`` on a small random perturbation (``perturb``,
    both generators) of the shift/phase pair."""

    name = "exel-loring-large"
    n = 256
    traced_cases = 4
    radius = 0.02

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.base = qrep.voiculescu_qrep(self.n)
        self.u0, self.v0 = reference.shift_phase(self.n)

    def case(self, i):
        spec = qrep.PerturbationSpec(self.radius, case_seed(self.seed, i))
        qr = qrep.perturb(self.base, spec)
        return qr, qrep.verify_index_formula(qr)

    def check(self, i, out):
        qr, report = out
        return reference.check_exel_loring(report, qr.images["a"].m, qr.images["b"].m,
                                           self.u0, self.v0, self.radius)

    def det_evaluations(self, out):
        return out[1].rhs_wn.defect_data["det_evaluations"]


class StabilitySweep:
    """One row of ``qrep stability --g 1``: the perturbed pair, the
    stability experiment, the winding of the perturbed commutator, k of the
    perturbed pair and the multiplicativity defect over a, b, A, B."""

    name = "stability-sweep"
    n = 48
    traced_cases = 32
    radius = 0.19

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.u, self.v = qrep.voiculescu_pair(self.n)
        self.pres = qrep.Presentation.z2()

    def case(self, i):
        gen = np.random.default_rng(case_seed(self.seed, i))
        a = qrep.perturbed_copy(self.u, self.radius, gen)
        b = qrep.perturbed_copy(self.v, self.radius, gen)
        report = qrep.kazhdan_stability(1, [(self.u, self.v)], [(a, b)])
        wn = qrep.winding_number_det_segment(
            qrep.Unitary.of(reference.commutator(a.m, b.m)))
        k = qrep.k_invariant(a, b)
        qr = qrep.QuasiRep(self.pres, {"a": a, "b": b}, qrep.Z2NormalForm())
        gens = [qrep.parse_word(s) for s in self.pres.generators]
        md = qrep.mult_defect(qr, gens + [g.inverse() for g in gens])
        return a, b, report, wn, k, md

    def check(self, i, out):
        a, b, report, wn, k, md = out
        return reference.check_stability(report, wn, k, md, a.m, b.m)

    def det_evaluations(self, out):
        return out[3].defect_data["det_evaluations"]


class CliFiles:
    """A chain of in-process ``qrep`` commands through files, all
    ``--deterministic``: gen voiculescu, gen perturbed, invariant kappa and
    winding of [a, b], invariant k, defect on "a,b,a b"."""

    name = "cli-files"
    n = 128
    traced_cases = 6
    radius = 0.02

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.files = {key: os.path.join(workdir, f"{key}.json")
                      for key in ("pair", "pert", "kappa", "winding", "k", "defect")}

    def _commands(self, i):
        f, s = self.files, str(case_seed(self.seed, i))
        return {
            "gen voiculescu": ["gen", "voiculescu", "--n", str(self.n), "-o", f["pair"]],
            "gen perturbed": ["gen", "perturbed", "-i", f["pair"], "--radius",
                              str(self.radius), "--seed", s, "-o", f["pert"]],
            "invariant kappa": ["invariant", "kappa", "-i", f["pert"],
                                "--word", "[a, b]", "-o", f["kappa"]],
            "invariant winding": ["invariant", "winding", "-i", f["pert"],
                                  "--word", "[a, b]", "-o", f["winding"]],
            "invariant k": ["invariant", "k", "-i", f["pert"], "-o", f["k"]],
            "defect": ["defect", "-i", f["pert"], "--set", "a,b,a b", "-o", f["defect"]],
        }

    @staticmethod
    def _run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + ["--deterministic"])

    def case(self, i):
        return {cmd: self._run(argv) for cmd, argv in self._commands(i).items()}

    def check(self, i, codes):
        # The envelope echoes -o, so the repeat writes to the same file.
        with open(self.files["pert"], "rb") as fh:
            first_bytes = fh.read()
        self._run(self._commands(i)["gen perturbed"])
        spec = qrep.PerturbationSpec(self.radius, case_seed(self.seed, i))
        held = qrep.perturb(qrep.voiculescu_qrep(self.n), spec)
        in_memory = (held.images["a"].m, held.images["b"].m)
        return reference.check_cli_files(codes, self.files, self.n, in_memory,
                                         first_bytes)

    def det_evaluations(self, codes):
        with open(self.files["winding"]) as fh:
            return json.load(fh)["result"]["defect_data"]["det_evaluations"]


WORKLOADS = {w.name: w for w in (ExelLoringLarge, StabilitySweep, CliFiles)}
