"""Spans around qrep's public functions, recorded from outside the program.

:class:`Tracer` replaces each traced function by a wrapper in every qrep
module namespace that holds it (and ``Unitary.of`` on its class), and puts
the originals back on :meth:`Tracer.uninstall`.  qrep binds most functions
by name at import (``from .matcore import op_norm``), so patching the
defining module alone would miss the calls between modules.
``numpy.linalg`` and ``json`` are patched as attributes, which is how qrep
reaches them; numpy's internal calls do not go through those attributes and
stay untraced.

A span is ``[name, parent, start, end, n]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``n`` the order of the matrix handed to
a ``numpy.linalg`` call (0 elsewhere).  Spans are kept in memory and written
out once, at the end of the run.
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
import time

import numpy as np

QREP_FUNCTIONS = {
    "cli": ["main"],
    "words": ["parse_word", "evaluate", "mult_defect", "relator_defect",
              "qrep_to_json", "qrep_from_json"],
    "examples": ["voiculescu_pair", "voiculescu_qrep", "perturb", "perturbed_copy"],
    "invariants": ["kappa", "winding_number_det_segment", "kazhdan_stability"],
    "bott": ["verify_index_formula", "k_invariant", "bott_almost_projection",
             "push_k_class"],
    "matcore": ["Unitary.of", "op_norm", "unitary_eig", "herm_eig", "lu_det",
                "principal_log_unitary", "exp_skew", "spectral_projection",
                "matrix_to_json", "matrix_from_json"],
}
LINALG_FUNCTIONS = ["eigh", "eigvalsh", "det", "qr"]
JSON_FUNCTIONS = ["dumps", "load"]
LAYERS = list(QREP_FUNCTIONS) + ["linalg", "json"]
SPAN_NAMES = ([f"{m}.{f}" for m, fs in QREP_FUNCTIONS.items() for f in fs]
              + [f"linalg.{f}" for f in LINALG_FUNCTIONS]
              + [f"json.{f}" for f in JSON_FUNCTIONS])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.bytes_written = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, sized=False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    int(np.shape(args[0])[0]) if sized else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        return traced

    def _wrap_cli_main(self, fn):
        # Also counts what the call writes: its -o file, and stdout when the
        # caller has redirected stdout into a buffer.
        traced = self._wrap("cli.main", fn)

        @functools.wraps(fn)
        def counted(argv):
            out = sys.stdout
            start = out.tell() if isinstance(out, io.StringIO) else None
            try:
                return traced(argv)
            finally:
                if start is not None:
                    self.bytes_written += len(out.getvalue()[start:].encode())
                if "-o" in argv and os.path.exists(argv[argv.index("-o") + 1]):
                    self.bytes_written += os.path.getsize(argv[argv.index("-o") + 1])
        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "qrep" or name.startswith("qrep.")]
        for mod, fns in QREP_FUNCTIONS.items():
            module = sys.modules[f"qrep.{mod}"]
            for fn_name in fns:
                name = f"{mod}.{fn_name}"
                if fn_name == "Unitary.of":
                    original = vars(module.Unitary)["of"].__func__
                    self._set(module.Unitary, "of", classmethod(self._wrap(name, original)))
                    continue
                original = getattr(module, fn_name)
                wrapper = (self._wrap_cli_main(original) if name == "cli.main"
                           else self._wrap(name, original))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, attr, wrapper)
        for fn_name in LINALG_FUNCTIONS:
            self._set(np.linalg, fn_name, self._wrap(
                f"linalg.{fn_name}", getattr(np.linalg, fn_name), sized=True))
        for fn_name in JSON_FUNCTIONS:
            self._set(json, fn_name, self._wrap(f"json.{fn_name}", getattr(json, fn_name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def totals(self) -> dict:
        """Calls and self seconds per span name, self seconds per layer, and
        the counts computed from the recorded calls."""
        inner = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        eig_n3 = det_n3 = 0
        for (name, _, start, end, n), covered in zip(self.spans, inner):
            calls[name] += 1
            self_s[name] += (end - start) - covered
            if name in ("linalg.eigh", "linalg.eigvalsh"):
                eig_n3 += n ** 3
            elif name == "linalg.det":
                det_n3 += n ** 3
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for name, s in self_s.items():
            layer_s[name.split(".", 1)[0]] += s
        return {"calls": calls, "self_s": self_s, "layer_self_s": layer_s,
                "linalg.eig_n3": eig_n3, "linalg.det_n3": det_n3,
                "cli.bytes_written": self.bytes_written}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "n"],
                       "spans": self.spans}, fh, separators=(",", ":"))
