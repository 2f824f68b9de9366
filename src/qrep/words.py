"""Free-group words, presentations, and quasi-representations.

A word is a finite sequence of (generator, ±1) letters.  The text grammar:

    word    := item*
    item    := atom ('^' integer)*
    atom    := IDENT | '(' word ')' | '[' word ',' word ']'
    IDENT   := [A-Za-z][A-Za-z0-9_]*

Juxtaposition (with optional whitespace) concatenates, ``[x, y]`` expands to
the commutator x y x^-1 y^-1, exponents repeat (negative exponents invert).
Parsing is total: it returns a word or raises ``WordSyntaxError`` with the
offset of the failure, text past a cap included (an exponent's magnitude,
the expanded length, or brackets nested more than 200 deep).

A presentation's kind fixes what it can: ``Z2`` has two generators and
``surface`` a nonzero even number, and each has the one relator
[g_1, g_2] [g_3, g_4] ... over its generators in order; ``custom`` keeps the
relators it is given.  No kind names a generator twice.

Quasi-representations assign a unitary to each presentation generator and
carry a strategy that extends the assignment to group *elements*:

* ``Z2NormalForm``: a word over an abelian presentation with generators
  u_1, ..., u_m is read off by its exponent sums (j_1, ..., j_m) and
  evaluated as u_1^{j_1} ... u_m^{j_m}, in generator order (u^j v^k on Z2).
* ``PullbackThrough``: substitute each generator by a word over a base
  quasi-representation and evaluate there; ``QuasiRep`` derives the
  generator images as the base's images of the words, never stores them.
* ``WordProduct``: evaluate the word letter by letter; exact for free and
  custom presentations where the caller supplies representative words.

A quasi-representation object is read from JSON in two steps: ``check_qrep_json``
applies every rule that needs no file opened, a pullback's base included, and
``qrep_from_json`` runs it and only then reads the matrices.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .config import DEFAULTS, Tolerances
from .errors import (
    DimensionMismatch,
    FormatError,
    PresentationMismatch,
    StrategyUndefined,
    UnboundGenerator,
    WordSyntaxError,
)
from .matcore import Unitary, adjoint, matrix_from_json, matrix_to_json, op_norm, product

__all__ = [
    "FreeWord",
    "parse_word",
    "parse_word_list",
    "render",
    "commutator",
    "evaluate",
    "abelianize",
    "Presentation",
    "CommutatorDatum",
    "Z2NormalForm",
    "PullbackThrough",
    "WordProduct",
    "QuasiRep",
    "relator_defect",
    "mult_defect",
    "MultDefect",
    "generators_and_inverses",
    "qrep_to_json",
    "qrep_from_json",
    "check_qrep_json",
    "read_json",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NAMED_RE = re.compile(rf"({_IDENT_RE.pattern})\s*=")
_MAX_EXPONENT = 10**6
_MAX_LETTERS = 10**6  # cap on expanded length; keeps ((a^k)^k)... bounded
_MAX_DEPTH = 200  # cap on bracket nesting; keeps the recursive descent off the stack limit


@dataclass(frozen=True)
class FreeWord:
    """A word in a free group: letters are (generator, +1 or -1)."""

    letters: tuple[tuple[str, int], ...] = ()

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((sym, -sgn) for sym, sgn in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def symbols(self) -> frozenset[str]:
        return frozenset(sym for sym, _ in self.letters)

    def __str__(self) -> str:
        return render(self)


EMPTY_WORD = FreeWord()


def commutator(x: FreeWord, y: FreeWord) -> FreeWord:
    return x * y * x.inverse() * y.inverse()


def commutator_word(pairs) -> FreeWord:
    """The word prod_i [x_i, y_i]; the empty word for no pairs."""
    return FreeWord(tuple(letter for x, y in pairs for letter in commutator(x, y).letters))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def fail(self, message: str, at: int | None = None):
        raise WordSyntaxError(message, offset=self.pos if at is None else at)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def word(self, stoppers: str) -> list[tuple[str, int]]:
        out: list[tuple[str, int]] = []
        while True:
            c = self.peek()
            if c == "" or c in stoppers:
                return out
            out.extend(self.item())
            if len(out) > _MAX_LETTERS:
                self.fail("expanded word exceeds the length cap")

    def item(self) -> list[tuple[str, int]]:
        letters = self.atom()
        while self.peek() == "^":
            self.pos += 1
            at = self.pos
            k = self.integer()
            if k == 0:
                self.fail("exponent must be nonzero", at)
            if abs(k) > _MAX_EXPONENT:
                self.fail("exponent magnitude exceeds the cap", at)
            if k < 0:
                letters = [(sym, -sgn) for sym, sgn in reversed(letters)]
                k = -k
            if len(letters) * k > _MAX_LETTERS:
                self.fail("expanded word exceeds the length cap", at)
            letters = letters * k
        return letters

    def enter(self):
        # at an opening bracket, which is the offset a too-deep nesting reports
        if self.depth == _MAX_DEPTH:
            self.fail("brackets nest deeper than the cap")
        self.depth += 1
        self.pos += 1

    def leave(self):
        self.depth -= 1
        self.pos += 1

    def atom(self) -> list[tuple[str, int]]:
        c = self.peek()
        if c == "(":
            self.enter()
            inner = self.word(")")
            if self.peek() != ")":
                self.fail("expected ')'")
            self.leave()
            return inner
        if c == "[":
            self.enter()
            left = self.word(",]")
            if self.peek() != ",":
                self.fail("expected ',' inside commutator brackets")
            self.pos += 1
            right = self.word("]")
            if self.peek() != "]":
                self.fail("expected ']'")
            self.leave()
            return list(commutator(FreeWord(tuple(left)), FreeWord(tuple(right))).letters)
        m = _IDENT_RE.match(self.text, self.pos)
        if c and m:
            self.pos = m.end()
            return [(m.group(), 1)]
        self.fail("expected a generator, '(' or '['")

    def word_list(self, named: bool) -> list:
        # words separated by the commas outside brackets; named, each item is
        # NAME=word and an empty item is skipped
        out = []
        while True:
            if not named:
                out.append(FreeWord(tuple(self.word(","))))
            elif self.peek() not in ",":
                m = _NAMED_RE.match(self.text, self.pos)
                if not m:
                    self.fail("expected NAME=word")
                self.pos = m.end()
                out.append((m.group(1), FreeWord(tuple(self.word(",")))))
            if self.peek() == "":
                return out
            self.pos += 1

    def integer(self) -> int:
        self.peek()  # eat whitespace
        m = re.compile(r"-?\d+").match(self.text, self.pos)
        if not m:
            self.fail("expected an integer exponent")
        self.pos = m.end()
        return int(m.group())


def parse_word(text: str) -> FreeWord:
    """Parse the grammar above into an (unreduced) word."""
    p = _Parser(text)
    letters = p.word("")
    if p.peek() != "":
        p.fail(f"unexpected {p.text[p.pos]!r}")
    return FreeWord(tuple(letters))


def parse_word_list(text: str, named: bool = False) -> list:
    """The comma-separated words of ``text``, a comma inside [x, y] being the
    word's own; with ``named``, the (NAME, word) pairs of NAME=word items.  A
    ``WordSyntaxError``'s offset counts from the start of ``text``."""
    return _Parser(text).word_list(named)


def render(word: FreeWord) -> str:
    """Inverse of parsing: runs of one signed letter print as g^k."""
    parts = []
    i, letters = 0, word.letters
    while i < len(letters):
        sym, sgn = letters[i]
        run = 1
        while i + run < len(letters) and letters[i + run] == (sym, sgn):
            run += 1
        k = sgn * run
        parts.append(sym if k == 1 else f"{sym}^{k}")
        i += run
    return " ".join(parts)


def abelianize(word: FreeWord, generators: tuple[str, ...]) -> tuple[int, ...]:
    """Exponent sums of ``word`` relative to an ordered generator list."""
    counts = dict.fromkeys(generators, 0)
    for sym, sgn in word.letters:
        if sym not in counts:
            raise UnboundGenerator("word uses a symbol outside the presentation",
                                   symbol=sym)
        counts[sym] += sgn
    return tuple(counts[g] for g in generators)


def evaluate(word: FreeWord, images: Mapping[str, Unitary]) -> Unitary:
    """Left-to-right product of generator images; inverses via adjoints."""
    dims = {u.dim for u in images.values()}
    if len(dims) > 1:
        raise DimensionMismatch("images of mixed dimensions", dims=sorted(dims))
    if not dims:
        raise DimensionMismatch("cannot infer dimension from an empty assignment")

    def factors():
        for sym, sgn in word.letters:
            u = images.get(sym)
            if u is None:
                raise UnboundGenerator("no image assigned to generator", symbol=sym)
            yield u.m if sgn > 0 else adjoint(u.m)
    return Unitary(product(factors(), dims.pop()))


def _power(u: Unitary, k: int) -> np.ndarray:
    return np.linalg.matrix_power(u.m if k >= 0 else adjoint(u.m), abs(k))


# -- presentations -------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[FreeWord, ...]
    kind: str  # "Z2" | "surface" | "custom"

    def __post_init__(self):
        if self.kind not in ("Z2", "surface", "custom"):
            raise FormatError("unknown presentation kind", kind=self.kind)
        if self.kind == "Z2" and len(self.generators) != 2:
            raise FormatError("Z2 presentation needs exactly two generators",
                              generators=self.generators)
        if self.kind == "surface" and (len(self.generators) % 2 or not self.generators):
            raise FormatError("surface presentation needs an even number of generators",
                              generators=self.generators)
        if len(set(self.generators)) != len(self.generators):
            raise FormatError("a generator is named twice", generators=self.generators)
        # a name the word grammar cannot read back would change a relator's
        # letters on a round trip through its rendered text
        for g in self.generators:
            if not _IDENT_RE.fullmatch(g):
                raise FormatError("generator is not a valid identifier", symbol=g)
        if self.kind != "custom":
            # the kind fixes its one relator [g_1, g_2] [g_3, g_4] ...; () means that one
            fixed = (CommutatorDatum.of_generators(self.generators).commutator_product(),)
            if tuple(self.relators) not in ((), fixed):
                raise FormatError(f"a {self.kind} relator must be the one its kind fixes",
                                  given=[render(r) for r in self.relators],
                                  expected=render(fixed[0]))
            object.__setattr__(self, "relators", fixed)

    @property
    def genus(self) -> int | None:
        """1 for Z2, half the generator count for a surface, None for custom."""
        return {"Z2": 1, "surface": len(self.generators) // 2}.get(self.kind)

    @classmethod
    def z2(cls) -> "Presentation":
        return cls(("a", "b"), (), "Z2")

    @classmethod
    def surface(cls, genus: int) -> "Presentation":
        if genus < 1:
            raise PresentationMismatch("surface genus must be >= 1", genus=genus)
        return cls(tuple(f"{x}{i}" for i in range(1, genus + 1) for x in "st"), (), "surface")

    @classmethod
    def custom(cls, generators, relators=()) -> "Presentation":
        return cls(tuple(generators), tuple(relators), "custom")


def _gen(sym: str) -> FreeWord:
    return FreeWord(((sym, 1),))


def generators_and_inverses(pres: Presentation) -> list[FreeWord]:
    """The element set a, b, ..., a^-1, b^-1, ... of a presentation."""
    gens = [_gen(g) for g in pres.generators]
    return gens + [g.inverse() for g in gens]


@dataclass(frozen=True)
class CommutatorDatum:
    """A product of commutators prod [a_i, b_i] of words.

    Whoever evaluates it does so in a quasi-representation's presentation,
    and records numerically, never assumes, that the product is trivial
    there.
    """

    pairs: tuple[tuple[FreeWord, FreeWord], ...]

    @classmethod
    def of_generators(cls, generators) -> "CommutatorDatum":
        """The pairs (g_1, g_2), (g_3, g_4), ... of the generators in order."""
        return cls(tuple(zip(map(_gen, generators[::2]), map(_gen, generators[1::2]))))

    def commutator_product(self) -> FreeWord:
        return commutator_word(self.pairs)


# -- evaluation strategies -----------------------------------------------------

def _normal_form(generators: tuple[str, ...], images: Mapping[str, Unitary],
                 word: FreeWord) -> Unitary:
    try:
        exponents = abelianize(word, generators)
    except UnboundGenerator as exc:
        raise StrategyUndefined("word outside the normal-form domain",
                                **exc.details) from None
    us = [images[g] for g in generators]
    # u_1^j_1 ... u_m^j_m; a zero exponent contributes no factor
    return Unitary(product([_power(u, j) for u, j in zip(us, exponents) if j], us[0].dim))


@dataclass(frozen=True)
class Z2NormalForm:
    kind: str = field(default="z2-normal-form", init=False)

    def apply(self, qr: "QuasiRep", word: FreeWord) -> Unitary:
        return _normal_form(qr.presentation.generators, qr.images, word)


@dataclass(frozen=True)
class PullbackThrough:
    """Substitute generators by words over ``base``, then evaluate in ``base``."""

    words: Mapping[str, FreeWord]
    base: "QuasiRep"
    kind: str = field(default="pullback", init=False)

    def __post_init__(self):
        stray = (set().union(*(w.symbols() for w in self.words.values()))
                 - set(self.base.presentation.generators))
        if stray:
            raise UnboundGenerator("substitution word leaves the base generators",
                                   symbols=sorted(stray))

    def substitute(self, word: FreeWord) -> FreeWord:
        out: list[tuple[str, int]] = []
        for sym, sgn in word.letters:
            piece = self.words.get(sym)
            if piece is None:
                raise UnboundGenerator("no substitution word for generator",
                                       symbol=sym)
            out.extend(piece.letters if sgn > 0 else piece.inverse().letters)
        return FreeWord(tuple(out))

    def apply(self, qr: "QuasiRep", word: FreeWord) -> Unitary:
        return self.base.apply(self.substitute(word))


@dataclass(frozen=True)
class WordProduct:
    kind: str = field(default="word-product", init=False)

    def apply(self, qr: "QuasiRep", word: FreeWord) -> Unitary:
        return evaluate(word, qr.images)


@dataclass(frozen=True)
class QuasiRep:
    """Generator images plus a strategy extending them to group elements; a
    pullback is given None and derives them: the base's images of its words."""

    presentation: Presentation
    images: Mapping[str, Unitary] | None
    strategy: object

    def __post_init__(self):
        pulled = isinstance(self.strategy, PullbackThrough)
        if pulled != (self.images is None):
            raise PresentationMismatch("a pullback's images are derived from its base"
                                       if pulled else "only a pullback derives its images")
        if pulled:
            object.__setattr__(self, "images", {g: self.strategy.base.apply(w)
                                                for g, w in self.strategy.words.items()})
        missing = set(self.presentation.generators) - set(self.images)
        extra = set(self.images) - set(self.presentation.generators)
        if missing or extra:
            raise PresentationMismatch("images must cover exactly the generators",
                                       missing=sorted(missing), extra=sorted(extra))
        dims = {u.dim for u in self.images.values()}
        if len(dims) != 1:
            raise DimensionMismatch("generator images of mixed dimensions" if dims
                                    else "a quasi-representation needs a generator")

    @property
    def dim(self) -> int:
        return next(iter(self.images.values())).dim

    def apply(self, word) -> Unitary:
        if isinstance(word, str):
            word = parse_word(word)
        return self.strategy.apply(self, word)


def relator_defect(qr: QuasiRep, word_defect=None) -> float:
    """Largest ||evaluate(relator) - 1|| over the presentation's relators.

    A caller that already holds some of these norms passes its own
    ``word_defect(word)``, the norm ||evaluate(word) - 1|| on ``qr.images``.
    """
    if not qr.presentation.relators:
        raise PresentationMismatch("presentation has no relators")
    defect = word_defect or (lambda word: evaluate(word, qr.images).distance_from_one)
    return max(map(defect, qr.presentation.relators))


@dataclass(frozen=True)
class MultDefect:
    epsilon: float          # max ||pi(st) - pi(s) pi(t)|| over ordered pairs
    inverse_defect: float   # max ||pi(s^-1) - pi(s)*||
    set_size: int


def mult_defect(qr: QuasiRep, elements) -> MultDefect:
    """Multiplicativity defect of a quasi-representation on a finite set.

    Each maximum is a running one over the difference matrices, taken one at
    a time.  ||m||_F >= ||m||_op, so the eigensolve of :func:`op_norm` runs
    only where the Frobenius norm (widened by 1e-8 for rounding) exceeds the
    maximum so far; a matrix it skips cannot raise that maximum.
    """
    words = [parse_word(e) if isinstance(e, str) else e for e in elements]
    pi = [qr.apply(w).m for w in words]

    def raise_max(top: float, m: np.ndarray) -> float:
        # `not <=` hands a NaN to op_norm, which refuses it
        if not np.linalg.norm(m) * (1 + 1e-8) <= top:
            top = max(top, op_norm(m))
        return top

    eps = 0.0
    for i, s in enumerate(words):
        for j, t in enumerate(words):
            eps = raise_max(eps, qr.apply(s * t).m - pi[i] @ pi[j])
    inv = 0.0
    for i, s in enumerate(words):
        inv = raise_max(inv, qr.apply(s.inverse()).m - pi[i].conj().T)
    return MultDefect(eps, inv, len(words))


# -- JSON ----------------------------------------------------------------------
#
# {"presentation": {"kind", "genus", "generators", "relators"},
#  "strategy": {"kind", ...}, "images": {gen: matrix or {"$file": path}}};
# a pullback has no "images" (its "words" and its base's "base_generators" and
# "base_images" fix them), and its base is the object {"presentation": {"kind":
# "Z2" or "custom", "generators": base_generators}, "images": base_images}; [] as
# Z2 or surface "relators" is its kind's relator.

def qrep_to_json(qr: QuasiRep) -> dict:
    pres = qr.presentation
    obj = {
        "presentation": {
            "kind": pres.kind,
            "genus": pres.genus,
            "generators": list(pres.generators),
            "relators": [render(r) for r in pres.relators],
        },
        "strategy": _strategy_to_json(qr.strategy),
    }
    if not isinstance(qr.strategy, PullbackThrough):
        obj["images"] = {g: matrix_to_json(u.m) for g, u in qr.images.items()}
    return obj


def _strategy_to_json(strategy) -> dict:
    if isinstance(strategy, (Z2NormalForm, WordProduct)):
        return {"kind": strategy.kind}
    if isinstance(strategy, PullbackThrough):
        return {
            "kind": strategy.kind,
            "words": {g: render(w) for g, w in strategy.words.items()},
            "base_generators": list(strategy.base.presentation.generators),
            "base_images": {g: matrix_to_json(u.m)
                            for g, u in strategy.base.images.items()},
        }
    raise FormatError("unserializable strategy", kind=type(strategy).__name__)


def read_json(path: str):
    """Parse the JSON file at ``path``; malformed text, text that is not UTF-8
    and nesting deeper than the decoder's recursion limit are a FormatError
    naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise FormatError(f"invalid JSON in {path}: {exc}") from None


def _load_image(value, base_dir, unitarity: float) -> Unitary:
    if isinstance(value, dict) and "$file" in value:
        # join keeps an absolute path as it is
        value = read_json(os.path.join(base_dir or "", value["$file"]))
    return Unitary.of(matrix_from_json(value), unitarity)


def _typed(value, kind: type, name: str):
    # ``value`` if it has JSON type ``kind`` (an object, or a list of
    # strings), so a string is never split into one-letter generators.
    if kind is list:
        ok = isinstance(value, list) and all(isinstance(x, str) for x in value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        expected = "a list of strings" if kind is list else "an object"
        raise FormatError(f"{name} must be {expected}", got=type(value).__name__)
    return value


def _pullback_base(strategy: dict) -> dict:
    # a pullback strategy's base as a quasi-representation object; a
    # two-generator base is the Z2 base examples.pullback requires
    gens = strategy["base_generators"]
    return {"presentation": {"kind": "Z2" if len(gens) == 2 else "custom", "generators": gens},
            "images": strategy["base_images"]}


def check_qrep_json(obj) -> Presentation:
    """Apply every rule of a quasi-representation object that needs no file
    opened, to a pullback's base as to the object itself, and return its
    presentation.  A ``$file`` image's ``dim`` is known only once it is read."""
    try:
        pres_obj = obj["presentation"]
        kind = pres_obj["kind"]
        generators = tuple(_typed(pres_obj["generators"], list, "generators"))
        relators = tuple(parse_word(r) for r in
                         _typed(pres_obj.get("relators", []), list, "relators"))
        strat_obj = _typed(obj.get("strategy", {}), dict, "strategy")
        pulled = strat_obj.get("kind") == "pullback"
        if pulled and "images" in obj:
            raise FormatError("a pullback's images are derived from base_images and words; "
                              "delete the images key")
        names = ({g: parse_word(w) for g, w in _typed(strat_obj["words"], dict, "words").items()}
                 if pulled else _typed(obj["images"], dict, "images"))
        base = _pullback_base(strat_obj) if pulled else None
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed quasi-representation object: {exc}") from None
    pres = Presentation(generators, relators, kind)
    # an optional genus must be the JSON integer the kind implies (null for custom)
    genus = pres_obj.get("genus")
    if genus is not None and not (type(genus) is int and genus == pres.genus):
        raise FormatError("presentation genus disagrees with its generators",
                          genus=genus, expected=pres.genus)
    if set(names) != set(generators):
        raise FormatError(f"{'words' if pulled else 'images'} must cover exactly the generators",
                          missing=sorted(set(generators) - set(names)),
                          extra=sorted(set(names) - set(generators)))
    if strat_obj.get("kind", "z2-normal-form") not in ("z2-normal-form", "word-product",
                                                       "pullback"):
        raise FormatError("unknown strategy kind", kind=strat_obj["kind"])
    if pulled:
        try:
            base_pres = check_qrep_json(base)
        except FormatError as exc:
            exc.args = (f"pullback base: {exc}",)
            raise
        # as pullback and PullbackThrough check them: words over the base
        stray = set().union(*(w.symbols() for w in names.values())) - set(base_pres.generators)
        if stray:
            raise FormatError("a pullback word uses a symbol outside base_generators",
                              symbols=sorted(stray))
    for value in names.values():
        if isinstance(value, dict) and not isinstance(value.get("$file", ""), str):
            raise FormatError("$file must be a path string", got=type(value["$file"]).__name__)
    return pres


def qrep_from_json(obj, base_dir=None, *, tolerances: Tolerances = DEFAULTS) -> QuasiRep:
    """Read a quasi-representation; each matrix must pass ``tolerances.unitarity``
    and is read only once :func:`check_qrep_json` has passed the whole object.
    A pullback object has no ``images`` (its base and ``words`` fix them); any
    other has them."""
    pres = check_qrep_json(obj)
    strategy = obj.get("strategy", {}).get("kind", "z2-normal-form")
    if strategy == "pullback":
        words = {g: parse_word(w) for g, w in obj["strategy"]["words"].items()}
        base = qrep_from_json(_pullback_base(obj["strategy"]), base_dir, tolerances=tolerances)
        return QuasiRep(pres, None, PullbackThrough(words, base))
    images = {g: _load_image(v, base_dir, tolerances.unitarity) for g, v in obj["images"].items()}
    return QuasiRep(pres, images, WordProduct() if strategy == "word-product" else Z2NormalForm())
