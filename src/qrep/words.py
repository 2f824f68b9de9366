"""Free-group words, presentations, and quasi-representations.

A word is a finite sequence of (generator, ±1) letters.  The text grammar:

    word    := item*
    item    := atom ('^' integer)*
    atom    := IDENT | '(' word ')' | '[' word ',' word ']'
    IDENT   := [A-Za-z][A-Za-z0-9_]*

Juxtaposition (with optional whitespace) concatenates, ``[x, y]`` expands to
the commutator x y x^-1 y^-1, exponents repeat (negative exponents invert).
Parsing is total on this grammar and reports a byte offset on failure.

Quasi-representations assign a unitary to each presentation generator and
carry a strategy that extends the assignment to group *elements*:

* ``Z2NormalForm``: a word over a two-generator abelian presentation is read
  off by exponent sums (j, k) and evaluated as u^j v^k (a-powers first).
* ``PullbackThrough``: substitute each generator by a word over a
  two-generator base and evaluate in the base normal form.
* ``WordProduct``: evaluate the word letter by letter; exact for free and
  custom presentations where the caller supplies representative words.
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
    "read_json",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_MAX_EXPONENT = 10**6
_MAX_LETTERS = 10**6  # cap on expanded length; keeps ((a^k)^k)... bounded


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

    def atom(self) -> list[tuple[str, int]]:
        c = self.peek()
        if c == "(":
            self.pos += 1
            inner = self.word(")")
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return inner
        if c == "[":
            self.pos += 1
            left = self.word(",]")
            if self.peek() != ",":
                self.fail("expected ',' inside commutator brackets")
            self.pos += 1
            right = self.word("]")
            if self.peek() != "]":
                self.fail("expected ']'")
            self.pos += 1
            return list(commutator(FreeWord(tuple(left)), FreeWord(tuple(right))).letters)
        m = _IDENT_RE.match(self.text, self.pos)
        if c and m:
            self.pos = m.end()
            return [(m.group(), 1)]
        self.fail("expected a generator, '(' or '['")

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
    genus: int | None = None

    @classmethod
    def z2(cls) -> "Presentation":
        return cls(("a", "b"), (commutator(_gen("a"), _gen("b")),), "Z2", genus=1)

    @classmethod
    def surface(cls, genus: int) -> "Presentation":
        if genus < 1:
            raise PresentationMismatch("surface genus must be >= 1", genus=genus)
        gens = tuple(f"{x}{i}" for i in range(1, genus + 1) for x in "st")
        relator = commutator_word(zip(map(_gen, gens[::2]), map(_gen, gens[1::2])))
        return cls(gens, (relator,), "surface", genus=genus)

    @classmethod
    def custom(cls, generators, relators=()) -> "Presentation":
        gens = tuple(generators)
        for g in gens:
            if not _IDENT_RE.fullmatch(g):
                raise FormatError("generator is not a valid identifier", symbol=g)
        return cls(gens, tuple(relators), "custom", genus=None)


def _gen(sym: str) -> FreeWord:
    return FreeWord(((sym, 1),))


def generators_and_inverses(pres: Presentation) -> list[FreeWord]:
    """The element set a, b, ..., a^-1, b^-1, ... of a presentation."""
    gens = [_gen(g) for g in pres.generators]
    return gens + [g.inverse() for g in gens]


@dataclass(frozen=True)
class CommutatorDatum:
    """A product of commutators prod [a_i, b_i] inside an ambient presentation.

    The invariant that the product is trivial in the ambient group is
    *recorded* numerically by whoever evaluates it, never assumed.
    """

    pairs: tuple[tuple[FreeWord, FreeWord], ...]
    ambient: Presentation

    def commutator_product(self) -> FreeWord:
        return commutator_word(self.pairs)


# -- evaluation strategies -----------------------------------------------------

def _z2_apply(generators: tuple[str, ...], images: Mapping[str, Unitary],
              word: FreeWord) -> Unitary:
    if len(generators) != 2:
        raise StrategyUndefined("normal form needs exactly two generators",
                                generators=generators)
    try:
        j, k = abelianize(word, generators)
    except UnboundGenerator as exc:
        raise StrategyUndefined("word outside the normal-form domain",
                                **exc.details) from None
    u, v = images.get(generators[0]), images.get(generators[1])
    if u is None or v is None:
        raise UnboundGenerator("normal form is missing a generator image",
                               generators=generators)
    # u^j v^k; a zero exponent contributes no factor
    return Unitary(product([_power(x, e) for x, e in ((u, j), (v, k)) if e], u.dim))


@dataclass(frozen=True)
class Z2NormalForm:
    kind: str = field(default="z2-normal-form", init=False)

    def apply(self, qr: "QuasiRep", word: FreeWord) -> Unitary:
        return _z2_apply(qr.presentation.generators, qr.images, word)


@dataclass(frozen=True)
class PullbackThrough:
    """Substitute generators by base words, then use the base normal form."""

    words: Mapping[str, FreeWord]
    base_generators: tuple[str, ...]
    base_images: Mapping[str, Unitary]
    kind: str = field(default="pullback", init=False)

    def __post_init__(self):
        # accept any mapping or iterable of (symbol, word) pairs
        object.__setattr__(self, "words", dict(self.words))
        object.__setattr__(self, "base_generators", tuple(self.base_generators))

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
        return _z2_apply(self.base_generators, self.base_images,
                         self.substitute(word))


@dataclass(frozen=True)
class WordProduct:
    kind: str = field(default="word-product", init=False)

    def apply(self, qr: "QuasiRep", word: FreeWord) -> Unitary:
        return evaluate(word, qr.images)


@dataclass(frozen=True)
class QuasiRep:
    """Generator images plus a strategy extending them to group elements."""

    presentation: Presentation
    images: Mapping[str, Unitary]
    strategy: object

    def __post_init__(self):
        missing = set(self.presentation.generators) - set(self.images)
        extra = set(self.images) - set(self.presentation.generators)
        if missing or extra:
            raise PresentationMismatch("images must cover exactly the generators",
                                       missing=sorted(missing), extra=sorted(extra))
        if len({u.dim for u in self.images.values()}) > 1:
            raise DimensionMismatch("generator images of mixed dimensions")

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
#  "strategy": {"kind", ...}, "images": {gen: matrix or {"$file": path}}}

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
        "images": {g: matrix_to_json(u.m) for g, u in qr.images.items()},
    }
    return obj


def _strategy_to_json(strategy) -> dict:
    if isinstance(strategy, (Z2NormalForm, WordProduct)):
        return {"kind": strategy.kind}
    if isinstance(strategy, PullbackThrough):
        return {
            "kind": strategy.kind,
            "words": {g: render(w) for g, w in strategy.words.items()},
            "base_generators": list(strategy.base_generators),
            "base_images": {g: matrix_to_json(u.m)
                            for g, u in strategy.base_images.items()},
        }
    raise FormatError("unserializable strategy", kind=type(strategy).__name__)


def read_json(path: str):
    """Parse the JSON file at ``path``; malformed text is a FormatError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON in {path}: {exc}") from None


def _load_image(value, base_dir, unitarity: float) -> Unitary:
    if isinstance(value, dict) and "$file" in value:
        path = value["$file"]
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        value = read_json(path)
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


def _names(value, name: str) -> tuple[str, ...]:
    # a list of generator names, none given twice
    names = tuple(_typed(value, list, name))
    if len(set(names)) != len(names):
        raise FormatError(f"{name} names a generator twice", **{name: names})
    return names


def qrep_from_json(obj, base_dir=None, *, tolerances: Tolerances = DEFAULTS) -> QuasiRep:
    """Read a quasi-representation; each matrix must pass ``tolerances.unitarity``."""
    try:
        pres_obj = obj["presentation"]
        kind = pres_obj["kind"]
        generators = _names(pres_obj["generators"], "generators")
        relators = tuple(parse_word(r) for r in
                         _typed(pres_obj.get("relators", []), list, "relators"))
        strat_obj = _typed(obj.get("strategy", {"kind": "z2-normal-form"}), dict, "strategy")
        images_obj = _typed(obj["images"], dict, "images")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed quasi-representation object: {exc}") from None
    if kind == "Z2":
        if len(generators) != 2:
            raise FormatError("Z2 presentation needs exactly two generators",
                              generators=generators)
        if not relators:
            relators = (commutator(_gen(generators[0]), _gen(generators[1])),)
        pres = Presentation(generators, relators, "Z2", genus=1)
    elif kind == "surface":
        if len(generators) % 2:
            raise FormatError("surface presentation needs an even number of generators",
                              generators=generators)
        pres = Presentation(generators, relators, "surface", genus=len(generators) // 2)
    elif kind == "custom":
        pres = Presentation.custom(generators, relators)
    else:
        raise FormatError("unknown presentation kind", kind=kind)
    # an optional genus must be the JSON integer the kind implies (null for custom)
    genus = pres_obj.get("genus")
    if genus is not None and not (type(genus) is int and genus == pres.genus):
        raise FormatError("presentation genus disagrees with its generators",
                          genus=genus, expected=pres.genus)
    images = {g: _load_image(v, base_dir, tolerances.unitarity) for g, v in images_obj.items()}
    strategy = _strategy_from_json(strat_obj, base_dir, tolerances.unitarity)
    return QuasiRep(pres, images, strategy)


def _strategy_from_json(obj, base_dir, unitarity: float):
    kind = obj.get("kind", "z2-normal-form")
    if kind == "z2-normal-form":
        return Z2NormalForm()
    if kind == "word-product":
        return WordProduct()
    if kind == "pullback":
        try:
            words = {g: parse_word(w) for g, w in _typed(obj["words"], dict, "words").items()}
            base_gens = _names(obj["base_generators"], "base_generators")
            base_images = {g: _load_image(v, base_dir, unitarity)
                           for g, v in _typed(obj["base_images"], dict, "base_images").items()}
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed pullback strategy: {exc}") from None
        if set(base_images) != set(base_gens):
            raise FormatError("base_images must cover exactly the base_generators",
                              base_generators=list(base_gens), base_images=sorted(base_images))
        return PullbackThrough(words, base_gens, base_images)
    raise FormatError("unknown strategy kind", kind=kind)
