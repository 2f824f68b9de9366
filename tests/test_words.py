"""Free-group words: parser, renderer, reduction, evaluation, strategies.

Parser oracles are hand-written expected letter sequences; evaluation is
checked against explicit matrix products formed inline.
"""

import json

import numpy as np
import pytest

from conftest import diag_unitary, spy
from qrep import (CommutatorDatum, DimensionMismatch, EMPTY_WORD, FormatError,
                  FreeWord, PerturbationSpec, Presentation,
                  PresentationMismatch, PullbackThrough, QuasiRep,
                  StrategyUndefined, UnboundGenerator, Unitary, WordProduct,
                  WordSyntaxError, Z2NormalForm, abelianize, commutator,
                  evaluate, mult_defect, op_norm, parse_word, perturb, qrep_from_json,
                  qrep_to_json, random_unitary, relator_defect,
                  render, voiculescu_pair, voiculescu_qrep)
from qrep.matcore import commutator_product
from qrep.words import commutator_word, generators_and_inverses


def w(text):
    return parse_word(text)


# -- parser -------------------------------------------------------------------

def test_parse_single_letters_and_inverses():
    assert w("a").letters == (("a", 1),)
    assert w("a^-1").letters == (("a", -1),)
    assert w("a b c").letters == (("a", 1), ("b", 1), ("c", 1))
    assert w("ab").letters == (("ab", 1),)  # multi-char identifier, one letter


def test_parse_powers_groups_commutators():
    assert w("a^3").letters == (("a", 1),) * 3
    assert w("a^-2").letters == (("a", -1),) * 2
    assert w("(a b)^2").letters == (("a", 1), ("b", 1)) * 2
    assert w("(a b)^-1").letters == (("b", -1), ("a", -1))
    assert w("[a,b]").letters == (("a", 1), ("b", 1), ("a", -1), ("b", -1))
    assert w("[a,b]^-1").letters == (("b", 1), ("a", 1), ("b", -1), ("a", -1))
    assert w("[a^2, (b c)]").letters == w("a^2 b c a^-2 c^-1 b^-1").letters


def test_parse_nested_and_whitespace():
    assert w(" [ [a,b] , c ] ") == w("[[a,b],c]")
    assert w("((a))^2") == w("a a")
    assert w("") == EMPTY_WORD
    assert w("a^1") == w("a")


def test_parse_iterated_exponents():
    # x^2^3 parses as (x^2)^3
    assert w("a^2^3") == w("a^6")


def test_syntax_errors_carry_offsets():
    for text, off in [("a^", 2), ("(a", 2), ("[a b]", 4), ("^2", 0),
                      ("a)", 1), ("[a,b", 4), ("a^x", 2), ("1a", 0),
                      ("a^0", 2)]:
        with pytest.raises(WordSyntaxError) as err:
            w(text)
        assert err.value.offset == off, (text, err.value.offset)
        assert err.value.exit_code == 3


def test_parser_resource_caps():
    with pytest.raises(WordSyntaxError):
        w("a^2000000")
    with pytest.raises(WordSyntaxError):
        w("(a^1000)^1000000")  # expands past the total-length cap


def test_render_round_trip_fixed_cases():
    for text in ["", "a", "a^3", "a^-2 b", "a b a^-1 b^-1", "x_1 Y2^4 x_1^-1"]:
        word = w(text)
        assert parse_word(render(word)) == word
    assert render(w("a a a b^-1")) == "a^3 b^-1"
    assert render(EMPTY_WORD) == ""
    assert str(w("a a")) == "a^2"


def test_render_round_trip_randomized():
    rng = np.random.default_rng(100)
    symbols = ["a", "b", "c", "x_1", "Gen9"]
    for _ in range(200):
        letters = tuple((symbols[rng.integers(len(symbols))],
                         1 if rng.random() < 0.5 else -1)
                        for _ in range(rng.integers(0, 12)))
        word = FreeWord(letters)
        assert parse_word(render(word)) == word


# -- algebra ------------------------------------------------------------------

def test_mul_inverse_len_symbols():
    x = w("a b")
    assert (x * w("c")).letters == w("a b c").letters
    assert x.inverse() == w("b^-1 a^-1")
    assert len(w("a^4 b")) == 5
    assert w("a b a").symbols() == {"a", "b"}


def test_commutator_builder():
    assert commutator(w("a"), w("b")) == w("[a,b]")
    assert commutator(w("a b"), w("c")) == w("a b c b^-1 a^-1 c^-1")


def test_commutator_word_is_the_one_product_of_commutators():
    pairs = ((w("a"), w("b")), (w("c d"), w("e")))
    want = w("[a, b] [c d, e]")
    assert commutator_word(pairs) == want
    assert commutator_word(()) == EMPTY_WORD
    assert CommutatorDatum(pairs, Presentation.custom("abcde")).commutator_product() == want
    assert Presentation.surface(2).relators == (w("[s1, t1] [s2, t2]"),)
    assert Presentation.surface(2).generators == ("s1", "t1", "s2", "t2")


def test_generators_and_inverses():
    assert generators_and_inverses(Presentation.z2()) == [w("a"), w("b"), w("a^-1"),
                                                          w("b^-1")]


def test_abelianize_exponent_sums():
    assert abelianize(w("a^2 b a^-1 b^3"), ("a", "b")) == (1, 4)
    assert abelianize(w("[a,b]"), ("a", "b")) == (0, 0)
    assert abelianize(EMPTY_WORD, ("a", "b")) == (0, 0)
    with pytest.raises(UnboundGenerator):
        abelianize(w("a z"), ("a", "b"))


# -- evaluation ---------------------------------------------------------------

def test_evaluate_matches_explicit_product():
    rng = np.random.default_rng(101)
    u, v = random_unitary(4, rng), random_unitary(4, rng)
    images = {"a": u, "b": v}
    got = evaluate(w("a b^-1 a^2"), images).m
    want = u.m @ v.m.conj().T @ u.m @ u.m
    assert op_norm(got - want) < 1e-12
    assert op_norm(evaluate(EMPTY_WORD, images).m - np.eye(4)) < 1e-15


def test_products_never_multiply_by_the_identity(monkeypatch):
    # non-empty products are folded from their first factor: with numpy.eye
    # unavailable each still equals its identity-free product bit for bit
    rng = np.random.default_rng(103)
    u, v, x, y = (random_unitary(6, rng).m for _ in range(4))
    qr = QuasiRep(Presentation.z2(), {"a": Unitary(u), "b": Unitary(v)}, Z2NormalForm())

    def no_eye(*args, **kwargs):
        raise AssertionError("numpy.eye called")

    monkeypatch.setattr(np, "eye", no_eye)
    ui, vi = u.conj().T, v.conj().T
    cases = [
        (evaluate(w("a b^-1 a"), qr.images).m, u @ vi @ u),
        (qr.apply("a").m, u),
        (qr.apply("b^-1").m, vi),
        (qr.apply("a b").m, u @ v),
        (commutator_product([(u, v)], 6), u @ v @ ui @ vi),
        (commutator_product([(u, v), (x, y)], 6),
         u @ v @ ui @ vi @ x @ y @ x.conj().T @ y.conj().T),
    ]
    for got, want in cases:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_evaluate_errors():
    rng = np.random.default_rng(102)
    images = {"a": random_unitary(3, rng), "b": random_unitary(4, rng)}
    with pytest.raises(DimensionMismatch):
        evaluate(w("a b"), images)
    with pytest.raises(DimensionMismatch):
        evaluate(w("a"), {})
    with pytest.raises(UnboundGenerator):
        evaluate(w("z"), {"a": random_unitary(3, rng)})


# -- presentations -------------------------------------------------------------

def test_presentation_constructors():
    z2 = Presentation.z2()
    assert z2.kind == "Z2" and z2.generators == ("a", "b")
    assert z2.relators == (w("[a,b]"),)
    s2 = Presentation.surface(2)
    assert s2.kind == "surface" and s2.genus == 2
    assert s2.generators == ("s1", "t1", "s2", "t2")
    assert s2.relators == (w("[s1,t1] [s2,t2]"),)
    c = Presentation.custom(("x", "y"), (w("x^2"),))
    assert c.kind == "custom" and c.relators == (w("x^2"),)


def test_relator_defect_voiculescu_closed_form():
    for n in (4, 16, 64):
        qr = voiculescu_qrep(n)
        assert abs(relator_defect(qr) - 2 * np.sin(np.pi / n)) < 1e-12


def test_relator_defect_requires_relators():
    rng = np.random.default_rng(103)
    pres = Presentation.custom(("x",), ())
    qr = QuasiRep(pres, {"x": random_unitary(3, rng)}, WordProduct())
    with pytest.raises(PresentationMismatch):
        relator_defect(qr)


# -- quasi-representations and strategies ---------------------------------------

def test_quasirep_validates_images():
    rng = np.random.default_rng(104)
    pres = Presentation.z2()
    u, v = random_unitary(3, rng), random_unitary(3, rng)
    with pytest.raises(PresentationMismatch):
        QuasiRep(pres, {"a": u}, Z2NormalForm())
    with pytest.raises(PresentationMismatch):
        QuasiRep(pres, {"a": u, "b": v, "c": u}, Z2NormalForm())
    with pytest.raises(DimensionMismatch):
        QuasiRep(pres, {"a": u, "b": random_unitary(4, rng)}, Z2NormalForm())


def test_z2_normal_form_strategy():
    qr = voiculescu_qrep(8)
    u, v = qr.images["a"], qr.images["b"]
    # pi(a^2 b a^-1) = u^(2-1) v = u v under the normal form
    got = qr.apply("a^2 b a^-1")
    assert op_norm(got.m - u.m @ v.m) < 1e-12
    # the normal form sends any commutator to the identity...
    assert op_norm(qr.apply("[a,b]").m - np.eye(8)) < 1e-15
    # ...while the raw product of images keeps the scalar obstruction
    raw = evaluate(w("[a,b]"), qr.images)
    assert op_norm(raw.m - np.exp(-2j * np.pi / 8) * np.eye(8)) < 1e-12
    # a symbol outside the presentation is outside the normal-form domain
    with pytest.raises(StrategyUndefined) as err:
        qr.apply("a z")
    assert err.value.details["symbol"] == "z"


def test_z2_strategy_needs_two_generators():
    rng = np.random.default_rng(105)
    pres = Presentation.custom(("x", "y", "z"), ())
    images = {s: random_unitary(2, rng) for s in "xyz"}
    qr = QuasiRep(pres, images, Z2NormalForm())
    with pytest.raises(StrategyUndefined):
        qr.apply("x y z")


def test_word_product_strategy_is_raw_evaluation():
    qr = QuasiRep(Presentation.z2(),
                  dict(voiculescu_qrep(6).images), WordProduct())
    raw = evaluate(w("[a,b]"), qr.images)
    assert op_norm(qr.apply("[a,b]").m - raw.m) == 0.0


def test_pullback_through_strategy_substitutes():
    base = voiculescu_qrep(8)
    words = {"s1": w("a"), "t1": w("b"), "s2": EMPTY_WORD, "t2": EMPTY_WORD}
    strat = PullbackThrough(tuple(sorted(words.items())),
                            base.presentation.generators, base.images)
    assert strat.substitute(w("s1 t1 s2^-1")) == w("a b")
    pres = Presentation.surface(2)
    images = {g: base.apply(word) for g, word in words.items()}
    qr = QuasiRep(pres, images, strat)
    got = qr.apply("s1^2 t1")
    want = base.apply("a^2 b")
    assert op_norm(got.m - want.m) < 1e-12


def test_mult_defect_voiculescu_closed_form():
    # worst ordered pair under the normal form is (b, a):
    # pi(ba) = uv but pi(b)pi(a) = vu, and ||uv - vu|| = 2 sin(pi/n)
    for n in (4, 8, 32):
        qr = voiculescu_qrep(n)
        d = mult_defect(qr, ["a", "b"])
        assert abs(d.epsilon - 2 * np.sin(np.pi / n)) < 1e-12
        assert d.inverse_defect < 1e-15
        assert d.set_size == 2


def test_mult_defect_commuting_is_machine_zero():
    u = diag_unitary([0.3, 1.1, -2.0])
    v = diag_unitary([0.7, -0.2, 0.5])
    qr = QuasiRep(Presentation.z2(), {"a": u, "b": v}, Z2NormalForm())
    d = mult_defect(qr, ["a", "b", "a^-1", "b^-1", "a b"])
    assert d.epsilon < 1e-12
    assert d.inverse_defect < 1e-12


@pytest.mark.parametrize("elements, norms", [(["a", "b", "a^-1", "b^-1"], 5),
                                             (["a", "b", "a b"], 6)])
def test_mult_defect_skips_eigensolves_that_cannot_raise_the_maximum(
        monkeypatch, elements, norms):
    # ||m||_F >= ||m||_op: op_norm runs only where the Frobenius norm exceeds
    # the running maximum, and both maxima keep the bits of the full scan
    qr = perturb(voiculescu_qrep(48), PerturbationSpec(radius=0.19, seed=1))
    calls = spy(monkeypatch, op_norm)
    d = mult_defect(qr, elements)
    assert len(calls) == norms
    monkeypatch.undo()
    words = [parse_word(e) for e in elements]
    pi = [qr.apply(s).m for s in words]
    assert d.epsilon == max(op_norm(qr.apply(s * t).m - pi[i] @ pi[j])
                            for i, s in enumerate(words) for j, t in enumerate(words))
    assert d.inverse_defect == max(op_norm(qr.apply(s.inverse()).m - pi[i].conj().T)
                                   for i, s in enumerate(words))


# -- JSON codec -----------------------------------------------------------------

def test_qrep_json_round_trip_bit_exact():
    qr = voiculescu_qrep(6)
    obj = json.loads(json.dumps(qrep_to_json(qr)))
    back = qrep_from_json(obj)
    assert back.presentation == qr.presentation
    assert type(back.strategy) is type(qr.strategy)
    for g in qr.presentation.generators:
        assert np.array_equal(back.images[g].m, qr.images[g].m)


def test_qrep_json_surface_and_pullback_round_trip():
    from qrep import pullback
    base = voiculescu_qrep(8)
    pb = pullback(base, {"s1": "a", "t1": "b", "s2": "", "t2": ""})
    obj = json.loads(json.dumps(qrep_to_json(pb)))
    back = qrep_from_json(obj)
    assert back.presentation.kind == "surface"
    assert back.presentation.genus == 2
    assert isinstance(back.strategy, PullbackThrough)
    got = back.apply("s1 t1")
    want = pb.apply("s1 t1")
    assert np.array_equal(got.m, want.m)


def test_qrep_json_word_product_and_custom_round_trip():
    from qrep import PerturbationSpec, perturb, pullback
    # a perturbed pullback no longer factors through its base: word products
    pb = pullback(voiculescu_qrep(8), {"s1": "a", "t1": "b", "s2": "", "t2": ""})
    perturbed = perturb(pb, PerturbationSpec(radius=0.1, seed=7))
    rng = np.random.default_rng(11)
    custom = QuasiRep(Presentation.custom(("x", "y", "z"), (w("x y z"), w("[x, y] z^2"))),
                      {g: random_unitary(5, rng) for g in "xyz"}, WordProduct())
    for qr in (perturbed, custom):
        # qrep_to_json, through JSON text, qrep_from_json, and back to JSON
        back = qrep_from_json(json.loads(json.dumps(qrep_to_json(qr))))
        assert qrep_to_json(back) == qrep_to_json(qr)
        assert back.presentation == qr.presentation
        assert back.strategy == qr.strategy
        assert back.strategy.kind == "word-product"
        for g in qr.presentation.generators:
            assert np.array_equal(back.images[g].m, qr.images[g].m)
    assert perturbed.presentation.kind == "surface"
    assert custom.presentation.kind == "custom"


def test_qrep_json_file_reference(tmp_path):
    from qrep import matrix_to_json
    qr = voiculescu_qrep(4)
    mat_path = tmp_path / "u.json"
    mat_path.write_text(json.dumps(matrix_to_json(qr.images["a"].m)))
    obj = qrep_to_json(qr)
    obj["images"]["a"] = {"$file": "u.json"}
    back = qrep_from_json(obj, base_dir=str(tmp_path))
    assert np.array_equal(back.images["a"].m, qr.images["a"].m)


def test_qrep_json_malformed_file_reference_is_a_format_error(tmp_path):
    bad = tmp_path / "u.json"
    bad.write_text('{"dim": 2, ')
    obj = qrep_to_json(voiculescu_qrep(2))
    obj["images"]["a"] = {"$file": "u.json"}
    with pytest.raises(FormatError, match="invalid JSON in .*u.json"):
        qrep_from_json(obj, base_dir=str(tmp_path))
