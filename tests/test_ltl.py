import random

import pytest

from ltlsynth import ltl
from ltlsynth.ltl import (
    LtlSyntaxError,
    SpecError,
    assemble_spec,
    atom,
    format_ltl,
    land,
    lfinally,
    lglobally,
    limplies,
    lnext,
    lnot,
    load_spec,
    lor,
    luntil,
    lrelease,
    negate,
    parse_ltl,
    to_nnf,
)
from oracles import all_lassos, eval_ltl_lasso, random_formula


def test_parse_arbiter_guarantee():
    f = parse_ltl("G (r1 -> X F g1)")
    assert f == lglobally(limplies(atom("r1"), lnext(lfinally(atom("g1")))))


def test_parse_single_atom():
    assert parse_ltl("a") == atom("a")


def test_parse_until_right_associative():
    assert parse_ltl("a U b U c") == luntil(atom("a"), luntil(atom("b"), atom("c")))


def test_parse_precedence():
    # U binds tighter than &&, which binds tighter than ||, -> and <->
    f = parse_ltl("a U b && c || d -> e <-> f")
    expected = ltl.liff(
        limplies(
            ltl.lor(land(luntil(atom("a"), atom("b")), atom("c")), atom("d")),
            atom("e"),
        ),
        atom("f"),
    )
    assert f == expected


def test_parse_implies_right_associative():
    assert parse_ltl("a -> b -> c") == limplies(atom("a"), limplies(atom("b"), atom("c")))


@pytest.mark.parametrize("text", ["a &&", "(a", "a b", "U a", "", "!"])
def test_parse_errors_have_offset(text):
    with pytest.raises(LtlSyntaxError) as info:
        parse_ltl(text)
    assert info.value.offset >= 0
    assert isinstance(info.value.expected, set)


_OPERAND = {"atom", "true", "false", "!", "X", "F", "G", "("}


@pytest.mark.parametrize("text, offset, expected, shown", [
    ("a &&", 4, _OPERAND, "end of input"),
    ("(a", 2, {")"}, "end of input"),
    ("a b", 2, {"end of input", "binary operator"}, "b"),
    ("U a", 0, _OPERAND, "U"),
    ("", 0, _OPERAND, "end of input"),
    ("!", 1, _OPERAND, "end of input"),
    ("(a U", 4, _OPERAND, "end of input"),
])
def test_parse_error_sites_pinned(text, offset, expected, shown):
    with pytest.raises(LtlSyntaxError) as info:
        parse_ltl(text)
    assert (info.value.offset, info.value.expected) == (offset, expected)
    listed = ", ".join(sorted(expected))
    assert str(info.value) == f"unexpected {shown!r} at offset {offset} (expected {listed})"


@pytest.mark.parametrize("text, tree", [
    ("a U b R c", luntil(atom("a"), lrelease(atom("b"), atom("c")))),
    ("a R b U c", lrelease(atom("a"), luntil(atom("b"), atom("c")))),
    ("a && b & c", land(land(atom("a"), atom("b")), atom("c"))),
    ("a | b || c", lor(lor(atom("a"), atom("b")), atom("c"))),
    ("a <-> b <-> c", ltl.liff(atom("a"), ltl.liff(atom("b"), atom("c")))),
])
def test_parse_mixed_and_chained_operators(text, tree):
    assert parse_ltl(text) == tree


def test_parse_unknown_character():
    with pytest.raises(LtlSyntaxError) as info:
        parse_ltl("a @ b")
    assert info.value.offset == 2


def test_parse_whitespace_insensitive():
    assert parse_ltl("G(a&&b)") == parse_ltl("  G ( a && b ) ")


def test_alternate_spellings():
    assert parse_ltl("a & b") == parse_ltl("a && b")
    assert parse_ltl("a | b") == parse_ltl("a || b")


def test_nnf_until_duality():
    assert to_nnf(lnot(luntil(atom("a"), atom("b")))) == lrelease(
        lnot(atom("a")), lnot(atom("b"))
    )
    a, b = atom("a"), atom("b")
    assert to_nnf(limplies(a, b)) == lor(lnot(a), b)
    assert to_nnf(lnot(limplies(a, b))) == land(a, lnot(b))
    assert to_nnf(ltl.liff(a, b)) == lor(land(a, b), land(lnot(a), lnot(b)))
    assert to_nnf(lnot(ltl.liff(a, b))) == lor(land(a, lnot(b)), land(lnot(a), b))
    assert to_nnf(lfinally(a)) == luntil(ltl.LTRUE, a)
    assert to_nnf(lnot(lfinally(a))) == lrelease(ltl.LFALSE, lnot(a))


def test_nnf_globally_duality():
    assert to_nnf(lnot(lglobally(atom("a")))) == luntil(ltl.LTRUE, lnot(atom("a")))


def test_nnf_negated_iff_trace_equivalent():
    f = lnot(ltl.liff(atom("a"), atom("b")))
    g = to_nnf(f)
    assert _pure_nnf(g)
    for a_val in (False, True):
        for b_val in (False, True):
            letter = frozenset(
                {name for name, v in (("a", a_val), ("b", b_val)) if v}
            )
            word = ([letter], [letter])
            assert eval_ltl_lasso(f, *word) == eval_ltl_lasso(g, *word)


def _pure_nnf(f):
    if f.kind == ltl.NOT:
        return f.children[0].kind == ltl.ATOM
    if f.kind in (ltl.IMPLIES, ltl.IFF, ltl.FINALLY, ltl.GLOBALLY):
        return False
    return all(_pure_nnf(c) for c in f.children)


def test_negate_basics():
    assert negate(ltl.LTRUE) == ltl.LFALSE
    assert negate(lglobally(lnot(land(atom("g1"), atom("g2"))))) == luntil(
        ltl.LTRUE, land(atom("g1"), atom("g2"))
    )
    assert negate(lnext(atom("a"))) == lnext(lnot(atom("a")))
    a, b = atom("a"), atom("b")
    assert negate(limplies(a, b)) == land(a, lnot(b))
    assert negate(lnot(limplies(a, b))) == lor(lnot(a), b)
    assert negate(ltl.liff(a, b)) == lor(land(a, lnot(b)), land(lnot(a), b))
    assert negate(lnot(ltl.liff(a, b))) == lor(land(a, b), land(lnot(a), lnot(b)))
    assert negate(lfinally(a)) == lrelease(ltl.LFALSE, lnot(a))
    assert negate(lnot(lfinally(a))) == luntil(ltl.LTRUE, a)


def _spine(f):
    """Kinds along the rightmost path from the root, down to its leaf."""
    kinds = [f.kind]
    while f.children:
        f = f.children[-1]
        kinds.append(f.kind)
    return kinds


@pytest.mark.parametrize("text, nnf, negated", [
    ("F " * 800 + "a", [ltl.UNTIL] * 800 + [ltl.ATOM], [ltl.RELEASE] * 800 + [ltl.NOT, ltl.ATOM]),
    ("G " * 800 + "a", [ltl.RELEASE] * 800 + [ltl.ATOM], [ltl.UNTIL] * 800 + [ltl.NOT, ltl.ATOM]),
    ("X " * 800 + "a", [ltl.NEXT] * 800 + [ltl.ATOM], [ltl.NEXT] * 800 + [ltl.NOT, ltl.ATOM]),
    ("! " * 800 + "a", [ltl.ATOM], [ltl.NOT, ltl.ATOM]),
    ("a -> " * 800 + "a", [ltl.OR] * 800 + [ltl.ATOM], [ltl.AND] * 800 + [ltl.NOT, ltl.ATOM]),
], ids=["F", "G", "X", "not", "implies"])
def test_nnf_of_deeply_nested_spec(text, nnf, negated):
    """800 nesting levels fit the default recursion limit: parsing and NNF
    take one Python frame per level."""
    f = parse_ltl(text)
    assert _spine(to_nnf(f)) == nnf
    assert _spine(negate(f)) == negated


def test_assemble_spec():
    ga = lglobally(atom("a"))
    assert assemble_spec([], [ga]) == ga
    assert assemble_spec([], []) == ltl.LTRUE
    gr, gg = lglobally(atom("r")), lglobally(atom("g"))
    assert assemble_spec([gr], [gg]) == limplies(gr, gg)


def test_parse_is_left_inverse_of_format():
    rng = random.Random(7)
    for _ in range(300):
        f = random_formula(rng, ["a", "b", "c"], depth=4)
        assert parse_ltl(format_ltl(f)) == f


def test_nnf_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, ["a", "b"], depth=4)
        once = to_nnf(f)
        assert to_nnf(once) == once
        assert _pure_nnf(once)


def test_nnf_trace_equivalent_on_lassos():
    rng = random.Random(13)
    lassos = list(all_lassos(["a", "b"], max_prefix=1, max_loop=2))
    for _ in range(60):
        f = random_formula(rng, ["a", "b"], depth=3)
        g = to_nnf(f)
        h = negate(f)
        for prefix, loop in lassos:
            expect = eval_ltl_lasso(f, prefix, loop)
            assert eval_ltl_lasso(g, prefix, loop) == expect
            assert eval_ltl_lasso(h, prefix, loop) == (not expect)


def test_nnf_trace_equivalent_three_atoms_long_loops():
    rng = random.Random(14)
    from oracles import all_letters

    letters = all_letters(["a", "b", "c"])
    for _ in range(80):
        f = random_formula(rng, ["a", "b", "c"], depth=4)
        g = to_nnf(f)
        for _ in range(25):
            prefix = [rng.choice(letters) for _ in range(rng.randrange(0, 3))]
            loop = [rng.choice(letters) for _ in range(rng.randrange(1, 5))]
            assert eval_ltl_lasso(g, prefix, loop) == eval_ltl_lasso(f, prefix, loop)


# ---------------------------------------------------------------------------
# Specification files


GOOD_SPEC = """
{
  "semantics": "moore",
  "inputs": ["r1", "r2"],
  "outputs": ["g1", "g2"],
  "guarantees": ["G (r1 -> X F g1)", "G (r2 -> X F g2)", "G ! (g1 && g2)"]
}
"""


def test_load_spec_roundtrip():
    spec = load_spec(GOOD_SPEC)
    assert spec.semantics == "moore"
    assert spec.inputs == ("r1", "r2")
    assert spec.outputs == ("g1", "g2")
    assert len(spec.guarantees) == 3
    assert spec.assumptions == ()
    top = spec.formula()
    assert top.kind == ltl.AND


def test_load_spec_with_assumptions():
    spec = load_spec(
        '{"semantics": "mealy", "inputs": ["r"], "outputs": ["g"],'
        ' "assumptions": ["G F r"], "guarantees": ["G F g"]}'
    )
    assert spec.formula().kind == ltl.IMPLIES


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1,2]",
        '{"semantics": "x", "inputs": [], "outputs": [], "guarantees": []}',
        '{"semantics": "moore", "inputs": ["a"], "outputs": ["a"], "guarantees": []}',
        '{"semantics": "moore", "inputs": ["a"], "outputs": ["b"]}',
        '{"semantics": "moore", "inputs": ["a"], "outputs": ["b"], "guarantees": ["G c"]}',
        '{"semantics": "moore", "inputs": ["a"], "outputs": ["b"], "guarantees": ["(("]}',
        '{"semantics": "moore", "inputs": ["true"], "outputs": ["b"], "guarantees": []}',
        '{"semantics": "moore", "inputs": ["a", "a"], "outputs": ["b"], "guarantees": []}',
    ],
)
def test_load_spec_rejects_malformed(text):
    with pytest.raises(SpecError):
        load_spec(text)
