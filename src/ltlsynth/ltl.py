"""LTL abstract syntax, text parsing, negation normal form, and spec files.

Grammar (loosest to tightest binding):

    iff     ::= implies ( '<->' iff )?
    implies ::= or ( '->' implies )?          right associative
    or      ::= and ( ('||' | '|') and )*
    and     ::= until ( ('&&' | '&') until )*
    until   ::= unary ( ('U' | 'R') until )?  right associative
    unary   ::= ('!' | 'X' | 'F' | 'G') unary | primary
    primary ::= atom | 'true' | 'false' | '(' iff ')'

Atoms match [A-Za-z_][A-Za-z0-9_]*; the names true, false, X, F, G, U, R
are reserved.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

# Node kinds.
ATOM = "atom"
TRUE = "true"
FALSE = "false"
NOT = "not"
AND = "and"
OR = "or"
IMPLIES = "implies"
IFF = "iff"
NEXT = "next"
UNTIL = "until"
RELEASE = "release"
FINALLY = "finally"
GLOBALLY = "globally"

# The operator table. A binary token maps to (kind, binding strength, right
# associative), 1 binding loosest; '&&' and '||' are read as '&' and '|'
# and written in the long form.
_BINARY = {
    "<->": (IFF, 1, True),
    "->": (IMPLIES, 2, True),
    "|": (OR, 3, False),
    "&": (AND, 4, False),
    "U": (UNTIL, 5, True),
    "R": (RELEASE, 5, True),
}
_UNARY = {"!": NOT, "X": NEXT, "F": FINALLY, "G": GLOBALLY}
_LONG = {"&": "&&", "|": "||"}

_ARITY = {ATOM: 0, TRUE: 0, FALSE: 0, **dict.fromkeys(_UNARY.values(), 1)}
_ARITY.update((kind, 2) for kind, _, _ in _BINARY.values())
_TEXT = {kind: _LONG.get(tok, tok) for tok, (kind, _, _) in _BINARY.items()}
_TEXT.update((kind, tok) for tok, kind in _UNARY.items())
_RESERVED = {TRUE, FALSE, *(tok for tok in (*_UNARY, *_BINARY) if tok.isalpha())}
# tokens that can start an operand
_OPERAND = {"atom", TRUE, FALSE, "(", *_UNARY}

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"\s+|(?P<name>{_NAME})|(?P<op><->|->|&&|\|\||[&|!()])")


@dataclass(frozen=True)
class LtlFormula:
    """Immutable LTL syntax tree node."""

    kind: str
    children: tuple["LtlFormula", ...] = ()
    name: str | None = None

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown formula kind {self.kind!r}")
        if len(self.children) != _ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} expects {_ARITY[self.kind]} children, got {len(self.children)}"
            )
        if self.kind == ATOM:
            if not self.name or not re.fullmatch(_NAME, self.name):
                raise ValueError(f"invalid atom name {self.name!r}")
        elif self.name is not None:
            raise ValueError(f"{self.kind} node cannot carry a name")
        # cached, and free of hash(None), which is an address on Python < 3.12
        object.__setattr__(self, "_hash", hash((self.kind, self.children, self.name or "")))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LtlFormula({format_ltl(self)!r})"


def atom(name: str) -> LtlFormula:
    return LtlFormula(ATOM, name=name)


LTRUE = LtlFormula(TRUE)
LFALSE = LtlFormula(FALSE)


def lnot(f: LtlFormula) -> LtlFormula:
    return LtlFormula(NOT, (f,))


def land(a: LtlFormula, b: LtlFormula) -> LtlFormula:
    return LtlFormula(AND, (a, b))


def lor(a: LtlFormula, b: LtlFormula) -> LtlFormula:
    return LtlFormula(OR, (a, b))


def limplies(a: LtlFormula, b: LtlFormula) -> LtlFormula:
    return LtlFormula(IMPLIES, (a, b))


def liff(a: LtlFormula, b: LtlFormula) -> LtlFormula:
    return LtlFormula(IFF, (a, b))


def lnext(f: LtlFormula) -> LtlFormula:
    return LtlFormula(NEXT, (f,))


def luntil(a: LtlFormula, b: LtlFormula) -> LtlFormula:
    return LtlFormula(UNTIL, (a, b))


def lrelease(a: LtlFormula, b: LtlFormula) -> LtlFormula:
    return LtlFormula(RELEASE, (a, b))


def lfinally(f: LtlFormula) -> LtlFormula:
    return LtlFormula(FINALLY, (f,))


def lglobally(f: LtlFormula) -> LtlFormula:
    return LtlFormula(GLOBALLY, (f,))


def atoms_of(f: LtlFormula) -> set[str]:
    """Collect the atomic proposition names occurring in f."""
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == ATOM:
            out.add(g.name)
        stack.extend(g.children)
    return out


# ---------------------------------------------------------------------------
# Parsing


class LtlSyntaxError(ValueError):
    """Parse failure; carries the byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected: set[str] = frozenset()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = set(expected)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) triples: an operator or reserved word is its own
    kind and any other name an 'atom'; the last, 'eof', reads 'end of input'."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LtlSyntaxError(f"unknown character {text[pos]!r}", pos)
        word = m.group("name")
        if word is not None:
            tokens.append((word if word in _RESERVED else "atom", word, pos))
        elif m.lastgroup == "op":
            op = m.group("op")
            op = op[0] if op[0] in _LONG else op
            tokens.append((op, op, pos))
        pos = m.end()
    tokens.append(("eof", "end of input", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self) -> str:
        return self.tokens[self.idx][0]

    def error(self, expected: set[str]):
        _, shown, offset = self.tokens[self.idx]
        raise LtlSyntaxError(f"unexpected {shown!r}", offset, expected)

    def parse(self, weakest: int = 1) -> LtlFormula:
        """An operand followed by binary operators binding at least as
        strongly as `weakest`, by precedence climbing."""
        left = self.parse_unary()
        while self.peek() in _BINARY:
            kind, strength, right_assoc = _BINARY[self.peek()]
            if strength < weakest:
                break
            self.idx += 1
            right = self.parse(strength if right_assoc else strength + 1)
            left = LtlFormula(kind, (left, right))
        return left

    def parse_unary(self) -> LtlFormula:
        kind, value, _ = self.tokens[self.idx]
        if kind not in _OPERAND:
            self.error(_OPERAND)
        self.idx += 1
        if kind in _UNARY:
            return LtlFormula(_UNARY[kind], (self.parse_unary(),))
        if kind == "atom":
            return atom(value)
        if kind != "(":
            return LTRUE if kind == TRUE else LFALSE
        inner = self.parse()
        if self.peek() != ")":
            self.error({")"})
        self.idx += 1
        return inner


def parse_ltl(text: str) -> LtlFormula:
    """Parse an LTL formula from text; raises LtlSyntaxError on bad input."""
    parser = _Parser(text)
    result = parser.parse()
    if parser.peek() != "eof":
        parser.error({"end of input", "binary operator"})
    return result


def format_ltl(f: LtlFormula) -> str:
    """Canonical text form; parse_ltl(format_ltl(f)) reproduces f exactly."""
    if f.kind == ATOM:
        return f.name
    if not f.children:
        return f.kind  # 'true' and 'false' are their own text
    if len(f.children) == 1:
        return f"{_TEXT[f.kind]} {format_ltl(f.children[0])}"
    left, right = f.children
    return f"({format_ltl(left)} {_TEXT[f.kind]} {format_ltl(right)})"


# ---------------------------------------------------------------------------
# Negation normal form


# Negating a conjunction, disjunction, until or release gives the dual kind
# over negated children.
_DUAL = {AND: OR, OR: AND, UNTIL: RELEASE, RELEASE: UNTIL}
# F p = true U p and G p = false R p.
_UNFOLD = {FINALLY: (UNTIL, LTRUE), GLOBALLY: (RELEASE, LFALSE)}


def _nnf(f: LtlFormula, negated: bool) -> LtlFormula:
    # One call per formula level, children built inline: a helper, a
    # comprehension or a rewrite-then-recurse would multiply the stack
    # depth that a deeply nested spec needs.
    k = f.kind
    if k == NOT:
        return _nnf(f.children[0], not negated)
    if k == ATOM:
        return lnot(f) if negated else f
    if k == TRUE or k == FALSE:
        return LFALSE if (k == TRUE) == negated else LTRUE
    if k == NEXT:
        return lnext(_nnf(f.children[0], negated))
    if k == IFF:
        # (a && b) || (!a && !b); negated, (a && !b) || (!a && b)
        a, b = f.children
        return lor(
            land(_nnf(a, False), _nnf(b, negated)),
            land(_nnf(a, True), _nnf(b, not negated)),
        )
    if k in _UNFOLD:
        k, a = _UNFOLD[k]
        b = f.children[0]
    else:
        a, b = f.children
    left = negated
    if k == IMPLIES:  # a -> b = !a || b
        k, left = OR, not negated
    return LtlFormula(_DUAL[k] if negated else k, (_nnf(a, left), _nnf(b, negated)))


def to_nnf(f: LtlFormula) -> LtlFormula:
    """Push negations to atoms, eliminating ->, <->, F, and G."""
    return _nnf(f, False)


def negate(f: LtlFormula) -> LtlFormula:
    """Negation normal form of !f."""
    return _nnf(f, True)


def assemble_spec(assumptions: list[LtlFormula], guarantees: list[LtlFormula]) -> LtlFormula:
    """Combine assumption and guarantee lists into (and A) -> (and G)."""
    def conj(fs: list[LtlFormula]) -> LtlFormula:
        if not fs:
            return LTRUE
        out = fs[0]
        for g in fs[1:]:
            out = land(out, g)
        return out

    goal = conj(guarantees)
    if not assumptions:
        return goal
    return limplies(conj(assumptions), goal)


# ---------------------------------------------------------------------------
# Specification files


class SpecError(ValueError):
    """Malformed synthesis specification file."""


@dataclass
class SynthSpec:
    """A parsed specification file: alphabet split plus assume/guarantee lists."""

    semantics: str  # 'mealy' | 'moore'
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    assumptions: tuple[LtlFormula, ...] = ()
    guarantees: tuple[LtlFormula, ...] = ()

    def formula(self) -> LtlFormula:
        return assemble_spec(list(self.assumptions), list(self.guarantees))


def load_spec(text: str) -> SynthSpec:
    """Parse and validate a JSON specification document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("top level must be a JSON object")

    semantics = doc.get("semantics")
    if semantics not in ("mealy", "moore"):
        raise SpecError('"semantics" must be "mealy" or "moore"')

    def name_list(key: str) -> tuple[str, ...]:
        value = doc.get(key)
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise SpecError(f'"{key}" must be an array of strings')
        for v in value:
            if not re.fullmatch(_NAME, v) or v in _RESERVED:
                raise SpecError(f"invalid atom name {v!r} in {key}")
        if len(set(value)) != len(value):
            raise SpecError(f"duplicate names in {key}")
        return tuple(value)

    inputs = name_list("inputs")
    outputs = name_list("outputs")
    overlap = set(inputs) & set(outputs)
    if overlap:
        raise SpecError(f"inputs and outputs overlap: {sorted(overlap)}")

    def formula_list(key: str, required: bool) -> tuple[LtlFormula, ...]:
        value = doc.get(key)
        if value is None:
            if required:
                raise SpecError(f'missing "{key}"')
            return ()
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise SpecError(f'"{key}" must be an array of LTL strings')
        out = []
        for src in value:
            try:
                out.append(parse_ltl(src))
            except LtlSyntaxError as exc:
                raise SpecError(f"in {key}: {src!r}: {exc}") from exc
        return tuple(out)

    assumptions = formula_list("assumptions", required=False)
    guarantees = formula_list("guarantees", required=True)

    alphabet = set(inputs) | set(outputs)
    for f in assumptions + guarantees:
        stray = atoms_of(f) - alphabet
        if stray:
            raise SpecError(f"atoms {sorted(stray)} not declared as inputs or outputs")

    return SynthSpec(semantics, inputs, outputs, assumptions, guarantees)


def load_spec_file(path: str) -> SynthSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return load_spec(handle.read())
