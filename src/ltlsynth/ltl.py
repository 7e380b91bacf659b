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

_ARITY = {
    ATOM: 0, TRUE: 0, FALSE: 0,
    NOT: 1, NEXT: 1, FINALLY: 1, GLOBALLY: 1,
    AND: 2, OR: 2, IMPLIES: 2, IFF: 2, UNTIL: 2, RELEASE: 2,
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"true", "false", "X", "F", "G", "U", "R"}


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
            if not self.name or not _NAME_RE.match(self.name):
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


_TOKEN_RE = re.compile(
    r"\s+"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><->|->|&&|\|\||[&|!()])"
)

# token kinds: ATOM/'true'/'false'/'X'/'F'/'G'/'U'/'R'/'!'/'&'/'|'/'->'/'<->'/'('/')'/'eof'


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LtlSyntaxError(f"unknown character {text[pos]!r}", pos)
        if m.lastgroup == "name":
            word = m.group("name")
            if word in ("true", "false"):
                tokens.append((word, word, pos))
            elif word in ("X", "F", "G", "U", "R"):
                tokens.append((word, word, pos))
            else:
                tokens.append(("atom", word, pos))
        elif m.lastgroup == "op":
            op = m.group("op")
            op = {"&&": "&", "||": "|"}.get(op, op)
            tokens.append((op, op, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self) -> str:
        return self.tokens[self.idx][0]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def error(self, expected: set[str]):
        kind, value, offset = self.tokens[self.idx]
        shown = value if kind != "eof" else "end of input"
        raise LtlSyntaxError(f"unexpected {shown!r}", offset, expected)

    def parse_iff(self) -> LtlFormula:
        left = self.parse_implies()
        if self.peek() == "<->":
            self.advance()
            return liff(left, self.parse_iff())
        return left

    def parse_implies(self) -> LtlFormula:
        left = self.parse_or()
        if self.peek() == "->":
            self.advance()
            return limplies(left, self.parse_implies())
        return left

    def parse_or(self) -> LtlFormula:
        left = self.parse_and()
        while self.peek() == "|":
            self.advance()
            left = lor(left, self.parse_and())
        return left

    def parse_and(self) -> LtlFormula:
        left = self.parse_until()
        while self.peek() == "&":
            self.advance()
            left = land(left, self.parse_until())
        return left

    def parse_until(self) -> LtlFormula:
        left = self.parse_unary()
        if self.peek() in ("U", "R"):
            op, _, _ = self.advance()
            right = self.parse_until()
            return luntil(left, right) if op == "U" else lrelease(left, right)
        return left

    def parse_unary(self) -> LtlFormula:
        kind = self.peek()
        if kind in ("!", "X", "F", "G"):
            self.advance()
            child = self.parse_unary()
            ctor = {"!": lnot, "X": lnext, "F": lfinally, "G": lglobally}[kind]
            return ctor(child)
        return self.parse_primary()

    def parse_primary(self) -> LtlFormula:
        kind, value, _ = self.tokens[self.idx]
        if kind == "atom":
            self.advance()
            return atom(value)
        if kind == "true":
            self.advance()
            return LTRUE
        if kind == "false":
            self.advance()
            return LFALSE
        if kind == "(":
            self.advance()
            inner = self.parse_iff()
            if self.peek() != ")":
                self.error({")"})
            self.advance()
            return inner
        self.error({"atom", "true", "false", "!", "X", "F", "G", "("})


def parse_ltl(text: str) -> LtlFormula:
    """Parse an LTL formula from text; raises LtlSyntaxError on bad input."""
    parser = _Parser(text)
    result = parser.parse_iff()
    if parser.peek() != "eof":
        parser.error({"end of input", "binary operator"})
    return result


_BINOP_TEXT = {AND: "&&", OR: "||", IMPLIES: "->", IFF: "<->", UNTIL: "U", RELEASE: "R"}
_UNOP_TEXT = {NOT: "!", NEXT: "X", FINALLY: "F", GLOBALLY: "G"}


def format_ltl(f: LtlFormula) -> str:
    """Canonical text form; parse_ltl(format_ltl(f)) reproduces f exactly."""
    if f.kind == ATOM:
        return f.name
    if f.kind == TRUE:
        return "true"
    if f.kind == FALSE:
        return "false"
    if f.kind in _UNOP_TEXT:
        return f"{_UNOP_TEXT[f.kind]} {format_ltl(f.children[0])}"
    left, right = f.children
    return f"({format_ltl(left)} {_BINOP_TEXT[f.kind]} {format_ltl(right)})"


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
            if not _NAME_RE.match(v) or v in _RESERVED:
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
