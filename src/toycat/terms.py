"""A small expression language over named relations.

Grammar:

    term := atom | term ";" term | term "x" term | term "^" | "(" term ")"

";" is composition with the left operand outermost ("f ; g" denotes f o g,
so g is applied first), "x" is the tensor and binds tighter than ";", and
the postfix "^" (dagger) binds tightest. Identifiers resolve against a
symbol table supplied by the active model; the bare name "x" is reserved
for the tensor operator.

Terms type-check against the symbol table before evaluation, so dimension
mismatches are reported with both object signatures instead of failing
mid-computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .relcore import (
    FinObject,
    Relation,
    ShapeMismatchError,
    checked_shape,
    compose,
    dagger,
    least_diff_cell,
    tensor,
)

__all__ = [
    "Term",
    "Atom",
    "Compose",
    "Tensor",
    "Dagger",
    "TermSyntaxError",
    "UnknownIdentifierError",
    "parse_term",
    "format_term",
    "signature_of",
    "eval_term",
    "assert_equal",
    "EqualityVerdict",
]


class TermSyntaxError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class UnknownIdentifierError(KeyError):
    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unknown identifier {self.name!r}"


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Compose:
    outer: "Term"
    inner: "Term"


@dataclass(frozen=True)
class Tensor:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Dagger:
    arg: "Term"


Term = Union[Atom, Compose, Tensor, Dagger]


def _tokenize(src: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in ";^()":
            tokens.append(("op", ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            if word == "x":
                tokens.append(("op", "x", line, col))
            else:
                tokens.append(("ident", word, line, col))
            col += j - i
            i = j
            continue
        raise TermSyntaxError(f"unexpected character {ch!r}", line, col)
    return tokens


def parse_term(src: str) -> Term:
    """Parse a term; raises TermSyntaxError with position on bad input."""
    tokens = _tokenize(src)
    pos = 0

    def peek() -> tuple[str, str, int, int] | None:
        return tokens[pos] if pos < len(tokens) else None

    def fail(message: str) -> TermSyntaxError:
        if pos < len(tokens):
            _, _, ln, cl = tokens[pos]
        elif tokens:
            _, val, ln, cl = tokens[-1]
            cl += len(val)
        else:
            ln, cl = 1, 1
        return TermSyntaxError(message, ln, cl)

    def parse_seq() -> Term:
        nonlocal pos
        node = parse_tens()
        while (tok := peek()) and tok[:2] == ("op", ";"):
            pos += 1
            rhs = parse_tens()
            node = Compose(node, rhs)
        return node

    def parse_tens() -> Term:
        nonlocal pos
        node = parse_post()
        while (tok := peek()) and tok[:2] == ("op", "x"):
            pos += 1
            rhs = parse_post()
            node = Tensor(node, rhs)
        return node

    def parse_post() -> Term:
        nonlocal pos
        node = parse_atom()
        while (tok := peek()) and tok[:2] == ("op", "^"):
            pos += 1
            node = Dagger(node)
        return node

    def parse_atom() -> Term:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise fail("unexpected end of input")
        kind, value, _, _ = tok
        if kind == "ident":
            pos += 1
            return Atom(value)
        if (kind, value) == ("op", "("):
            pos += 1
            node = parse_seq()
            closing = peek()
            if closing is None or closing[:2] != ("op", ")"):
                raise fail("expected ')'")
            pos += 1
            return node
        raise fail(f"unexpected token {value!r}")

    node = parse_seq()
    if pos != len(tokens):
        raise fail(f"unexpected token {tokens[pos][1]!r}")
    return node


def _level(term: Term) -> int:
    if isinstance(term, Compose):
        return 0
    if isinstance(term, Tensor):
        return 1
    return 2


def format_term(term: Term) -> str:
    """Render with minimal parentheses; parse(format(t)) == t."""
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Dagger):
        inner = format_term(term.arg)
        if _level(term.arg) < 2:
            inner = f"({inner})"
        return f"{inner}^"
    if isinstance(term, Tensor):
        left = format_term(term.left)
        right = format_term(term.right)
        if _level(term.left) < 1:
            left = f"({left})"
        if _level(term.right) <= 1:
            right = f"({right})"
        return f"{left} x {right}"
    left = format_term(term.outer)
    right = format_term(term.inner)
    if _level(term.inner) == 0:
        right = f"({right})"
    return f"{left} ; {right}"


def signature_of(term: Term, symbols: Mapping[str, Relation]) -> tuple[FinObject, FinObject]:
    """Type-check a term, returning (dom, cod) without evaluating matrices;
    a subterm of more than `MAX_RELATION_CELLS` cells is refused (`checked_shape`)."""
    if isinstance(term, Atom):
        if term.name not in symbols:
            raise UnknownIdentifierError(term.name)
        rel = symbols[term.name]
        return rel.dom, rel.cod
    if isinstance(term, Dagger):
        dom, cod = signature_of(term.arg, symbols)
        return cod, dom
    if isinstance(term, Tensor):
        ldom, lcod = signature_of(term.left, symbols)
        rdom, rcod = signature_of(term.right, symbols)
        return checked_shape(ldom * rdom, lcod * rcod)
    odom, ocod = signature_of(term.outer, symbols)
    idom, icod = signature_of(term.inner, symbols)
    if icod != odom:
        raise ShapeMismatchError(
            f"cannot compose {format_term(term.outer)} (domain {odom}) after "
            f"{format_term(term.inner)} (codomain {icod})"
        )
    return checked_shape(idom, ocod)


def eval_term(term: Term, symbols: Mapping[str, Relation]) -> Relation:
    """Evaluate a type-checked term to a relation."""
    signature_of(term, symbols)
    return _eval(term, symbols)


def _eval(term: Term, symbols: Mapping[str, Relation]) -> Relation:
    if isinstance(term, Atom):
        return symbols[term.name]
    if isinstance(term, Dagger):
        return dagger(_eval(term.arg, symbols))
    if isinstance(term, Tensor):
        return tensor(_eval(term.left, symbols), _eval(term.right, symbols))
    return compose(_eval(term.outer, symbols), _eval(term.inner, symbols))


@dataclass(frozen=True)
class EqualityVerdict:
    equal: bool
    lhs: Relation
    rhs: Relation
    witness: tuple[int, int] | None

    def to_json(self) -> dict:
        data: dict = {"equal": self.equal}
        if self.witness is not None:
            i, j = self.witness
            data["witness"] = {"row": i, "col": j}
        return data


def assert_equal(
    lhs: Term | str, rhs: Term | str, symbols: Mapping[str, Relation]
) -> EqualityVerdict:
    """Evaluate both sides and compare exactly.

    Raises ShapeMismatchError when the signatures differ; on inequality the
    verdict carries the least differing matrix cell as (col=dom, row=cod).
    """
    lt = parse_term(lhs) if isinstance(lhs, str) else lhs
    rt = parse_term(rhs) if isinstance(rhs, str) else rhs
    lsig = signature_of(lt, symbols)
    rsig = signature_of(rt, symbols)
    if lsig != rsig:
        raise ShapeMismatchError(
            f"signature mismatch: {lsig[0]} -> {lsig[1]} vs {rsig[0]} -> {rsig[1]}"
        )
    lrel = _eval(lt, symbols)
    rrel = _eval(rt, symbols)
    if lrel == rrel:
        return EqualityVerdict(True, lrel, rrel, None)
    return EqualityVerdict(False, lrel, rrel, least_diff_cell(lrel, rrel))
