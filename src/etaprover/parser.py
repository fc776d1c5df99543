"""Parser for the identity file grammar.

The surface language:

* ``#`` starts a line comment;
* ``let NAME = expr;`` binds a name for later use;
* the final statement is either a bare expression, asserting that it equals
  zero, or ``U(p) lhs = rhs`` for a U_p identity;
* expressions are built from integer literals, ``eta(K)`` atoms, bracket
  lists ``[t1,r1,t2,r2,...]``, bound names, parentheses and ``+ - * / ^``,
  with ``^`` taking an integer literal exponent.

Expressions lower to :class:`EtaCombo` values as they are read.  Division
is only defined by a constant or by a single eta-product monomial; anything
else reports the offending subexpression with its source position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import LoweringError, ParseError
from .etaproducts import EtaCombo, EtaProduct

__all__ = ["LinearIdentity", "UpIdentity", "parse_program", "parse_expression"]

_KEYWORDS = {"let", "eta", "U"}
_MAX_PARENS = 200  # open parentheses; each costs four Python frames

_PUNCT = "+-*/^()[],;="


class _Token(NamedTuple):
    kind: str  # "int", "name", one of _PUNCT, or "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isdecimal():
            start = i
            c0 = col
            while i < n and text[i].isdecimal():
                i += 1
                col += 1
            toks.append(_Token("int", text[start:i], line, c0))
        elif ch.isalpha() or ch == "_":
            start = i
            c0 = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            toks.append(_Token("name", text[start:i], line, c0))
        elif ch in _PUNCT:
            toks.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


@dataclass(frozen=True)
class LinearIdentity:
    """An assertion that ``combo`` vanishes identically."""
    combo: EtaCombo
    source: str


@dataclass(frozen=True)
class UpIdentity:
    """An assertion that U_p of ``product`` equals ``rhs``."""
    p: int
    product: EtaProduct
    rhs: EtaCombo
    source: str


class _Parser:
    """Recursive descent that lowers each construct to an :class:`EtaCombo`
    as soon as it is read, so the leftmost error in the text is the one
    reported.  ``env`` holds the values of the ``let`` bindings read so far.
    """

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.env: dict[str, EtaCombo] = {}
        self.parens = 0  # open parentheses

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            what = t.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {what!r}", t.line, t.col)
        return self.next()

    def signed_int(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        return sign * int(self.expect("int").text)

    # bindings := {"let" NAME "=" expr ";"}
    def bindings(self) -> None:
        while self.peek().kind == "name" and self.peek().text == "let":
            self.next()
            name = self.expect("name")
            if name.text in _KEYWORDS:
                raise ParseError(f"{name.text!r} is reserved", name.line, name.col)
            self.expect("=")
            value = self.expr()
            self.expect(";")
            self.env[name.text] = value

    def last_expr(self) -> EtaCombo:
        value = self.expr()
        self.expect("eof")
        return value

    # expr := ["+"|"-"] term {("+"|"-") term}
    def expr(self) -> EtaCombo:
        sign = self.peek().kind
        if sign in "+-":
            self.next()
        value = self.term()
        if sign == "-":
            value = -value
        while self.peek().kind in "+-":
            op = self.next()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    # term := factor {("*"|"/") factor}
    def term(self) -> EtaCombo:
        value = self.factor()
        while self.peek().kind in "*/":
            op = self.next()
            rhs = self.factor()
            if op.kind == "*":
                value = value * rhs
                continue
            try:
                value = value / rhs
            except (ValueError, ZeroDivisionError) as exc:
                raise LoweringError(f"cannot divide here: {exc}",
                                    op.line, op.col) from exc
        return value

    # factor := atom ["^" ["-"] INT]
    def factor(self) -> EtaCombo:
        value = self.atom()
        if self.peek().kind == "^":
            caret = self.next()
            exponent = self.signed_int()
            try:
                value = value ** exponent
            except (ValueError, ZeroDivisionError) as exc:
                raise LoweringError(
                    f"cannot raise this expression to the power {exponent}: {exc}",
                    caret.line, caret.col) from exc
        return value

    # atom := INT | "(" expr ")" | bracket | "eta" "(" INT ")" | NAME
    def atom(self) -> EtaCombo:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return EtaCombo(int(t.text))
        if t.kind == "(":
            if self.parens == _MAX_PARENS:
                raise ParseError(f"more than {_MAX_PARENS} nested parentheses", t.line, t.col)
            self.next()
            self.parens += 1
            value = self.expr()
            self.expect(")")
            self.parens -= 1
            return value
        if t.kind == "[":
            return self.bracket()
        if t.kind == "name":
            self.next()
            if t.text == "eta":
                self.expect("(")
                k = int(self.expect("int").text)
                self.expect(")")
                if k < 1:
                    raise LoweringError("eta multiplier must be a positive integer",
                                        t.line, t.col)
                return EtaCombo.from_product(EtaProduct([(k, 1)]))
            if t.text in _KEYWORDS:
                raise ParseError(f"{t.text!r} cannot be used here", t.line, t.col)
            if t.text not in self.env:
                raise LoweringError(f"unknown name {t.text!r}", t.line, t.col)
            return self.env[t.text]
        what = t.text or "end of input"
        raise ParseError(f"expected an expression, found {what!r}", t.line, t.col)

    # bracket := "[" ["-"] INT {"," ["-"] INT} "]", an even number of entries
    def bracket(self) -> EtaCombo:
        start = self.expect("[")
        entries = [self.signed_int()]
        while self.peek().kind == ",":
            self.next()
            entries.append(self.signed_int())
        self.expect("]")
        if len(entries) % 2:
            raise ParseError("bracket list needs an even number of entries",
                             start.line, start.col)
        try:
            return EtaCombo.from_product(EtaProduct.from_flat(entries))
        except ValueError as exc:
            raise LoweringError(str(exc), start.line, start.col) from exc


def parse_program(text: str) -> Union[LinearIdentity, UpIdentity]:
    """Parse an identity file: bindings plus one final identity statement."""
    parser = _Parser(text)
    parser.bindings()
    t = parser.peek()
    if t.kind == "name" and t.text == "U":
        parser.next()
        parser.expect("(")
        p_tok = parser.expect("int")
        parser.expect(")")
        arg = parser.peek()
        product = parser.expr().as_product()
        if product is None:
            raise LoweringError(
                "the U(p) argument must be a plain eta-product with coefficient 1",
                arg.line, arg.col)
        parser.expect("=")
        return UpIdentity(p=int(p_tok.text), product=product,
                          rhs=parser.last_expr(), source=text)
    return LinearIdentity(combo=parser.last_expr(), source=text)


def parse_expression(text: str) -> EtaCombo:
    """Parse a single expression (bindings allowed) into an EtaCombo."""
    parser = _Parser(text)
    parser.bindings()
    return parser.last_expr()
