"""Recursive-descent parser for the distribution expression grammar.

    dist := name opening arg ("," arg)* closing
    rat  := integer | integer "/" positive-integer

with one production per family of `moments.GRAMMAR`, which fixes each
family's name, brackets, argument types (int or rat, or a nonempty rat list)
and constructor. The same rational syntax is used for the CLI's lambda flag.
Semantic errors (parameters outside their domain) surface as
DistributionError from the oracle constructors.
"""

from __future__ import annotations

from fractions import Fraction

from .moments import GRAMMAR, Family, MomentOracle


class ParseError(ValueError):
    """Syntax error with the 0-based position where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def parse_rational(self) -> Fraction:
        num = self.parse_integer()
        self.skip_ws()
        if self.peek() != "/":
            return Fraction(num)
        self.pos += 1
        den_start = self.pos
        den = self.parse_integer()
        if den <= 0:
            raise ParseError("denominator must be a positive integer", den_start)
        return Fraction(num, den)

    def parse_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.peek().isalpha():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a distribution name", start)
        return self.text[start:self.pos]

    def parse_dist(self) -> MomentOracle:
        name = self.parse_name()
        name_pos = self.pos - len(name)
        families = [f for f in GRAMMAR.values() if f.name == name]
        if not families:
            raise ParseError(f"unknown distribution {name!r}", name_pos)
        self.skip_ws()
        for family in families:
            if self.peek() == family.opening:
                self.pos += 1
                return family.make(*self.parse_args(family))
        if len(families) == 1:
            raise ParseError(f"expected {families[0].opening!r}", self.pos)
        openings = " or ".join(repr(f.opening) for f in families)
        raise ParseError(f"expected {openings} after {name!r}", self.pos)

    def parse_args(self, family: Family) -> list:
        """The arguments after the opening bracket, through the closing one."""
        if family.args == (Fraction, ...):
            values = [self.parse_rational()]
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                values.append(self.parse_rational())
                self.skip_ws()
            self.expect(family.closing)
            return [values]
        values = []
        for i, kind in enumerate(family.args):
            if i:
                self.expect(",")
            values.append(self.parse_integer() if kind is int else self.parse_rational())
        self.expect(family.closing)
        return values

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)


def parse_dist(expr: str) -> MomentOracle:
    """Parse a distribution expression into a moment oracle."""
    if not expr or not expr.strip():
        raise ParseError("empty distribution expression", 0)
    parser = _Parser(expr)
    oracle = parser.parse_dist()
    parser.expect_end()
    return oracle


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (q > 0) into an exact rational."""
    parser = _Parser(text)
    value = parser.parse_rational()
    parser.expect_end()
    return value
