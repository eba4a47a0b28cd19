"""Integer-coefficient polynomials in x, y, z: parsing, printing, support.

Only the exponent support drives the geometry elsewhere in the package, but
coefficients are kept exactly so initial forms can be printed back out.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

Exponent = tuple[int, int, int]

_VARIABLES = ("x", "y", "z")


class ParseError(ValueError):
    """Malformed input text; ``pos`` is the character offset of the problem."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        where = repr(text)
        if len(text) > 80:  # quote the 80 characters around pos
            a = max(0, min(pos - 40, len(text) - 80))
            where = f"{text[a:a + 80]!r} (characters {a}-{a + 80} of {len(text)})"
        super().__init__(f"{message} (position {pos} in {where})")


def _is_int(v: object) -> bool:
    """An int and not a bool: ``True`` is an int subclass, but not a number
    any entry point takes."""
    return isinstance(v, int) and not isinstance(v, bool)


def _grevord(e: Exponent) -> tuple[int, int, int, int]:
    # graded-lexicographic, largest first: sort key for canonical printing
    return (-(e[0] + e[1] + e[2]), -e[0], -e[1], -e[2])


def _format_sum(
    terms: Iterable[tuple[Iterable[tuple[str, int]], int]], plus: str = "+", minus: str = "-"
) -> str:
    """Print ``(((name, power), ...), coeff)`` terms as a signed sum.

    Unit coefficients, first powers and zero powers are omitted; only a
    negative first term carries a sign.  The empty sum prints as ``0``.
    """
    text = ""
    for factors, coeff in terms:
        parts = [name if power == 1 else f"{name}^{power}" for name, power in factors if power]
        if abs(coeff) != 1 or not parts:
            parts.insert(0, str(abs(coeff)))
        if text:
            text += minus if coeff < 0 else plus
        elif coeff < 0:
            text = "-"
        text += "*".join(parts)
    return text or "0"


class Polynomial(tuple):
    """Immutable sparse polynomial: the tuple of its ``(exponent, coeff)``
    terms, nonzero coefficients only, largest exponent first in graded
    lexicographic order."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, mapping: Mapping[Exponent, int]) -> "Polynomial":
        for exponent, coeff in mapping.items():
            values = (*exponent, coeff)
            if (
                len(exponent) != 3
                or not all(map(_is_int, values))
                or min(exponent) < 0
            ):
                raise ValueError(
                    f"bad term {exponent!r}: {coeff!r} (want three non-negative int"
                    " exponents and an int coefficient)"
                )
        items = sorted(
            ((tuple(e), c) for e, c in mapping.items() if c), key=lambda t: _grevord(t[0])
        )
        if not items:
            raise ValueError("polynomial has no terms")
        return cls(items)

    @property
    def terms(self) -> tuple[tuple[Exponent, int], ...]:
        return tuple(self)

    def support(self) -> frozenset[Exponent]:
        return frozenset(e for e, _ in self)

    def restricted_to(self, exponents: Iterable[Exponent]) -> "Polynomial":
        keep = set(exponents)
        return Polynomial.from_dict({e: c for e, c in self if e in keep})

    def is_monomial(self) -> bool:
        return len(self) == 1

    def __str__(self) -> str:
        return _format_sum((zip(_VARIABLES, e), c) for e, c in self)


# One token per match, after optional whitespace.  A variable token takes
# its power with it; ``power`` is empty when ``^`` or ``**`` has no digits
# after it, and a ``pow`` token is one that follows no variable.  ``end``
# is the end of the text, after an optional ``= 0``; ``\d`` takes only
# decimal digits, so ``²`` is ``bad``.
_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<var>[xyz](?:\s*(?:\^|\*\*)\s*(?P<power>\d*))?)"
    r"|(?P<pow>\^|\*\*)|(?P<mul>\*)|(?P<sign>[-+\u2212])"
    r"|(?P<end>(?:=\s*0\s*)?\Z)|(?P<bad>\S))"
)

# The token kinds allowed after each kind: a term is an optional
# coefficient, then variable powers joined by ``*`` or juxtaposition.
_FOLLOWS = {
    None: {"sign", "int", "var"},
    "sign": {"int", "var"},
    "int": {"mul", "var", "sign", "end"},
    "mul": {"var"},
    "var": {"mul", "var", "sign", "end"},
}


def _integer(m: re.Match, group: str | int) -> int:
    """The digits of ``group`` as an int (0 if none); a ParseError at the
    first digit when there are more than ``int()`` converts."""
    try:
        return int(m[group] or 0)
    except ValueError:
        raise ParseError("integer has too many digits", m.string, m.start(group)) from None


def parse_polynomial(text: str) -> Polynomial:
    """Parse ``text`` into a canonical :class:`Polynomial`.

    Terms are joined by ``+``/``-``; a term is an optional integer coefficient
    and variable powers (``^`` or ``**``) joined by ``*`` or juxtaposition.
    A trailing ``= 0`` is allowed and ignored.  Like terms are combined; if
    everything cancels the input is rejected.
    """
    tokens = list(_TOKEN.finditer(text))
    bad = next((m for m in tokens if m["bad"]), None)
    if bad is not None:
        ch = bad["bad"]
        if ch.isalpha():
            raise ParseError(f"unknown variable {ch!r} (only x, y, z)", text, bad.start("bad"))
        raise ParseError(f"unexpected character {ch!r}", text, bad.start("bad"))
    acc: dict[Exponent, int] = {}
    prev, sign, coeff, exponent = None, 1, 1, [0, 0, 0]
    for m in tokens:
        kind = m.lastgroup
        if kind not in _FOLLOWS[prev]:
            got = "end of input" if kind == "end" else repr(m[kind])
            raise ParseError(f"unexpected {got}", text, m.start(kind))
        if kind in ("sign", "end") and prev is not None:
            key = tuple(exponent)
            acc[key] = acc.get(key, 0) + sign * coeff
            coeff, exponent = 1, [0, 0, 0]
        if kind == "end":
            break  # after a trailing "= 0", \Z matches once more
        if kind == "int":
            coeff = _integer(m, kind)
        elif kind == "sign":
            sign = 1 if m[kind] == "+" else -1
        elif kind == "var":
            power = 1 if m["power"] is None else _integer(m, "power")
            if power < 1:
                raise ParseError("exponent must be a positive integer", text, m.start("power"))
            exponent[_VARIABLES.index(m[kind][0])] += power
        prev = kind
    if not any(acc.values()):
        raise ParseError("polynomial is empty after cancellation", text, len(text))
    return Polynomial.from_dict(acc)
