"""Exact ordinal arithmetic in Cantor normal form below w^w, and the
max-plus (tropical) weight domain built on top of it.

An ordinal is a descending sequence of (exponent, coefficient) terms
denoting ``w^e1*c1 + ... + w^ek*ck`` with ``e1 > ... > ek >= 0`` and every
coefficient >= 1; the empty sequence is 0.  Because leading terms dominate,
tuple comparison of the term sequences coincides with the ordinal order,
so the derived dataclass ordering is the real thing.

The tropical semiring uses max as addition and *reversed* ordinal addition
as multiplication, with a bottom element below every ordinal that is
absorbing for the product and neutral for the max.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Ordinal",
    "OrdinalParseError",
    "ZERO",
    "ONE",
    "OMEGA",
    "TropicalWeight",
    "BOT",
    "ord_add",
    "trop_oplus",
    "trop_otimes",
]


class OrdinalParseError(ValueError):
    """Raised for literals outside the supported ``w^k*c`` syntax."""


_TERM_RE = re.compile(r"(?:w(?:\^([0-9]+))?(?:\*([0-9]+))?|([0-9]+))\Z")


@dataclass(frozen=True, order=True)
class Ordinal:
    """A Cantor-normal-form ordinal strictly below w^w."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = None
        for exp, coeff in self.terms:
            if exp < 0 or coeff < 1:
                raise ValueError(f"invalid CNF term w^{exp}*{coeff}")
            if prev is not None and exp >= prev:
                raise ValueError("CNF exponents must be strictly decreasing")
            prev = exp

    @classmethod
    def from_int(cls, n: int) -> Ordinal:
        if n < 0:
            raise ValueError("ordinals are non-negative")
        return cls(((0, n),)) if n else cls()

    @classmethod
    def parse(cls, text: str | int) -> Ordinal:
        """Parse a literal: a non-negative integer, ``w``, ``w*3``,
        ``w^2*3+w+1`` and the like.

        Terms must appear with strictly decreasing exponents.  Terms with a
        zero coefficient (e.g. the trailing ``+0`` in ``w*1+0``) are
        tolerated and dropped.  Anything but a string or a non-bool int
        (a float, ``True``, a list) is rejected.
        """
        if isinstance(text, bool) or not isinstance(text, (str, int)):
            raise OrdinalParseError(
                f"ordinal literal must be a string or an int, got {text!r}"
            )
        if isinstance(text, int):
            if text < 0:
                raise OrdinalParseError(f"negative ordinal literal: {text}")
            return cls.from_int(text)
        parts = text.replace(" ", "").split("+")
        terms: list[tuple[int, int]] = []
        prev = None
        for part in parts:
            m = _TERM_RE.match(part)
            if not m:
                raise OrdinalParseError(f"bad ordinal term {part!r} in {text!r}")
            if m.group(3) is not None:
                exp, coeff = 0, int(m.group(3))
            else:
                exp = int(m.group(1)) if m.group(1) is not None else 1
                coeff = int(m.group(2)) if m.group(2) is not None else 1
            if coeff == 0:
                continue
            if prev is not None and exp >= prev:
                raise OrdinalParseError(
                    f"exponents must strictly decrease in {text!r}"
                )
            prev = exp
            terms.append((exp, coeff))
        return cls(tuple(terms))

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][0] == 0

    def to_int(self) -> int:
        if not self.is_finite():
            raise ValueError(f"{self} is not a finite ordinal")
        return self.terms[0][1] if self.terms else 0

    def __add__(self, other: Ordinal) -> Ordinal:
        return ord_add(self, other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for exp, coeff in self.terms:
            if exp == 0:
                out.append(str(coeff))
            else:
                head = "w" if exp == 1 else f"w^{exp}"
                out.append(head if coeff == 1 else f"{head}*{coeff}")
        return "+".join(out)

    def __repr__(self) -> str:
        return f"Ordinal[{self}]"


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((1, 1),))


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition: the leading term of ``b`` absorbs every strictly
    smaller term of ``a``."""
    if not b.terms:
        return a
    if not a.terms:
        return b
    lead = b.terms[0][0]
    kept = 0
    while kept < len(a.terms) and a.terms[kept][0] > lead:
        kept += 1
    if kept < len(a.terms) and a.terms[kept][0] == lead:
        merged = (lead, a.terms[kept][1] + b.terms[0][1])
        return Ordinal(a.terms[:kept] + (merged,) + b.terms[1:])
    return Ordinal(a.terms[:kept] + b.terms)


@dataclass(frozen=True)
class TropicalWeight:
    """An ordinal or the bottom element (``value is None``)."""

    value: Ordinal | None = None

    @classmethod
    def finite(cls, n: int) -> TropicalWeight:
        return cls(Ordinal.from_int(n))

    @property
    def is_bot(self) -> bool:
        return self.value is None

    def __lt__(self, other: TropicalWeight) -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def __le__(self, other: TropicalWeight) -> bool:
        return self == other or self < other

    def __gt__(self, other: TropicalWeight) -> bool:
        return other < self

    def __ge__(self, other: TropicalWeight) -> bool:
        return other <= self

    def __str__(self) -> str:
        return "⊥" if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return f"TropicalWeight[{self}]"


BOT = TropicalWeight(None)


def trop_oplus(a: TropicalWeight, b: TropicalWeight) -> TropicalWeight:
    """Semiring addition: maximum, with bottom as the neutral element."""
    return b if a < b else a


def trop_otimes(a: TropicalWeight, b: TropicalWeight) -> TropicalWeight:
    """Semiring multiplication: reversed ordinal addition (``b + a``),
    with bottom absorbing."""
    if a.value is None or b.value is None:
        return BOT
    return TropicalWeight(ord_add(b.value, a.value))
