"""Exact scalar fields: the rationals and prime fields F_p.

Every computation in this package is exact.  Rational scalars are stdlib
``fractions.Fraction`` values (always normalized, positive denominator);
prime-field scalars are ``Fp`` residues that remember their modulus.
A field object converts between python ints / strings and scalars, and
is the piece of context that makes mixing moduli a hard error.  It also
encodes matrices as ints over a scale d for the kernels in ``linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class ContextMismatch(ValueError):
    """Raised when values from incompatible contexts (field, q, n) are mixed."""


class ParseError(ValueError):
    """An input document or value does not conform to the expected format."""


class InputInvariantError(ValueError):
    """A well-formed input violates a required invariant or lies out of range."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0 or p % 3 == 0:
        return False
    d = 5
    while d * d <= p:
        if p % d == 0 or p % (d + 2) == 0:
            return False
        d += 6
    return True


class Fp:
    """Residue in F_p.  Arithmetic stays inside one fixed prime modulus."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _check(self, other) -> None:
        if not isinstance(other, Fp):
            raise ContextMismatch(
                f"cannot mix F_{self.p} with {type(other).__name__}")
        if self.p != other.p:
            raise ContextMismatch(f"mixed moduli F_{self.p} and F_{other.p}")

    def __add__(self, other):
        if isinstance(other, int):
            return Fp(self.val + other, self.p)
        self._check(other)
        return Fp(self.val + other.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return Fp(self.val - other, self.p)
        self._check(other)
        return Fp(self.val - other.val, self.p)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Fp(self.val * other, self.p)
        self._check(other)
        return Fp(self.val * other.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Fp(other, self.p)
        self._check(other)
        if other.val == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return Fp(self.val * pow(other.val, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        if isinstance(other, int):
            other = Fp(other, self.p)
        self._check(other)
        return other / self

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __pow__(self, e: int):
        if e < 0:
            return Fp(1, self.p) / (self ** (-e))
        return Fp(pow(self.val, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return str(self.val)


@dataclass(frozen=True)
class RationalField:
    """The field Q, scalars are Fraction."""

    name: str = "Q"
    p = 0  # the characteristic: integer encodings are never reduced
    zero = Fraction(0)  # scalars are immutable, so one object serves
    one = Fraction(1)

    def scalar(self, v):
        """Coerce an int, Fraction or string like '3' / '-2/5' to a scalar."""
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            try:
                return Fraction(v)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {v!r}") from None
        raise ValueError(f"cannot coerce {v!r} into Q")

    def format(self, s) -> str:
        return str(s)

    def encode(self, rows):
        """(int rows, d): the rows times d, the lcm of their denominators."""
        d = lcm(*(getattr(c, "denominator", 0) for r in rows for c in r))
        if not d:
            raise ContextMismatch("cannot mix Q with non-rational scalars")
        return [[c.numerator * (d // c.denominator) for c in r] for r in rows], d

    def decode(self, rows, d: int):
        return [[Fraction(x, d) for x in r] for r in rows]

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p, scalars are Fp residues."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InputInvariantError(f"modulus {self.p} is not prime")
        # set once, not dataclass fields: equality and hash stay on p
        object.__setattr__(self, "zero", Fp(0, self.p))
        object.__setattr__(self, "one", Fp(1, self.p))

    @property
    def name(self) -> str:
        return f"Fp:{self.p}"

    def scalar(self, v):
        if isinstance(v, Fp):
            if v.p != self.p:
                raise ContextMismatch(f"residue mod {v.p} used in F_{self.p}")
            return v
        if isinstance(v, int):
            return Fp(v, self.p)
        if isinstance(v, str):
            return Fp(int(v), self.p)
        raise ValueError(f"cannot coerce {v!r} into F_{self.p}")

    def format(self, s) -> str:
        return str(s.val)

    def encode(self, rows):
        """(residue rows, 1); their products are reduced mod p."""
        if all(isinstance(c, Fp) and c.p == self.p for r in rows for c in r):
            return [[c.val for c in r] for r in rows], 1
        raise ContextMismatch(f"cannot mix F_{self.p} with other scalars")

    def decode(self, rows, d: int):
        p, zero = self.p, self.zero  # residues are immutable: one zero serves
        return [[Fp(x, p) if x % p else zero for x in r] for r in rows]

    def __str__(self):
        return self.name


Field = RationalField | PrimeField

QQ = RationalField()


def parse_field(spec: str) -> Field:
    """Parse a field spec string: 'Q' or 'Fp:<p>' with p prime."""
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ParseError(f"bad modulus in field spec {spec!r}") from None
        return PrimeField(p)
    raise ParseError(f"unknown field spec {spec!r} (expected 'Q' or 'Fp:<p>')")
