import operator
from fractions import Fraction

import pytest

from nilmoduli import ContextMismatch, PrimeField, QQ, parse_field
from nilmoduli.fields import Fp, is_prime


def test_rational_scalars_normalize():
    assert QQ.scalar("4/6") == Fraction(2, 3)
    assert QQ.scalar("-3") == Fraction(-3)
    assert QQ.format(Fraction(-2, 5)) == "-2/5"
    assert QQ.format(Fraction(7)) == "7"


def test_prime_field_arithmetic():
    f = PrimeField(5)
    a, b = f.scalar(3), f.scalar(4)
    assert a + b == f.scalar(2)
    assert a * b == f.scalar(2)
    assert a - b == f.scalar(4)
    assert (a / b) * b == a
    assert -a == f.scalar(2)
    assert a ** 4 == f.one
    assert f.format(a) == "3"


def test_prime_field_division_by_zero():
    f = PrimeField(3)
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero


def test_mixed_moduli_rejected():
    with pytest.raises(ContextMismatch):
        Fp(1, 3) + Fp(1, 5)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
@pytest.mark.parametrize("swap", [False, True])
def test_mixed_fields_rejected(op, swap):
    a, b = Fp(2, 5), Fraction(1, 2)
    with pytest.raises(ContextMismatch):
        op(b, a) if swap else op(a, b)


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        parse_field("Fp:9")


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field("Fp:7") == PrimeField(7)
    with pytest.raises(ValueError):
        parse_field("GF(4)")


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
