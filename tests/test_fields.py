import itertools
import operator
from fractions import Fraction

import pytest

from greenbox import fields
from greenbox.fields import (MAX_FIELD_ORDER, FieldUsageError,
                             extension_field, finite_field,
                             is_irreducible, is_prime, prime_factors,
                             prime_field, rationals)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F4 = finite_field(2, 2)
Q = rationals()


def test_prime_field_inverse():
    assert F5.from_int(2).inverse() == F5.from_int(3)
    assert F5.from_int(2) * F5.from_int(3) == F5.one


def test_extension_field_multiplication():
    t = F4.gen
    assert t * t == t + F4.one  # reduction by t^2 + t + 1
    assert F4.modulus_ints == (1, 1, 1)


def test_from_coeffs_reduces_modulo_the_modulus():
    F9 = extension_field(3, (1, 0, 1))   # F_3[t]/(t^2 + 1)
    assert F9.from_coeffs([0, 0, 1]) == -1
    assert F9.from_coeffs([0, 0, 1]).coeffs == F9.from_int(2).coeffs
    assert F9.from_coeffs([1, 1, 1, 1]) == 0
    assert not F9.from_coeffs([1, 1, 1, 1])


def test_rational_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


@pytest.mark.parametrize("K", [F2, F3, F5, F4])
def test_field_axioms_exhaustive(K):
    elems = list(K.elements())
    one, zero = K.one, K.zero
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in elems:
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if a != zero:
            assert a * a.inverse() == one


def test_rational_axioms_spot():
    samples = [Fraction(1, 2), Fraction(-3, 7), Fraction(5), Fraction(0)]
    for a, b in itertools.product(samples, repeat=2):
        assert a + b == b + a and a * b == b * a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F5.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        F4.zero.inverse()


def test_mixed_owners_rejected():
    with pytest.raises(FieldUsageError):
        F5.one + prime_field(7).one
    with pytest.raises(TypeError):
        F5.one * Fraction(1)
    with pytest.raises(FieldUsageError):
        F5.one + F4.one


def test_negative_powers():
    a = F5.from_int(2)
    assert a ** -1 == F5.from_int(3)
    assert (F4.gen ** -1) * F4.gen == F4.one


F7 = prime_field(7)
F9 = extension_field(3, (1, 0, 1))   # F_3[t]/(t^2 + 1)
BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("K", [F7, F9], ids=str)
def test_element_operator_protocol(K):
    """Every operator, with an element, an int and a foreign operand, on
    either side: an int n acts as ``K.from_int(n)``, division is
    multiplication by ``inverse``, a negative power is a power of the
    inverse, and a scalar of another field or a ``Fraction`` is refused."""
    elems = list(K.elements())
    units = [x for x in elems if x != K.zero]
    for x, y in itertools.product(elems, repeat=2):
        assert x - y == x + (-y) and (x - y) + y == x
        if y != K.zero:
            assert x / y == x * y.inverse() and (x / y) * y == x
    for x in elems:
        for n in range(-8, 9):
            c = K.from_int(n)
            assert x == n if x == c else x != n
            for op in BINARY[:3]:
                assert op(x, n) == op(x, c) and op(n, x) == op(c, x)
            if c != K.zero:
                assert x / n == x / c
            if x != K.zero:
                assert n / x == c / x == c * x.inverse()
    for x in units:
        assert x * x.inverse() == K.one and 1 / x == x.inverse()
        power = K.one
        for e in range(9):
            assert x ** e == power and x ** -e == power.inverse()
            power = power * x
    zero = K.zero
    for divide in (zero.inverse, lambda: K.one / zero, lambda: 1 / zero,
                   lambda: K.one / 0, lambda: zero ** -1):
        with pytest.raises(ZeroDivisionError):
            divide()
    x = units[-1]
    for other in (F5, F4, F9 if K is F7 else F7):
        for op in BINARY:
            for args in ((x, other.one), (other.one, x)):
                with pytest.raises(FieldUsageError):
                    op(*args)
    for op in BINARY:
        for args in ((x, Fraction(1)), (Fraction(1), x)):
            with pytest.raises(TypeError):
                op(*args)


def test_element_operators_by_hand():
    t = F9.gen
    assert t * t == -1 and t ** -1 == -t and t ** 4 == 1
    assert 3 - t == -t and 2 / t == t and -(1 + t) == 2 + 2 * t
    assert F7.from_int(3) ** -1 == 5 and 1 - F7.from_int(3) == 5
    assert 3 / F7.from_int(2) == 5 and F7.from_int(6) / 3 == 2


def test_canonical_form():
    # reduced representatives: polynomial degree < k, fractions in lowest terms
    x = F4.from_coeffs([3, 5])   # coefficients reduce mod 2
    assert x == F4.from_coeffs([1, 1])
    assert Fraction(2, 4) == Fraction(1, 2)


def test_irreducibility_guard():
    fp = F2
    reducible = [fp.one, fp.zero, fp.one]       # t^2 + 1 = (t+1)^2
    assert not is_irreducible(fp, reducible)
    with pytest.raises(FieldUsageError):
        extension_field(2, (1, 0, 1))
    assert is_irreducible(fp, [fp.one, fp.one, fp.one])


def test_interning():
    assert prime_field(5) is prime_field(5)
    assert finite_field(2, 2) is finite_field(2, 2)
    assert F5.from_int(7) is F5.from_int(2)


def test_rationals_not_enumerable():
    with pytest.raises(FieldUsageError):
        list(Q.elements())


def test_finite_field_orders():
    assert F4.order == 4 and F4.characteristic == 2
    F27 = finite_field(3, 3)
    assert F27.order == 27
    assert sum(1 for _ in F27.elements()) == 27


def test_non_prime_rejected():
    with pytest.raises(FieldUsageError):
        prime_field(6)


@pytest.mark.parametrize("n,expected", [
    (1, []), (2, [2]), (3, [3]), (13, [13]), (8, [2]), (9, [3]),
    (125, [5]), (12, [2, 3]), (30, [2, 3, 5]), (0, []), (-6, [])])
def test_prime_factors(n, expected):
    assert prime_factors(n) == expected


def test_prime_factors_and_is_prime_match_trial_division_up_to_300():
    primes = [r for r in range(2, 301) if all(r % q for q in range(2, r))]
    for n in range(-3, 301):
        assert is_prime(n) == (n in primes), n
        divisors = [r for r in primes if n % r == 0] if n > 0 else []
        assert prime_factors(n) == divisors, n


def test_field_order_bound(monkeypatch):
    """A field above ``MAX_FIELD_ORDER`` is refused before any primality
    or irreducibility work; the largest prime below the bound builds."""
    assert MAX_FIELD_ORDER == 2 ** 16
    assert prime_field(65521).order == 65521
    with pytest.raises(FieldUsageError, match="exceeds 65536"):
        prime_field(65537)

    def enumerated(*args):
        raise AssertionError("moduli enumerated")

    monkeypatch.setattr(fields, "is_irreducible", enumerated)
    monkeypatch.setattr(fields, "is_prime", enumerated)
    with pytest.raises(FieldUsageError, match="exceeds 65536"):
        finite_field(2, 17)
    with pytest.raises(FieldUsageError, match="exceeds 65536"):
        extension_field(257, (3, 0, 1))
    with pytest.raises(FieldUsageError, match="exceeds 65536"):
        prime_field(100000000003)
