"""Property tests for the scalar fields.

Hypothesis draws elements of F_2, F_5, F_7, F_4, F_8, F_9 and Q
(derandomized, so every run sees the same examples) and checks the field
axioms; products in F_{p^k} are compared with sympy's polynomial remainder
modulo the defining polynomial, an independent implementation.
"""

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st
from sympy import Poly, symbols

from greenbox.fields import finite_field, prime_field, rationals

FIELDS = [prime_field(2), prime_field(5), prime_field(7), finite_field(2, 2),
          finite_field(2, 3), finite_field(3, 2), rationals()]
EXTENSIONS = [K for K in FIELDS if K.order not in (None, K.characteristic)]
PROPS = settings(derandomize=True, database=None, max_examples=80,
                 deadline=None)


def elements(K):
    if K.order is None:
        return st.fractions(min_value=-5, max_value=5, max_denominator=6)
    if K.order == K.characteristic:
        return st.integers(0, K.order - 1).map(K.from_int)
    return st.lists(st.integers(0, K.p - 1), min_size=K.k,
                    max_size=K.k).map(K.from_coeffs)


@st.composite
def triples(draw, fields=FIELDS):
    K = draw(st.sampled_from(fields))
    return (K, *(draw(elements(K)) for _ in range(3)))


@PROPS
@given(triples())
def test_field_axioms(t):
    K, x, y, z = t
    zero, one = K.zero, K.one
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x * zero == zero
    assert x + (-x) == zero and x - y == x + (-y)
    if y != zero:
        assert (x / y) * y == x and y * (one / y) == one
    if x * y == zero:
        assert x == zero or y == zero


@PROPS
@given(triples(fields=[K for K in FIELDS if K.order is not None]))
def test_finite_field_characteristic_and_frobenius(t):
    K, x, _, _ = t
    assert K.from_int(K.characteristic) == K.zero
    assert x ** K.order == x


@PROPS
@given(triples(fields=EXTENSIONS))
def test_extension_product_matches_sympy_remainder(t):
    K, x, y, _ = t
    s = symbols("s")

    def poly(coeffs):
        return Poly([int(c) for c in reversed(coeffs)], s, modulus=K.p)

    def ints(e):
        return [c.value for c in e.coeffs]

    want = (poly(ints(x)) * poly(ints(y))).rem(poly(K.modulus_ints))
    got = poly(ints(x * y))
    assert (got - want).is_zero
