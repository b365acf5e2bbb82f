import itertools
import pathlib
import re
from fractions import Fraction

import pytest

from greenbox.extensions import (ConstructionError, artin_schreier_extension,
                                 explicit_extension, kummer_extension)
from greenbox.fields import extension_field, finite_field, prime_field, \
    rationals
from greenbox.report import load_config

from reference import algebra_table, fixed_labels, fixed_space

F2 = prime_field(2)
F5 = prime_field(5)
F7 = prime_field(7)


def test_kummer_f5_degree4():
    # independent irreducibility oracle: x^4 - 2 has no root in F_25, hence
    # no factor of degree <= 2 over F_5
    F25 = finite_field(5, 2)
    two = F25.from_int(2)
    assert all(c ** 4 != two for c in F25.elements())
    assert all(c ** 2 != F5.from_int(2) for c in F5.elements())

    E = kummer_extension(F5, 4, F5.from_int(2), F5.from_int(2))
    assert E.degree == 4
    # |L| = |K|^n = 625
    assert E.base.order ** E.degree == 625
    alpha = E.alpha_power(1)
    assert E.apply_sigma(alpha) == tuple(F5.from_int(2) * c for c in alpha)


def test_artin_schreier_f2():
    E = artin_schreier_extension(F2, F2.one)
    # σ(α) = α + 1 and α² + α + 1 = 0
    alpha = E.alpha_power(1)
    assert E.apply_sigma(alpha) == (F2.one, F2.one)
    sq = E.algebra.mul(alpha, alpha)
    assert tuple(a + b for a, b in zip(sq, alpha)) == (F2.one, F2.zero)


def test_kummer_f7_degree3():
    cubes = {c ** 3 for c in F7.elements()}
    assert F7.from_int(3) not in cubes    # 3 is a non-cube: cubes are {0,1,6}
    assert cubes == {F7.zero, F7.one, F7.from_int(6)}
    E = kummer_extension(F7, 3, F7.from_int(3), F7.from_int(2))
    assert E.degree == 3


def test_sigma_is_ring_map_of_exact_order():
    E = kummer_extension(F5, 4, F5.from_int(2), F5.from_int(2))
    n = E.degree
    ident = E.sigma_pow(0)
    powers = [ident]
    for _ in range(n):
        powers.append(E.sigma @ powers[-1])
    assert powers[n] == ident
    for m in (1, 2):
        assert powers[m] != ident
    alg = E.algebra
    table = algebra_table(alg)
    for i, j in itertools.product(range(n), repeat=2):
        lhs = E.sigma.apply(table[i][j])
        rhs = alg.mul(E.sigma.col(i), E.sigma.col(j))
        assert lhs == rhs


BUILDERS = {"kummer": kummer_extension,
            "artin_schreier": artin_schreier_extension}


@pytest.mark.parametrize("builder,params,prod_is", [
    ("kummer", dict(K=F5, n=4, a=F5.from_int(2), zeta=F5.from_int(2)), None),
    ("kummer", dict(K=F7, n=3, a=F7.from_int(3), zeta=F7.from_int(2)), None),
    ("artin_schreier", dict(K=F2, a=F2.one), None),
])
def test_conjugate_product(builder, params, prod_is):
    E = BUILDERS[builder](**params)
    n = E.degree
    prod = E.algebra.one
    alpha = E.alpha_power(1)
    for j in range(n):
        prod = E.algebra.mul(prod, E.apply_sigma(alpha, j))
    if E.flavor == "kummer":
        expected = E.zeta ** (n * (n - 1) // 2) * E.a
    else:
        expected = E.a      # α(α+1) = a in characteristic 2
    K = E.base
    assert prod == tuple([expected] + [K.zero] * (n - 1))


def test_fixed_subfield_dimensions():
    E = kummer_extension(F5, 4, F5.from_int(2), F5.from_int(2))
    for m in (1, 2, 4):
        assert len(fixed_space(E, m)) == 4 // m
    assert fixed_labels(E, 2) == ["1", "α^2"]
    assert fixed_labels(E, 4) == ["1"]
    assert fixed_labels(E, 1) == ["1", "α", "α^2", "α^3"]


def test_fixed_subfield_artin_schreier():
    E = artin_schreier_extension(F2, F2.one)
    assert fixed_labels(E, 1) == ["1", "α"]  # trivial subgroup fixes all of L
    assert fixed_labels(E, 2) == ["1"]       # the full group fixes K


def test_fixed_subfield_bad_divisor():
    E = kummer_extension(F5, 4, F5.from_int(2), F5.from_int(2))
    with pytest.raises(Exception):
        fixed_space(E, 3)


def test_reducible_kummer_rejected():
    with pytest.raises(ConstructionError):
        kummer_extension(F5, 2, F5.from_int(4), F5.from_int(-1))  # 4 = 2²
    with pytest.raises(ConstructionError):
        kummer_extension(F5, 4, F5.from_int(1), F5.from_int(2))


def _capelli_irreducible(K, n, a):
    """Capelli's criterion over a finite K: x^n − a is irreducible iff a is
    no r-th power for a prime r | n and, when 4 | n, a ∉ −4K^4."""
    elems = list(K.elements())
    primes = [r for r in range(2, n + 1)
              if n % r == 0 and all(r % q for q in range(2, r))]
    if any(c ** r == a for r in primes for c in elems):
        return False
    return not (n % 4 == 0 and any(K.from_int(-4) * c ** 4 == a
                                   for c in elems))


def _primitive_root(K, n):
    return next((z for z in K.elements() if z != K.zero and z ** n == 1
                 and all(z ** e != 1 for e in range(1, n))), None)


KUMMER_FIELDS = [prime_field(5), prime_field(13), prime_field(17),
                 extension_field(3, (1, 0, 1)), finite_field(5, 2)]


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("K", KUMMER_FIELDS, ids=str)
def test_kummer_accepts_exactly_the_capelli_irreducible(K, n):
    """``kummer_extension`` accepts a exactly when Capelli's criterion,
    its −4K^4 clause included, calls x^n − a irreducible.  That clause
    never decides alone: with ζ in K, −4K^4 lies in the squares."""
    zeta = _primitive_root(K, n)
    if zeta is None:
        assert (K.order - 1) % n
        return
    squares = {c * c for c in K.elements()}
    assert {K.from_int(-4) * c ** 4 for c in K.elements()} <= squares
    verdicts = set()
    for a in K.elements():
        try:
            kummer_extension(K, n, a, zeta)
            accepted = True
        except ConstructionError:
            accepted = False
        assert accepted == (a != K.zero and _capelli_irreducible(K, n, a)), a
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_non_primitive_zeta_rejected():
    with pytest.raises(ConstructionError):
        kummer_extension(F5, 4, F5.from_int(2), F5.from_int(4))  # 4² = 1


def test_degree_not_invertible_rejected():
    with pytest.raises(ConstructionError):
        kummer_extension(F5, 5, F5.from_int(2), F5.one)


def test_artin_schreier_reducible_rejected():
    F4 = finite_field(2, 2)
    # over F_4 every a = c² + c for c in {0,1} misses t and t+1 only
    with pytest.raises(ConstructionError):
        artin_schreier_extension(F4, F4.one)  # 1 = t² + t


def test_rational_kummer():
    Q = rationals()
    E = kummer_extension(Q, 2, Fraction(2), Fraction(-1))
    assert E.degree == 2
    with pytest.raises(ConstructionError):
        kummer_extension(Q, 3, Fraction(2), Fraction(1))
    with pytest.raises(ConstructionError):
        kummer_extension(Q, 2, Fraction(9, 4), Fraction(-1))  # (3/2)²


def test_explicit_flavor():
    E = explicit_extension(F5, [F5.from_int(-2), F5.zero, F5.one],
                           (F5.zero, F5.from_int(-1)))
    assert E.degree == 2
    bad = (F5.zero, F5.one)     # identity map: not order 2
    with pytest.raises(ConstructionError):
        explicit_extension(F5, [F5.from_int(-2), F5.zero, F5.one], bad)


@pytest.mark.parametrize("p, modulus, sigma_alpha, message", [
    # σα = 2α on F_5[x]/(x² − 2): σ² = diag(1, 4)
    (5, [-2, 0, 1], [0, 2], "not C_n-Galois: σ^n is not the identity"),
    # σα = α: σ is the identity
    (5, [-2, 0, 1], [0, 1], "not C_2-Galois: σ has order dividing 1"),
    # σα = −α on F_5[x]/(x⁴ − 2): σ² = 1
    (5, [-2, 0, 0, 0, 1], [0, -1, 0, 0],
     "not C_4-Galois: σ has order dividing 2"),
    # σα = 2α on F_7[x]/(x⁶ − 3), 2 of order 3: σ² ≠ 1 = σ³
    (7, [-3, 0, 0, 0, 0, 0, 1], [0, 2, 0, 0, 0, 0],
     "not C_6-Galois: σ has order dividing 3"),
])
def test_explicit_extension_rejects_a_wrong_order(p, modulus, sigma_alpha,
                                                  message):
    K = prime_field(p)
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        explicit_extension(K, [K.from_int(c) for c in modulus],
                           tuple(K.from_int(c) for c in sigma_alpha))


def test_degenerate_degree_one():
    E = kummer_extension(F5, 1, F5.from_int(3), F5.one)
    assert E.degree == 1
    assert fixed_space(E, 1) == [(F5.one,)]


ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = sorted(str(p.relative_to(ROOT)) for p in [
    *ROOT.glob("configs/*.cfg"), *ROOT.glob("bench/configs/*.cfg")])


def _assert_powers_are_repeated_products(E, alpha):
    """α^e for e <= 2n, asked for from the top down so that the kept list
    is read as well as grown, equals e products of ``alpha`` from 1."""
    expected = [E.algebra.one]
    for _ in range(2 * E.degree):
        expected.append(E.algebra.mul(expected[-1], alpha))
    for e in range(2 * E.degree, -1, -1):
        assert E.alpha_power(e) == expected[e], e
    assert [E.alpha_power(e) for e in range(2 * E.degree + 1)] == expected


@pytest.mark.parametrize("path", CONFIGS)
def test_alpha_powers_are_the_repeated_products(path):
    E = load_config(str(ROOT / path)).extension()
    alpha = tuple(E.base.one if i == 1 else E.base.zero
                  for i in range(E.degree))
    _assert_powers_are_repeated_products(E, alpha)


def test_alpha_powers_of_a_degree_one_extension_are_powers_of_a():
    a = F5.from_int(3)
    E = kummer_extension(F5, 1, a, F5.one)
    _assert_powers_are_repeated_products(E, (a,))
    assert E.alpha_power(3) == (a * a * a,)
