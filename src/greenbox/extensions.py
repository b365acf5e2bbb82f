"""Cyclic Galois extensions K ⊂ L with an explicit generator automorphism.

Two constructions are validated and supported end to end:

* Kummer data: L = K(α) with α^n = a, where n is invertible in K, K contains
  a primitive n-th root of unity ζ, and the generator acts by α ↦ ζα.
* Artin–Schreier data (characteristic 2, n = 2): L = K(α) with α² + α + a = 0
  and generator α ↦ α + 1.

An ``explicit`` flavor accepts a monic modulus plus the image of α under the
generator and runs the same verification.  Construction always *executes* the
invariant checks (σ is a ring map of order exactly n whose fixed subspace is
K), rather than assuming them.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import FiniteAlgebra, poly_quotient_algebra
from .fields import Field, FieldUsageError, RationalField, prime_factors
from .linalg import Mat, bilinear_terms, kernel


class ConstructionError(ValueError):
    """The requested data does not define a cyclic field extension."""


class GaloisExtension:
    """K ⊂ L = K[x]/(f) with a C_n-action generated by ``sigma``.

    ``sigma`` acts on the power basis {1, α, ..., α^(n-1)}; column j holds
    the coordinates of σ(α^j).
    """

    def __init__(self, base: Field, degree: int, algebra: FiniteAlgebra,
                 sigma: Mat, flavor: str, a=None, zeta=None):
        self.base = base
        self.degree = degree
        self.algebra = algebra
        self.sigma = sigma
        self.flavor = flavor
        self.a = a
        self.zeta = zeta
        self._sigma_powers = {0: Mat.identity(base, degree), 1: sigma}
        # α = a itself in the degenerate extension
        alpha = (a,) if degree == 1 else tuple(
            base.one if i == 1 else base.zero for i in range(degree))
        self._alpha_powers = [algebra.one, alpha]

    def sigma_pow(self, k: int) -> Mat:
        k %= self.degree
        if k not in self._sigma_powers:
            self._sigma_powers[k] = self.sigma @ self.sigma_pow(k - 1)
        return self._sigma_powers[k]

    def apply_sigma(self, vec, k: int = 1):
        return self.sigma_pow(k).apply(vec)

    def alpha_power(self, e: int):
        """Coordinates of α^e in the power basis (e >= 0).  Each power is
        the previous one times α, and every power made is kept."""
        powers = self._alpha_powers
        while len(powers) <= e:
            powers.append(self.algebra.mul(powers[-1], powers[1]))
        return powers[e]

    def __repr__(self):
        return (f"GaloisExtension({self.flavor}, degree {self.degree} "
                f"over {self.base})")


def format_l_element(ext: GaloisExtension, vec) -> str:
    """Pretty form of an element of L, e.g. ``α^2`` or ``2+α``."""
    K = ext.base
    terms = []
    for i, c in enumerate(vec):
        if c == K.zero:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mono = "α" if i == 1 else f"α^{i}"
            terms.append(mono if c == K.one else f"{c}{mono}")
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# root-extraction tests used by the irreducibility criteria


def _has_mth_root(K: Field, a, m: int) -> bool:
    """Is the unit a in K^(x m)?  Exhaustive for finite K, exact for Q."""
    if K.is_finite:
        return any(c ** m == a for c in K.elements())
    # rationals: a = (p/q)^m demands integer m-th roots of p and q
    if not isinstance(a, Fraction):
        raise FieldUsageError("rational scalar expected")
    if a < 0 and m % 2 == 0:
        return False
    sign = -1 if a < 0 else 1
    num, den = abs(a.numerator), a.denominator
    rn, rd = _int_root(num, m), _int_root(den, m)
    return rn is not None and rd is not None and \
        Fraction(sign * rn, rd) ** m == a


def _int_root(n: int, m: int):
    lo, hi = 0, max(2, n)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** m < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** m == n else None


def is_primitive_root_of_unity(K: Field, zeta, n: int) -> bool:
    """Does ζ have multiplicative order exactly n in K?"""
    if zeta ** n != K.one:
        return False
    return not any(zeta ** (n // r) == K.one for r in prime_factors(n))


# ---------------------------------------------------------------------------
# constructors


def kummer_extension(K: Field, n: int, a, zeta) -> GaloisExtension:
    """Build L = K(α), α^n = a, with σ(α) = ζα, validating the input.

    By Capelli's theorem x^n - a is irreducible iff a avoids K^(x r) for
    every prime r | n and, when 4 | n, also avoids -4 K^(x 4).  The first
    condition is checked by exhaustion for finite K and by exact root
    extraction for Q.  The second needs no test of its own: when 4 | n, K
    holds i = ζ^(n/4), so -4c^4 = (2ic^2)^2 is a square, which the r = 2
    test has already rejected.
    """
    if n < 1:
        raise ConstructionError("degree must be positive")
    if K.characteristic and n % K.characteristic == 0:
        raise ConstructionError(
            f"not C_{n}-Galois: {n} is not invertible in {K}")
    if a == K.zero:
        raise ConstructionError("not a field extension: a must be a unit")
    if isinstance(K, RationalField) and n > 2:
        raise ConstructionError(
            f"Q contains no primitive {n}-th root of unity; "
            "rational Kummer data is limited to n <= 2")
    if not is_primitive_root_of_unity(K, zeta, n):
        raise ConstructionError(
            f"{zeta} is not a primitive {n}-th root of unity in {K}")
    if n > 1:
        for r in prime_factors(n):
            if _has_mth_root(K, a, r):
                raise ConstructionError(
                    f"not a field extension: x^{n} - {a} is reducible "
                    f"({a} is an {r}-th power in {K})")

    modulus = [-a] + [K.zero] * (n - 1) + [K.one]
    algebra = poly_quotient_algebra(K, modulus, var="α",
                                    name=f"{K}(α), α^{n}={a}")
    # σ(α^j) = ζ^j α^j: diagonal in the power basis
    rows = [[(zeta ** j if i == j else K.zero) for j in range(n)]
            for i in range(n)]
    sigma = Mat(K, rows, ncols=n)
    ext = GaloisExtension(K, n, algebra, sigma, "kummer", a=a, zeta=zeta)
    verify_extension(ext)
    return ext


def artin_schreier_extension(K: Field, a) -> GaloisExtension:
    """Build L = K(α), α² + α + a = 0 in characteristic 2, σ(α) = α + 1.
    Every field of characteristic 2 here is finite, so the reducibility
    test runs over the elements of K."""
    if K.characteristic != 2:
        raise ConstructionError(
            "Artin–Schreier data requires characteristic 2")
    if a == K.zero:
        raise ConstructionError("not a field extension: a must be a unit")
    if any(c * c + c == a for c in K.elements()):
        raise ConstructionError(
            f"not a field extension: x^2 + x + {a} is reducible")
    modulus = [a, K.one, K.one]
    algebra = poly_quotient_algebra(K, modulus, var="α",
                                    name=f"{K}(α), α²+α+{a}=0")
    sigma = Mat(K, [[K.one, K.one], [K.zero, K.one]], ncols=2)
    ext = GaloisExtension(K, 2, algebra, sigma, "artin_schreier", a=a)
    verify_extension(ext)
    return ext


def explicit_extension(K: Field, modulus, sigma_alpha) -> GaloisExtension:
    """Build from a monic modulus and the coordinates of σ(α); verified."""
    n = len(modulus) - 1
    algebra = poly_quotient_algebra(K, list(modulus), var="α")
    cols = [algebra.one]
    img = tuple(sigma_alpha)
    acc = algebra.one
    for _ in range(1, n):
        acc = algebra.mul(acc, img)
        cols.append(acc)
    sigma = Mat.from_cols(K, cols, n)
    ext = GaloisExtension(K, n, algebra, sigma, "explicit")
    verify_extension(ext)
    return ext


def verify_extension(ext: GaloisExtension) -> None:
    """Execute the C_n-Galois invariants; raise ConstructionError on failure."""
    K, n = ext.base, ext.degree
    ident = Mat.identity(K, n)
    # sigma_pow reduces its exponent mod n, so σ^n is σ·σ^(n-1)
    if ext.sigma @ ext.sigma_pow(n - 1) != ident:
        raise ConstructionError("not C_n-Galois: σ^n is not the identity")
    for m in range(1, n):
        if n % m == 0 and ext.sigma_pow(m) == ident:
            raise ConstructionError(
                f"not C_{n}-Galois: σ has order dividing {m}")
    # σ is a ring map: check on all pairs of power-basis elements, as
    # reduced raw lists
    alg = ext.algebra
    sigma_cols = ext.sigma.col_terms()
    for i in range(n):
        for j in range(n):
            lhs = ext.sigma.apply_terms(alg.terms[i][j])
            rhs = bilinear_terms(K, alg.terms, sigma_cols[i], sigma_cols[j])
            if lhs != rhs:
                raise ConstructionError(
                    "σ is not a ring homomorphism on the power basis")
    fixed = kernel(ext.sigma - ident)
    if len(fixed) != 1:
        raise ConstructionError(
            f"not C_{n}-Galois: fixed subspace has dimension {len(fixed)}")
    # the fixed line must be spanned by 1; ``kernel`` puts a 1 at the
    # line's one free column, so that is fixed[0] = 1 exactly
    if fixed[0] != alg.one:
        raise ConstructionError("fixed subfield is not K·1")
