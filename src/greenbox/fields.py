"""Exact scalar arithmetic: prime fields, finite extension fields, rationals.

All arithmetic is exact; there is no floating point anywhere in this package.
Prime-field and extension-field elements are small immutable objects whose
operators share one protocol (``_Element``: an ``int`` operand is converted,
a scalar of another field refused), rationals are ``fractions.Fraction``,
so generic code
(linear algebra, functor machinery) can treat scalars uniformly through
``+ - * /`` and comparison with ``field.zero`` / ``field.one``.

Extension fields are kept in a polynomial basis over their prime field: an
element is a coefficient tuple reduced modulo a monic irreducible modulus.
There are no discrete-log tables, so the F_q and Q code paths stay uniform.

The linear-algebra kernels (``linalg``, ``presented``, ``boxes``) compute on
*raw scalars*, which each field defines through five operations: ``lift``
(element vector to a list of raw scalars), ``fold`` (reduced raw scalars
back to an element tuple), ``raw_inv``, ``reduce`` (reduction mod p of a
list of raw scalars) and ``reduce_scalar`` (of one), and two constants,
``raw_zero`` and ``raw_one``.
A ``PrimeField``'s raw scalar is a plain ``int`` in [0, p): kernels
multiply and add ints, reduce once per vector, and fold at their
boundary; ``lift_checked``, the ``lift`` of the kernels' element entry
points, also refuses a scalar of another field.  ``Q`` and ``F_{p^k}`` keep
their elements as raw scalars, with identity ``lift``, ``fold`` and
reductions.
Every raw scalar a kernel tests is reduced, so a zero test is truthiness on
every path (``Fraction`` and ``ExtensionFieldElement`` are false exactly at
zero).

Field objects are interned: two fields built from the same parameters are
the same object, and elements of distinct fields refuse to mix.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

MAX_FIELD_ORDER = 2 ** 16   # F_p keeps its p elements; larger fields hang


class FieldUsageError(ValueError):
    """Operands from different fields, or an operation that is not defined."""


def _check_order(p: int, k: int = 1) -> None:
    if p ** min(k, 17) > MAX_FIELD_ORDER:    # p ≥ 2 and k ≥ 17 are too large
        raise FieldUsageError(f"field order {p}^{k} exceeds {MAX_FIELD_ORDER}")


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def prime_factors(n: int) -> list:
    """The distinct prime divisors of n, in increasing order, by trial
    division; none for n < 2."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# field descriptors


class Field:
    """Common interface of the scalar fields.

    Attributes:
        characteristic: 0 or a prime.
        order: number of elements, or ``None`` for an infinite field.
    """

    characteristic: int
    order: int | None

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    @property
    def zero(self):
        cached = getattr(self, "_zero", None)
        if cached is None:
            cached = self._zero = self.from_int(0)
        return cached

    @property
    def one(self):
        cached = getattr(self, "_one", None)
        if cached is None:
            cached = self._one = self.from_int(1)
        return cached

    # -- raw scalars: the identity unless a field overrides it -----------

    @property
    def raw_zero(self):
        return self.zero

    @property
    def raw_one(self):
        return self.one

    def lift(self, v) -> list:
        """Raw scalars of a vector of elements."""
        return list(v)

    lift_checked = lift   # PrimeField checks for foreign scalars

    def fold(self, raw) -> tuple:
        """Elements of a vector of reduced raw scalars."""
        return tuple(raw)

    def reduce(self, raw) -> list:
        """A list of raw scalars, reduced."""
        return raw

    def reduce_scalar(self, r):
        """One raw scalar, reduced."""
        return r

    def raw_inv(self, r):
        """Inverse of a nonzero reduced raw scalar."""
        return self.one / r

    def from_int(self, n: int):
        raise NotImplementedError

    def elements(self):
        raise NotImplementedError

    def random(self, rng):
        raise NotImplementedError


class _Element:
    """The operators shared by the finite-field elements.  ``_coerce``
    accepts an operand of the same field or an ``int``, raises
    ``FieldUsageError`` on one of another field and returns None on
    anything else, for which an operator returns ``NotImplemented``.  A
    subclass defines ``+``, ``-``, ``*``, ``inverse`` and ``_pow`` (e ≥ 0)."""

    __slots__ = ()

    def _coerce(self, other):
        if isinstance(other, _Element):
            if other.field is not self.field:
                raise FieldUsageError(
                    f"mixed fields: {self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse()._pow(-e)
        return self._pow(e)


class PrimeFieldElement(_Element):
    """Interned residue mod p: each field preallocates its p elements, so
    arithmetic returns existing objects and equality is by identity.  Each
    of ``+``, ``-`` and ``*`` tries an operand of the same field first."""

    __slots__ = ("field", "value")

    def __init__(self, field: "PrimeField", value: int):
        self.field = field
        self.value = value % field.p

    def __add__(self, other):
        if isinstance(other, PrimeFieldElement) and \
                other.field is self.field:
            f = self.field
            return f._elems[(self.value + other.value) % f.p]
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + o

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, PrimeFieldElement) and \
                other.field is self.field:
            f = self.field
            return f._elems[(self.value - other.value) % f.p]
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self - o

    def __mul__(self, other):
        if isinstance(other, PrimeFieldElement) and \
                other.field is self.field:
            f = self.field
            return f._elems[(self.value * other.value) % f.p]
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o

    __rmul__ = __mul__

    def __neg__(self):
        f = self.field
        return f._elems[-self.value % f.p]

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.field}")
        f = self.field
        return f._elems[pow(self.value, -1, f.p)]

    def _pow(self, e: int):
        f = self.field
        return f._elems[pow(self.value, e, f.p)]

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self is other
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.value))

    def __repr__(self):
        return str(self.value)


class PrimeField(Field):
    """The field F_p of integers modulo a prime p."""

    def __init__(self, p: int):
        _check_order(p)
        if not is_prime(p):
            raise FieldUsageError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p
        self._elems = tuple(PrimeFieldElement(self, v) for v in range(p))

    def from_int(self, n: int) -> PrimeFieldElement:
        return self._elems[n % self.p]

    # raw scalars are the residues: ints in [0, p)
    raw_zero, raw_one = 0, 1

    def lift(self, v) -> list:
        return [x.value for x in v]

    def lift_checked(self, v) -> list:
        """``lift``, refusing a scalar of another field."""
        if not isinstance(v, (tuple, list)):
            v = tuple(v)
        try:
            raw = [x.value for x in v if x.field is self]
        except AttributeError:   # an int or a Fraction
            raw = None
        if raw is None or len(raw) != len(v):
            raise FieldUsageError(f"a scalar of another field over {self}")
        return raw

    def fold(self, raw) -> tuple:
        elems = self._elems
        return tuple([elems[r] for r in raw])

    def reduce(self, raw) -> list:
        p = self.p
        return [r % p for r in raw]

    def reduce_scalar(self, r):
        return r % self.p

    def raw_inv(self, r):
        return pow(r, -1, self.p)

    def elements(self):
        return iter(self._elems)

    def random(self, rng) -> PrimeFieldElement:
        return self._elems[rng.randrange(self.p)]

    def __repr__(self):
        return f"F_{self.p}"


class RationalField(Field):
    """The rationals Q; elements are ``fractions.Fraction``."""

    characteristic = 0
    order = None

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def elements(self):
        raise FieldUsageError("Q is infinite; cannot enumerate its elements")

    def random(self, rng) -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    def __repr__(self):
        return "Q"


# ---------------------------------------------------------------------------
# polynomial helpers over an arbitrary field (coefficient lists, ascending)


def _trim(field, c: list) -> list:
    z = field.zero
    while c and c[-1] == z:
        c.pop()
    return c


def poly_add(field, a, b):
    n = max(len(a), len(b))
    z = field.zero
    out = [(a[i] if i < len(a) else z) + (b[i] if i < len(b) else z)
           for i in range(n)]
    return _trim(field, out)


def poly_scale(field, a, s):
    return _trim(field, [s * c for c in a])


def poly_mul(field, a, b):
    if not a or not b:
        return []
    z = field.zero
    out = [z] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == z:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _trim(field, out)


def poly_divmod(field, a, b):
    """Quotient and remainder of a by b; b must be nonzero."""
    b = _trim(field, list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    z = field.zero
    rem = _trim(field, list(a))
    q = [z] * max(0, len(rem) - len(b) + 1)
    inv_lead = field.one / b[-1]
    while len(rem) >= len(b):
        c = rem[-1] * inv_lead
        d = len(rem) - len(b)
        q[d] = c
        for i, bi in enumerate(b):
            rem[d + i] = rem[d + i] - c * bi
        rem = _trim(field, rem)
    return _trim(field, q), rem


def poly_mod(field, a, b):
    return poly_divmod(field, a, b)[1]


def poly_xgcd(field, a, b):
    """Extended gcd: returns (g, s) with s*a = g modulo b, g monic or zero
    (the cofactor of b is not kept)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [field.one], []
    while _trim(field, list(r1)):
        q, r = poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(field, s0, poly_scale(field, poly_mul(field, q, s1), -field.one))
    if r0:
        lead_inv = field.one / r0[-1]
        r0 = poly_scale(field, r0, lead_inv)
        s0 = poly_scale(field, s0, lead_inv)
    return r0, s0


def poly_powmod(field, a, e: int, modulus):
    result = [field.one]
    base = poly_mod(field, a, modulus)
    while e > 0:
        if e & 1:
            result = poly_mod(field, poly_mul(field, result, base), modulus)
        base = poly_mod(field, poly_mul(field, base, base), modulus)
        e >>= 1
    return result


def is_irreducible(field: PrimeField, modulus: list) -> bool:
    """Irreducibility over F_p via the x^(p^k) = x criterion.

    ``modulus`` is monic of degree k >= 1.  f is irreducible iff
    x^(p^k) = x mod f and gcd(x^(p^(k/r)) - x, f) = 1 for all primes r | k.
    """
    p = field.p
    k = len(modulus) - 1
    if k < 1:
        return False
    x = [field.zero, field.one]
    xq = poly_powmod(field, x, p ** k, modulus)
    if _trim(field, poly_add(field, xq, poly_scale(field, x, -field.one))):
        return False
    for r in prime_factors(k):
        xqr = poly_powmod(field, x, p ** (k // r), modulus)
        diff = poly_add(field, xqr, poly_scale(field, x, -field.one))
        g, _ = poly_xgcd(field, diff, modulus)
        if len(g) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# extension fields F_{p^k}


class ExtensionFieldElement(_Element):
    __slots__ = ("field", "coeffs")

    def __init__(self, field: "ExtensionField", coeffs):
        # coeffs: iterable of PrimeFieldElement, length k, already reduced
        self.field = field
        c = list(coeffs)
        c += [field.prime_field.zero] * (field.k - len(c))
        self.coeffs = tuple(c)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtensionFieldElement(
            self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtensionFieldElement(
            self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fp = self.field.prime_field
        prod = poly_mul(fp, list(self.coeffs), list(o.coeffs))
        return ExtensionFieldElement(
            self.field, poly_mod(fp, prod, self.field.modulus))

    __rmul__ = __mul__

    def __neg__(self):
        return ExtensionFieldElement(self.field, [-a for a in self.coeffs])

    def inverse(self):
        if not self:
            raise ZeroDivisionError(f"inverse of 0 in {self.field}")
        # the modulus is irreducible, so the monic gcd is 1 and s·a = 1
        _, s = poly_xgcd(self.field.prime_field, list(self.coeffs),
                         self.field.modulus)
        return ExtensionFieldElement(self.field, s)

    def _pow(self, e: int):
        result = self.field.one
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, ExtensionFieldElement):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __bool__(self):
        return any(c.value for c in self.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        fp = self.field.prime_field
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == fp.zero:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if c == fp.one else f"{c}{var}")
        return "+".join(terms) if terms else "0"


class ExtensionField(Field):
    """F_{p^k} = F_p[t]/(modulus), with modulus monic irreducible."""

    def __init__(self, p: int, modulus_ints: tuple):
        _check_order(p, len(modulus_ints) - 1)
        self.prime_field = prime_field(p)
        mod = [self.prime_field.from_int(c) for c in modulus_ints]
        if not mod or mod[-1] != self.prime_field.one:
            raise FieldUsageError("modulus must be monic")
        if len(mod) < 3:
            raise FieldUsageError("extension degree must be at least 2")
        if not is_irreducible(self.prime_field, mod):
            raise FieldUsageError(
                f"modulus {modulus_ints} is reducible over F_{p}")
        self.p = p
        self.k = len(mod) - 1
        self.modulus = mod
        self.modulus_ints = tuple(modulus_ints)
        self.characteristic = p
        self.order = p ** self.k

    def from_int(self, n: int) -> ExtensionFieldElement:
        return ExtensionFieldElement(self, [self.prime_field.from_int(n)])

    def from_coeffs(self, ints) -> ExtensionFieldElement:
        """The element sum c_i t^i, reduced modulo the modulus."""
        fp = self.prime_field
        return ExtensionFieldElement(
            self, poly_mod(fp, [fp.from_int(c) for c in ints], self.modulus))

    @property
    def gen(self) -> ExtensionFieldElement:
        return self.from_coeffs([0, 1])

    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.k):
            yield self.from_coeffs(tup)

    def random(self, rng) -> ExtensionFieldElement:
        return self.from_coeffs([rng.randrange(self.p) for _ in range(self.k)])

    def __repr__(self):
        return f"F_{self.p}^{self.k}"


# ---------------------------------------------------------------------------
# interned constructors


@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


@functools.lru_cache(maxsize=None)
def rationals() -> RationalField:
    return RationalField()


@functools.lru_cache(maxsize=None)
def extension_field(p: int, modulus_ints: tuple) -> ExtensionField:
    return ExtensionField(p, tuple(modulus_ints))


@functools.lru_cache(maxsize=None)
def finite_field(p: int, k: int = 1) -> Field:
    """F_{p^k}, choosing the lexicographically first irreducible modulus."""
    _check_order(p, k)
    if k == 1:
        return prime_field(p)
    fp = prime_field(p)
    for low in itertools.product(range(p), repeat=k):
        mod = list(low) + [1]
        if is_irreducible(fp, [fp.from_int(c) for c in mod]):
            return extension_field(p, tuple(mod))
    raise FieldUsageError(f"no irreducible modulus found for p={p}, k={k}")
