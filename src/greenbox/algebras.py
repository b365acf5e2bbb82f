"""Finite-dimensional commutative algebras over an exact field.

An algebra is stored by structure constants: ``table[i][j]`` is the
coefficient vector of (basis_i * basis_j), and ``terms[i][j]`` its raw
terms (see ``linalg``); an algebra is built with one of the two.  This
covers everything the package multiplies in: quotient rings K[x]/(f)
(field extensions and non-reduced examples like F_3[t]/(t^2)), and tensor
products A (x)_K B, whose diagonal multiplication realizes the classical
separability test.
"""

from __future__ import annotations

from .fields import Field, FieldUsageError, poly_mod, poly_mul
from .linalg import bilinear, dense_table, kron_terms, product_terms, \
    reduce_sums, tensor_vec


class FiniteAlgebra:
    """Commutative unital algebra with a distinguished basis.

    The products are given either as the dense ``table`` or as ``terms``,
    whose ``terms[i][j]`` are the raw terms of the same product; each form
    is derived from the other on first read and kept."""

    def __init__(self, base: Field, labels, table, one, name: str = "",
                 terms=None):
        self.base = base
        self.labels = list(labels)
        self.dim = len(self.labels)
        self._table = table     # table[i][j]: tuple of length dim
        self._terms = terms
        self.one = tuple(one)
        self.name = name or f"algebra dim {self.dim} over {base}"

    @property
    def table(self):
        if self._table is None:
            self._table = dense_table(self.base, self._terms, self.dim)
        return self._table

    @property
    def terms(self):
        if self._terms is None:
            self._terms = product_terms(self.base, self._table)
        return self._terms

    def mul(self, x, y):
        """Bilinear product of coefficient vectors."""
        return bilinear(self.base, self.terms, x, y)

    def power(self, x, e: int):
        result = self.one
        for _ in range(e):
            result = self.mul(result, x)
        return result

    def __repr__(self):
        return f"FiniteAlgebra({self.name})"


def base_as_algebra(K: Field) -> FiniteAlgebra:
    """The field K as a one-dimensional algebra over itself."""
    one = (K.one,)
    return FiniteAlgebra(K, ["1"], [[one]], one, name=str(K))


def poly_quotient_algebra(K: Field, modulus, var: str = "t",
                          name: str = "") -> FiniteAlgebra:
    """K[x]/(f) for a monic f of degree >= 1, in the power basis.

    f need not be irreducible; reducible moduli give non-field algebras.
    """
    modulus = list(modulus)
    if not modulus or modulus[-1] != K.one:
        raise FieldUsageError("modulus must be monic")
    deg = len(modulus) - 1
    if deg < 1:
        raise FieldUsageError("modulus must have degree >= 1")

    def reduce_poly(p):
        p = poly_mod(K, list(p), modulus)
        return tuple(p[i] if i < len(p) else K.zero for i in range(deg))

    labels = []
    for i in range(deg):
        labels.append("1" if i == 0 else (var if i == 1 else f"{var}^{i}"))
    table = []
    for i in range(deg):
        row = []
        xi = [K.zero] * i + [K.one]
        for j in range(deg):
            xj = [K.zero] * j + [K.one]
            row.append(reduce_poly(poly_mul(K, xi, xj)))
        table.append(row)
    one = tuple([K.one] + [K.zero] * (deg - 1))
    return FiniteAlgebra(K, labels, table, one, name=name or f"{K}[{var}]/(f)")


def tensor_algebra(A: FiniteAlgebra, B: FiniteAlgebra,
                   name: str = "") -> FiniteAlgebra:
    """A (x)_K B with componentwise multiplication, basis a_i (x) b_j.

    Its product terms are the ``kron_terms`` of the factors' own, reduced
    in one call for the whole table; the dense table is derived only if
    read."""
    if A.base is not B.base:
        raise FieldUsageError("tensor factors must share the base field")
    K = A.base
    labels = [f"{la}⊗{lb}" for la in A.labels for lb in B.labels]
    at, bt, width = A.terms, B.terms, B.dim
    sums = [kron_terms(at[i1][i2], bt[j1][j2], width)
            for i1 in range(A.dim) for j1 in range(B.dim)
            for i2 in range(A.dim) for j2 in range(B.dim)]
    flat = reduce_sums(K, sums)
    dim = len(labels)
    terms = [flat[r * dim:(r + 1) * dim] for r in range(dim)]
    return FiniteAlgebra(K, labels, None, tensor_vec(K, A.one, B.one),
                         name=name or f"{A.name}⊗{B.name}", terms=terms)
