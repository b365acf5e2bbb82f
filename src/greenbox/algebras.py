"""Finite-dimensional commutative algebras over an exact field.

An algebra is stored by its structure constants in one form:
``terms[i][j]`` holds the raw terms of basis_i * basis_j (see ``linalg``).
This covers everything the package multiplies in: quotient rings K[x]/(f)
(field extensions and non-reduced examples like F_3[t]/(t^2)), and tensor
products A (x)_K B, whose diagonal multiplication realizes the classical
separability test.
"""

from __future__ import annotations

from .fields import Field, FieldUsageError, poly_mod, poly_mul
from .linalg import bilinear_terms, kron_terms, nonzero_terms, \
    reduce_sums, tensor_vec


class FiniteAlgebra:
    """Commutative unital algebra with a distinguished basis, whose
    products ``terms[i][j]`` are the raw terms of basis_i * basis_j."""

    def __init__(self, base: Field, labels, terms, one, name: str = ""):
        self.base = base
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.terms = terms
        self.one = tuple(one)
        self.name = name or f"algebra dim {self.dim} over {base}"

    def mul(self, x, y):
        """The product of two coefficient vectors of elements, lifted once
        for ``bilinear_terms``."""
        K = self.base
        return K.fold(bilinear_terms(K, self.terms, nonzero_terms(K, x),
                                     nonzero_terms(K, y)))

    def __repr__(self):
        return f"FiniteAlgebra({self.name})"


def base_as_algebra(K: Field) -> FiniteAlgebra:
    """The field K as a one-dimensional algebra over itself."""
    return FiniteAlgebra(K, ["1"], [[((0, K.raw_one),)]], (K.one,),
                         name=str(K))


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

    labels = []
    for i in range(deg):
        labels.append("1" if i == 0 else (var if i == 1 else f"{var}^{i}"))
    terms = [[nonzero_terms(K, poly_mod(K, poly_mul(
        K, [K.zero] * i + [K.one], [K.zero] * j + [K.one]), modulus))
        for j in range(deg)] for i in range(deg)]
    one = tuple([K.one] + [K.zero] * (deg - 1))
    return FiniteAlgebra(K, labels, terms, one, name=name or f"{K}[{var}]/(f)")


def tensor_algebra(A: FiniteAlgebra, B: FiniteAlgebra) -> FiniteAlgebra:
    """A (x)_K B with componentwise multiplication, basis a_i (x) b_j.

    Its product terms are the ``kron_terms`` of the factors' own, reduced
    in one call for the whole table."""
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
    return FiniteAlgebra(K, labels, terms, tensor_vec(K, A.one, B.one),
                         name=f"{A.name}⊗{B.name}")
