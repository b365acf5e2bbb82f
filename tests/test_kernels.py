"""The raw-scalar kernels against element-by-element reference loops.

Each reference below is the plain loop over field elements that the kernel
computes on raw scalars (ints mod p for a prime field, the elements
themselves for F_9 and Q).  Hypothesis draws small operands over F_2, F_5,
F_7, F_11, F_13, F_9 = F_3[t]/(t² + 1) and Q (derandomized, so every run
sees the same examples) and asserts that kernel and reference agree exactly.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from greenbox.fields import extension_field, prime_field, rationals
from greenbox.linalg import Mat, bilinear, eliminate, nonzero_terms, \
    product_terms, rref, tensor_vec

FIELDS = [prime_field(p) for p in (2, 5, 7, 11, 13)] + \
    [extension_field(3, (1, 0, 1)), rationals()]
PROPS = settings(derandomize=True, database=None, max_examples=60,
                 deadline=None)


def scalars(K):
    if K.order is None:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    # mostly zeros, as in the sparse vectors the kernels skip over
    return st.one_of(st.just(K.zero), st.sampled_from(list(K.elements())))


def vectors(K, n):
    return st.lists(scalars(K), min_size=n, max_size=n).map(tuple)


def matrices(K, nrows, ncols):
    return st.lists(vectors(K, ncols), min_size=nrows,
                    max_size=nrows).map(lambda rows: Mat(K, rows, ncols=ncols))


# ---------------------------------------------------------------------------
# reference loops on field elements


def ref_matmul(A, B):
    z = A.field.zero
    out = []
    for r in A.rows:
        acc = [z] * B.ncols
        for k, a in enumerate(r):
            if a == z:
                continue
            for j in range(B.ncols):
                b = B.rows[k][j]
                if b != z:
                    acc[j] = acc[j] + a * b
        out.append(acc)
    return Mat(A.field, out, ncols=B.ncols)


def ref_apply(A, v):
    z = A.field.zero
    out = [z] * A.nrows
    for j, x in enumerate(v):
        if x == z:
            continue
        for i in range(A.nrows):
            a = A.rows[i][j]
            if a != z:
                out[i] = out[i] + a * x
    return tuple(out)


def ref_bilinear(K, table, x, y):
    z = K.zero
    out = [z] * len(table)
    for i, xi in enumerate(x):
        if xi == z:
            continue
        for j, yj in enumerate(y):
            if yj == z:
                continue
            c = xi * yj
            for k, t in enumerate(table[i][j]):
                out[k] = out[k] + c * t
    return tuple(out)


def ref_tensor_vec(u, v):
    return tuple(a * b for a in u for b in v)


def ref_eliminate(rows, pivots, v, zero):
    v = list(v)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c != zero:
            v = [a - c * b for a, b in zip(v, row)]
    return tuple(v)


# ---------------------------------------------------------------------------
# equivalence


@st.composite
def matmul_cases(draw):
    K = draw(st.sampled_from(FIELDS))
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(matrices(K, n, k)), draw(matrices(K, k, m))


@PROPS
@given(matmul_cases())
def test_matmul_matches_the_element_loop(case):
    A, B = case
    assert A @ B == ref_matmul(A, B)


@st.composite
def apply_cases(draw):
    K = draw(st.sampled_from(FIELDS))
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return draw(matrices(K, n, k)), draw(vectors(K, k))


@PROPS
@given(apply_cases())
def test_apply_matches_the_element_loop(case):
    A, v = case
    assert A.apply(v) == ref_apply(A, v)


@st.composite
def bilinear_cases(draw):
    K = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, 4))
    table = [[draw(vectors(K, d)) for _ in range(d)] for _ in range(d)]
    return K, table, draw(vectors(K, d)), draw(vectors(K, d))


@PROPS
@given(bilinear_cases())
def test_bilinear_matches_the_element_loop(case):
    K, table, x, y = case
    assert bilinear(K, product_terms(K, table), x, y) == \
        ref_bilinear(K, table, x, y)


@st.composite
def tensor_cases(draw):
    K = draw(st.sampled_from(FIELDS))
    return (K, draw(vectors(K, draw(st.integers(0, 4)))),
            draw(vectors(K, draw(st.integers(0, 4)))))


@PROPS
@given(tensor_cases())
def test_tensor_vec_matches_the_element_loop(case):
    K, u, v = case
    assert tensor_vec(K, u, v) == ref_tensor_vec(u, v)


@st.composite
def eliminate_cases(draw):
    K = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    rows = draw(matrices(K, draw(st.integers(0, 4)), n))
    order = draw(st.sampled_from(["first", "last"]))
    return K, rref(rows, order), draw(vectors(K, n))


@PROPS
@given(eliminate_cases())
def test_eliminate_matches_the_element_loop(case):
    K, (reduced, pivots), v = case
    terms = [nonzero_terms(K, r) for r in reduced.rows]
    got = K.fold(eliminate(K, terms, pivots, K.lift(v)))
    assert got == ref_eliminate(reduced.rows, pivots, v, K.zero)


@PROPS
@given(st.sampled_from(FIELDS).flatmap(
    lambda K: st.tuples(st.just(K), vectors(K, 6))))
def test_nonzero_terms_are_the_lifted_nonzero_entries(case):
    K, v = case
    terms = nonzero_terms(K, v)
    assert [j for j, _ in terms] == [j for j, c in enumerate(v)
                                     if c != K.zero]
    assert K.fold([c for _, c in terms]) == tuple(c for c in v
                                                  if c != K.zero)


# ---------------------------------------------------------------------------
# the raw-scalar operations of each field


@pytest.mark.parametrize("K", FIELDS, ids=str)
def test_raw_scalars_round_trip(K):
    elems = list(K.elements()) if K.is_finite else \
        [K.zero, K.one, K.from_int(-3) / K.from_int(2)]
    assert K.fold(K.lift(elems)) == tuple(elems)
    for x, r in zip(elems, K.lift(elems)):
        assert bool(r) == (x != K.zero)
        if r:
            assert K.fold(K.reduce([K.raw_inv(r) * r])) == (K.one,)


def test_prime_field_raw_scalars_are_residues():
    F7 = prime_field(7)
    assert F7.lift((F7.zero, F7.from_int(6))) == [0, 6]
    assert F7.reduce([7, -1, 17, -14]) == [0, 6, 3, 0]
    assert F7.fold([0, 6]) == (F7.zero, F7.from_int(-1))
