"""The raw-scalar kernels against element-by-element reference loops.

Each reference below is the plain loop over field elements that the kernel
computes on raw scalars (ints mod p for a prime field, the elements
themselves for F_9 and Q).  Hypothesis draws small operands over F_2, F_5,
F_7, F_11, F_13, F_9 = F_3[t]/(t² + 1) and Q (derandomized, so every run
sees the same examples) and asserts that kernel and reference agree exactly.
The Green-morphism check, which compares products on raw terms, is held
against the element loop over basis pairs in the same way, and so are the
product terms of a tensor algebra, against ``tensor_vec`` of its factors'
dense tables, which ``reference`` builds by the element loop.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from greenbox.algebras import poly_quotient_algebra, tensor_algebra
from greenbox.extensions import kummer_extension
from greenbox.fields import extension_field, prime_field, rationals
from greenbox.green import check_green_morphism, fix_functor
from greenbox import linalg
from greenbox.linalg import Mat, eliminate, nonzero_terms, rref, tensor_vec, \
    unit_vec
from greenbox.mackey import MackeyFunctor, MackeyMorphism, Violation, \
    subgroup_lattice

from reference import algebra_table, bilinear, green_functor, mult_table, \
    multiply, permute_green, product_terms

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
    brows = B.rows
    out = []
    for r in A.rows:
        acc = [z] * B.ncols
        for k, a in enumerate(r):
            if a == z:
                continue
            for j in range(B.ncols):
                b = brows[k][j]
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


def ref_green_morphism(source, target, components, name=""):
    """check_green_morphism as the element loop over basis pairs."""
    out = MackeyMorphism(source.mackey, target.mackey, components,
                         name=name).check()
    for m in source.lattice.divisors:
        phi = components[m]
        dim = source.dim(m)
        table = mult_table(source, m)
        if any(phi.apply(table[i][j])
               != multiply(target, m, phi.col(i), phi.col(j))
               for i in range(dim) for j in range(dim)):
            out.append(Violation("morphism_mult", {"level": m}, name))
        if phi.apply(source.unit[m]) != target.unit[m]:
            out.append(Violation("morphism_unit", {"level": m}, name))
    return out


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


# The packed F_p product sums inner·(p − 1)² at most into each slot; with
# every entry p − 1 each slot reaches that bound, on either side of the
# width steps 16 → 32 bits (p = 11) and 32 → 64 bits (p = 65521, the largest
# prime below MAX_FIELD_ORDER).


@pytest.mark.parametrize("p, inner", [
    pytest.param(11, 655, id="F11-16bit"),
    pytest.param(11, 656, id="F11-32bit"),
    pytest.param(257, 1, id="F257-32bit"),
    pytest.param(65521, 1, id="F65521-32bit"),
    pytest.param(65521, 2, id="F65521-64bit"),
])
def test_matmul_at_the_packed_slot_bounds(p, inner):
    K = prime_field(p)
    top = K.from_int(-1)
    A = Mat(K, [[top] * inner] * 2)
    B = Mat(K, [[top] * 3] * inner)
    assert A @ B == ref_matmul(A, B) == Mat(K, [[K.from_int(inner)] * 3] * 2)


def test_matmul_of_empty_and_identity_operands_over_fp():
    K = prime_field(11)
    A = Mat(K, [[K.from_int(3 * i + j + 5) for j in range(3)]
                for i in range(2)])
    no_rows = Mat(K, [], ncols=2)
    no_cols = Mat(K, [()] * 3, ncols=0)
    for X, Y in ((no_rows, A), (no_cols, no_rows), (A, no_cols)):
        assert X @ Y == ref_matmul(X, Y)
    assert no_cols @ no_rows == Mat.zeros(K, 3, 2)
    # plain matrices equal to the identity, so the product is computed
    one2, one3 = (Mat(K, Mat.identity(K, n).rows) for n in (2, 3))
    assert one2 @ A == A == A @ one3


@pytest.mark.parametrize("p, inner", [
    pytest.param(257, 1, id="F257-32bit"),
    pytest.param(65521, 1, id="F65521-32bit"),
])
def test_packed_product_at_the_32_bit_slot_bound(p, inner):
    # a right operand of one row now takes the generic body of ``@``, so the
    # packed product is called directly at the slot bound it reaches
    K = prime_field(p)
    top = K.from_int(-1)
    A = Mat(K, [[top] * inner] * 2)
    B = Mat(K, [[top] * 3] * inner)
    assert linalg._packed_product(p, A.raw, B.raw, 3) == ref_matmul(A, B).raw


@PROPS
@given(st.data(), st.sampled_from(["1x1", "nx1", "1xn", "2x2"]))
def test_tiny_fp_products_match_the_element_loop(data, shape):
    """Right operands of one row or one column take the generic body and
    all others over F_p the packed one, decided from the shape alone."""
    K = prime_field(11)
    n = data.draw(st.integers(1, 5))
    k, c = {"1x1": (1, 1), "nx1": (n, 1), "1xn": (1, n), "2x2": (2, 2)}[shape]
    A = data.draw(matrices(K, data.draw(st.integers(0, 4)), k))
    B = data.draw(matrices(K, k, c))
    packed = []
    real = linalg._packed_product
    linalg._packed_product = lambda *args: packed.append(1) or real(*args)
    try:
        product = A @ B
    finally:
        linalg._packed_product = real
    assert product == ref_matmul(A, B)
    assert len(packed) == (shape == "2x2")


@PROPS
@given(st.lists(st.integers(0, 10), min_size=288, max_size=288))
def test_dense_12x12_matmul_over_f11_matches_the_element_loop(entries):
    # the fuzz regime: random conjugates S·M·S⁻¹ of 12×12 matrices
    K = prime_field(11)
    A, B = (Mat(K, [[K.from_int(x) for x in entries[i:i + 12]]
                    for i in range(o, o + 144, 12)]) for o in (0, 144))
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


MORPHISM_FIELDS = FIELDS[:3] + FIELDS[5:]      # F_2, F_5, F_7, F_9, Q
C2 = subgroup_lattice(2)


def perm_mat(K, perm):
    """Row j picks coordinate perm[j], as in ``permute_green``."""
    return Mat(K, [unit_vec(K, len(perm), old) for old in perm],
               ncols=len(perm))


def with_product(G, m, i, j, value):
    """G with the level-m product of basis vectors i and j replaced."""
    mult = {d: mult_table(G, d) for d in G.lattice.divisors}
    mult[m][i][j] = value
    return green_functor(G.mackey, mult, G.unit, name=G.name)


@st.composite
def random_green(draw, K):
    """C_2 data of random dimensions, none of it axiom-true."""
    dims = {m: draw(st.integers(0, 3)) for m in C2.divisors}
    mackey = MackeyFunctor(
        K, C2, {m: [f"e{i}" for i in range(dims[m])] for m in dims},
        {(1, 2): draw(matrices(K, dims[1], dims[2]))},
        {(2, 1): draw(matrices(K, dims[2], dims[1]))},
        {m: draw(matrices(K, dims[m], dims[m])) for m in dims})
    mult = {m: [[draw(vectors(K, dims[m])) for _ in range(dims[m])]
                for _ in range(dims[m])] for m in dims}
    return green_functor(mackey, mult,
                         {m: draw(vectors(K, dims[m])) for m in dims})


@st.composite
def morphism_cases(draw):
    """A random φ between random functors (mostly violations), or the
    relabeling φ onto a permuted copy, optionally with one target product
    bumped (no violation, or exactly one)."""
    K = draw(st.sampled_from(MORPHISM_FIELDS))
    source = draw(random_green(K))
    if draw(st.booleans()):
        target = draw(random_green(K))
        return source, target, {m: draw(matrices(K, target.dim(m),
                                                 source.dim(m)))
                                for m in C2.divisors}
    perms = {m: draw(st.permutations(range(source.dim(m))))
             for m in C2.divisors}
    target = permute_green(source, perms)
    levels = [m for m in C2.divisors if source.dim(m)]
    if levels and draw(st.booleans()):
        m = draw(st.sampled_from(levels))
        i, j, k = (draw(st.integers(0, source.dim(m) - 1)) for _ in range(3))
        bumped = list(mult_table(target, m)[i][j])
        bumped[k] += K.one
        target = with_product(target, m, i, j, tuple(bumped))
    return source, target, {m: perm_mat(K, perms[m]) for m in C2.divisors}


@PROPS
@given(morphism_cases())
def test_green_morphism_check_matches_the_element_loop(case):
    source, target, phi = case
    assert check_green_morphism(source, target, phi, "φ") == \
        ref_green_morphism(source, target, phi, "φ")


def test_one_bumped_target_product_is_one_violation_at_its_level():
    F5 = prime_field(5)
    G = fix_functor(kummer_extension(F5, 2, F5.from_int(2), F5.from_int(-1)))
    perms = {1: [1, 0], 2: [0]}
    target = permute_green(G, perms)
    phi = {m: perm_mat(F5, perms[m]) for m in perms}
    assert check_green_morphism(G, target, phi, "φ") == []
    bumped = tuple(a + F5.one for a in mult_table(target, 1)[0][1])
    assert check_green_morphism(G, with_product(target, 1, 0, 1, bumped),
                                phi, "φ") == \
        [Violation("morphism_mult", {"level": 1}, "φ")]


@pytest.mark.parametrize("zero_side", ["source", "target"])
def test_a_product_zero_on_one_side_only_is_a_violation(zero_side):
    """The identity φ from G to G with one product made zero on one side:
    a zero source product against a nonzero target product, and the
    reverse, are each one violation, as in the element loop."""
    F5 = prime_field(5)
    G = fix_functor(kummer_extension(F5, 2, F5.from_int(2), F5.from_int(-1)))
    assert any(c != F5.zero for c in mult_table(G, 1)[0][0])
    zeroed = with_product(G, 1, 0, 0, (F5.zero,) * G.dim(1))
    source, target = (zeroed, G) if zero_side == "source" else (G, zeroed)
    phi = {m: perm_mat(F5, list(range(G.dim(m)))) for m in C2.divisors}
    assert check_green_morphism(source, target, phi, "φ") == \
        ref_green_morphism(source, target, phi, "φ") == \
        [Violation("morphism_mult", {"level": 1}, "φ")]


# ---------------------------------------------------------------------------
# the product terms of a tensor algebra


TENSOR_FIELDS = [prime_field(7), extension_field(3, (1, 0, 1)), rationals()]
F3 = prime_field(3)
# F_3[s]/(s²), not reduced: s ⊗ s squares to zero in its tensor square
DUAL = poly_quotient_algebra(F3, [F3.zero, F3.zero, F3.one], var="s")


@st.composite
def quotient_algebras(draw, K):
    """K[t]/(f) for a monic f of degree 1 to 3, reducible or not."""
    deg = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3) \
        if K.order is None else st.sampled_from(list(K.elements()))
    low = draw(st.lists(coeff, min_size=deg, max_size=deg))
    return poly_quotient_algebra(K, low + [K.one])


@st.composite
def tensor_factor_cases(draw):
    K = draw(st.sampled_from(TENSOR_FIELDS))
    return draw(quotient_algebras(K)), draw(quotient_algebras(K))


def assert_tensor_matches_the_element_loop(A, B):
    K = A.base
    tensor = tensor_algebra(A, B)
    terms = tensor.terms
    ta, tb, table = algebra_table(A), algebra_table(B), algebra_table(tensor)
    for i1 in range(A.dim):
        for j1 in range(B.dim):
            for i2 in range(A.dim):
                for j2 in range(B.dim):
                    ref = tensor_vec(K, ta[i1][i2], tb[j1][j2])
                    a, b = i1 * B.dim + j1, i2 * B.dim + j2
                    assert tuple(terms[a][b]) == nonzero_terms(K, ref)
                    assert table[a][b] == ref
    assert tensor.one == tensor_vec(K, A.one, B.one)


@PROPS
@given(tensor_factor_cases())
def test_tensor_algebra_terms_match_the_element_loop(case):
    assert_tensor_matches_the_element_loop(*case)


@pytest.mark.parametrize("other", ["dual", "field"])
def test_tensor_algebra_of_a_non_reduced_factor(other):
    B = DUAL if other == "dual" else \
        poly_quotient_algebra(F3, [F3.one, F3.zero, F3.one])
    assert_tensor_matches_the_element_loop(DUAL, B)
    assert_tensor_matches_the_element_loop(B, DUAL)
    assert_tensor_matches_the_element_loop(B, B)


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
