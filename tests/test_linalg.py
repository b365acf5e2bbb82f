import random
from fractions import Fraction

import pytest

from greenbox.fields import FieldUsageError, finite_field, prime_field, \
    rationals
from greenbox.linalg import (Mat, Span, eliminate, inverse, kernel,
                             left_inverse, nonzero_terms, rank, rref,
                             solve_matrix)
from greenbox.presented import PresentedLevel

from reference import bilinear, expand, in_relation_span, level_reduce, \
    product_terms

F2 = prime_field(2)
F5 = prime_field(5)
F7 = prime_field(7)
Q = rationals()
F9 = finite_field(3, 2)


def mat(K, rows):
    return Mat(K, [[K.from_int(x) for x in r] for r in rows],
               ncols=len(rows[0]) if rows else 0)


def test_kernel_of_identity_is_trivial():
    assert kernel(Mat.identity(F5, 3)) == []


def test_identity_products_return_the_other_operand():
    A = mat(F5, [[1, 2, 3], [4, 0, 1]])
    assert Mat.identity(F5, 2) @ A is A
    assert A @ Mat.identity(F5, 3) is A


def test_identity_products_still_check_shape_and_field():
    A = mat(F5, [[1, 2], [3, 4]])
    for bad in (lambda: Mat.identity(F5, 3) @ A,
                lambda: A @ Mat.identity(F5, 3)):
        with pytest.raises(ValueError):
            bad()
    for bad in (lambda: Mat.identity(F7, 2) @ A,
                lambda: A @ Mat.identity(F7, 2)):
        with pytest.raises(FieldUsageError):
            bad()


def test_identity_equals_and_hashes_as_a_plain_mat():
    for K in (F5, Q):
        for n in (0, 1, 3):
            ident = Mat.identity(K, n)
            plain = Mat(K, ident.rows, ncols=n)
            assert ident == plain and plain == ident
            assert hash(ident) == hash(plain)
            assert ident.known_identity and not plain.known_identity


def test_identity_is_one_object_per_field_and_size():
    """``Mat.identity`` is interned per (field, n), so its lazily built
    terms are built once; each field and size gets its own object, and
    ``@`` still recognises and skips it."""
    for K in (F5, F7, F9, Q):
        for n in (0, 1, 3):
            ident = Mat.identity(K, n)
            assert Mat.identity(K, n) is ident and ident.known_identity
            assert ident.field is K and (ident.nrows, ident.ncols) == (n, n)
            assert ident.row_terms() is Mat.identity(K, n).row_terms()
    assert Mat.identity(F5, 2) is not Mat.identity(F7, 2)
    assert Mat.identity(F5, 2) is not Mat.identity(F5, 3)
    assert Mat.identity(F5, 2) != Mat.identity(F7, 2)


def test_a_known_identity_is_its_own_inverse():
    """``inverse`` hands a known identity back as it is; a plain ``Mat``
    with the same entries is still solved, to an equal matrix."""
    for K in (F5, F9, Q):
        for n in (0, 1, 4):
            ident = Mat.identity(K, n)
            assert inverse(ident) is ident
            plain = Mat._from_raw(K, ident.raw, n)
            assert not plain.known_identity
            assert inverse(plain) == ident and inverse(plain) is not ident
    A = mat(F5, [[1, 2, 3], [4, 0, 1]])
    assert Mat.identity(F5, 2) @ A is A and A @ Mat.identity(F5, 3) is A


def test_the_inverse_of_the_empty_matrix_is_the_empty_identity():
    for K in (F5, Q, F9):
        assert inverse(Mat(K, [], ncols=0)) == Mat.identity(K, 0)


def test_kernel_sum_map_over_f2():
    A = mat(F2, [[1, 1]])
    assert kernel(A) == [(F2.one, F2.one)]


def test_rank_nullity_random():
    rng = random.Random(5)
    for K in (F5, Q):
        for _ in range(25):
            nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
            A = Mat(K, [[K.random(rng) for _ in range(nc)]
                        for _ in range(nr)], ncols=nc)
            ker = kernel(A)
            assert rank(A) + len(ker) == nc
            for v in ker:
                assert all(x == K.zero for x in A.apply(v))


def test_left_inverse_exactly_when_the_columns_are_independent():
    """``left_inverse(A)`` is a P with P·A = 1 when A's columns are
    independent and None otherwise, over F_5, F_9 and Q, tall and square."""
    rng = random.Random(13)
    for K in (F5, F9, Q):
        for _ in range(30):
            nc = rng.randrange(1, 4)
            nr = nc + rng.randrange(0, 3)
            A = Mat(K, [[K.random(rng) for _ in range(nc)]
                        for _ in range(nr)], ncols=nc)
            P = left_inverse(A)
            if rank(A) < nc:
                assert P is None
            else:
                assert P @ A == Mat.identity(K, nc)


def test_solve_and_inverse_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(1, 5)
        A = Mat(F5, [[F5.random(rng) for _ in range(n)] for _ in range(n)],
                ncols=n)
        Ainv = inverse(A)
        if Ainv is None:
            assert rank(A) < n
            continue
        assert A @ Ainv == Mat.identity(F5, n)
        b = tuple(F5.random(rng) for _ in range(n))
        x = solve_matrix(A, Mat.from_cols(F5, [b], n))
        assert A.apply(x.col(0)) == b


def test_solve_inconsistent():
    A = mat(F5, [[1, 0], [2, 0]])
    assert solve_matrix(A, mat(F5, [[1], [1]])) is None


def test_rref_last_keeps_early_generators():
    # relation y - x: last-pivot elimination rewrites y in terms of x
    A = mat(F5, [[4, 1]])
    r, pivots = rref(A, "last")
    assert pivots == (1,)
    assert r.rows[0] == (F5.from_int(4), F5.one)


def test_presented_level_basics():
    # quotient of F_5^2 by span{(1,2)} has dimension 1
    lvl = PresentedLevel(F5, ["a", "b"], [(F5.one, F5.from_int(2))])
    assert lvl.dim == 1
    assert lvl.reduced_labels == ["a"]
    v = (F5.from_int(3), F5.from_int(4))
    canon = lvl.canonicalize(v)
    assert lvl.canonicalize(canon) == canon
    for r in lvl.relations:
        assert in_relation_span(lvl, r)
    assert lvl.dim == lvl.ngens - lvl.rel_rank()


def test_presented_level_roundtrip():
    lvl = PresentedLevel(F2, ["p", "q", "r"],
                         [(F2.one, F2.one, F2.zero)])
    for i in range(lvl.dim):
        rv = tuple(F2.one if t == i else F2.zero for t in range(lvl.dim))
        assert level_reduce(lvl, expand(lvl, rv)) == rv


def test_span_membership():
    s = Span(F5, 3)
    assert s.add((F5.one, F5.zero, F5.one))
    assert not s.add((F5.from_int(2), F5.zero, F5.from_int(2)))
    assert s.contains((F5.from_int(3), F5.zero, F5.from_int(3)))
    assert not s.contains((F5.one, F5.one, F5.zero))
    assert s.dim == 1


def test_prime_field_entry_points_refuse_foreign_scalars():
    # a raw F_p scalar is a residue in [0, p), which the packed product's
    # slot bound relies on: an F_13 element would enter unreduced (12 over
    # F_11), and a bare int or a rational has no residue to lift
    F11, F13 = prime_field(11), prime_field(13)
    for v in ((F13.from_int(12), F11.one), (3, 4), (Q.one, F11.one)):
        for bad in (lambda: Mat(F11, [v]),
                    lambda: Mat.from_cols(F11, [v], 2),
                    lambda: Span(F11, 2).add(v),
                    lambda: Span(F11, 2).contains(v)):
            with pytest.raises(FieldUsageError):
                bad()


def test_empty_shapes():
    z = Mat(F5, [], ncols=0)
    assert (z @ z) == z
    assert Mat.identity(F5, 0) == z
    tall = Mat(F5, [], ncols=3)
    assert kernel(tall) == [(F5.one, F5.zero, F5.zero),
                            (F5.zero, F5.one, F5.zero),
                            (F5.zero, F5.zero, F5.one)]


def test_rational_elimination_exact():
    A = Mat(Q, [[Q.from_int(2), Q.from_int(1)],
                [Q.from_int(1), Q.from_int(3)]], ncols=2)
    Ainv = inverse(A)
    assert Ainv is not None
    assert A @ Ainv == Mat.identity(Q, 2)


# ---------------------------------------------------------------------------
# cancellation that shows only mod p: over F_7, 3 + 4 and 2 - 3·3 are 7 and
# -7 as ints, so a kernel that tested zero before reducing would see them as
# nonzero


def test_sum_that_cancels_mod_p_is_zero():
    three, four = F7.from_int(3), F7.from_int(4)
    ones = (F7.one, F7.one)
    A = Mat(F7, [[three, four]])
    assert A.apply(ones) == (F7.zero,)
    assert A @ Mat(F7, [[F7.one], [F7.one]]) == Mat(F7, [[F7.zero]])
    zero = (F7.zero, F7.zero)
    table = [[(three, F7.zero), zero], [zero, (four, F7.zero)]]
    assert bilinear(F7, product_terms(F7, table), ones, ones) == zero


def test_elimination_that_cancels_mod_p_is_zero():
    row = (F7.one, F7.from_int(3))
    v = (F7.from_int(3), F7.from_int(2))      # v = 3·row, up to 2 - 9 = -7
    assert eliminate(F7, [nonzero_terms(F7, row)], [0], F7.lift(v)) == [0, 0]
    span = Span(F7, 2, [row])
    assert not span.add(v)
    assert span.dim == 1 and span.basis() == [row] and span.contains(v)


def test_eliminate_multiplies_by_reduced_pivot_coordinates():
    """Against rows reduced only against the rows before them, a pivot
    coordinate can hold an unreduced sum when it is read; ``eliminate``
    reduces it before it multiplies a row, so no multiplier leaves [0, p)."""
    seen = []

    class Probe(int):
        def __rmul__(self, c):
            seen.append(c)
            return c * int(self)

    # row 0 has a term at row 1's pivot: clearing row 0 from v = (6, 6, 5)
    # leaves 6 - 36 = -30 at coordinate 1, which must be read as 5
    rows = [((0, 1), (1, Probe(6)), (2, Probe(3))), ((1, 1), (2, Probe(6)))]
    assert eliminate(F7, rows, [0, 1], [6, 6, 5]) == [0, 0, 6]
    assert seen and all(0 <= c < 7 for c in seen)


def test_span_add_never_pivots_on_a_cancelled_entry():
    # after elimination v is (0, -7, 5): coordinate 1 is zero mod 7, so the
    # new pivot must be coordinate 2
    span = Span(F7, 3, [(F7.one, F7.from_int(3), F7.zero)])
    assert span.add((F7.from_int(3), F7.from_int(2), F7.from_int(5)))
    rows, pivots = span.echelon()
    assert pivots == (0, 2)
    assert rows[1] == (F7.zero, F7.zero, F7.one)


# ---------------------------------------------------------------------------
# a Mat keeps one stored form, its reduced raw rows; kernel results and
# matrices built from element rows are the same matrices


def _random(K, rng, nrows, ncols):
    return Mat(K, [[K.random(rng) for _ in range(ncols)]
                   for _ in range(nrows)], ncols=ncols)


def _dot(K, u, v):
    out = K.zero
    for a, b in zip(u, v):
        out = out + a * b
    return out


def _assert_same(kernel_result, element_rows, ncols):
    built = Mat(kernel_result.field, element_rows, ncols=ncols)
    assert kernel_result == built and built == kernel_result
    assert hash(kernel_result) == hash(built)


@pytest.mark.parametrize("K", [F7, F9, Q], ids=str)
def test_kernel_results_equal_and_hash_like_element_built_matrices(K):
    rng = random.Random(13)
    A, C = _random(K, rng, 3, 4), _random(K, rng, 3, 4)
    B = _random(K, rng, 4, 2)
    a, b, c = A.rows, B.rows, C.rows
    _assert_same(A @ B, [[_dot(K, r, col) for col in zip(*b)] for r in a], 2)
    _assert_same(A + C, [[x + y for x, y in zip(r, s)]
                         for r, s in zip(a, c)], 4)
    _assert_same(A.transpose(), list(zip(*a)), 3)
    while True:
        S = _random(K, rng, 3, 3)
        if rank(S) == 3:
            break
    X = solve_matrix(S, A)
    # the unique solution, checked entry by entry through element arithmetic
    assert [[_dot(K, r, col) for col in zip(*X.rows)] for r in S.rows] == \
        [list(r) for r in a]
    _assert_same(X, X.rows, 4)
    _assert_same(inverse(S), inverse(S).rows, 3)


@pytest.mark.parametrize("K", [F7, F9, Q], ids=str)
def test_rows_col_and_cols_are_field_elements(K):
    rng = random.Random(17)
    A, B = _random(K, rng, 3, 3), _random(K, rng, 3, 2)
    for M in (A, A @ B, A + A, A.scale(K.from_int(2)), A.transpose(),
              Mat.identity(K, 3), Mat.zeros(K, 2, 3),
              rref(A)[0], solve_matrix(A, B) or B):
        entries = [x for r in M.rows for x in r]
        entries += [x for j in range(M.ncols) for x in M.col(j)]
        entries += [x for c in M.cols() for x in c]
        # no bare int: a Fraction over Q, an element of K otherwise
        assert all(type(x) is Fraction if K is Q else
                   getattr(x, "field", None) is K for x in entries), M


@pytest.mark.parametrize("K", [F7, F9, Q], ids=str)
def test_identity_is_returned_unchanged_by_matmul(K):
    A = _random(K, random.Random(19), 2, 3)
    assert Mat.identity(K, 2) @ A is A and A @ Mat.identity(K, 3) is A
