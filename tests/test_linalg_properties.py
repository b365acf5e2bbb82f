"""Property and differential tests for the elimination kernel.

Hypothesis draws small matrices over F_2, F_5, F_7 and Q (derandomized, so
every run sees the same examples); sympy's DomainMatrix over GF(p) and QQ is
the independent oracle for rank, for the first-pivot RREF and for whether a
system A X = B has a solution, and for whether a linear map descends to
presented quotients.  The self-consistency properties (idempotent rref,
rank plus nullity, canonicalize killing exactly the relation span) also run
over F_9 = F_3[t]/(t² + 1), where sympy has no domain and the rank there is
this package's own.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from greenbox.fields import extension_field, prime_field, rationals
from greenbox.linalg import Mat, Span, kernel, rank, rref, solve_matrix, \
    unit_vec
from greenbox.mackey import InternalCheckError
from greenbox.presented import PresentedLevel

from reference import expand, level_reduce

FIELDS = [prime_field(2), prime_field(5), prime_field(7), rationals()]
F9 = extension_field(3, (1, 0, 1))
SELF_FIELDS = FIELDS + [F9]
# the fields of the raw-scalar kernels: residues mod 2 to 13, F_9 and Q
MAP_FIELDS = [prime_field(p) for p in (2, 5, 7, 11, 13)] + [F9, rationals()]
PROPS = settings(derandomize=True, database=None, max_examples=60,
                 deadline=None)
# one field more, so as many examples per field as under PROPS
SELF_PROPS = settings(PROPS, max_examples=75)
MAP_PROPS = settings(PROPS, max_examples=105)


def rows_over(K, ncols, min_rows, max_rows):
    if K.order is None:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    elif K.order != K.characteristic:
        entry = st.sampled_from(list(K.elements()))
    else:
        entry = st.integers(0, K.order - 1).map(K.from_int)
    row = st.lists(entry, min_size=ncols, max_size=ncols).map(tuple)
    return st.lists(row, min_size=min_rows, max_size=max_rows)


@st.composite
def matrices(draw, max_rows=5, max_cols=6, fields=FIELDS):
    K = draw(st.sampled_from(fields))
    ncols = draw(st.integers(0, max_cols))
    return Mat(K, draw(rows_over(K, ncols, 0, max_rows)), ncols=ncols)


def oracle(mat: Mat):
    """The same matrix as a sympy DomainMatrix."""
    K = mat.field
    if K.order is None:
        dom = QQ
        rows = [[QQ(a.numerator, a.denominator) for a in r] for r in mat.rows]
    else:
        dom = GF(K.characteristic)
        rows = [[dom(a.value) for a in r] for r in mat.rows]
    return DomainMatrix(rows, (mat.nrows, mat.ncols), dom)


def from_oracle(K, x):
    if K.order is None:
        return Fraction(int(x.numerator), int(x.denominator))
    return K.from_int(int(x))


def oracle_rank(K, rows, ncols):
    """sympy's rank where it has the domain, else this package's."""
    mat = Mat(K, rows, ncols=ncols)
    return rank(mat) if K is F9 else oracle(mat).rank()


@SELF_PROPS
@given(matrices(fields=SELF_FIELDS), st.sampled_from(["first", "last"]))
def test_rref_is_idempotent(mat, order):
    r, pivots = rref(mat, order)
    assert rref(r, order) == (r, pivots)
    assert list(pivots) == sorted(pivots)


@SELF_PROPS
@given(matrices(fields=SELF_FIELDS))
def test_rank_plus_nullity_is_ncols(mat):
    ker = kernel(mat)
    assert rank(mat) + len(ker) == mat.ncols
    zero = (mat.field.zero,) * mat.nrows
    assert all(mat.apply(v) == zero for v in ker)


@PROPS
@given(matrices())
def test_first_and_last_pivots_share_rank_and_row_space(mat):
    K = mat.field
    first, piv_first = rref(mat, "first")
    last, piv_last = rref(mat, "last")
    assert len(piv_first) == len(piv_last)
    both = list(first.rows) + list(last.rows)
    assert oracle_rank(K, both, mat.ncols) == len(piv_first)
    assert Span(K, mat.ncols, first.rows) == \
        Span(K, mat.ncols, last.rows, pivot_order="last")
    for row, p in zip(last.rows, piv_last):
        assert row[p] == K.one
        assert all(a == K.zero for a in row[p + 1:])


@PROPS
@given(matrices())
def test_rank_and_rref_match_sympy(mat):
    K = mat.field
    r, pivots = rref(mat)
    want, want_pivots = oracle(mat).rref()
    assert pivots == tuple(want_pivots)
    assert rank(mat) == oracle(mat).rank()
    expected = [tuple(from_oracle(K, x) for x in row)
                for row in want.to_list()[:len(want_pivots)]]
    assert list(r.rows) == expected


@SELF_PROPS
@given(matrices(max_rows=4, fields=SELF_FIELDS), st.data())
def test_canonicalize_kills_exactly_the_relation_span(rels, data):
    K, n = rels.field, rels.ncols
    vectors = data.draw(rows_over(K, n, 1, 3))
    lvl = PresentedLevel(K, [f"g{j}" for j in range(n)], rels.rows)
    zero = (K.zero,) * n
    base = oracle_rank(K, rels.rows, n)
    assert lvl.rel_rank() == base
    for r in rels.rows:
        assert lvl.canonicalize(r) == zero
    for v in vectors:
        canon = lvl.canonicalize(v)
        assert lvl.canonicalize(canon) == canon
        assert all(canon[p] == K.zero for p in lvl.pivots)
        # v - canon(v) lies in the span; canon(v) = 0 iff v does
        diff = tuple(a - b for a, b in zip(v, canon))
        assert oracle_rank(K, list(rels.rows) + [diff], n) == base
        in_span = oracle_rank(K, list(rels.rows) + [v], n) == base
        assert (canon == zero) == in_span
        # constant on cosets
        coeffs = data.draw(st.lists(st.integers(-2, 2),
                                    min_size=rels.nrows,
                                    max_size=rels.nrows))
        shifted = list(v)
        for c, r in zip(coeffs, rels.rows):
            shifted = [a + K.from_int(c) * b for a, b in zip(shifted, r)]
        assert lvl.canonicalize(tuple(shifted)) == canon


@PROPS
@given(matrices(max_rows=4, max_cols=4), st.booleans(), st.data())
def test_solve_matrix_solves_exactly_the_solvable_systems(A, consistent,
                                                          data):
    K = A.field
    k = data.draw(st.integers(1, 3))
    if consistent:
        # B = A X0 is solvable by construction
        X0 = Mat(K, data.draw(rows_over(K, k, A.ncols, A.ncols)), ncols=k)
        B = A @ X0
    else:
        B = Mat(K, data.draw(rows_over(K, k, A.nrows, A.nrows)), ncols=k)
    base = oracle_rank(K, A.rows, A.ncols)
    solvable = all(
        oracle_rank(K, Mat.from_cols(K, A.cols() + [b], A.nrows).rows,
                    A.ncols + 1) == base
        for b in B.cols())
    X = solve_matrix(A, B)
    assert (X is not None) == solvable
    if X is not None:
        assert A @ X == B


@st.composite
def overdetermined_systems(draw):
    """A X = B with n unknowns per column whose first n rows of A, apart
    from at most one inserted row, are invertible, so elimination reaches
    full column rank there.  ``case`` says where an inconsistent row goes:
    "before" full rank (a combination of the rows above it, with a
    perturbed right side), "after" it (one later row's right side
    perturbed, which only substitution sees), or "none"."""
    K = draw(st.sampled_from(SELF_FIELDS))
    case = draw(st.sampled_from(["before", "after", "none"]))
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    ints = st.integers(-2, 2).map(K.from_int)
    # an invertible n x n block: unit upper triangular, columns permuted
    upper = [[K.zero] * i + [K.one] + draw(st.lists(ints, min_size=n - i - 1,
                                                    max_size=n - i - 1))
             for i in range(n)]
    perm = draw(st.permutations(range(n)))
    top = [tuple(r[perm[j]] for j in range(n)) for r in upper]
    later = draw(rows_over(K, n, 1, 4))
    X0 = Mat(K, draw(rows_over(K, k, n, n)), ncols=k)
    A = Mat(K, top + later, ncols=n)
    B = [list(r) for r in (A @ X0).rows]
    rows = [list(r) for r in A.rows]
    nonzero = draw(st.sampled_from([c for c in map(K.from_int, (1, 2, -1))
                                    if c != K.zero]))
    col = draw(st.integers(0, k - 1))
    if case == "before":
        at = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(ints, min_size=at, max_size=at))
        a, b = [K.zero] * n, [K.zero] * k
        for c, r, rb in zip(coeffs, rows, B):
            a = [x + c * y for x, y in zip(a, r)]
            b = [x + c * y for x, y in zip(b, rb)]
        b[col] = b[col] + nonzero
        rows.insert(at, a)
        B.insert(at, b)
    elif case == "after":
        at = draw(st.integers(n, len(rows) - 1))
        B[at][col] = B[at][col] + nonzero
    return case, Mat(K, rows, ncols=n), Mat(K, B, ncols=k)


@SELF_PROPS
@given(overdetermined_systems())
def test_solve_matrix_checks_the_rows_after_full_rank(system):
    case, A, B = system
    K = A.field
    base = oracle_rank(K, A.rows, A.ncols)
    solvable = all(
        oracle_rank(K, Mat.from_cols(K, A.cols() + [b], A.nrows).rows,
                    A.ncols + 1) == base
        for b in B.cols())
    assert solvable == (case == "none")
    X = solve_matrix(A, B)
    assert (X is not None) == solvable
    if X is not None:
        assert A @ X == B


# ---------------------------------------------------------------------------
# one Span under random interleavings of inserts and reads
#
# A Span stores rows reduced only against the rows inserted before it and
# back-substitutes when a reader needs the fully reduced form, so inserts
# after a read, reads after inserts and both pivot orders are drawn here
# against a dense Gauss–Jordan elimination written out below.

SPAN_FIELDS = [prime_field(2), prime_field(7), F9, rationals()]
SPAN_OPS = ("add", "contains", "echelon", "basis", "rref", "solve_matrix",
            "kernel")
SPAN_PROPS = settings(PROPS, max_examples=100)


def gauss_jordan(K, rows, ncols, order="first"):
    """The fully reduced echelon form of the element rows ``rows``: (its
    nonzero rows sorted by pivot column, their pivots), with pivots at the
    first or, for ``order="last"``, the last nonzero entry of a row."""
    scan = range(ncols) if order == "first" else range(ncols - 1, -1, -1)
    work, done, pivots = [list(r) for r in rows], [], []
    for c in scan:
        k = next((i for i, r in enumerate(work) if r[c] != K.zero), None)
        if k is None:
            continue
        row = work.pop(k)
        piv = [a / row[c] for a in row]
        work = [[a - r[c] * b for a, b in zip(r, piv)] for r in work]
        done = [[a - r[c] * b for a, b in zip(r, piv)] for r in done]
        done.append(piv)
        pivots.append(c)
    by_pivot = sorted(range(len(done)), key=pivots.__getitem__)
    return ([tuple(done[i]) for i in by_pivot],
            tuple(pivots[i] for i in by_pivot))


def gauss_jordan_kernel(K, rows, ncols):
    reduced, pivots = gauss_jordan(K, rows, ncols)
    basis = []
    for f in (f for f in range(ncols) if f not in pivots):
        v = [K.zero] * ncols
        v[f] = K.one
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def gauss_jordan_solve(K, rows, rhs, ncols, k):
    """The solution of A X = B, B with k columns, that ``solve_matrix``
    promises (zero at the free unknowns), from the reduced form of [A | B];
    None if inconsistent."""
    reduced, pivots = gauss_jordan(K, [a + b for a, b in zip(rows, rhs)],
                                   ncols + k)
    if any(p >= ncols for p in pivots):
        return None
    x = [(K.zero,) * k] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[ncols:]
    return x


@SPAN_PROPS
@given(st.sampled_from(SPAN_FIELDS), st.sampled_from(["first", "last"]),
       st.integers(1, 5), st.data())
def test_span_interleavings_match_dense_gauss_jordan(K, order, n, data):
    span = Span(K, n, pivot_order=order)
    rows = []
    ints = st.integers(-2, 2).map(K.from_int)

    def vector():
        """A random vector, or a combination of the rows so far."""
        if rows and data.draw(st.booleans()):
            coeffs = data.draw(st.lists(ints, min_size=len(rows),
                                        max_size=len(rows)))
            v = [K.zero] * n
            for c, r in zip(coeffs, rows):
                v = [a + c * b for a, b in zip(v, r)]
            return tuple(v)
        return data.draw(rows_over(K, n, 1, 1))[0]

    for op in data.draw(st.lists(st.sampled_from(SPAN_OPS), min_size=1,
                                 max_size=14)):
        rank_before = len(gauss_jordan(K, rows, n)[1])
        if op in ("add", "contains"):
            v = vector()
            grows = len(gauss_jordan(K, rows + [v], n)[1]) > rank_before
            if op == "add":
                assert span.add(v) == grows
                rows.append(v)
            else:
                assert span.contains(v) == (not grows)
        elif op in ("echelon", "basis"):
            want = gauss_jordan(K, rows, n, order)
            got = span.echelon() if op == "echelon" else span.basis()
            assert got == (want if op == "echelon" else want[0])
        elif op == "rref":
            R, pivots = rref(Mat(K, rows, ncols=n), order)
            assert (list(R.rows), pivots) == gauss_jordan(K, rows, n, order)
        elif op == "kernel":
            assert kernel(Mat(K, rows, ncols=n)) == \
                gauss_jordan_kernel(K, rows, n)
        else:
            k = data.draw(st.integers(1, 3))
            rhs = data.draw(rows_over(K, k, len(rows), len(rows)))
            if data.draw(st.booleans()):   # consistent by construction
                X0 = Mat(K, data.draw(rows_over(K, k, n, n)), ncols=k)
                rhs = list((Mat(K, rows, ncols=n) @ X0).rows)
            X = solve_matrix(Mat(K, rows, ncols=n), Mat(K, rhs, ncols=k))
            want = gauss_jordan_solve(K, rows, rhs, n, k)
            assert (None if X is None else list(X.rows)) == want
        assert span.dim == len(gauss_jordan(K, rows, n)[1])


@st.composite
def quotient_maps(draw):
    """A source and a target presentation over one field, and a linear map
    between their ambients."""
    K = draw(st.sampled_from(MAP_FIELDS))
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    src = PresentedLevel(K, [f"g{j}" for j in range(n)],
                         draw(rows_over(K, n, 0, 3)))
    target = PresentedLevel(K, [f"h{j}" for j in range(k)],
                            draw(rows_over(K, k, 0, 3)))
    return src, Mat(K, draw(rows_over(K, n, k, k)), ncols=n), target


@MAP_PROPS
@given(quotient_maps())
def test_descend_raises_exactly_when_relations_escape(case):
    src, amb, target = case
    K, k = src.field, target.ngens
    base = oracle_rank(K, target.relations, k)
    images = [amb.apply(r) for r in src.relations]
    escapes = oracle_rank(K, target.relations + images, k) > base
    try:
        src.descend(amb, target, "escapes")
    except InternalCheckError as exc:
        assert escapes and "↦" in exc.witness
    else:
        assert not escapes


@MAP_PROPS
@given(quotient_maps())
def test_descend_reads_the_map_off_the_free_generators(case):
    src, amb, target = case
    K = src.field
    phi = src.descend(amb, target, "escapes", check=False)
    assert (phi.nrows, phi.ncols) == (target.dim, src.dim)
    try:
        assert src.descend(amb, target, "escapes") == phi
    except InternalCheckError:
        pass
    for k in range(src.dim):
        expected = level_reduce(target, amb.apply(
            expand(src, unit_vec(K, src.dim, k))))
        assert phi.col(k) == expected


# ---------------------------------------------------------------------------
# batched projection and the pivot check


def ref_project(K, rels, n, v):
    """The reduced coordinates of the ambient vector v, by a loop over its
    elements: a free generator is its own coordinate, and a pivot p is
    minus the free part of the relation row with trailing pivot p."""
    reduced, pivots = rref(Mat(K, rels, ncols=n), "last")
    free = [j for j in range(n) if j not in pivots]
    out = [K.zero] * len(free)
    for j, c in enumerate(v):
        if j in pivots:
            row = reduced.rows[pivots.index(j)]
            for k, f in enumerate(free):
                out[k] = out[k] - c * row[f]
        else:
            out[free.index(j)] = out[free.index(j)] + c
    return tuple(out)


@st.composite
def projection_batches(draw):
    """A presented level over F_7, F_9 or Q (with no relations in about a
    third of the draws) and a batch of raw term lists: whole vectors, the
    empty list and one-term lists, mixed in one batch."""
    K = draw(st.sampled_from([prime_field(7), F9, rationals()]))
    n = draw(st.integers(1, 5))
    rels = draw(st.one_of(st.just([]), rows_over(K, n, 1, 3)))
    vectors = draw(rows_over(K, n, 0, 4))
    batch = [tuple((j, c) for j, c in enumerate(K.lift(v)) if c)
             for v in vectors]
    singles = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                      rows_over(K, 1, 1, 1)), max_size=3))
    batch += [((j, K.lift(v)[0]),) if K.lift(v)[0] else ()
              for j, (v,) in singles]
    batch.insert(draw(st.integers(0, len(batch))), ())
    return K, n, rels, draw(st.permutations(batch))


@SELF_PROPS
@given(projection_batches())
def test_project_many_matches_the_element_loop(case):
    K, n, rels, batch = case
    lvl = PresentedLevel(K, [f"g{j}" for j in range(n)], rels)
    images = lvl.project_many(batch)
    assert len(images) == len(batch)
    base = oracle_rank(K, rels, n)
    for terms, image in zip(batch, images):
        assert [t for t, _ in image] == sorted({t for t, _ in image})
        assert all(c for _, c in image)
        v = [K.zero] * n
        for j, c in zip([j for j, _ in terms], K.fold([c for _, c in terms])):
            v[j] = c
        reduced = lvl.dense(image)
        assert reduced == ref_project(K, rels, n, v)
        # v less the free generators' share of its image lies in Rel
        rest = list(v)
        for j, c in zip(lvl.free, reduced):
            rest[j] = rest[j] - c
        assert oracle_rank(K, list(rels) + [tuple(rest)], n) == base
        if not lvl.pivots:
            assert image is terms


@pytest.mark.parametrize("bad, witness", [
    ((2, 3), "6·g0 + g2 ↦ 6·h0 + h1"),
    ((3, 4), "6·g1 + g3 ↦ h0 + 6·h1"),
    ((4,), "6·g0 + 6·g1 + g4 ↦ 6·h1"),
], ids=["first-two", "last-two", "last"])
def test_check_images_raises_for_the_first_failing_pivot(bad, witness):
    """Pivots 2, 3 and 4 (rows g2 − g0, g3 − g1, g4 − g0 − g1) into a
    target without relations: T[p] is bumped at the pivots in ``bad``,
    and the witness is that of the first of them."""
    K = prime_field(7)
    one = K.raw_one
    src = PresentedLevel(K, [f"g{j}" for j in range(5)], [
        [K.from_int(c) for c in row]
        for row in ((-1, 0, 1, 0, 0), (0, -1, 0, 1, 0), (-1, -1, 0, 0, 1))])
    target = PresentedLevel(K, ["h0", "h1"], [])
    assert src.pivots == (2, 3, 4)
    table = [((0, one),), ((1, one),), ((0, one),), ((1, one),),
             ((0, one), (1, one))]
    src.check_images(table, target, "escapes")
    wrong = {2: ((1, one),), 3: ((0, one),), 4: ((0, one),)}
    for p in bad:
        table[p] = wrong[p]
    with pytest.raises(InternalCheckError, match="escapes") as exc:
        src.check_images(table, target, "escapes")
    assert exc.value.witness == witness
