"""Dense exact linear algebra over an arbitrary field.

Matrices are small immutable row-tuples of raw field scalars with an
explicit column count, so zero-dimensional spaces (which occur as functor
levels) are handled without ambiguity.  Maps act on column vectors: a
map V -> W is an (dim W) x (dim V) matrix and ``A.apply(v)`` computes A v.

A ``Mat`` stores one form: its rows as tuples of the field's reduced raw
scalars (plain ints mod p for a prime field, the elements themselves for Q
and F_{p^k}; see ``fields``).  ``Mat(K, rows)``, ``from_cols`` and
``zeros`` lift element rows once; every kernel result (``@``, ``+``,
``scale``, ``transpose``, ``rref``, ``solve_matrix``, ``inverse``) is
built from raw rows through the
package-private ``Mat._from_raw``, as are the matrices that ``mackey``,
``presented`` and ``boxes`` write raw, so no matrix is folded to elements
and lifted back between kernels.  Elements appear only at the public
accessors: ``rows``, ``col`` and ``cols`` fold on each access and keep
nothing, and vectors passed to ``apply`` and returned by it are elements.
Equality and hashing compare the raw rows, which are canonical.

The kernels (``Mat.apply``, ``bilinear_terms``, ``tensor_vec``,
``nonzero_terms``, ``eliminate`` and ``Span``) have one body for every
field: they test zero by truthiness and reduce once per vector
(``eliminate`` also reduces each pivot coordinate it reads, through
``Field.reduce_scalar``).
``Mat.__matmul__`` has two: over Q and F_{p^k}, and whenever the right
operand has one row or one column, it sums over the right operand's
``row_terms``; otherwise, over a ``PrimeField``, it multiplies packed rows
(``_packed_product``: 16-, 32- or 64-bit slots, the narrowest with
inner·(p − 1)² < 2^bits).  The slot bound needs every raw F_p scalar in
[0, p), which the element entry points (``Mat(K, rows)``, ``from_cols``,
``Span.add``, ``Span.contains``) ensure through ``lift_checked``.  ``+``
and ``scale`` reduce once per matrix (``Mat._from_flat``).  Raw
``(index, scalar)`` terms (``nonzero_terms``, ``raw_terms``)
are the one sparse form passed between kernels: a ``Mat`` builds its
``row_terms`` and ``col_terms`` on first use and keeps them, or is built
from its column terms and keeps those (``Mat._from_terms``);
``kron_terms`` writes (or adds) a column of a Kronecker product from two
columns' terms, unreduced, into a dict {index: scalar}, and
``reduce_sums`` turns such dicts into terms with one reduction for all of
them; ``eliminate``
and ``Span`` read them, ``Mat.apply_terms`` and ``bilinear_terms`` take
them and return reduced raw lists, ``PresentedLevel.project`` and
``project_many`` map them, and the box layer keeps each generator product,
quotient image and matrix column as such terms, and builds every image it
sums or scales from them: element vectors (plain tuples) are only made
(``unit_vec``, ``tensor_vec``) and subtracted (``vec_sub``), never added
or scaled.  Structure constants are
stored in this form only: ``terms[i][j]`` holds the terms of e_i·e_j, for
``bilinear_terms``, the one bilinear product, to read, and no dense table
of them is built.

``Mat.identity`` returns an instance of the private subclass ``_Identity``,
one object per (field, n), and ``A @ B`` returns the other operand
unchanged when either factor is one, after the shape and field checks; this
is safe because a ``Mat`` is immutable.  Composite chains and the powers
of σ and of the Weyl generators that start from the identity so do no
arithmetic for it.  Only ``Mat.identity`` makes one;
``mackey`` and ``boxes`` call it wherever a map is the identity by
construction, ``inverse`` returns it as its own inverse, and
``green.check_green_morphism`` compares through it by equality.  A
plain ``Mat`` whose entries form the identity is never recognised.

All elimination goes through one kernel, ``Span``: an incrementally built
echelon form with pivots at the first (or, on request, the last) nonzero
entry of each row, each row reduced against the rows inserted before it.
One backward sweep back-substitutes only when a reader needs the fully
reduced form: ``rref`` (so ``kernel``, ``column_space`` and every
``PresentedLevel``), ``echelon``/``basis``, and ``solve_matrix`` before it
reads X (so ``inverse`` and ``left_inverse``, which solves the
transpose once).  That form is unique, so every result is unchanged by the
deferral.  Arithmetic is exact; there are no tolerances and no pivoting
heuristics.
"""

from __future__ import annotations

import functools
import struct

from .fields import FieldUsageError, PrimeField


class Mat:
    __slots__ = ("field", "nrows", "ncols", "raw", "_row_terms",
                 "_col_terms")

    #: True only for a matrix built by ``Mat.identity``; a plain ``Mat``
    #: whose entries happen to form the identity reads False.
    known_identity = False

    def __init__(self, field, rows, ncols=None):
        raw = tuple([tuple(field.lift_checked(r)) for r in rows])
        if raw:
            ncols = len(raw[0])
            for r in raw:
                if len(r) != ncols:
                    raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self._set(field, raw, ncols)

    def _set(self, field, raw, ncols):
        self.field = field
        self.raw = raw
        self.nrows = len(raw)
        self.ncols = ncols
        self._row_terms = self._col_terms = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_raw(cls, field, raw, ncols):
        """The matrix whose rows are the reduced raw tuples ``raw``, taken
        as they are: the constructor of every kernel result."""
        mat = object.__new__(cls)
        mat._set(field, raw, ncols)
        return mat

    @classmethod
    def _from_flat(cls, field, flat, nrows, ncols):
        """The matrix whose raw entries, row after row, are the raw scalars
        ``flat``, reduced in one call."""
        flat = field.reduce(flat)
        return cls._from_raw(field, tuple([
            tuple(flat[i * ncols:(i + 1) * ncols]) for i in range(nrows)]),
            ncols)

    @classmethod
    def _from_terms(cls, field, vecs, n, cols=False):
        """The matrix whose rows, or with ``cols`` whose columns, have the
        reduced raw terms ``vecs``, each vector of length n.  Built from its
        columns, it keeps them as its ``col_terms``."""
        mat = cls._from_raw(field, tuple([
            tuple(dense_raw(field, terms, n)) for terms in vecs]), n)
        if cols:
            mat = mat.transpose()
            mat._col_terms = tuple(vecs)
        return mat

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def identity(field, n):
        """The n x n identity, which ``@`` recognises and skips; interned,
        so its ``row_terms`` and ``col_terms`` are built once."""
        zeros = (field.raw_zero,) * n
        return _Identity._from_raw(field, tuple([
            zeros[:i] + (field.raw_one,) + zeros[i + 1:] for i in range(n)]),
            n)

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls._from_raw(field, ((field.raw_zero,) * ncols,) * nrows,
                             ncols)

    @classmethod
    def from_cols(cls, field, cols, nrows):
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column of wrong length")
        raw = tuple(zip(*[field.lift_checked(c) for c in cols])) if cols \
            else ((),) * nrows
        return cls._from_raw(field, raw, len(cols))

    # -- elements, folded on access ---------------------------------------

    @property
    def rows(self):
        """The rows as tuples of field elements."""
        fold = self.field.fold
        return tuple([fold(r) for r in self.raw])

    def col(self, j):
        return self.field.fold([r[j] for r in self.raw])

    def cols(self):
        fold = self.field.fold
        return [fold(c) for c in zip(*self.raw)] if self.raw \
            else [()] * self.ncols

    # -- raw sparse form, built on first use -----------------------------

    def row_terms(self):
        """Per row, its ``raw_terms``."""
        if self._row_terms is None:
            self._row_terms = tuple([raw_terms(r) for r in self.raw])
        return self._row_terms

    def col_terms(self):
        """Per column, its ``raw_terms``."""
        if self._col_terms is None:
            self._col_terms = tuple([raw_terms(c) for c in zip(*self.raw)]) \
                if self.raw else ((),) * self.ncols
        return self._col_terms

    # -- algebra ------------------------------------------------------

    def _same_field(self, other):
        if other.field is not self.field:
            raise FieldUsageError(
                f"mixed fields: {self.field} and {other.field}")

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ "
                f"{other.nrows}x{other.ncols}")
        self._same_field(other)
        if other.known_identity:
            return self
        if self.known_identity:
            return other
        K = self.field
        nc = other.ncols
        if type(K) is PrimeField and other.nrows > 1 and nc > 1:
            return Mat._from_raw(K, _packed_product(K.p, self.raw, other.raw,
                                                    nc), nc)
        zero, reduce = K.raw_zero, K.reduce
        brows = other.row_terms()
        out = []
        for r in self.raw:
            acc = [zero] * nc
            for k, a in enumerate(r):
                if a:
                    for j, b in brows[k]:
                        acc[j] += a * b
            out.append(tuple(reduce(acc)))
        return Mat._from_raw(K, tuple(out), nc)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        self._same_field(other)
        return Mat._from_flat(self.field, [
            a + b for r, s in zip(self.raw, other.raw) for a, b in zip(r, s)],
            self.nrows, self.ncols)

    def __neg__(self) -> "Mat":
        return self.scale(-self.field.one)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def scale(self, s) -> "Mat":
        K = self.field
        c, = K.lift((s,))
        return Mat._from_flat(K, [c * a for r in self.raw for a in r],
                              self.nrows, self.ncols)

    def apply(self, v):
        """Matrix times column vector: only the nonzero coordinates of v and
        the nonzero entries of their columns are visited."""
        if len(v) != self.ncols:
            raise ValueError("vector of wrong length")
        return self.field.fold(self.apply_terms(nonzero_terms(self.field, v)))

    def apply_terms(self, terms):
        """The reduced raw list of A v, for v given by its raw terms."""
        K = self.field
        cols = self.col_terms()
        out = [K.raw_zero] * self.nrows
        for j, x in terms:
            for i, a in cols[j]:
                out[i] += a * x
        return K.reduce(out)

    def transpose(self) -> "Mat":
        raw = tuple(zip(*self.raw)) if self.raw else ((),) * self.ncols
        return Mat._from_raw(self.field, raw, self.nrows)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field is other.field
                and self.ncols == other.ncols and self.raw == other.raw)

    def __hash__(self):
        return hash((id(self.field), self.ncols, self.raw))

    def __repr__(self):
        if not self.raw:
            return f"Mat(0x{self.ncols})"
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Mat[{body}]"


class _Identity(Mat):
    """The identity matrix, as ``Mat.identity`` builds it."""

    __slots__ = ()
    known_identity = True


def _packed_product(p, arows, brows, ncols):
    """The reduced raw rows of A·B over F_p by Kronecker substitution: each
    row B_k is packed into one int of ``ncols`` slots, and a row of A·B is
    the sum of a_k·pack(B_k), unpacked and reduced once.  A slot sums at
    most inner·(p − 1)² and is the narrowest of 16, 32 and 64 bits above
    that bound, so none carries (p < 2^16 makes 64 bits enough for any
    inner dimension below 2^32)."""
    bound = len(brows) * (p - 1) ** 2
    slot = "H" if bound < 1 << 16 else "I" if bound < 1 << 32 else "Q"
    fmt = f"<{ncols}{slot}"
    size = struct.calcsize(fmt)
    packed = [int.from_bytes(struct.pack(fmt, *r), "little") for r in brows]
    out = []
    for r in arows:
        acc = 0
        for a, b in zip(r, packed):
            if a:
                acc += a * b
        out.append(tuple([c % p for c in
                          struct.unpack(fmt, acc.to_bytes(size, "little"))]))
    return tuple(out)


# ---------------------------------------------------------------------------
# vectors (plain tuples)


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def raw_terms(raw):
    """The ``(index, scalar)`` pairs of the nonzero entries of a reduced raw
    vector."""
    return tuple([(j, c) for j, c in enumerate(raw) if c])


def dense_raw(field, terms, n):
    """The raw list of length n holding the raw ``terms`` (index, scalar)
    and the raw zero elsewhere."""
    v = [field.raw_zero] * n
    for j, c in terms:
        v[j] = c
    return v


def nonzero_terms(field, v):
    """The raw ``(index, scalar)`` pairs of the nonzero entries of v."""
    return raw_terms(field.lift(v))


def unit_vec(field, n, i):
    """The i-th standard basis vector of length n."""
    return field.fold(dense_raw(field, ((i, field.raw_one),), n))


def tensor_vec(field, u, v):
    """Coordinates of u ⊗ v in the basis e_i ⊗ f_j, ordered i-major."""
    rv = field.lift(v)
    return field.fold(field.reduce([a * b for a in field.lift(u)
                                    for b in rv]))


def kron_terms(us, vs, width, off=0, into=None) -> dict:
    """The unreduced terms of u ⊗ v (entry (a, b) at a·width + b, shifted
    by ``off``) as a dict {index: raw scalar}, from the raw terms ``us`` of
    u and ``vs`` of v, of length ``width``; column (i, j) of A ⊗ B comes
    from column i of A and column j of B.  With ``into``, the terms are
    added into that dict, which is returned."""
    if into is None:
        return {off + a * width + b: x * y for a, x in us for b, y in vs}
    for a, x in us:
        for b, y in vs:
            t = off + a * width + b
            into[t] = into[t] + x * y if t in into else x * y
    return into


def reduce_sums(field, sums) -> list:
    """Per dict {index: unreduced raw scalar} in ``sums``, its sorted,
    reduced, nonzero terms, as a tuple; one ``reduce`` for all of them."""
    flat = []
    for acc in sums:
        flat += acc.values()
    values = iter(field.reduce(flat))
    return [tuple(sorted([(j, v) for j, v in zip(acc, values) if v]))
            for acc in sums]


def bilinear_terms(field, terms, xs, ys):
    """The reduced raw list of x·y, for x and y given by their raw terms,
    through the structure constants ``terms``: ``terms[i][j]`` holds the
    raw terms of e_i·e_j."""
    out = [field.raw_zero] * len(terms)
    for i, xi in xs:
        row = terms[i]
        for j, yj in ys:
            c = xi * yj
            for k, t in row[j]:
                out[k] += c * t
    return field.reduce(out)


# ---------------------------------------------------------------------------
# elimination


def rref(mat: Mat, pivot_order: str = "first"):
    """Reduced row echelon form, built through ``Span``.

    With ``pivot_order="first"`` pivots are the leading nonzero entries
    (classical RREF).  With ``"last"`` the pivot of each row is its *trailing*
    nonzero entry, so elimination rewrites late columns in terms of early
    ones; quotient presentations use this to keep the earliest generators as
    canonical survivors.

    Returns (R, pivots) with R a Mat of the nonzero rows sorted by pivot
    column and pivots the matching tuple of column indices.
    """
    span = Span(mat.field, mat.ncols, pivot_order=pivot_order)
    for r in mat.raw:
        span._insert(r)
    rows, pivots = span._sorted()
    return Mat._from_raw(mat.field, tuple(map(tuple, rows)), mat.ncols), \
        pivots


def rank(mat: Mat) -> int:
    return len(rref(mat)[1])


def kernel(mat: Mat):
    """Basis of the right null space {v : A v = 0}, as a list of tuples."""
    return [mat.field.fold(v) for v in kernel_raw(mat)]


def kernel_raw(mat: Mat):
    """``kernel``, as reduced raw lists."""
    K = mat.field
    r, pivots = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for f in range(mat.ncols):
        if f in pivot_set:
            continue
        basis.append(K.reduce(dense_raw(K, [(f, K.raw_one)] + [
            (p, -row[f]) for row, p in zip(r.raw, pivots)], mat.ncols)))
    return basis


def column_space(mat: Mat):
    """Basis of the column space, as a list of column vectors."""
    return list(rref(mat.transpose())[0].rows)


def solve_matrix(mat: Mat, rhs: Mat):
    """Solve A X = B; None if inconsistent.

    The rows of [A | B] enter one ``Span`` in order until A's block has
    full column rank; a row whose pivot falls in B's block is inconsistent.
    Row p of X is the right-hand block of the row with pivot p, and zero
    where no row has its pivot.  At full rank X is the only candidate, so
    every later row is checked by substitution, a·X = b, instead of being
    eliminated; when no row is left, X is returned as it is read."""
    K = mat.field
    n = mat.ncols
    span = Span(K, n + rhs.ncols)
    rows = zip(mat.raw, rhs.raw)
    for a, b in rows:
        if span._insert(a + b) and span._pivots[-1] >= n:
            return None
        if span.dim == n:
            break
    span._full()
    x = [(K.raw_zero,) * rhs.ncols] * n
    for row, p in zip(span._rows, span._pivots):
        x[p] = tuple(row[n:])
    X = Mat._from_raw(K, tuple(x), rhs.ncols)
    rest = list(rows)
    if not rest:
        return X
    xt = X.transpose()
    support = [j for j, r in enumerate(x) if any(r)]
    for a, b in rest:
        if xt.apply_terms([(j, a[j]) for j in support]) != list(b):
            return None
    return X


def inverse(mat: Mat):
    """Inverse of a square matrix, or None if singular; a known identity
    (``Mat.identity``) is its own inverse."""
    if mat.known_identity:
        return mat
    if mat.nrows != mat.ncols:
        return None
    one = Mat.identity(mat.field, mat.nrows)
    inv = solve_matrix(mat, one)
    if inv is None or mat @ inv != one:
        return None
    return inv


def left_inverse(mat: Mat):
    """A matrix P with P·A = 1, for A with independent columns, or None if
    they are dependent: the transpose of the ``solve_matrix`` solution of
    Aᵀ·X = 1.  For v in A's column space, P·v is its one coordinate
    vector; outside it, P·v is some vector whose image A·P·v is not v."""
    X = solve_matrix(mat.transpose(), Mat.identity(mat.field, mat.ncols))
    return None if X is None else X.transpose()


def eliminate(field, row_terms, pivots, v):
    """Clear the pivot coordinates of the raw vector v against echelon rows,
    each given by its ``nonzero_terms``, in their order; returns the reduced
    raw list.  Each row has a 1 at its pivot and 0 at the pivots of the rows
    before it (``Span``'s stored form; fully reduced rows are a special
    case), so clearing in order never refills a cleared pivot.

    A row may have terms at the pivots of the rows after it, so a pivot
    coordinate can hold an unreduced sum when it is read: it is reduced
    before it multiplies, and the whole vector once at the end."""
    v = list(v)
    reduce_scalar = field.reduce_scalar
    for terms, p in zip(row_terms, pivots):
        c = v[p]
        if c:
            c = reduce_scalar(c)
            if c:
                for j, b in terms:
                    v[j] -= c * b
    return field.reduce(v)


class Span:
    """A row space in echelon form, grown one row at a time.

    Every stored row has a 1 at its pivot and 0 at the pivots of the rows
    inserted before it; ``add`` and ``contains`` eliminate against that
    form.  ``_full`` back-substitutes, clearing each row's terms at later
    pivots, for the readers of the fully reduced form: ``_sorted`` (so
    ``echelon``, ``basis`` and ``rref``) and ``solve_matrix``.  The pivot of
    a row is its first nonzero entry (``pivot_order="first"``) or its last
    (``"last"``).  The fully reduced form is unique for a given row space,
    so neither the order of insertion nor the deferral shows.  Rows are
    kept as raw scalars, with their ``raw_terms`` beside them; the public
    methods take and give elements, and ``rref`` inserts a ``Mat``'s raw
    rows directly.
    """

    def __init__(self, field, ncols, rows=(), pivot_order="first"):
        if pivot_order not in ("first", "last"):
            raise ValueError(pivot_order)
        self.field = field
        self.ncols = ncols
        self._scan = range(ncols) if pivot_order == "first" \
            else range(ncols - 1, -1, -1)
        self._rows = []   # reduced raw rows
        self._terms = []  # their nonzero terms
        self._pivots = []
        self._full_dim = 0  # the dimension at the last back-substitution
        for r in rows:
            self.add(r)

    def add(self, v) -> bool:
        """Insert v; returns True if it enlarged the span."""
        return self._insert(self.field.lift_checked(v))

    def _insert(self, v) -> bool:
        """``add`` for a reduced raw vector."""
        K = self.field
        v = eliminate(K, self._terms, self._pivots, v)
        for j in self._scan:
            if v[j]:
                inv = K.raw_inv(v[j])
                v = K.reduce([inv * a for a in v])
                self._rows.append(v)
                self._terms.append(raw_terms(v))
                self._pivots.append(j)
                return True
        return False

    def _full(self):
        """Back-substitute, in one backward sweep: a row with a term at a
        later row's pivot is eliminated against the rows after it, which the
        sweep has already fully reduced."""
        rows, terms, pivots = self._rows, self._terms, self._pivots
        if self._full_dim == len(rows):
            return
        later = set()
        for i in range(len(rows) - 1, -1, -1):
            if any(j in later for j, _ in terms[i]):
                rows[i] = eliminate(self.field, terms[i + 1:], pivots[i + 1:],
                                    rows[i])
                terms[i] = raw_terms(rows[i])
            later.add(pivots[i])
        self._full_dim = len(rows)

    def contains(self, v) -> bool:
        return self._contains(self.field.lift_checked(v))

    def _contains(self, v) -> bool:
        """``contains`` for a reduced raw vector."""
        return not any(eliminate(self.field, self._terms, self._pivots, v))

    def contains_all(self, vs) -> bool:
        return all(self.contains(v) for v in vs)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _sorted(self):
        """(raw rows, pivots) of the fully reduced form, sorted by pivot
        column."""
        self._full()
        order = sorted(range(len(self._rows)), key=self._pivots.__getitem__)
        return ([self._rows[i] for i in order],
                tuple(self._pivots[i] for i in order))

    def echelon(self):
        """(rows, pivots), sorted by pivot column."""
        rows, pivots = self._sorted()
        return [self.field.fold(r) for r in rows], pivots

    def basis(self):
        return self.echelon()[0]

    def __eq__(self, other):
        if not isinstance(other, Span):
            return NotImplemented
        return (self.dim == other.dim and self.contains_all(other.basis())
                and other.contains_all(self.basis()))

    __hash__ = None
