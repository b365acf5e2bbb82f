"""Dense exact linear algebra over an arbitrary field.

Matrices are small immutable row-tuples of field scalars with an explicit
column count, so zero-dimensional spaces (which occur as functor levels) are
handled without ambiguity.  Maps act on column vectors: a map V -> W is an
(dim W) x (dim V) matrix and ``A.apply(v)`` computes A v.

All elimination goes through one kernel, ``Span``: an incrementally built,
fully reduced echelon form with pivots at the first (or, on request, the
last) nonzero entry of each row.  Arithmetic is exact; there are no
tolerances and no pivoting heuristics.
"""

from __future__ import annotations


class Mat:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, field, n):
        return cls(field, [unit_vec(field, n, i) for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_cols(cls, field, cols, nrows):
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column of wrong length")
        return cls(field, [[c[i] for c in cols] for i in range(nrows)],
                   ncols=len(cols))

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ "
                f"{other.nrows}x{other.ncols}")
        z = self.field.zero
        brows = other.rows
        nc = other.ncols
        out = []
        for r in self.rows:
            acc = [z] * nc
            for k, a in enumerate(r):
                if a == z:
                    continue
                brow = brows[k]
                for j in range(nc):
                    b = brow[j]
                    if b != z:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return Mat(self.field, out, ncols=nc)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        return Mat(self.field,
                   [[a + b for a, b in zip(r, s)]
                    for r, s in zip(self.rows, other.rows)],
                   ncols=self.ncols)

    def __neg__(self) -> "Mat":
        return self.scale(-self.field.one)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def scale(self, s) -> "Mat":
        return Mat(self.field, [[s * a for a in r] for r in self.rows],
                   ncols=self.ncols)

    def apply(self, v):
        """Matrix times column vector (skips zero input coordinates)."""
        if len(v) != self.ncols:
            raise ValueError("vector of wrong length")
        z = self.field.zero
        out = [z] * self.nrows
        rows = self.rows
        for j, x in enumerate(v):
            if x == z:
                continue
            for i in range(self.nrows):
                a = rows[i][j]
                if a != z:
                    out[i] = out[i] + a * x
        return tuple(out)

    def power(self, e: int) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        result = Mat.identity(self.field, self.nrows)
        base = self
        while e > 0:
            if e & 1:
                result = result @ base
            e >>= 1
            if e:
                base = base @ base
        return result

    def transpose(self) -> "Mat":
        return Mat(self.field,
                   [[self.rows[i][j] for i in range(self.nrows)]
                    for j in range(self.ncols)],
                   ncols=self.nrows)

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Mat(self.field,
                   [ra + rb for ra, rb in zip(self.rows, other.rows)],
                   ncols=self.ncols + other.ncols)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field is other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((id(self.field), self.ncols, self.rows))

    def __repr__(self):
        if not self.rows:
            return f"Mat(0x{self.ncols})"
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Mat[{body}]"


# ---------------------------------------------------------------------------
# vectors (plain tuples)


def vec_zero(field, n):
    return (field.zero,) * n


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(s, a):
    return tuple(s * x for x in a)


def vec_is_zero(field, a):
    z = field.zero
    return all(x == z for x in a)


def nonzero_terms(field, v):
    """The ``(index, coefficient)`` pairs of the nonzero entries of v."""
    z = field.zero
    return tuple((j, c) for j, c in enumerate(v) if c != z)


def unit_vec(field, n, i):
    """The i-th standard basis vector of length n."""
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def tensor_vec(u, v):
    """Coordinates of u ⊗ v in the basis e_i ⊗ f_j, ordered i-major."""
    return tuple([a * b for a in u for b in v])


def bilinear(field, table, x, y):
    """Product of coefficient vectors x, y through structure constants:
    ``table[i][j]`` is the coefficient vector of e_i·e_j."""
    z = field.zero
    out = [z] * len(table)
    for i, xi in enumerate(x):
        if xi == z:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if yj == z:
                continue
            c = xi * yj
            for k, t in enumerate(row[j]):
                out[k] = out[k] + c * t
    return tuple(out)


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
    rows, pivots = Span(mat.field, mat.ncols, mat.rows, pivot_order).echelon()
    return Mat(mat.field, rows, ncols=mat.ncols), pivots


def rank(mat: Mat) -> int:
    return len(rref(mat)[1])


def kernel(mat: Mat):
    """Basis of the right null space {v : A v = 0}, as a list of tuples."""
    field = mat.field
    r, pivots = rref(mat)
    z, o = field.zero, field.one
    free = [j for j in range(mat.ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [z] * mat.ncols
        v[f] = o
        for i, p in enumerate(pivots):
            v[p] = -r.rows[i][f]
        basis.append(tuple(v))
    return basis


def column_space(mat: Mat):
    """Basis of the column space, as a list of column vectors."""
    r, _ = rref(mat.transpose())
    return [row for row in r.rows]


def solve(mat: Mat, b):
    """One solution of A x = b, or None if inconsistent."""
    out = solve_matrix(mat, Mat.from_cols(mat.field, [b], mat.nrows))
    return None if out is None else out.col(0)


def solve_matrix(mat: Mat, rhs: Mat):
    """Solve A X = B via one augmented elimination; None if inconsistent."""
    field = mat.field
    n = mat.ncols
    aug = mat.hstack(rhs)
    r, pivots = rref(aug)
    z = field.zero
    # any pivot in the augmented block means some column is inconsistent
    if any(p >= n for p in pivots):
        return None
    cols = []
    for j in range(rhs.ncols):
        x = [z] * n
        for i, p in enumerate(pivots):
            x[p] = r.rows[i][n + j]
        cols.append(tuple(x))
    return Mat.from_cols(field, cols, n)


def inverse(mat: Mat):
    """Inverse of a square matrix, or None if singular."""
    if mat.nrows != mat.ncols:
        return None
    inv = solve_matrix(mat, Mat.identity(mat.field, mat.nrows))
    if inv is None:
        return None
    if not (mat @ inv == Mat.identity(mat.field, mat.nrows)):
        return None
    return inv


def eliminate(row_terms, pivots, v, zero):
    """Clear the pivot coordinates of v against fully reduced rows (a 1 at
    each row's pivot, 0 at every other row's pivot), each given by its
    ``nonzero_terms``; returns a list."""
    v = list(v)
    for terms, p in zip(row_terms, pivots):
        c = v[p]
        if c != zero:
            for j, b in terms:
                v[j] = v[j] - c * b
    return v


class Span:
    """A row space in fully reduced echelon form, grown one row at a time.

    Every stored row has a 1 at its pivot and 0 at the other rows' pivots.
    The pivot of a row is its first nonzero entry (``pivot_order="first"``)
    or its last (``"last"``).  Both forms are unique for a given row space,
    so the order of insertion never shows.
    """

    def __init__(self, field, ncols, rows=(), pivot_order="first"):
        if pivot_order not in ("first", "last"):
            raise ValueError(pivot_order)
        self.field = field
        self.ncols = ncols
        self._scan = range(ncols) if pivot_order == "first" \
            else range(ncols - 1, -1, -1)
        self._rows = []   # reduced rows
        self._terms = []  # their nonzero terms
        self._pivots = []
        for r in rows:
            self.add(r)

    def add(self, v) -> bool:
        """Insert v; returns True if it enlarged the span."""
        z = self.field.zero
        v = eliminate(self._terms, self._pivots, v, z)
        for j in self._scan:
            if v[j] != z:
                inv = self.field.one / v[j]
                v = [inv * a for a in v]
                vterms = nonzero_terms(self.field, v)
                for i, row in enumerate(self._rows):
                    c = row[j]
                    if c != z:
                        for t, b in vterms:
                            row[t] = row[t] - c * b
                        self._terms[i] = nonzero_terms(self.field, row)
                self._rows.append(v)
                self._terms.append(vterms)
                self._pivots.append(j)
                return True
        return False

    def contains(self, v) -> bool:
        z = self.field.zero
        return all(a == z for a in eliminate(self._terms, self._pivots, v, z))

    def contains_all(self, vs) -> bool:
        return all(self.contains(v) for v in vs)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def echelon(self):
        """(rows, pivots), sorted by pivot column."""
        order = sorted(range(len(self._rows)), key=self._pivots.__getitem__)
        return ([tuple(self._rows[i]) for i in order],
                tuple(self._pivots[i] for i in order))

    def basis(self):
        return self.echelon()[0]

    def __eq__(self, other):
        if not isinstance(other, Span):
            return NotImplemented
        return (self.dim == other.dim and self.contains_all(other.basis())
                and other.contains_all(self.basis()))

    __hash__ = None
