"""Quotients of free modules on labeled generators by a relation span.

A PresentedLevel carries the ambient generator list (pure tensors first,
then transfer classes by increasing origin level), the raw relation rows and
``relation_basis``, the fully reduced rows spanning the same space.
Canonical forms come from reduced row echelon form with pivots at the *last*
nonzero coordinate of each relation, so relations rewrite late generators in
terms of early ones: transfer classes collapse onto pure tensors wherever
Frobenius reciprocity allows it, and the earliest generators survive as the
reduced basis.  canonicalize is idempotent and kills exactly the relation
span; the reduced dimension is #generators - rank(relations).

The nonzero ``(index, coefficient)`` terms of each ``relation_basis`` row
are found once, when the level is built: every row is a ``Relation``, a
tuple of elements that carries them as ``terms`` in the field's raw scalars
(``linalg.nonzero_terms``).  Elimination works on raw scalars
(``linalg.eliminate``) and folds back to elements only what it returns:
``canonicalize``, ``reduce`` and ``reduce_terms`` (the same for a vector
given by its raw terms) fold their result, ``in_relation_span`` folds
nothing.

Descent is decided here, through one entry.  A linear map out of a quotient
is well defined exactly when it sends the relation span into the target's
relation span; ``check_map`` tests that on ``relation_basis`` (linearity
covers the rest).  Its map takes a ``Relation``, so it may sum over the
row's raw terms, and returns the raw image, which is eliminated without a
fold; ``on_terms`` makes such a map of an ambient matrix.  ``induced``
reads the map on the quotients off the raw columns of the free generators.
Every map the verifier trusts (structure maps, multiplication, oracle
actions, comparisons, identifications) goes through these.
"""

from __future__ import annotations

from .linalg import Mat, eliminate, nonzero_terms, rref, vec_is_zero
from .mackey import InternalCheckError


def format_element(K, coeffs, labels) -> str:
    """Deterministic sum-of-terms form, e.g. ``1⊗1 + 2·[α⊗α]``."""
    terms = []
    for c, lab in zip(coeffs, labels):
        if c == K.zero:
            continue
        terms.append(lab if c == K.one else f"{c}·{lab}")
    return " + ".join(terms) if terms else "0"


class Relation(tuple):
    """A relation-basis row: its dense coordinates, plus ``terms``, the
    nonzero ``(index, coefficient)`` pairs, found once."""

    def __new__(cls, field, row):
        self = super().__new__(cls, row)
        self.terms = nonzero_terms(field, row)
        return self


class PresentedLevel:
    def __init__(self, field, labels, relations):
        self.field = field
        self.labels = list(labels)
        self.ngens = len(self.labels)
        rel_rows = [tuple(r) for r in relations
                    if not vec_is_zero(field, tuple(r))]
        self.relations = rel_rows
        reduced, pivots = rref(Mat(field, rel_rows, ncols=self.ngens), "last")
        self.relation_basis = tuple(Relation(field, r) for r in reduced.rows)
        self._relation_terms = tuple(r.terms for r in self.relation_basis)
        self.pivots = pivots
        self.free = tuple(j for j in range(self.ngens) if j not in pivots)
        self.dim = len(self.free)
        self.reduced_labels = [self.labels[j] for j in self.free]

    def canonicalize(self, v):
        """Canonical coset representative: pivot coordinates eliminated."""
        K = self.field
        return K.fold(self._eliminate(K.lift(v)))

    def _eliminate(self, raw):
        """``canonicalize`` in raw scalars: a list in, a list out."""
        if len(raw) != self.ngens:
            raise ValueError("ambient vector of wrong length")
        return eliminate(self.field, self._relation_terms, self.pivots, raw)

    def reduce(self, v):
        """Reduced coordinates (length ``dim``) of an ambient vector."""
        return self._reduced(self.field.lift(v))

    def reduce_terms(self, terms):
        """``reduce`` of the ambient vector with raw nonzero ``terms``."""
        raw = [self.field.raw_zero] * self.ngens
        for j, c in terms:
            raw[j] = c
        return self._reduced(raw)

    def _reduced(self, raw):
        canon = self._eliminate(raw)
        return self.field.fold([canon[j] for j in self.free])

    def expand(self, rv):
        """Ambient canonical representative of reduced coordinates."""
        if len(rv) != self.dim:
            raise ValueError("reduced vector of wrong length")
        out = [self.field.zero] * self.ngens
        for c, j in zip(rv, self.free):
            out[j] = c
        return self.canonicalize(tuple(out))

    def show(self, v) -> str:
        """An ambient vector written in the generator labels."""
        return format_element(self.field, v, self.labels)

    def in_relation_span(self, v) -> bool:
        return not any(self._eliminate(self.field.lift(v)))

    def check_map(self, f, target: "PresentedLevel", message: str) -> None:
        """Raise InternalCheckError(message) unless the linear map ``f``
        sends every relation into ``target``'s relation span.  ``f`` takes a
        ``Relation``, so it may sum over its raw ``terms``, and returns the
        reduced raw scalars of its image in ``target``'s ambient; the
        witness is ``"<row> ↦ <image>"``."""
        for r in self.relation_basis:
            img = f(r)
            if any(target._eliminate(img)):
                img = target.field.fold(img)
                raise InternalCheckError(message, witness=(
                    f"{self.show(r)} ↦ {target.show(img)}"))

    def induced(self, amb: Mat, target: "PresentedLevel") -> Mat:
        """The map on quotients of an ambient matrix that descends (see
        ``check_map``): column k is the reduced image of free generator k."""
        cols = amb.col_terms()
        return Mat.from_cols(self.field,
                             [target.reduce_terms(cols[f]) for f in self.free],
                             target.dim)

    def rel_rank(self) -> int:
        return len(self.pivots)

    def __repr__(self):
        return f"PresentedLevel(dim {self.dim} = {self.ngens} gens - " \
               f"{self.rel_rank()} relations)"


def on_terms(mat: Mat):
    """The ambient matrix ``mat`` as a map for ``check_map``: applied to a
    relation's raw ``terms``."""
    return lambda r: mat.apply_terms(r.terms)
