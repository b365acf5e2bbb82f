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
tuple that carries them as ``terms``.  ``canonicalize`` eliminates over
them, and the maps ``check_map`` applies to the rows may sum over them
instead of scanning the rows for nonzeros again.

Descent is decided here and nowhere else.  A linear map out of a quotient is
well defined exactly when it sends the relation span into the target's
relation span; ``check_map`` tests that on ``relation_basis`` (linearity
covers the rest) and ``induced`` reads the map on the quotients off the free
generators.  Every map the verifier trusts (structure maps, multiplication,
oracle actions, comparisons, identifications) goes through these two.
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
        if len(v) != self.ngens:
            raise ValueError("ambient vector of wrong length")
        return tuple(eliminate(self._relation_terms, self.pivots, v,
                               self.field.zero))

    def reduce(self, v):
        """Reduced coordinates (length ``dim``) of an ambient vector."""
        canon = self.canonicalize(v)
        return tuple(canon[j] for j in self.free)

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
        return vec_is_zero(self.field, self.canonicalize(v))

    def check_map(self, f, target: "PresentedLevel", message: str) -> None:
        """Raise InternalCheckError(message) unless the linear map ``f``
        (ambient vectors to ``target``'s ambient) sends every relation into
        ``target``'s relation span; the witness is ``"<row> ↦ <image>"``.
        ``f`` is applied to the ``Relation`` rows, so it may read their
        ``terms``."""
        for r in self.relation_basis:
            img = f(r)
            if not target.in_relation_span(img):
                raise InternalCheckError(message, witness=(
                    f"{self.show(r)} ↦ {target.show(img)}"))

    def induced(self, amb: Mat, target: "PresentedLevel") -> Mat:
        """The map on quotients of an ambient matrix that descends (see
        ``check_map``): column k is the reduced image of free generator k."""
        return Mat.from_cols(self.field,
                             [target.reduce(amb.col(f)) for f in self.free],
                             target.dim)

    def rel_rank(self) -> int:
        return len(self.pivots)

    def __repr__(self):
        return f"PresentedLevel(dim {self.dim} = {self.ngens} gens - " \
               f"{self.rel_rank()} relations)"
