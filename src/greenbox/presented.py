"""Quotients of free modules on labeled generators by a relation span.

A PresentedLevel carries the ambient generator list (pure tensors first,
then transfer classes by increasing origin level), the nonzero relation
rows as one raw ``Mat`` (``relation_rows``; the box layer hands them over
raw, and ``relations`` folds them to element vectors), and one form of the
quotient: the map ``q`` from the ambient onto the reduced coordinates.
Pivots come from reduced row echelon form with pivots at the *last* nonzero
coordinate of each relation, so relations rewrite late generators in terms
of early ones: transfer classes collapse onto pure tensors wherever
Frobenius reciprocity allows it, and the earliest generators survive as the
reduced basis.  ``q`` sends free generator k to the unit vector e_k and a
pivot p to minus its fully reduced row, restricted to the free columns;
each image is kept as raw ``(index, scalar)`` terms.  A vector lies in the
relation span exactly when ``q`` kills it, and the reduced dimension is
#generators - rank(relations).

``canonicalize`` is a sum over ``q``
(``project``, in the field's raw scalars; ``project_many`` gives the same
images of a batch of vectors as sparse raw terms, with one reduction for
the batch); ``relation_basis`` gives back the rows
e_p - Σ_k q[p]_k·e_{free_k}, each e_p less its ``canonicalize``, for
tests and witnesses.

Descent is decided here, by one check.  A linear map f out of a quotient is
well defined exactly when it sends the relation span into the target's
relation span.  Given a table T[g] = q_target(f(e_g)), as sparse raw terms
per generator, ``check_images`` checks T[p] = Σ_k q[p]_k·T[free_k] for
every pivot p, which is f(row of p) ∈ Rel.  ``descend`` tabulates T once
per map (one ``project_many``), runs that check and writes the free
columns of T straight into the raw rows of the induced map on the
quotients; the structure maps, comparisons and identifications go
through it.  A box's
multiplication projects each generator product once into one table per
level and runs the same check on that table's columns and rows.
"""

from __future__ import annotations

from .linalg import Mat, dense_raw, nonzero_terms, reduce_sums, rref, \
    unit_vec, vec_sub
from .mackey import InternalCheckError


def format_element(K, coeffs, labels) -> str:
    """Deterministic sum-of-terms form, e.g. ``1⊗1 + 2·[α⊗α]``."""
    terms = []
    for c, lab in zip(coeffs, labels):
        if c == K.zero:
            continue
        terms.append(lab if c == K.one else f"{c}·{lab}")
    return " + ".join(terms) if terms else "0"


class PresentedLevel:
    def __init__(self, field, labels, relations):
        """``relations``: the relation rows, as vectors of elements or as
        the rows of one ``Mat``."""
        self.field = field
        self.labels = list(labels)
        self.ngens = len(self.labels)
        if not isinstance(relations, Mat):
            relations = Mat(field, relations, ncols=self.ngens)
        # the nonzero relation rows
        self.relation_rows = Mat._from_raw(
            field, tuple([r for r in relations.raw if any(r)]), self.ngens)
        reduced, pivots = rref(self.relation_rows, "last")
        self.pivots = pivots
        pivot_set = set(pivots)
        self.free = tuple(j for j in range(self.ngens) if j not in pivot_set)
        self.dim = len(self.free)
        self.reduced_labels = [self.labels[j] for j in self.free]
        column = {j: k for k, j in enumerate(self.free)}
        # the reduced coordinate of each free generator, None at pivots
        self._column = [column.get(j) for j in range(self.ngens)]
        one = field.raw_one
        q = [((column[j], one),) if j in column else None
             for j in range(self.ngens)]
        # a fully reduced row is 1 at its pivot and 0 at the other pivots
        for terms, p in zip(reduced.row_terms(), pivots):
            rest = [(j, c) for j, c in terms if j != p]
            q[p] = tuple(zip([column[j] for j, _ in rest],
                             field.reduce([-c for _, c in rest])))
        self.q = tuple(q)

    @property
    def relations(self) -> list:
        """The nonzero relation rows, as vectors of elements."""
        return list(self.relation_rows.rows)

    def project(self, terms) -> list:
        """The reduced coordinates, as reduced raw scalars, of the ambient
        vector Σ c·e_j over the raw ``terms`` (j, c); the terms are summed
        and reduced once, so an index may repeat and a scalar need not be
        reduced."""
        out = [self.field.raw_zero] * self.dim
        q = self.q
        for j, c in terms:
            for k, a in q[j]:
                out[k] += c * a
        return self.field.reduce(out)

    def canonicalize(self, v):
        """Canonical coset representative: pivot coordinates eliminated."""
        K = self.field
        if len(v) != self.ngens:
            raise ValueError("ambient vector of wrong length")
        return K.fold(dense_raw(K, zip(
            self.free, self.project(nonzero_terms(K, v))), self.ngens))

    @property
    def relation_basis(self):
        """The fully reduced relation rows e_p - Σ_k q[p]_k·e_{free_k}, one
        per pivot p in increasing order: e_p less its canonical form."""
        units = (unit_vec(self.field, self.ngens, p) for p in self.pivots)
        return tuple(vec_sub(e, self.canonicalize(e)) for e in units)

    def show(self, v) -> str:
        """An ambient vector written in the generator labels."""
        return format_element(self.field, v, self.labels)

    def project_many(self, batch) -> list:
        """``project`` of each raw term list in ``batch``, as raw nonzero
        terms in increasing index, with one ``reduce`` for the whole batch;
        every vanishing image is the shared ``()``.  A level without
        relations has the identity ``q``, so it hands the (sorted, reduced,
        nonzero) input terms back unchanged."""
        if not self.pivots:
            return list(batch)
        q, zero = self.q, self.field.raw_zero
        sums = []
        for terms in batch:
            acc = {}
            for j, c in terms:
                for k, a in q[j]:
                    acc[k] = acc.get(k, zero) + c * a
            sums.append(acc)
        return reduce_sums(self.field, sums)

    def check_images(self, table, target: "PresentedLevel",
                     message: str) -> None:
        """The one pivot check: ``table[g]`` holds the raw terms of T[g] =
        q_target(f(e_g)) for every generator g, and InternalCheckError
        (message) is raised unless T[p] = Σ_k q[p]_k·T[free_k] for every
        pivot p, i.e. unless f sends the relation row of p into the
        target's relation span; the witness is ``"<row> ↦ <image>"``, the
        image being the reduced escaping part in the target's reduced
        labels.  All residuals are reduced in one call, and the first
        failing pivot, in pivot order, is raised."""
        K = self.field
        flat, ends = [], []
        for p in self.pivots:
            flat += self._residual(table, p).values()
            ends.append(len(flat))
        values = K.reduce(flat)
        start = 0
        for i, end in enumerate(ends):
            if any(values[start:end]):
                residual = self._residual(table, self.pivots[i])
                image = format_element(K, target.dense(zip(
                    residual, values[start:end])), target.reduced_labels)
                raise InternalCheckError(message, witness=(
                    f"{self.show(self.relation_basis[i])} ↦ {image}"))
            start = end

    def _residual(self, table, p) -> dict:
        """T[p] − Σ_k q[p]_k·T[free_k], unreduced, by target index."""
        zero = self.field.raw_zero
        acc = dict(table[p])
        for k, a in self.q[p]:
            for t, b in table[self.free[k]]:
                acc[t] = acc.get(t, zero) - a * b
        return acc

    def dense(self, terms) -> tuple:
        """The reduced vector, as elements, with raw nonzero ``terms``."""
        return self.field.fold(dense_raw(self.field, terms, self.dim))

    def descend(self, images, target: "PresentedLevel", message: str,
                check: bool = True) -> Mat:
        """The map on quotients of the linear map f given by ``images``:
        an ambient matrix, or a function from an ambient generator to the
        raw terms of its image in ``target``'s ambient.

        Tabulates T[g] = q_target(f(e_g)) for every generator g and, when
        ``check`` holds, passes the table to ``check_images``.  Unchecked,
        only the free generators are tabulated.  Returns the induced
        matrix, whose column k is T[free_k]."""
        if isinstance(images, Mat):
            images = images.col_terms().__getitem__
        if check:
            table = target.project_many([images(g)
                                         for g in range(self.ngens)])
            self.check_images(table, target, message)
            cols = [table[g] for g in self.free]
        else:
            cols = target.project_many([images(g) for g in self.free])
        rows = [[self.field.raw_zero] * len(cols) for _ in range(target.dim)]
        for k, terms in enumerate(cols):
            for t, c in terms:
                rows[t][k] = c
        return Mat._from_raw(self.field, tuple(map(tuple, rows)), len(cols))

    def rel_rank(self) -> int:
        return len(self.pivots)

    def __repr__(self):
        return f"PresentedLevel(dim {self.dim} = {self.ngens} gens - " \
               f"{self.rel_rank()} relations)"
