"""Box products of Green functors over C_n as presented quotient levels.

Level m of M □ N is generated, for each divisor d | m, by the basis tensors
of M(d) ⊗ N(d); the d = m component consists of pure tensors, the d < m
components of formal transfer classes [x ⊗ y]_d^m.  The relations are

* Weyl: the diagonal action of the generator of C_m/C_d fixes every class;
* Frobenius reciprocity: [tr(x) ⊗ y]_d = [x ⊗ res(y)]_{d'} and its mirror,
  for every pair d' | d | m.

Restriction of a class follows the double coset formula with multiplicity
c = m·gcd(d, m')/(d·m'); transfers relabel components one level up; the
Weyl generator acts diagonally.  Multiplication is componentwise on pure
tensors, pushes pure factors onto classes through restriction, and resolves
class·class through tr(u)·tr(v) = tr(u·res(tr v)).
``BoxProduct`` holds the ambient layout: generator (d, i, j) of level m
sits at ``offsets[m][d] + i·dim N(d) + j``.  Its generator labels and
ambient res, tr and Weyl maps sit in one ``MackeyFunctor``-shaped container,
``ambient``, which is not axiom-true: on a class component of origin d its
Weyl action has order n/d, not n/m.  Each product of two generators has
one form, its raw nonzero terms, kept in the product table
``_mult_cache``.  The table is sparse: it stores only nonzero products,
and a missing entry is a zero product.
``build_box`` fills it once, bottom-up (``_fill_products``): pure products
from the pairs of nonzero factor products, and a product with a class
factor tr(w) as tr of a product at the class origin (Frobenius
reciprocity), spread from that lower level's nonzero entries through the
restriction and transfer composites, composed from the covering maps'
terms (``_chain_terms``).

The ambient maps and relation rows are written from the factors' raw
column terms (``linalg.kron_terms``) at the component offsets, with no
dense block and no product of ambient-sized matrices; each map and each
level's rows are reduced in one call, and each ambient ``Mat`` keeps the
column terms it was built from, which ``descend`` reads.

One pass, ``_check_descent``, reads the reduced structure off the ambient
and the product table: each of Weyl, res and tr goes through one
``PresentedLevel.descend``, which checks that the map sends relations into
relations and returns the induced matrix.  One pass over the product table
projects every stored product once into its level's row table; relations
times every generator are checked row-wise, once per pivot, and free
generators times relations on the free rows (which is exact, see
``_check_descent``).  Each identity is a sum of products, and an absent
product adds zero, so the sparse table checks every (relation row,
generator, side) triple that a dense table would.  The free×free block, as
raw terms, is the reduced multiplication handed to the box's
``GreenFunctor``, which stores it in that form only.

Two independent oracles validate the construction: a closed-form two-level
build for prime group order, and a coequalizer of the threefold box along
the two base-action maps for relative boxes.  The closed form installs its
nonzero products as raw terms computed from its own restriction rows and
reuses no builder path, ``_fill_products`` included; its own code writes
its presentation and maps in raw terms, with one reduction per map, one
for its relation rows and one per level of products.  The coequalizer
needs a K^c-module T: T □ K^c must be T (the unit law), with the pure
tensors x⊗1 as its free generators.  Then both action maps send each
threefold generator to the same generator of the relative box T □ T, so
the coequalizer is T □ T itself and is not rebuilt; the oracle checks
that the threefold box's relation rows, written from its factors
(``_layout``, ``_relations``), lie in that box's relation span.

A built box is read through its Green functor ``green``: the C_2 norm and
the readers in ``etale``, ``modules`` and ``report`` multiply with its
reduced product terms and map with its reduced structure maps; they reach
the ambient only to project a tensor into a level or to descend a map out
of one, and none multiplies there.  The product table stays after the
descent pass, which is its last reader in this package.
"""

from __future__ import annotations

import math
from itertools import groupby, islice

from .fields import Field
from .green import GreenFunctor, check_green_morphism, constant_functor
from .linalg import Mat, bilinear_terms, inverse, kron_terms, nonzero_terms, \
    raw_terms, reduce_sums
from .mackey import InternalCheckError, MackeyFunctor
from .presented import PresentedLevel, format_element


class BoxProduct:
    """A fully reduced box product; ``green`` is its Green functor.

    ``ambient`` is a ``MackeyFunctor``-shaped container of the generator
    labels and ambient maps, caching their chain composites; it is not
    axiom-true (a class of origin d has Weyl order n/d, not n/m), so never
    call ``weyl_pow`` on it."""

    def __init__(self, left, right, lattice, scalars, name):
        self.left = left
        self.right = right
        self.lattice = lattice
        self.scalars = scalars
        self.name = name
        self.gens = {}                # m -> [(d, i, j)]
        self.offsets = {}             # m -> {d: column offset}
        self.ambient = None           # MackeyFunctor of the ambient maps
        self.levels = {}              # m -> PresentedLevel
        self.green = None
        self._mult_cache = {}

    def amb_dim(self, m):
        return len(self.gens[m])

    def gen_index(self, m, d, i, j):
        return self.offsets[m][d] + i * self.right.dim(d) + j

    def dim(self, m):
        """The reduced dimension of level m."""
        return self.levels[m].dim

    def __repr__(self):
        dims = ", ".join(f"{m}:{self.dim(m)}" for m in self.lattice.divisors)
        return f"BoxProduct({self.name}; dims {dims})"


def _class_label(lattice, m, d, text):
    proper = [t for t in lattice.divisors if m % t == 0 and t < m]
    suffix = f"_{d}" if len(proper) > 1 else ""
    return f"[{text}]{suffix}"


def _tensor_label(l, r):
    return f"{l}⊗{r}"


# ---------------------------------------------------------------------------
# construction


def absolute_box_supported(K: Field) -> bool:
    """An absolute box needs prime or rational scalars: only there does the
    componentwise tensor agree with the integral one."""
    return K.order is None or K.order == K.characteristic


def build_box(left: GreenFunctor, right: GreenFunctor, name="",
              check=True) -> BoxProduct:
    """Assemble a box product; see the module docstring for the relations.

    Components are tensored over the factors' common scalar field; the
    entry points ``box`` and ``relative_box`` decide which fields they
    accept.
    """
    if left.scalars is not right.scalars:
        raise ValueError("box factors must share their scalar field")
    if left.lattice is not right.lattice:
        raise ValueError("box factors must share their subgroup lattice")
    K = left.scalars
    lattice = left.lattice
    bx = BoxProduct(left, right, lattice, K,
                    name or f"{left.name}□{right.name}")
    gen_labels = _layout(bx)
    bx.ambient = MackeyFunctor(K, lattice, gen_labels, *_ambient_maps(bx))
    for m in lattice.divisors:
        bx.levels[m] = PresentedLevel(K, gen_labels[m], Mat._from_terms(
            K, _relations(bx, m), bx.amb_dim(m)))
    _fill_products(bx)
    _check_descent(bx, check)
    return bx


def _layout(bx: BoxProduct) -> dict:
    """Fill in ``bx.gens`` and ``bx.offsets`` per level, the pure component
    first and then the classes by increasing origin, and return the
    generator labels per level."""
    L, R, lattice = bx.left, bx.right, bx.lattice
    gen_labels = {}
    for m in lattice.divisors:
        divs = [d for d in lattice.divisors if m % d == 0]
        order = [m] + [d for d in sorted(divs) if d != m]
        gens, labels = [], []
        offsets = {}
        for d in order:
            offsets[d] = len(gens)
            for i in range(L.dim(d)):
                for j in range(R.dim(d)):
                    gens.append((d, i, j))
                    text = _tensor_label(L.labels(d)[i], R.labels(d)[j])
                    labels.append(text if d == m
                                  else _class_label(lattice, m, d, text))
        bx.gens[m] = gens
        bx.offsets[m] = offsets
        gen_labels[m] = labels
    return gen_labels


def _kron_cols(A: Mat, B: Mat, off, into=None) -> list:
    """The columns of A ⊗ B, shifted by ``off``, as dicts of unreduced
    terms; with ``into``, added into those columns."""
    cols = [(a, b) for a in A.col_terms() for b in B.col_terms()]
    return [kron_terms(a, b, B.nrows, off, None if into is None else into[t])
            for t, (a, b) in enumerate(cols)]


def _ambient_maps(bx: BoxProduct) -> tuple:
    """The ambient (res, tr, weyl) maps of a box, each written from the
    factors' column terms, reduced in one call and handed its column
    terms."""
    K, n, one = bx.scalars, bx.lattice.n, bx.scalars.raw_one
    LM, RM = bx.left.mackey, bx.right.mackey
    res, tr, weyl = {}, {}, {}
    # Weyl: diagonal on every component
    for m in bx.lattice.divisors:
        cols = []
        for d, off in bx.offsets[m].items():
            cols += _kron_cols(LM.weyl[d], RM.weyl[d], off)
        weyl[m] = Mat._from_terms(K, reduce_sums(K, cols), bx.amb_dim(m),
                                  cols=True)
    # transfers: component relabeling upward
    for (m, mp) in bx.lattice.covering_pairs:
        tr[(mp, m)] = Mat._from_terms(K, [
            ((bx.gen_index(mp, d, i, j), one),) for (d, i, j) in bx.gens[m]],
            bx.amb_dim(mp), cols=True)
    # restrictions: res⊗res on pure tensors; a class of origin d goes to
    # origin g = gcd(d, m') through res to g, then the sum of the c =
    # m·g/(d·m') Weyl translates, Σ_k (W^k·res) ⊗ (W^k·res) by the
    # mixed-product rule, so only factor-sized matrices are multiplied
    for (mp, m) in bx.lattice.covering_pairs:
        cols = _kron_cols(LM.res[(mp, m)], RM.res[(mp, m)], 0)
        for d in bx.offsets[m]:
            if d == m:
                continue
            g = math.gcd(d, mp)
            off = bx.offsets[mp][g]
            rL, rR = LM.res_mat(g, d), RM.res_mat(g, d)
            orbit = _kron_cols(rL, rR, off)
            for k in range(1, m * g // (d * mp)):
                _kron_cols(LM.weyl_pow(g, k * (n // m)) @ rL,
                           RM.weyl_pow(g, k * (n // m)) @ rR, off, orbit)
            cols += orbit
        res[(mp, m)] = Mat._from_terms(K, reduce_sums(K, cols),
                                       bx.amb_dim(mp), cols=True)
    return res, tr, weyl


def _relations(bx: BoxProduct, m) -> list:
    """The relation rows of level m, as raw terms reduced in one call:
    Weyl-fixed classes, then for each d' | d both Frobenius identities
    [tr(x)⊗y]_d = [x⊗res(y)]_{d'} and its mirror, each row first a dict of
    unreduced terms."""
    K, n = bx.scalars, bx.lattice.n
    one, neg = K.raw_one, -K.raw_one
    LM, RM = bx.left.mackey, bx.right.mackey
    offs = bx.offsets[m]
    rows = []
    for d, off in offs.items():
        if d != m:
            block = _kron_cols(LM.weyl_pow(d, n // m),
                               RM.weyl_pow(d, n // m), off)
            for t, acc in enumerate(block, off):        # minus the identity
                acc[t] = acc[t] + neg if t in acc else neg
            rows += block
    for d in offs:
        for dp in offs:
            if d % dp or dp >= d:
                continue
            trL, trR = LM.tr_mat(d, dp), RM.tr_mat(d, dp)
            rsL, rsR = LM.res_mat(dp, d), RM.res_mat(dp, d)
            hd, hdp = RM.dim(d), RM.dim(dp)
            for i, x in enumerate(trL.col_terms()):
                for j, y in enumerate(rsR.col_terms()):
                    row = kron_terms(x, ((j, one),), hd, offs[d])
                    rows.append(kron_terms(((i, neg),), y, hdp, offs[dp],
                                           into=row))
            for i, x in enumerate(rsL.col_terms()):
                for j, y in enumerate(trR.col_terms()):
                    row = kron_terms(((i, one),), y, hd, offs[d])
                    rows.append(kron_terms(x, ((j, neg),), hdp, offs[dp],
                                           into=row))
    return reduce_sums(K, rows)


def _fill_products(bx: BoxProduct) -> None:
    """Write the nonzero product of every pair of generators of every level
    into ``bx._mult_cache``, lower levels first, as sorted, reduced, nonzero
    raw terms.  The table is sparse: a pair whose product vanishes gets no
    entry, which reads as ``()``.  An entry already there is kept.

    Pure tensors multiply componentwise (``_fill_pure``).  A class factor
    is tr(w) for a pure generator w of its origin o, and tr(w)·x =
    tr(w·res x), x·tr(w) = tr(res x·w), the first form for a product of two
    classes: each nonzero product w·e_k (or e_k·w) at level o, which is
    already filled, is spread over the generators x whose restriction has a
    k-term, read off row k of res_{o←m} (``_spread``).  The products w·e_k
    and e_k·w are read from an index of level o's stored products by pure
    left and right factor, built once per level.  Its lists run in
    increasing k, the order in which the level was filled: pure products by
    (i, i', j, j'), then class products by increasing class index."""
    K, L, R = bx.scalars, bx.left, bx.right
    cache = bx._mult_cache
    index = {}
    for m in bx.lattice.divisors:
        start = len(cache)
        _fill_pure(K, L, R, m, cache)
        npure, ngens = L.dim(m) * R.dim(m), bx.amb_dim(m)
        for o, off in bx.offsets[m].items():
            if o == m:
                continue
            rows, up = _chain_terms(bx, m, o)
            by_left, by_right = index[o]
            for w in range(L.dim(o) * R.dim(o)):
                c = off + w             # the class tr(w) at level m
                for x, terms in _spread(K, by_left.get(w, ()), rows, up,
                                        ngens):
                    cache.setdefault((m, c, x), terms)
                for x, terms in _spread(K, by_right.get(w, ()), rows, up,
                                        npure):
                    cache.setdefault((m, x, c), terms)
        if m < bx.lattice.n:
            by_left, by_right = index[m] = {}, {}
            for (_, a, b), terms in islice(cache.items(), start, None):
                if a < npure:
                    by_left.setdefault(a, []).append((b, terms))
                if b < npure:
                    by_right.setdefault(b, []).append((a, terms))


def _chain_terms(bx: BoxProduct, m, o) -> tuple:
    """The row terms of the ambient restriction res_{o←m} and, per level-o
    generator, the level-m index of its transfer, composed along the
    canonical chain from the covering maps' terms: a row of a composite
    restriction is a sum of rows one step up, reduced once per step, and a
    transfer only relabels, so no ambient-sized matrix is multiplied."""
    K, amb, zero = bx.scalars, bx.ambient, bx.scalars.raw_zero
    chain = bx.lattice.chain_down(m, o)
    rows = amb.res[(chain[1], m)].row_terms()
    up = [c[0][0] for c in amb.tr[(m, chain[1])].col_terms()]
    for hi, lo in zip(chain[1:], chain[2:]):
        sums = []
        for step in amb.res[(lo, hi)].row_terms():
            acc = {}
            for j, a in step:
                for x, r in rows[j]:
                    acc[x] = acc.get(x, zero) + a * r
            sums.append(acc)
        rows = reduce_sums(K, sums)
        up = [up[c[0][0]] for c in amb.tr[(hi, lo)].col_terms()]
    return rows, up


def _fill_pure(K, L, R, m, cache) -> None:
    """The products of two pure tensors of level m, which sit first: (x⊗y)
    ·(x'⊗y') = xx'⊗yy'.  Only pairs of nonzero factor products are visited,
    and each gives a nonzero tensor, since a field has no zero divisors.
    The level's new keys, term indices and unreduced scalars are collected
    in flat runs, reduced in one call and inserted with one update."""
    width = R.dim(m)
    rt = [(j, j2, t) for j, row in enumerate(R.terms(m))
          for j2, t in enumerate(row) if t]
    keys, index, flat, ends = [], [], [], []
    for i, row in enumerate(L.terms(m)):
        for i2, lt in enumerate(row):
            if lt:
                for j, j2, t in rt:
                    key = (m, i * width + j, i2 * width + j2)
                    if key not in cache:
                        keys.append(key)
                        index += [a * width + b for a, _ in lt for b, _ in t]
                        flat += [x * y for _, x in lt for _, y in t]
                        ends.append(len(flat))
    terms = list(zip(index, K.reduce(flat)))
    cache.update(zip(keys, [tuple(terms[s:e])
                            for s, e in zip([0] + ends, ends)]))


def _spread(K, prods, rows, up, bound) -> list:
    """The pairs (x, the sorted raw terms of tr(Σ_k res(e_x)_k·p_k)) for
    the generators x < ``bound`` where that sum is nonzero, with one
    reduction for all of them.  ``prods`` holds the pairs (k, terms of p_k)
    of the nonzero level-o products p_k, row k of ``rows`` the generators x
    whose restriction res_{o←m}(e_x) has a k-term, and ``up[t]`` the
    level-m index of the transfer of level-o generator t: the transfer
    chain's columns are unit vectors, so it only relabels."""
    zero = K.raw_zero
    acc = {}
    for k, terms in prods:
        for x, r in rows[k]:
            if x < bound:
                acc.setdefault(x, []).append((r, terms))
    sums = []
    for parts in acc.values():
        total = {}
        for r, terms in parts:
            for t, a in terms:
                total[t] = total.get(t, zero) + r * a
        sums.append({up[t]: v for t, v in total.items()})
    return [(x, terms) for x, terms in zip(acc, reduce_sums(K, sums))
            if terms]


def _check_descent(bx: BoxProduct, check: bool = True) -> None:
    """Read the reduced Green functor off the ambient maps and the product
    table and install it as ``bx.green``; Weyl, res and tr each go through
    one ``PresentedLevel.descend``, which also checks, unless ``check`` is
    false, that the map sends relations into relations.

    Multiplication is bilinear, so it descends exactly when Rel·A ⊆ Rel and
    A·Rel ⊆ Rel.  One pass over the sparse product table projects every
    stored product once into its level's row table (``_projected_products``);
    a missing entry, in the product table or the row table, is a zero
    product, and a sum over zero products is zero, so visiting only the
    stored entries checks the same linear identities as a dense table.  The
    first condition is Rel·e ⊆ Rel for every generator e, checked row-wise
    (``_check_products``); the second is checked on the rows of the free
    generators e only: the relation basis is in reduced echelon form, so
    A = span(free units) ⊕ Rel, and for x = f + s with s in Rel, x·r = f·r
    + s·r, where f·r is covered by the free generators and s·r lies in
    Rel·A, which the first check covers.  A level without relations has no
    (relation row, generator) pair to check on either side.  Failures are
    raised by ``PresentedLevel.check_images``, for the least generator e,
    the left side before the right.  The reduced multiplication is the
    table's free×free block.  Unchecked, only that block is projected.
    """
    lattice, amb = bx.lattice, bx.ambient
    pairs = lattice.covering_pairs
    res, tr, weyl, terms = {}, {}, {}, {}
    tables = _projected_products(bx, check)
    for m in lattice.divisors:
        lvl = bx.levels[m]
        weyl[m] = lvl.descend(amb.weyl[m], lvl,
                              f"Weyl action fails to descend at level {m}",
                              check)
        for (lo, hi) in pairs:
            if hi == m:
                res[(lo, m)] = lvl.descend(
                    amb.res[(lo, m)], bx.levels[lo],
                    f"restriction {m}->{lo} fails to descend", check)
            if lo == m:
                tr[(hi, m)] = lvl.descend(
                    amb.tr[(hi, m)], bx.levels[hi],
                    f"transfer {m}->{hi} fails to descend", check)
        rows = tables[m]
        if check and lvl.pivots:
            _check_products(lvl, rows,
                            f"multiplication fails to descend at level {m}")
        terms[m] = _reduced_terms(lvl, rows)
    labels = {m: bx.levels[m].reduced_labels for m in lattice.divisors}
    mack = MackeyFunctor(bx.scalars, lattice, labels, res, tr, weyl,
                         name=bx.name)
    # the unit: the factors' units tensored at the pure component, projected
    K, L, R = bx.scalars, bx.left, bx.right
    unit = {m: K.fold(bx.levels[m].project(kron_terms(
        nonzero_terms(K, L.unit[m]), nonzero_terms(K, R.unit[m]), R.dim(m),
        bx.offsets[m][m]).items())) for m in lattice.divisors}
    bx.green = GreenFunctor(mack, terms, unit, name=bx.name)


def _projected_products(bx: BoxProduct, check: bool) -> dict:
    """Per level m, row g: {e: the raw terms of q(e_g·e_e)} for the stored
    products whose projection is nonzero, from one pass over the product
    table.  Checked, every stored product is projected; unchecked, only
    products of two free generators.  The table is filled level by level,
    and each level's run of products is projected by one
    ``project_many``."""
    tables = {m: [{} for _ in range(lvl.ngens)]
              for m, lvl in bx.levels.items()}
    for m, entries in groupby(bx._mult_cache.items(),
                              key=lambda entry: entry[0][0]):
        lvl, rows = bx.levels[m], tables[m]
        column = lvl._column
        pairs, batch = [], []
        for (_, a, b), prod in entries:
            if check or (column[a] is not None and column[b] is not None):
                pairs.append((a, b))
                batch.append(prod)
        for (a, b), image in zip(pairs, lvl.project_many(batch)):
            if image:
                rows[a][b] = image
    return tables


def _check_products(lvl, rows, where) -> None:
    """Raise InternalCheckError unless the projected products ``rows``
    (row g: {e: q(e_g·e_e)}) send relations into relations on both sides;
    see ``_check_descent``.  The left side is summed row-wise: per pivot p,
    T[p] − Σ_k q[p]_k·T[free_k] over whole rows, whose entry (e, t) is
    coordinate t of (row of p)·e.  The first failure in generator order,
    left before right, is raised by ``check_images`` on that generator's
    column (left) or row (right) of the table."""
    K, dim, free, ngens = lvl.field, lvl.dim, lvl.free, lvl.ngens
    first = ngens           # the least generator that fails on the left
    for p in lvl.pivots:
        acc = {e * dim + t: c for e, image in rows[p].items()
               for t, c in image}
        for k, a in lvl.q[p]:
            for e, image in rows[free[k]].items():
                for t, b in image:
                    key = e * dim + t
                    acc[key] = acc.get(key, K.raw_zero) - a * b
        for key, v in zip(acc, K.reduce(list(acc.values()))):
            if v:
                first = min(first, key // dim)
    what = "product of a relation with"
    for e in free:
        if e >= first:
            break
        if rows[e]:
            lvl.check_images([rows[e].get(g, ()) for g in range(ngens)],
                             lvl, f"{where}: right {what} {lvl.labels[e]}")
    if first < ngens:
        lvl.check_images([row.get(first, ()) for row in rows], lvl,
                         f"{where}: left {what} {lvl.labels[first]}")


def _reduced_terms(lvl, rows) -> list:
    """The reduced product terms, the table's free×free block: entry (a, b)
    is q(e_a·e_b) for free generators a and b.  e_a·e_b shares the terms of
    e_b·e_a when they are equal."""
    free = lvl.free
    out = []
    for a, ga in enumerate(free):
        row = rows[ga]
        out.append([row.get(gb, ()) for gb in free])
        for b in range(a):
            if out[a][b] == out[b][a]:
                out[a][b] = out[b][a]
    return out


def box(M: GreenFunctor, N: GreenFunctor, name: str = "") -> BoxProduct:
    """Absolute box product M □ N (prime or rational scalars)."""
    if not absolute_box_supported(M.scalars):
        raise ValueError("absolute box products need prime or rational "
                         "scalars; use a relative box over the base field")
    return build_box(M, N, name=name)


def relative_box(T: GreenFunctor, base: Field, name: str = "",
                 check: bool = True) -> BoxProduct:
    """Relative box product T □_K T with components tensored over the base
    field K, which must be the scalar field of T."""
    if base is not T.scalars:
        raise ValueError("the relative base must be the scalar field of T")
    return build_box(T, T, name=name or f"{T.name}□_{base}{T.name}",
                     check=check)


# ---------------------------------------------------------------------------
# oracle 1: closed form for prime group order


def prime_box_oracle(M: GreenFunctor, N: GreenFunctor, p: int
                     ) -> BoxProduct:
    """Independent two-level construction of M □ N for C_p, p prime.

    Level 1 is M(1) ⊗ N(1); level p is the pure part M(p) ⊗ N(p) plus one
    class per level-1 tensor, modulo the diagonal Weyl action and the two
    Frobenius identities.  Nothing here reuses the general builder.
    """
    lattice = M.lattice
    if lattice.n != p or len(lattice.divisors) != 2:
        raise ValueError("the closed form applies to prime group order only")
    K = M.scalars
    bx = BoxProduct(M, N, lattice, K, f"oracle({M.name}□{N.name})")
    gen_labels = {}

    for m in (1, p):
        gens, labels = [], []
        offsets = {m: 0}
        for i in range(M.dim(m)):
            for j in range(N.dim(m)):
                gens.append((m, i, j))
                labels.append(_tensor_label(M.labels(m)[i], N.labels(m)[j]))
        if m == p:
            offsets[1] = len(gens)
            for i in range(M.dim(1)):
                for j in range(N.dim(1)):
                    gens.append((1, i, j))
                    labels.append(_class_label(
                        lattice, p, 1,
                        _tensor_label(M.labels(1)[i], N.labels(1)[j])))
        bx.gens[m] = gens
        bx.offsets[m] = offsets
        gen_labels[m] = labels

    _write_prime_oracle(bx, M, N, p, gen_labels)
    _attach_prime_oracle_mult(bx, M, N, p)
    _check_descent(bx)
    return bx


def _write_prime_oracle(bx, M, N, p, gen_labels) -> None:
    """The closed form's two levels and ambient maps, written in raw terms
    from the factors' columns: relation rows, Weyl, tr and res."""
    K = bx.scalars
    one, neg = K.raw_one, -K.raw_one
    h1, hp = N.dim(1), N.dim(p)
    dim1, off, amb = M.dim(1) * h1, bx.offsets[p][1], bx.amb_dim(p)
    wM, wN = M.mackey.weyl, N.mackey.weyl
    trM = M.mackey.tr[(p, 1)].col_terms()
    trN = N.mackey.tr[(p, 1)].col_terms()
    rsM = M.mackey.res[(1, p)].col_terms()
    rsN = N.mackey.res[(1, p)].col_terms()
    # tau = w_M ⊗ w_N on level 1, by reduced columns
    tau = reduce_sums(K, [kron_terms(a, b, h1) for a in wM[1].col_terms()
                          for b in wN[1].col_terms()])
    classes = [tuple([(off + t, c) for t, c in col]) for col in tau]
    # relations of level p: tau fixes each class, then both Frobenius
    # identities, each row a dict of unreduced terms
    rows = []
    for t, col in enumerate(classes, off):
        row = dict(col)
        row[t] = row[t] + neg if t in row else neg
        rows.append(row)
    for i in range(M.dim(1)):
        for j in range(hp):
            row = kron_terms(trM[i], ((j, one),), hp)
            rows.append(kron_terms(((i, neg),), rsN[j], h1, off, into=row))
    for i in range(M.dim(p)):
        for j in range(h1):
            row = kron_terms(((i, one),), trN[j], hp)
            rows.append(kron_terms(rsM[i], ((j, neg),), h1, off, into=row))
    bx.levels[1] = PresentedLevel(K, gen_labels[1], [])
    bx.levels[p] = PresentedLevel(
        K, gen_labels[p], Mat._from_terms(K, reduce_sums(K, rows), amb))

    # Weyl: tau on level 1 and on the classes, w_M ⊗ w_N on the pure part
    pure = reduce_sums(K, [kron_terms(a, b, hp) for a in wM[p].col_terms()
                           for b in wN[p].col_terms()])
    weyl = {1: Mat._from_terms(K, tau, dim1, cols=True),
            p: Mat._from_terms(K, pure + classes, amb, cols=True)}
    # tr: classes are tagged copies of level-1 tensors
    tr = {(p, 1): Mat._from_terms(
        K, [((off + t, one),) for t in range(dim1)], amb, cols=True)}
    # res: res⊗res on the pure part, Weyl orbit sum on classes, built from
    # the factors' Weyl powers: tau^k = w_M^k ⊗ w_N^k
    pm, pn = Mat.identity(K, M.dim(1)), Mat.identity(K, h1)
    powers = []
    for _ in range(p):
        powers.append((pm.col_terms(), pn.col_terms()))
        pm, pn = wM[1] @ pm, wN[1] @ pn
    cols = [kron_terms(a, b, h1) for a in rsM for b in rsN]
    for i in range(M.dim(1)):
        for j in range(h1):
            acc = {}
            for cm, cn in powers:
                kron_terms(cm[i], cn[j], h1, into=acc)
            cols.append(acc)
    res = {(1, p): Mat._from_terms(K, reduce_sums(K, cols), dim1,
                                   cols=True)}
    bx.ambient = MackeyFunctor(K, bx.lattice, gen_labels, res, tr, weyl)


def _attach_prime_oracle_mult(bx, M, N, p):
    """Closed-form multiplication, written as raw product terms straight
    into the cache, nonzero products only, with one reduction per level; no
    builder path is reused.  A product of two pure tensors is the tensor of
    the factors' products, nonzero exactly when both are.  A product with a
    class factor [w] is [w·res y] or [res x·w], the first form for two
    classes: each nonzero level-1 product of w is summed into the products
    of the generators whose restriction, a row of the oracle's own
    restriction matrix, reaches its other factor."""
    K = bx.scalars
    cache = bx._mult_cache
    off = bx.offsets[p][1]
    for m in (1, p):
        mt, nt, width = M.terms(m), N.terms(m), N.dim(m)
        nonzero = [(j, j2, y) for j, row in enumerate(nt)
                   for j2, y in enumerate(row) if y]
        keys, sums = [], []
        for i, row in enumerate(mt):
            for i2, x in enumerate(row):
                if x:
                    for j, j2, y in nonzero:
                        keys.append((m, i * width + j, i2 * width + j2))
                        sums.append(kron_terms(x, y, width))
        if m == p:
            _prime_oracle_classes(bx, off, keys, sums)
        for key, prod in zip(keys, reduce_sums(K, sums)):
            if prod:
                cache[key] = prod


def _prime_oracle_classes(bx, off, keys, sums) -> None:
    """Append the keys and unreduced sums (dicts) of the class products of
    level p to ``keys`` and ``sums``, from the level-1 products, indexed
    here by their left and right factor."""
    by_left, by_right = {}, {}
    for (m, a, b), terms in bx._mult_cache.items():
        if m == 1:
            by_left.setdefault(a, []).append((b, terms))
            by_right.setdefault(b, []).append((a, terms))
    rows = bx.ambient.res[(1, bx.lattice.n)].row_terms()
    for w in range(bx.amb_dim(1)):
        for other, pure_only in ((by_left, False), (by_right, True)):
            acc = {}
            for k, terms in other.get(w, ()):
                for y, c in rows[k]:
                    if y < off or not pure_only:
                        row = acc.setdefault(y, {})
                        for t, a in terms:
                            t += off
                            row[t] = row[t] + c * a if t in row else c * a
            for y, row in acc.items():
                keys.append((bx.lattice.n, y, off + w) if pure_only else
                            (bx.lattice.n, off + w, y))
                sums.append(row)


# ---------------------------------------------------------------------------
# oracle 2: coequalizer of the threefold box along the two base actions


def coequalizer_oracle(b2: BoxProduct) -> None:
    """Check the relative box b2 = T □_K T against the coequalizer of
    T □ K^c □ T ⇉ T □ T, over a prime field or Q; raise
    ``InternalCheckError`` with a witness where it fails.

    T must be a K^c-module: T □ K^c, the one box built here, must be T,
    with the pure tensors x⊗1 as its free generators in T's order (the
    unit law, ``_unit_law_failures``).  Then both action maps, which
    multiply the middle constant factor into the left or the right tensor
    factor, send threefold generator g to b2's generator g: they agree and
    the coequalizer is b2 itself.  What is left is that the threefold
    box's relation rows, written from its factors and never from b2's
    levels, lie in b2's relation span: each raw row is projected through
    b2's level (one ``project_many`` per level), and the first row with a
    nonzero image is the witness, ``row ↦ image``, the row in the
    threefold labels and the image in b2's reduced labels.
    """
    T, K = b2.left, b2.scalars
    if b2.right is not T:
        raise ValueError("the coequalizer oracle quotients a box T □ T")
    inner = box(T, constant_functor(K, T.lattice))
    witness = next(_unit_law_failures(inner, T), None)
    if witness is not None:
        raise InternalCheckError("T □ K^c is not T: the unit law fails",
                                 witness=witness)
    b3 = BoxProduct(inner.green, T, T.lattice, K, f"{inner.name}□{T.name}")
    labels3 = _layout(b3)
    for m in T.lattice.divisors:
        rows, target = _relations(b3, m), b2.levels[m]
        for row, image in zip(rows, target.project_many(rows)):
            if not image:
                continue
            shown = format_element(K, Mat._from_terms(
                K, [row], b3.amb_dim(m)).rows[0], labels3[m])
            escaped = format_element(K, target.dense(image),
                                     target.reduced_labels)
            raise InternalCheckError(
                f"coequalizer action map (left) fails to descend at level {m}",
                witness=f"{shown} ↦ {escaped}")


def _unit_law_failures(inner: BoxProduct, T: GreenFunctor):
    """Each place where the box T □ K^c differs from T, in check order: the
    dimensions, the free generators, then the violations of the identity
    being a Green morphism onto T (``check_green_morphism``: the res, tr
    and Weyl matrices, then per level the product terms and the unit).
    There is none for a K^c-module T, since the last-pivot rule keeps the
    pure tensors x⊗1, which sit first in T's basis order, free."""
    lattice, G = T.lattice, inner.green
    for m in lattice.divisors:
        if G.dim(m) != T.dim(m):
            yield f"level {m}: dimension {G.dim(m)}, not {T.dim(m)}"
            return
    for m in lattice.divisors:
        lvl = inner.levels[m]
        if lvl.free != tuple(range(T.dim(m))):
            yield (f"level {m}: free generators "
                   f"{', '.join(lvl.reduced_labels)}, not the pure x⊗1")
    ident = {m: Mat.identity(T.scalars, T.dim(m)) for m in lattice.divisors}
    for v in check_green_morphism(G, T, ident, name="unit law"):
        yield str(v)


# ---------------------------------------------------------------------------
# comparison and the C_2 norm


def compare_boxes(b1: BoxProduct, b2: BoxProduct, gen_map=None):
    """Structural comparison; returns a list of discrepancies (empty = same).

    With the default identity ``gen_map`` this demands equal generator
    labels, equal relation spans, and equal reduced structure; a permutation
    gen_map (e.g. the factor swap) compares up to relabeling.  Where the
    transported basis is the identity (``_permuted_bases``), it is
    ``Mat.identity``: ``inverse`` returns it as it is, and
    ``check_green_morphism`` compares the two products and units by
    equality, with the same discrepancies as the general path.
    """
    lat = b1.lattice
    if lat.n != b2.lattice.n:
        return ["different group orders"]
    diffs = []
    phi = _permuted_bases(b1, b2, gen_map, diffs)
    if diffs:
        return diffs
    for m in lat.divisors:
        if inverse(phi[m]) is None:
            diffs.append(f"level {m}: transported basis is not invertible")
    if diffs:
        return diffs
    return [str(v) for v in check_green_morphism(b1.green, b2.green, phi)]


def _permuted_bases(b1: BoxProduct, b2: BoxProduct, gen_map, diffs) -> dict:
    """Per level, the reduced b1 basis in reduced b2 coordinates under the
    generator permutation, which moves b1's generator t to b2's generator
    idx[t]; every mismatch of ambient size, labels, relation span or reduced
    size is appended to ``diffs`` instead.  The permutation and its
    transpose, which moves b2's generators back, reach ``descend`` as raw
    terms, never as dense matrices.  Both directions are always checked.
    When there is no ``gen_map`` (the identity) and both levels keep the
    same free generators, the induced matrix sends each free generator to
    its own unit vector, so ``Mat.identity`` stands in for it."""
    K = b1.scalars
    one = K.raw_one
    phi = {}
    for m in b1.lattice.divisors:
        if b1.amb_dim(m) != b2.amb_dim(m):
            diffs.append(f"level {m}: ambient dimensions differ")
            continue
        if gen_map is None:
            if b1.ambient.labels[m] != b2.ambient.labels[m]:
                diffs.append(f"level {m}: generator labels differ")
            idx = range(b1.amb_dim(m))
        else:
            idx = [b2.gens[m].index(gen_map(m, g)) for g in b1.gens[m]]
        back = [[] for _ in idx]
        for t, s in enumerate(idx):
            back[s].append((t, one))
        l1, l2 = b1.levels[m], b2.levels[m]
        for src, images, target, way in (
                (l1, lambda t: ((idx[t], one),), l2, "1 vs 2"),
                (l2, back.__getitem__, l1, "2 vs 1")):
            try:
                found = src.descend(images, target, "level "
                                    f"{m}: relation span differs ({way})")
            except InternalCheckError as exc:
                diffs.append(str(exc))
            else:
                phi.setdefault(m, found)
        if gen_map is None and l1.free == l2.free:
            phi[m] = Mat.identity(K, l1.dim)
        if b1.dim(m) != b2.dim(m):
            diffs.append(f"level {m}: reduced dimensions differ "
                         f"({b1.dim(m)} vs {b2.dim(m)})")
    return {} if diffs else phi


def norm_on_c2_box(bx: BoxProduct, vec, term_order=None):
    """Tambara norm from the underlying to the fixed level of a C_2 box.

    Splits ``vec`` (reduced level-1 coordinates) into pure-tensor summands
    and applies the sum rule norm(x+y) = norm(x) + norm(y) + tr(x·τy); pure
    tensors take the componentwise norms of the factors.  The result is
    independent of the expansion order, which callers may vary via
    ``term_order`` (a permutation of the nonzero-term positions).

    Everything is read off ``bx.green`` in raw terms: level 1 has no
    relations, so its reduced coordinates are its ambient ones; the cross
    terms go through the box's level-1 product terms, τ = its Weyl action
    and its transfer, and each pure-tensor norm is projected into level 2.
    The sum is reduced once, at the end.
    """
    if bx.lattice.n != 2:
        raise ValueError("the norm expansion is implemented for C_2 only")
    if bx.left.norms is None or bx.right.norms is None:
        raise ValueError("both factors must carry norm rules")
    K, G, L, R = bx.scalars, bx.green, bx.left, bx.right
    terms = nonzero_terms(K, vec)
    if term_order is not None:
        terms = [terms[t] for t in term_order]
    prods, tau = G.terms(1), G.mackey.weyl[1]
    pure, cross = [], [K.raw_zero] * G.dim(1)
    # norm(t_k + rest) = norm(t_k) + norm(rest) + tr(t_k·τ rest)
    for k, (idx, c) in enumerate(terms):
        (_, i, j) = bx.gens[1][idx]
        nl = L.norm(2, 1, ((i, c),))
        nr = R.norm(2, 1, ((j, K.raw_one),))
        pure += kron_terms(raw_terms(nl), raw_terms(nr), R.dim(2),
                           bx.offsets[2][2]).items()
        rest = raw_terms(tau.apply_terms(terms[k + 1:]))
        for t, x in enumerate(bilinear_terms(K, prods, ((idx, c),), rest)):
            cross[t] += x
    up = G.mackey.tr[(2, 1)].apply_terms(raw_terms(K.reduce(cross)))
    return K.fold(K.reduce([a + b for a, b in zip(bx.levels[2].project(pure),
                                                   up)]))
