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
``BoxProduct`` alone knows the ambient layout: every ambient vector built
from component tensors is written by ``amb_vec``.  Its generator labels and
ambient res, tr and Weyl maps sit in one ``MackeyFunctor``-shaped container,
``ambient``, which is not axiom-true: on a class component of origin d its
Weyl action has order n/d, not n/m.  Each product of two generators has
one form, its raw nonzero terms, kept in the product table
``_mult_cache`` and read through ``mult_terms``.  ``build_box`` fills the
table once, bottom-up (``_fill_products``): pure products from the factors'
raw product terms, and a product with a class factor tr(w) as tr of a
product at the class origin (Frobenius reciprocity), summed from that
lower level's entries.

The ambient maps and relation rows are written in raw scalars: tensor
blocks are raw Kronecker products (``_tensor_mat``), placed into ambient
vectors by ``_place_blocks`` and handed to ``Mat`` and ``PresentedLevel``
without a fold or lift.

One pass, ``_check_descent``, reads the reduced structure off the ambient
and the product table: each of Weyl, res and tr goes through one
``PresentedLevel.descend``, which checks that the map sends relations into
relations and returns the induced matrix.  Each level projects every
generator product once; ``PresentedLevel.check_images`` checks the table's
columns (relations times every generator) and the rows of the free
generators (free generators times relations, which is exact, see
``_check_descent``), and the free×free block, as raw terms, is the reduced
multiplication handed to the box's ``GreenFunctor``, whose dense ``mult``
is derived only if read.

Two independent oracles validate the construction: a closed-form two-level
build for prime group order, and a coequalizer of the threefold box along
the two base-action maps for relative boxes.  The closed form installs its
products as raw terms computed from its own restriction columns and reuses
no builder path, ``_fill_products`` included.  The coequalizer is handed the
relative box T □ T it checks and presents its quotient on that box's
ambient: the same generators and ambient maps, with the action-difference
rows added to its relations.
"""

from __future__ import annotations

import copy
import math

from .fields import Field
from .green import GreenFunctor, check_green_morphism, constant_functor
from .linalg import Mat, inverse, nonzero_terms, tensor_terms, tensor_vec, \
    unit_vec, vec_add, vec_scale, vec_sub, vec_zero
from .mackey import InternalCheckError, MackeyFunctor
from .presented import PresentedLevel


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

    # -- ambient bookkeeping -------------------------------------------

    def amb_dim(self, m):
        return len(self.gens[m])

    def gen_index(self, m, d, i, j):
        return self.offsets[m][d] + i * self.right.dim(d) + j

    def gen_unit(self, m, idx):
        return unit_vec(self.scalars, self.amb_dim(m), idx)

    def amb_vec(self, m, blocks):
        """The ambient vector of level m holding the tensor vector
        ``blocks[d]`` at each component d, and zero elsewhere."""
        out = [self.scalars.zero] * self.amb_dim(m)
        for d, tensor in blocks.items():
            off = self.offsets[m][d]
            out[off:off + len(tensor)] = tensor
        return tuple(out)

    # -- multiplication --------------------------------------------------

    def mult_terms(self, m, ca, cb):
        """The product of two ambient generators of level m, as its raw
        nonzero ``(index, scalar)`` terms in increasing index: a read of the
        product table that ``_fill_products`` (or the prime oracle) wrote."""
        return self._mult_cache[(m, ca, cb)]

    def mult_vec(self, m, va, vb):
        """Bilinear extension of mult_terms to ambient vectors."""
        K = self.scalars
        nzb = nonzero_terms(K, vb)
        out = [K.raw_zero] * self.amb_dim(m)
        for ca, a in nonzero_terms(K, va):
            for cb, b in nzb:
                c = a * b
                for t, p in self.mult_terms(m, ca, cb):
                    out[t] += c * p
        return K.fold(K.reduce(out))

    def unit_ambient(self, m):
        return self.amb_vec(m, {m: tensor_vec(self.scalars, self.left.unit[m],
                                              self.right.unit[m])})

    # -- reduced coordinates ----------------------------------------------

    def dim(self, m):
        return self.levels[m].dim

    def reduce(self, m, ambient_vec):
        return self.levels[m].reduce(ambient_vec)

    def expand(self, m, reduced_vec):
        return self.levels[m].expand(reduced_vec)

    def __repr__(self):
        dims = ", ".join(f"{m}:{self.dim(m)}" for m in self.lattice.divisors)
        return f"BoxProduct({self.name}; dims {dims})"


def _tensor_mat(K, A: Mat, B: Mat) -> Mat:
    """The Kronecker product A ⊗ B on raw rows: row (r, s) holds
    A[r][i]·B[s][j] at column (i, j), both pairs ordered i-major."""
    reduce = K.reduce
    return Mat._from_raw(K, tuple([tuple(reduce([a * b for a in ra
                                                 for b in rb]))
                                   for ra in A.raw for rb in B.raw]),
                         A.ncols * B.ncols)


def _place_blocks(bx, m, blocks):
    """Raw ambient vectors of level m from component blocks ``{d: B_d}``:
    vector t holds column t of B_d at each component d, and zero elsewhere.
    The blocks share their number of columns."""
    ncols = next(iter(blocks.values())).ncols
    z = bx.scalars.raw_zero
    pieces = [blocks[d].transpose().raw if d in blocks
              else ((z,) * (bx.left.dim(d) * bx.right.dim(d)),) * ncols
              for d in bx.offsets[m]]
    return [sum(parts, ()) for parts in zip(*pieces)]


def _from_raw_cols(K, cols, nrows) -> Mat:
    """The matrix with the raw columns ``cols``."""
    return Mat._from_raw(K, tuple(cols), nrows).transpose()


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
    n = lattice.n
    gen_labels, res, tr, weyl = {}, {}, {}, {}

    for m in lattice.divisors:
        divs = [d for d in lattice.divisors if m % d == 0]
        order = [m] + [d for d in sorted(divs) if d != m]
        gens, labels = [], []
        offsets = {}
        for d in order:
            offsets[d] = len(gens)
            for i in range(left.dim(d)):
                for j in range(right.dim(d)):
                    gens.append((d, i, j))
                    text = _tensor_label(left.labels(d)[i],
                                         right.labels(d)[j])
                    labels.append(text if d == m
                                  else _class_label(lattice, m, d, text))
        bx.gens[m] = gens
        bx.offsets[m] = offsets
        gen_labels[m] = labels

    def tm(f, g):
        return _tensor_mat(K, f, g)

    def ident(F, d):
        return Mat.identity(K, F.dim(d))

    def weyl_pow(d, k):
        return tm(left.mackey.weyl_pow(d, k), right.mackey.weyl_pow(d, k))

    # ambient Weyl action: diagonal on every component
    for m in lattice.divisors:
        cols = []
        for d in bx.offsets[m]:
            cols += _place_blocks(
                bx, m, {d: tm(left.mackey.weyl[d], right.mackey.weyl[d])})
        weyl[m] = _from_raw_cols(K, cols, bx.amb_dim(m))

    # ambient transfers: component relabeling upward
    for (m, mp) in lattice.covering_pairs:
        rows = [[K.raw_zero] * bx.amb_dim(m) for _ in bx.gens[mp]]
        for c, (d, i, j) in enumerate(bx.gens[m]):
            rows[bx.gen_index(mp, d, i, j)][c] = K.raw_one
        tr[(mp, m)] = Mat._from_raw(K, tuple(map(tuple, rows)),
                                    bx.amb_dim(m))

    # ambient restrictions: res⊗res on pure tensors; a class of origin d
    # goes to origin g = gcd(d, m') through res to g, then the sum of the
    # c = m·g/(d·m') Weyl translates
    for (mp, m) in lattice.covering_pairs:
        cols = _place_blocks(bx, mp, {mp: tm(left.mackey.res[(mp, m)],
                                             right.mackey.res[(mp, m)])})
        for d in bx.offsets[m]:
            if d == m:
                continue
            g = math.gcd(d, mp)
            orbit = weyl_pow(g, 0)
            for jj in range(1, m * g // (d * mp)):
                orbit = orbit + weyl_pow(g, jj * (n // m))
            down = tm(left.mackey.res_mat(g, d), right.mackey.res_mat(g, d))
            cols += _place_blocks(bx, mp, {g: orbit @ down})
        res[(mp, m)] = _from_raw_cols(K, cols, bx.amb_dim(mp))
    bx.ambient = MackeyFunctor(K, lattice, gen_labels, res, tr, weyl)

    # relations: Weyl-fixed classes, then for each d' | d both Frobenius
    # identities [tr(x)⊗y]_d = [x⊗res(y)]_{d'} and its mirror
    for m in lattice.divisors:
        rows = []
        for d in bx.offsets[m]:
            if d != m:
                rows += _place_blocks(
                    bx, m, {d: weyl_pow(d, n // m) - weyl_pow(d, 0)})
        for d in bx.offsets[m]:
            for dp in bx.offsets[m]:
                if d % dp or dp >= d:
                    continue
                rows += _place_blocks(bx, m, {
                    d: tm(left.mackey.tr_mat(d, dp), ident(right, d)),
                    dp: -tm(ident(left, dp), right.mackey.res_mat(dp, d))})
                rows += _place_blocks(bx, m, {
                    d: tm(ident(left, d), right.mackey.tr_mat(d, dp)),
                    dp: -tm(left.mackey.res_mat(dp, d), ident(right, dp))})
        bx.levels[m] = PresentedLevel(
            K, bx.ambient.labels[m],
            Mat._from_raw(K, tuple(rows), bx.amb_dim(m)))

    _fill_products(bx)
    _check_descent(bx, check)
    return bx


def _fill_products(bx: BoxProduct) -> None:
    """Write the product of every pair of generators of every level into
    ``bx._mult_cache``, lower levels first, as sorted, reduced, nonzero raw
    terms; an entry already there is kept.

    Pure tensors multiply componentwise, from the factors' raw product
    terms.  A class factor is tr(w) for a pure generator w of its origin o,
    and tr(w)·x = tr(w·res x), x·tr(w) = tr(res x·w): the products of w at
    level o, which is already filled, are summed over the terms of res x
    into a dict, and the transfer chain's columns are unit vectors, so
    applying it over those terms only relabels."""
    K, L, R = bx.scalars, bx.left, bx.right
    cache, zero = bx._mult_cache, K.raw_zero
    for m in bx.lattice.divisors:
        gens = bx.gens[m]
        lt, rt, width = L.terms(m), R.terms(m), R.dim(m)
        res, up = {}, {}
        for o in bx.offsets[m]:
            if o != m:
                res[o] = bx.ambient.res_mat(o, m).col_terms()
                up[o] = [c[0][0] for c in bx.ambient.tr_mat(m, o).col_terms()]
        # per class generator tr(w): the products w·e_k and e_k·w at level o
        w_left, w_right = {}, {}
        for c, (o, i, j) in enumerate(gens):
            if o != m:
                w = bx.gen_index(o, o, i, j)
                w_left[c] = [cache[(o, w, k)] for k in range(bx.amb_dim(o))]
                w_right[c] = [cache[(o, k, w)] for k in range(bx.amb_dim(o))]
        for ca, (d, i, j) in enumerate(gens):
            for cb, (e, i2, j2) in enumerate(gens):
                key = (m, ca, cb)
                if key in cache:
                    continue
                if d == m and e == m:
                    # pure tensors sit first
                    cache[key] = tensor_terms(K, lt[i][i2], rt[j][j2], width)
                    continue
                if d < m:
                    terms, prods, relabel = res[d][cb], w_left[ca], up[d]
                else:
                    terms, prods, relabel = res[e][ca], w_right[cb], up[e]
                if len(terms) == 1 and len(prods[terms[0][0]]) == 1:
                    # one scalar times one term: a field has no zero divisors
                    (k, c), = terms
                    (t, a), = prods[k]
                    cache[key] = ((relabel[t], K.reduce([c * a])[0]),)
                    continue
                acc = {}
                for k, c in terms:
                    for t, a in prods[k]:
                        acc[t] = acc.get(t, zero) + c * a
                if not acc:
                    cache[key] = ()
                    continue
                cache[key] = tuple(sorted(
                    (relabel[t], c) for t, c in
                    zip(acc, K.reduce(list(acc.values()))) if c))


def _check_descent(bx: BoxProduct, check: bool = True) -> None:
    """Read the reduced Green functor off the ambient maps and the product
    table and install it as ``bx.green``; Weyl, res and tr each go through
    one ``PresentedLevel.descend``, which also checks, unless ``check`` is
    false, that the map sends relations into relations.

    Multiplication is bilinear, so it descends exactly when Rel·A ⊆ Rel and
    A·Rel ⊆ Rel.  Each level projects every product of two generators once
    (``_projected_products``); the first condition is checked as Rel·e ⊆
    Rel for every generator e, on the table's column of e, and the second
    on the rows of the free generators e only: the relation basis is in
    reduced echelon form, so A = span(free units) ⊕ Rel, and for x = f + s
    with s in Rel, x·r = f·r + s·r, where f·r is covered by the free
    generators and s·r lies in Rel·A, which the first check covers.  The
    right side is checked only on levels with relations: a level without
    them has no (relation row, generator) pair to check, so skipping it
    there drops no check.  Both sides go through
    ``PresentedLevel.check_images``.  The reduced multiplication is the
    table's free×free block.  Unchecked, only that block is projected.
    """
    lattice, amb = bx.lattice, bx.ambient
    pairs = lattice.covering_pairs
    res, tr, weyl, terms = {}, {}, {}, {}
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
        table = _projected_products(bx, m, check)
        if check:
            free = set(lvl.free)
            where = f"multiplication fails to descend at level {m}"
            for e, label in enumerate(lvl.labels):
                what = f"product of a relation with {label}"
                lvl.check_images([row[e] for row in table], lvl,
                                 f"{where}: left {what}")
                if e in free and lvl.pivots:
                    lvl.check_images(table[e], lvl, f"{where}: right {what}")
        terms[m] = _reduced_terms(lvl, table)
    labels = {m: bx.levels[m].reduced_labels for m in lattice.divisors}
    mack = MackeyFunctor(bx.scalars, lattice, labels, res, tr, weyl,
                         name=bx.name)
    unit = {m: bx.reduce(m, bx.unit_ambient(m)) for m in lattice.divisors}
    bx.green = GreenFunctor(mack, None, unit, name=bx.name, terms=terms)


def _projected_products(bx: BoxProduct, m: int, check: bool) -> list:
    """Row g, column e: the raw terms of q(e_g·e_e) at level m, each
    product projected once.  Checked, the table covers every pair of
    generators; unchecked, only pairs of free generators (other entries
    are None)."""
    lvl = bx.levels[m]
    cache, project = bx._mult_cache, lvl.project_terms
    gens = range(lvl.ngens) if check else lvl.free
    table = [None] * lvl.ngens
    for g in gens:
        row = table[g] = [None] * lvl.ngens
        for e in gens:
            row[e] = project(cache[(m, g, e)])
    return table


def _reduced_terms(lvl, table) -> list:
    """The reduced product terms, the table's free×free block: entry (a, b)
    is q(e_a·e_b) for free generators a and b.  e_a·e_b shares the terms of
    e_b·e_a when they are equal."""
    free = lvl.free
    out = []
    for a, ga in enumerate(free):
        row = table[ga]
        out.append([row[gb] for gb in free])
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

    tau = _tensor_mat(K, M.mackey.weyl[1], N.mackey.weyl[1])
    dim1 = M.dim(1) * N.dim(1)
    rows = []
    for t in range(dim1):
        rows.append(bx.amb_vec(p, {1: vec_sub(tau.col(t),
                                              unit_vec(K, dim1, t))}))
    trM, trN = M.mackey.tr[(p, 1)], N.mackey.tr[(p, 1)]
    rsM, rsN = M.mackey.res[(1, p)], N.mackey.res[(1, p)]
    for i in range(M.dim(1)):
        for j in range(N.dim(p)):
            ej = unit_vec(K, N.dim(p), j)
            ei = unit_vec(K, M.dim(1), i)
            rows.append(bx.amb_vec(p, {
                p: tensor_vec(K, trM.col(i), ej),
                1: vec_scale(-K.one, tensor_vec(K, ei, rsN.col(j)))}))
    for i in range(M.dim(p)):
        for j in range(N.dim(1)):
            ei = unit_vec(K, M.dim(p), i)
            ej = unit_vec(K, N.dim(1), j)
            rows.append(bx.amb_vec(p, {
                p: tensor_vec(K, ei, trN.col(j)),
                1: vec_scale(-K.one, tensor_vec(K, rsM.col(i), ej))}))

    bx.levels[1] = PresentedLevel(K, gen_labels[1], [])
    bx.levels[p] = PresentedLevel(K, gen_labels[p], rows)

    # Weyl: tau on level 1 and on the classes, w_M ⊗ w_N on the pure part
    pure = _tensor_mat(K, M.mackey.weyl[p], N.mackey.weyl[p])
    cols = [bx.amb_vec(p, {d: (pure if d == p else tau).col(i * N.dim(d) + j)})
            for (d, i, j) in bx.gens[p]]
    weyl = {1: tau, p: Mat.from_cols(K, cols, bx.amb_dim(p))}
    # tr: classes are tagged copies of level-1 tensors
    cols = [bx.gen_unit(p, bx.offsets[p][1] + t) for t in range(dim1)]
    tr = {(p, 1): Mat.from_cols(K, cols, bx.amb_dim(p))}
    # res: res⊗res on the pure part, Weyl orbit sum on classes, built from
    # the factors' Weyl powers: tau^k = w_M^k ⊗ w_N^k
    orbit_sum = Mat.identity(K, dim1)
    pm, pn = Mat.identity(K, M.dim(1)), Mat.identity(K, N.dim(1))
    for _ in range(p - 1):
        pm, pn = M.mackey.weyl[1] @ pm, N.mackey.weyl[1] @ pn
        orbit_sum = orbit_sum + _tensor_mat(K, pm, pn)
    cols = []
    for (d, i, j) in bx.gens[p]:
        if d == p:
            cols.append(tensor_vec(K, rsM.col(i), rsN.col(j)))
        else:
            cols.append(orbit_sum.col(i * N.dim(1) + j))
    res = {(1, p): Mat.from_cols(K, cols, dim1)}
    bx.ambient = MackeyFunctor(K, lattice, gen_labels, res, tr, weyl)

    _attach_prime_oracle_mult(bx, M, N, p)
    _check_descent(bx)
    return bx


def _attach_prime_oracle_mult(bx, M, N, p):
    """Closed-form multiplication, written as raw product terms straight
    into the cache; no builder path is reused.  A product of two pure
    tensors is the tensor of the factors' products.  A product with a class
    factor [w] is [w·res y] or [res x·w]: a dict sum of level-1 products
    over the oracle's own restriction column of the other factor."""
    K = bx.scalars
    cache = bx._mult_cache
    off = bx.offsets[p][1]
    res = bx.ambient.res[(1, p)].col_terms()
    for m in (1, p):      # level 1 first: the class products read it
        mt, nt = M.terms(m), N.terms(m)
        for ca, (d, i, j) in enumerate(bx.gens[m]):
            for cb, (e, i2, j2) in enumerate(bx.gens[m]):
                if d == e == m:
                    cache[(m, ca, cb)] = tensor_terms(
                        K, mt[i][i2], nt[j][j2], N.dim(m))
                    continue
                acc = {}
                for k, c in res[ca] if d == p else res[cb]:
                    key = (1, k, cb - off) if d == p else (1, ca - off, k)
                    for t, a in cache[key]:
                        acc[t] = acc.get(t, K.raw_zero) + c * a
                cache[(m, ca, cb)] = () if not acc else tuple(sorted(
                    (off + t, c) for t, c in
                    zip(acc, K.reduce(list(acc.values()))) if c))


# ---------------------------------------------------------------------------
# oracle 2: coequalizer of the threefold box along the two base actions


def coequalizer_oracle(b2: BoxProduct) -> BoxProduct:
    """The relative box b2 = T □_K T as the coequalizer of
    T □ K^c □ T ⇉ T □ T, over a prime field or Q.

    The two maps multiply the middle constant factor into the left or the
    right tensor factor.  Each must send the threefold box's relations into
    b2's relation span, or ``InternalCheckError`` is raised.  The returned
    quotient of b2's ambient by b2's relations and the image of the maps'
    difference is itself checked to descend; ``compare_boxes(b2, ...)``
    then tells whether it agrees with the box it was given.  Only
    T □ K^c and the threefold box are built here.
    """
    T, K = b2.left, b2.scalars
    if b2.right is not T:
        raise ValueError("the coequalizer oracle quotients a box T □ T")
    inner = box(T, constant_functor(K, T.lattice))
    b3 = box(inner.green, T)

    def act_left(m, d, wi, yj):
        """Middle factor into the left: [x⊗k]_e^d ⊗ y ↦ tr(kx) ⊗ y."""
        (e, i, _) = inner.gens[d][inner.levels[d].free[wi]]
        if e == d:
            return b2.gen_unit(m, b2.gen_index(m, d, i, yj))
        image = tensor_vec(K, T.mackey.tr_mat(d, e).col(i),
                           unit_vec(K, T.dim(d), yj))
        return b2.amb_vec(m, {d: image})

    def act_right(m, d, wi, yj):
        """Middle factor into the right, rewriting the inner class through
        Frobenius reciprocity first: [x⊗k]_e^d ⊗ y ≡ [x⊗k ⊗ res(y)]_e."""
        (e, i, _) = inner.gens[d][inner.levels[d].free[wi]]
        if e == d:
            return b2.gen_unit(m, b2.gen_index(m, d, i, yj))
        image = tensor_vec(K, unit_vec(K, T.dim(e), i),
                           T.mackey.res_mat(e, d).col(yj))
        return b2.amb_vec(m, {e: image})

    # the quotient shares b2's generators, ambient maps and product cache,
    # all of which depend on the ambient alone; only the relations grow
    co = copy.copy(b2)
    co.name = f"coeq({T.name}□{T.name})"
    co.levels = {}
    for m in T.lattice.divisors:
        ml, mr = (Mat.from_cols(K, [act(m, *g) for g in b3.gens[m]],
                                b2.amb_dim(m)) for act in (act_left, act_right))
        lvl = b2.levels[m]
        for mat, side in ((ml, "left"), (mr, "right")):
            b3.levels[m].descend(mat, lvl, f"coequalizer action map ({side}) "
                                 f"fails to descend at level {m}")
        # the extra rows are the columns of ml - mr; zero rows drop out
        co.levels[m] = PresentedLevel(K, lvl.labels, Mat._from_raw(
            K, lvl.relation_rows.raw + (ml - mr).transpose().raw,
            lvl.ngens))
    _check_descent(co)
    return co


# ---------------------------------------------------------------------------
# comparison and the C_2 norm


def compare_boxes(b1: BoxProduct, b2: BoxProduct, gen_map=None):
    """Structural comparison; returns a list of discrepancies (empty = same).

    With the default identity ``gen_map`` this demands equal generator
    labels, equal relation spans, and equal reduced structure; a permutation
    gen_map (e.g. the factor swap) compares up to relabeling.
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
    terms, never as dense matrices."""
    one = b1.scalars.raw_one
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
        if b1.dim(m) != b2.dim(m):
            diffs.append(f"level {m}: reduced dimensions differ "
                         f"({b1.dim(m)} vs {b2.dim(m)})")
    return {} if diffs else phi


def norm_on_c2_box(bx: BoxProduct, vec, term_order=None):
    """Tambara norm from the underlying to the fixed level of a C_2 box.

    Expands ``vec`` (reduced level-1 coordinates) into pure-tensor summands
    and applies the sum rule norm(x+y) = norm(x) + norm(y) + tr(x·τy); pure
    tensors take the componentwise norms of the factors.  The result is
    independent of the expansion order, which callers may vary via
    ``term_order`` (a permutation of the nonzero-term positions).
    """
    if bx.lattice.n != 2:
        raise ValueError("the norm expansion is implemented for C_2 only")
    if bx.left.norms is None or bx.right.norms is None:
        raise ValueError("both factors must carry norm rules")
    K = bx.scalars
    ambient = bx.expand(1, vec)
    terms = [(idx, c) for idx, c in enumerate(ambient) if c != K.zero]
    if term_order is not None:
        terms = [terms[t] for t in term_order]

    def norm_single(idx, c):
        (d, i, j) = bx.gens[1][idx]
        lv = [K.zero] * bx.left.dim(1)
        lv[i] = c
        nl = bx.left.norm(2, 1, tuple(lv))
        nr = bx.right.norm(2, 1, unit_vec(K, bx.right.dim(1), j))
        return bx.amb_vec(2, {2: tensor_vec(K, nl, nr)})

    if not terms:
        return bx.reduce(2, vec_zero(K, bx.amb_dim(2)))
    # norm(t_k + rest) = norm(t_k) + norm(rest) + tr(t_k·τ rest), summed
    # from the last term back to the first
    total = norm_single(*terms[-1])
    for k in range(len(terms) - 2, -1, -1):
        head = terms[k]
        v1 = [K.zero] * bx.amb_dim(1)
        v1[head[0]] = head[1]
        vr = [K.zero] * bx.amb_dim(1)
        for idx, c in terms[k + 1:]:
            vr[idx] = c
        cross = bx.mult_vec(1, tuple(v1),
                            bx.ambient.weyl[1].apply(tuple(vr)))
        total = vec_add(vec_add(norm_single(*head), total),
                        bx.ambient.tr[(2, 1)].apply(cross))
    return bx.reduce(2, total)
