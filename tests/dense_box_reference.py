"""A dense box assembly, the reference the sparse one in ``boxes`` is
compared with.

Tensor blocks here are dense Kronecker products of whole matrices
(``tensor_mat``), a class's restriction multiplies the dense Weyl orbit
sum by the Kronecker product of the restrictions, and the blocks are
placed into ambient vectors column by column.  The prime oracle's
presentation is written through element vectors (``tensor_vec``,
``vec_sub``, ``amb_vec``), its products with one reduction per product,
and the coequalizer's action maps as dense matrices of element columns.
The product fill probes every key of the origin level per class and side.
The tests compare each result with what ``boxes`` builds: the same
matrices, the same rows in the same order, and the same product tables
with the same key order.
"""

import math

from greenbox.boxes import box
from greenbox.green import constant_functor
from greenbox.linalg import Mat, tensor_vec, unit_vec, vec_sub

import reference
from reference import vec_scale


def tensor_mat(K, A, B):
    """The Kronecker product A ⊗ B on raw rows."""
    return Mat._from_flat(K, [a * b for ra in A.raw for rb in B.raw
                              for a in ra for b in rb],
                          A.nrows * B.nrows, A.ncols * B.ncols)


def place_blocks(bx, m, blocks):
    """Raw ambient vectors of level m: vector t holds column t of B_d at
    each component d, and zero elsewhere."""
    ncols = next(iter(blocks.values())).ncols
    z = bx.scalars.raw_zero
    pieces = [blocks[d].transpose().raw if d in blocks
              else ((z,) * (bx.left.dim(d) * bx.right.dim(d)),) * ncols
              for d in bx.offsets[m]]
    return [sum(parts, ()) for parts in zip(*pieces)]


def from_raw_cols(K, cols, nrows):
    return Mat._from_raw(K, tuple(cols), nrows).transpose()


def nonzero_rows(K, rows, ncols):
    """The relation ``Mat`` a ``PresentedLevel`` keeps: the nonzero rows,
    in order."""
    return Mat._from_raw(K, tuple([r for r in rows if any(r)]), ncols)


def ambient_and_relations(bx):
    """The dense ambient (weyl, res, tr) maps and the nonzero relation rows
    per level of the generic box ``bx``, from its factors and layout."""
    left, right, K, lattice = bx.left, bx.right, bx.scalars, bx.lattice
    n = lattice.n
    res, tr, weyl, relations = {}, {}, {}, {}

    def tm(f, g):
        return tensor_mat(K, f, g)

    def ident(F, d):
        return Mat.identity(K, F.dim(d))

    def weyl_pow(d, k):
        return tm(left.mackey.weyl_pow(d, k), right.mackey.weyl_pow(d, k))

    for m in lattice.divisors:
        cols = []
        for d in bx.offsets[m]:
            cols += place_blocks(
                bx, m, {d: tm(left.mackey.weyl[d], right.mackey.weyl[d])})
        weyl[m] = from_raw_cols(K, cols, bx.amb_dim(m))
    for (m, mp) in lattice.covering_pairs:
        rows = [[K.raw_zero] * bx.amb_dim(m) for _ in bx.gens[mp]]
        for c, (d, i, j) in enumerate(bx.gens[m]):
            rows[bx.gen_index(mp, d, i, j)][c] = K.raw_one
        tr[(mp, m)] = Mat._from_raw(K, tuple(map(tuple, rows)),
                                    bx.amb_dim(m))
    for (mp, m) in lattice.covering_pairs:
        cols = place_blocks(bx, mp, {mp: tm(left.mackey.res[(mp, m)],
                                            right.mackey.res[(mp, m)])})
        for d in bx.offsets[m]:
            if d == m:
                continue
            g = math.gcd(d, mp)
            orbit = weyl_pow(g, 0)
            for jj in range(1, m * g // (d * mp)):
                orbit = orbit + weyl_pow(g, jj * (n // m))
            down = tm(left.mackey.res_mat(g, d), right.mackey.res_mat(g, d))
            cols += place_blocks(bx, mp, {g: orbit @ down})
        res[(mp, m)] = from_raw_cols(K, cols, bx.amb_dim(mp))
    for m in lattice.divisors:
        rows = []
        for d in bx.offsets[m]:
            if d != m:
                rows += place_blocks(
                    bx, m, {d: weyl_pow(d, n // m) - weyl_pow(d, 0)})
        for d in bx.offsets[m]:
            for dp in bx.offsets[m]:
                if d % dp or dp >= d:
                    continue
                rows += place_blocks(bx, m, {
                    d: tm(left.mackey.tr_mat(d, dp), ident(right, d)),
                    dp: -tm(ident(left, dp), right.mackey.res_mat(dp, d))})
                rows += place_blocks(bx, m, {
                    d: tm(ident(left, d), right.mackey.tr_mat(d, dp)),
                    dp: -tm(left.mackey.res_mat(dp, d), ident(right, dp))})
        relations[m] = nonzero_rows(K, rows, bx.amb_dim(m))
    return weyl, res, tr, relations


def fill_products(bx):
    """The generic product table of ``bx``, filled as a new dict: pure
    products with one reduction per level, class products by probing every
    key of the origin level per class and side."""
    K, L, R = bx.scalars, bx.left, bx.right
    cache = {}
    for m in bx.lattice.divisors:
        fill_pure(K, L, R, m, cache)
        npure, ngens = L.dim(m) * R.dim(m), bx.amb_dim(m)
        for o, off in bx.offsets[m].items():
            if o == m:
                continue
            rows = bx.ambient.res_mat(o, m).row_terms()
            up = [c[0][0] for c in bx.ambient.tr_mat(m, o).col_terms()]
            span = range(bx.amb_dim(o))
            for w in range(L.dim(o) * R.dim(o)):
                c = off + w
                for x, terms in spread(K, [(k, t) for k in span if (
                        t := cache.get((o, w, k)))], rows, up, ngens):
                    cache.setdefault((m, c, x), terms)
                for x, terms in spread(K, [(k, t) for k in span if (
                        t := cache.get((o, k, w)))], rows, up, npure):
                    cache.setdefault((m, x, c), terms)
    return cache


def fill_pure(K, L, R, m, cache):
    width = R.dim(m)
    rt = [(j, j2, t) for j, row in enumerate(R.terms(m))
          for j2, t in enumerate(row) if t]
    new, flat = [], []
    for i, row in enumerate(L.terms(m)):
        for i2, lt in enumerate(row):
            if lt:
                for j, j2, t in rt:
                    key = (m, i * width + j, i2 * width + j2)
                    if key not in cache:
                        new.append((key, [a * width + b for a, _ in lt
                                          for b, _ in t]))
                        flat += [x * y for _, x in lt for _, y in t]
    values = K.reduce(flat)
    start = 0
    for key, index in new:
        end = start + len(index)
        cache[key] = tuple(zip(index, values[start:end]))
        start = end


def spread(K, prods, rows, up, bound):
    zero = K.raw_zero
    acc = {}
    for k, terms in prods:
        for x, r in rows[k]:
            if x < bound:
                acc.setdefault(x, []).append((r, terms))
    sums, flat = [], []
    for x, parts in acc.items():
        total = {}
        for r, terms in parts:
            for t, a in terms:
                total[t] = total.get(t, zero) + r * a
        sums.append((x, total))
        flat += total.values()
    values = iter(K.reduce(flat))
    out = []
    for x, total in sums:
        terms = tuple(sorted([(up[t], v) for t, v in zip(total, values)
                              if v]))
        if terms:
            out.append((x, terms))
    return out


def prime_oracle(po, M, N, p):
    """The prime oracle's dense presentation, from its layout ``po``: the
    (weyl, res, tr) maps, the nonzero relation rows of level p and the
    product table, each product reduced on its own."""
    K = M.scalars

    def amb_vec(blocks):
        return reference.amb_vec(po, p, blocks)

    tau = tensor_mat(K, M.mackey.weyl[1], N.mackey.weyl[1])
    dim1 = M.dim(1) * N.dim(1)
    rows = []
    for t in range(dim1):
        rows.append(amb_vec({1: vec_sub(tau.col(t), unit_vec(K, dim1, t))}))
    trM, trN = M.mackey.tr[(p, 1)], N.mackey.tr[(p, 1)]
    rsM, rsN = M.mackey.res[(1, p)], N.mackey.res[(1, p)]
    for i in range(M.dim(1)):
        for j in range(N.dim(p)):
            ej = unit_vec(K, N.dim(p), j)
            ei = unit_vec(K, M.dim(1), i)
            rows.append(amb_vec({
                p: tensor_vec(K, trM.col(i), ej),
                1: vec_scale(-K.one, tensor_vec(K, ei, rsN.col(j)))}))
    for i in range(M.dim(p)):
        for j in range(N.dim(1)):
            ei = unit_vec(K, M.dim(p), i)
            ej = unit_vec(K, N.dim(1), j)
            rows.append(amb_vec({
                p: tensor_vec(K, ei, trN.col(j)),
                1: vec_scale(-K.one, tensor_vec(K, rsM.col(i), ej))}))
    relations = nonzero_rows(K, [tuple(K.lift(r)) for r in rows],
                             po.amb_dim(p))

    pure = tensor_mat(K, M.mackey.weyl[p], N.mackey.weyl[p])
    cols = [amb_vec({d: (pure if d == p else tau).col(i * N.dim(d) + j)})
            for (d, i, j) in po.gens[p]]
    weyl = {1: tau, p: Mat.from_cols(K, cols, po.amb_dim(p))}
    cols = [unit_vec(K, po.amb_dim(p), po.offsets[p][1] + t)
            for t in range(dim1)]
    tr = {(p, 1): Mat.from_cols(K, cols, po.amb_dim(p))}
    orbit_sum = Mat.identity(K, dim1)
    pm, pn = Mat.identity(K, M.dim(1)), Mat.identity(K, N.dim(1))
    for _ in range(p - 1):
        pm, pn = M.mackey.weyl[1] @ pm, N.mackey.weyl[1] @ pn
        orbit_sum = orbit_sum + tensor_mat(K, pm, pn)
    cols = []
    for (d, i, j) in po.gens[p]:
        if d == p:
            cols.append(tensor_vec(K, rsM.col(i), rsN.col(j)))
        else:
            cols.append(orbit_sum.col(i * N.dim(1) + j))
    res = {(1, p): Mat.from_cols(K, cols, dim1)}
    return weyl, res, tr, relations, prime_oracle_products(po, M, N, p,
                                                           res[(1, p)])


def tensor_terms(K, us, vs, width):
    prods = [(a * width + b, x * y) for a, x in us for b, y in vs]
    return tuple(zip([t for t, _ in prods], K.reduce([c for _, c in prods])))


def prime_oracle_products(po, M, N, p, res):
    K = M.scalars
    cache = {}
    off = po.offsets[p][1]
    for m in (1, p):
        mt, nt, width = M.terms(m), N.terms(m), N.dim(m)
        nonzero = [(j, j2, y) for j, row in enumerate(nt)
                   for j2, y in enumerate(row) if y]
        for i, row in enumerate(mt):
            for i2, x in enumerate(row):
                if x:
                    for j, j2, y in nonzero:
                        cache[(m, i * width + j, i2 * width + j2)] = \
                            tensor_terms(K, x, y, width)
    by_left, by_right = {}, {}
    for (m, a, b), terms in cache.items():
        if m == 1:
            by_left.setdefault(a, []).append((b, terms))
            by_right.setdefault(b, []).append((a, terms))
    rows = res.row_terms()
    for w in range(po.amb_dim(1)):
        for other, pure_only in ((by_left, False), (by_right, True)):
            acc = {}
            for k, terms in other.get(w, ()):
                for y, c in rows[k]:
                    if y < off or not pure_only:
                        sums = acc.setdefault(y, {})
                        for t, a in terms:
                            sums[t] = sums.get(t, K.raw_zero) + c * a
            for y, sums in acc.items():
                prod = tuple((off + t, c) for t, c in sorted(
                    zip(sums, K.reduce(list(sums.values())))) if c)
                if prod:
                    cache[(p, y, off + w) if pure_only else
                          (p, off + w, y)] = prod
    return cache


def coequalizer_relations(b2, inner, b3):
    """The coequalizer quotient's nonzero relation rows per level: b2's
    rows, then the columns of the dense action maps' difference."""
    T, K = b2.left, b2.scalars

    def act_left(m, d, wi, yj):
        (e, i, _) = inner.gens[d][inner.levels[d].free[wi]]
        if e == d:
            return unit_vec(K, b2.amb_dim(m), b2.gen_index(m, d, i, yj))
        image = tensor_vec(K, T.mackey.tr_mat(d, e).col(i),
                           unit_vec(K, T.dim(d), yj))
        return reference.amb_vec(b2, m, {d: image})

    def act_right(m, d, wi, yj):
        (e, i, _) = inner.gens[d][inner.levels[d].free[wi]]
        if e == d:
            return unit_vec(K, b2.amb_dim(m), b2.gen_index(m, d, i, yj))
        image = tensor_vec(K, unit_vec(K, T.dim(e), i),
                           T.mackey.res_mat(e, d).col(yj))
        return reference.amb_vec(b2, m, {e: image})

    out = {}
    for m in T.lattice.divisors:
        ml, mr = (Mat.from_cols(K, [act(m, *g) for g in b3.gens[m]],
                                b2.amb_dim(m)) for act in (act_left, act_right))
        lvl = b2.levels[m]
        out[m] = nonzero_rows(K, lvl.relation_rows.raw
                              + (ml - mr).transpose().raw, lvl.ngens)
    return out


def coequalizer_factors(b2):
    """The T □ K^c and threefold boxes a coequalizer of b2 = T □ T builds,
    made the same way."""
    T = b2.left
    inner = box(T, constant_functor(T.scalars, T.lattice))
    return inner, box(inner.green, T)
