"""Test-side references and helpers for structure that ``greenbox`` stores
only as raw product terms.

``bilinear`` is the product of two element vectors through raw product
terms, ``linalg.bilinear_terms`` between one lift and one fold;
``multiply``, ``power`` and ``norm`` read a Green functor's products and
norms on element vectors through it.  ``dense_products`` is the dense
table of a raw product table, built by the element loop: entry [i][j] is
e_i·e_j as a tuple of field elements.  ``mult_table`` and
``algebra_table`` read it off a Green functor's level and off an algebra;
``product_terms`` goes back, for functors that a test writes from dense
data (``green_functor``).  ``ref_check_green`` and ``ref_check_norms`` are
the element-loop Green-axiom and norm checks that ``green.check_green``
and ``green.check_norms`` are compared with.  ``burnside_c2`` is a Green
functor that is not a K^c-module, the negative control of the
coequalizer's unit law.  ``cyclic_algebra`` is K[x]/(x^n − a) with a
diagonal σ, built without ``kummer_extension``'s checks, so a = 0 gives an
algebra that is not a field: a NO case.  ``ref_ideal_and_square`` is
``etale.ideal_and_square`` with every product inserted into the span of
I², and ``ref_classical_etale_of_algebra`` is the classical oracle with
L ⊗_K L's product table, every product and the whole separability system
materialised.  The rest are helpers that only the tests call: basis
permutations, a matrix with one entry changed, a corrupted multiplication,
the ideal check of a box, a basis and the labels of a fixed subfield, the
base change of a Mackey functor, the reduced coordinates of an ambient
vector of a presented level and the ambient lift of reduced coordinates
(``expand``), relation-span membership and element-vector sums and
multiples.

A box is also read here on its ambient presentation (``amb_vec``,
``mult_terms``, ``mult_vec``), from its product table ``_mult_cache`` and
its levels, never from the reduced ``bx.green`` that the builder derives
from them; ``ref_norm_on_c2_box`` is the C_2 norm computed that way, which
``boxes.norm_on_c2_box`` is compared with.
"""

import random

from greenbox.algebras import poly_quotient_algebra, tensor_algebra
from greenbox.etale import ClassicalEtaleReport, IdealData
from greenbox.extensions import GaloisExtension, format_l_element
from greenbox.fields import FieldUsageError
from greenbox.green import GreenFunctor, LevelEmbeddings
from greenbox.linalg import Mat, Span, bilinear_terms, dense_raw, inverse, \
    kernel, kernel_raw, nonzero_terms, raw_terms, solve_matrix, tensor_vec, \
    unit_vec
from greenbox.mackey import InternalCheckError, MackeyFunctor, Violation, \
    _conjugate, subgroup_lattice


# ---------------------------------------------------------------------------
# products, powers and norms of element vectors


def bilinear(K, terms, x, y):
    """The product of the coefficient vectors x and y, of elements, through
    the product terms ``terms``: ``linalg.bilinear_terms`` between one lift
    and one fold."""
    return K.fold(bilinear_terms(K, terms, nonzero_terms(K, x),
                                 nonzero_terms(K, y)))


def multiply(G, m, x, y):
    """The product of two level-m vectors of the Green functor G."""
    return bilinear(G.scalars, G.terms(m), x, y)


def power(G, m, x, e: int):
    """x^e at level m of G, multiplied up from the unit."""
    out = G.unit[m]
    for _ in range(e):
        out = multiply(G, m, out, x)
    return out


def norm(G, to: int, frm: int, vec):
    """G's norm along frm | to of a vector of elements."""
    K = G.scalars
    return K.fold(G.norm(to, frm, nonzero_terms(K, vec)))


# ---------------------------------------------------------------------------
# the dense product table


def dense_products(K, terms, dim):
    """The dense table of the raw product ``terms`` of a dim-dimensional
    algebra: entry [i][j] places each term of e_i·e_j, folded to an
    element, at its index."""
    table = []
    for row in terms:
        out = []
        for t in row:
            v = [K.zero] * dim
            for k, c in t:
                v[k] = K.fold([c])[0]
            out.append(tuple(v))
        table.append(out)
    return table


def mult_table(G, m):
    """The dense product table of level m of the Green functor G."""
    return dense_products(G.scalars, G.terms(m), G.dim(m))


def algebra_table(alg):
    """The dense product table of a ``FiniteAlgebra``."""
    return dense_products(alg.base, alg.terms, alg.dim)


def product_terms(K, table):
    """The raw product terms of the dense table ``table``."""
    return [[nonzero_terms(K, v) for v in row] for row in table]


def products(G):
    """G's product terms, per level."""
    return {m: G.terms(m) for m in G.lattice.divisors}


def green_functor(mackey, mult, unit, **kwargs):
    """The ``GreenFunctor`` whose level-m products are the dense table
    ``mult[m]``."""
    return GreenFunctor(mackey, {m: product_terms(mackey.scalars, table)
                                 for m, table in mult.items()},
                        unit, **kwargs)


def burnside_c2(K):
    """The Burnside Green functor of C_2 over K: A(1) = K, A(2) = K{1, t}
    with res t = 2, tr 1 = t and t² = 2t.  It satisfies the Mackey and
    Green axioms, but tr∘res = 2 fails on t, so it is no K^c-module."""
    lat = subgroup_lattice(2)
    one, two = K.one, K.from_int(2)
    mack = MackeyFunctor(
        K, lat, {1: ["1"], 2: ["1", "t"]},
        {(1, 2): Mat(K, [[one, two]], ncols=2)},
        {(2, 1): Mat(K, [[K.zero], [one]], ncols=1)},
        {1: Mat.identity(K, 1), 2: Mat.identity(K, 2)}, name="A(C_2)")
    mult = {1: [[(one,)]],
            2: [[(one, K.zero), (K.zero, one)],
                [(K.zero, one), (K.zero, two)]]}
    return green_functor(mack, mult, {1: (one,), 2: (one, K.zero)})


# ---------------------------------------------------------------------------
# the Green axioms, by the element loop


def ref_check_green(G):
    """``check_green`` as it reads the dense product table: every
    comparison, violation kind, location and order the same."""
    out = []
    lat = G.lattice
    K = G.scalars
    mult = {m: mult_table(G, m) for m in lat.divisors}

    for m in lat.divisors:
        dim = G.dim(m)
        basis = [unit_vec(K, dim, i) for i in range(dim)]
        for i in range(dim):
            if multiply(G, m, G.unit[m], basis[i]) != basis[i]:
                out.append(Violation("unit", {"level": m, "basis": i}, G.name))
        for i in range(dim):
            for j in range(i, dim):
                if mult[m][i][j] != mult[m][j][i]:
                    out.append(Violation("commutativity",
                                         {"level": m, "pair": (i, j)}, G.name))
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    lhs = multiply(G, m, mult[m][i][j], basis[k])
                    rhs = multiply(G, m, basis[i], mult[m][j][k])
                    if lhs != rhs:
                        out.append(Violation(
                            "associativity", {"level": m, "triple": (i, j, k)},
                            G.name))
        wm = G.mackey.weyl[m]
        for i in range(dim):
            for j in range(dim):
                lhs = wm.apply(mult[m][i][j])
                rhs = multiply(G, m, wm.col(i), wm.col(j))
                if lhs != rhs:
                    out.append(Violation("weyl_ring_automorphism",
                                         {"level": m, "pair": (i, j)}, G.name))
        if wm.apply(G.unit[m]) != G.unit[m]:
            out.append(Violation("weyl_unit", {"level": m}, G.name))

    for (d, m) in lat.covering_pairs:
        res = G.mackey.res[(d, m)]
        tr = G.mackey.tr[(m, d)]
        if res.apply(G.unit[m]) != G.unit[d]:
            out.append(Violation("res_unit", {"pair": (d, m)}, G.name))
        dim_m, dim_d = G.dim(m), G.dim(d)
        for i in range(dim_m):
            ei = unit_vec(K, dim_m, i)
            for j in range(dim_m):
                ej = unit_vec(K, dim_m, j)
                lhs = res.apply(mult[m][i][j])
                rhs = multiply(G, d, res.apply(ei), res.apply(ej))
                if lhs != rhs:
                    out.append(Violation("res_ring_map",
                                         {"pair": (d, m), "basis": (i, j)},
                                         G.name))
        for i in range(dim_d):
            ei = unit_vec(K, dim_d, i)
            for j in range(dim_m):
                ej = unit_vec(K, dim_m, j)
                lhs = multiply(G, m, tr.apply(ei), ej)
                rhs = tr.apply(multiply(G, d, ei, res.apply(ej)))
                if lhs != rhs:
                    out.append(Violation("frobenius_reciprocity",
                                         {"pair": (d, m), "basis": (i, j)},
                                         G.name))
    return out


def ref_check_norms(G):
    """``check_norms`` on element vectors: every comparison, violation
    kind, location and order the same, each distinct argument normed once
    per covering pair."""
    out = []
    if G.norms is None:
        return out
    lat = G.lattice
    K = G.scalars
    for (d, m) in lat.covering_pairs:
        memo = {}

        def normed(v):
            if v not in memo:
                memo[v] = norm(G, m, d, v)
            return memo[v]

        dim_d = G.dim(d)
        basis = [unit_vec(K, dim_d, i) for i in range(dim_d)]
        for i in range(dim_d):
            for j in range(dim_d):
                lhs = normed(multiply(G, d, basis[i], basis[j]))
                rhs = multiply(G, m, normed(basis[i]), normed(basis[j]))
                if lhs != rhs:
                    out.append(Violation("norm_multiplicative",
                                         {"pair": (d, m), "basis": (i, j)},
                                         G.name))
        if normed(G.unit[d]) != G.unit[m]:
            out.append(Violation("norm_unit", {"pair": (d, m)}, G.name))
        res = G.mackey.res[(d, m)]
        for i in range(G.dim(m)):
            ei = unit_vec(K, G.dim(m), i)
            if normed(res.apply(ei)) != power(G, m, ei, m // d):
                out.append(Violation("norm_of_restriction",
                                     {"pair": (d, m), "basis": i}, G.name))
    return out


# ---------------------------------------------------------------------------
# helpers that only the tests call


def perm_cols(K, perm, n) -> Mat:
    """The matrix whose column j is the unit vector e_{perm[j]}."""
    return Mat.from_cols(K, [unit_vec(K, n, old) for old in perm], n)


def base_change(M, changes, name: str = ""):
    """Conjugate all structure maps by invertible levelwise matrices."""
    inv = {}
    for m, S in changes.items():
        Si = inverse(S)
        if Si is None:
            raise ValueError(f"base change at level {m} is singular")
        inv[m] = Si
    return _conjugate(M, changes, inv, name)


def permute_green(G, perms: dict):
    """Relabel the level bases by permutations {m: [new order of indices]}.

    Produces the same functor presented differently; downstream verdicts
    must not change."""
    K = G.scalars
    divs = G.lattice.divisors
    perms = {m: perms.get(m, list(range(G.dim(m)))) for m in divs}
    # row j of the base change picks the perm[j]-th old coordinate
    mats = {m: perm_cols(K, perms[m], G.dim(m)).transpose() for m in divs}
    mack = base_change(G.mackey, mats, name=f"{G.name} (permuted)")
    mack.labels = {m: [G.labels(m)[i] for i in perms[m]] for m in divs}
    mult, unit = {}, {}
    for m in divs:
        table = mult_table(G, m)
        mult[m] = [[mats[m].apply(table[i][j]) for j in perms[m]]
                   for i in perms[m]]
        unit[m] = mats[m].apply(G.unit[m])
    embed = None
    if G.level_embed is not None:
        embed = LevelEmbeddings({
            m: G.level_embed[m] @ perm_cols(K, perms[m], G.dim(m))
            for m in divs})
    return green_functor(mack, mult, unit, name=f"{G.name} (permuted)",
                         level_embed=embed)


def bumped(mat):
    """``mat`` with its top-left entry increased by one."""
    rows = [list(r) for r in mat.rows]
    rows[0][0] = rows[0][0] + mat.field.one
    return Mat(mat.field, rows, ncols=mat.ncols)


def corrupt_multiplication(G, seed: int = 0):
    """Negative control: perturb one structure constant at one level."""
    rng = random.Random(seed)
    levels = [m for m in G.lattice.divisors if G.dim(m)]
    m = levels[rng.randrange(len(levels))]
    dim = G.dim(m)
    i, j, k = (rng.randrange(dim) for _ in range(3))
    table = [[list(v) for v in row] for row in mult_table(G, m)]
    table[i][j][k] = table[i][j][k] + G.scalars.one
    table[j][i] = table[i][j]
    prods = products(G)
    prods[m] = product_terms(G.scalars, table)
    return GreenFunctor(G.mackey, prods, G.unit, norms=G.norms,
                        name=f"{G.name}+corrupt", level_embed=G.level_embed)


def check_ideal(bx, data):
    """I must be a Mackey ideal: closed under ambient multiplication and
    mapped into itself by res and tr."""
    out = []
    K = bx.scalars
    for m in bx.lattice.divisors:
        span_i = Span(K, bx.dim(m), data.ideal[m])
        for u in data.ideal[m]:
            for i in range(bx.dim(m)):
                ei = unit_vec(K, bx.dim(m), i)
                if not span_i.contains(multiply(bx.green, m, u, ei)):
                    out.append(Violation("ideal_multiplication",
                                         {"level": m}, ""))
    for (d, m) in bx.lattice.covering_pairs:
        span_d = Span(K, bx.dim(d), data.ideal[d])
        span_m = Span(K, bx.dim(m), data.ideal[m])
        res = bx.green.mackey.res[(d, m)]
        tr = bx.green.mackey.tr[(m, d)]
        for u in data.ideal[m]:
            if not span_d.contains(res.apply(u)):
                out.append(Violation("ideal_res", {"pair": (d, m)}, ""))
        for u in data.ideal[d]:
            if not span_m.contains(tr.apply(u)):
                out.append(Violation("ideal_tr", {"pair": (d, m)}, ""))
    return out


def ref_ideal_and_square(bx, mm):
    """``etale.ideal_and_square`` with every product inserted into the span
    of I², also after that span has I's dimension."""
    K = bx.scalars
    ideal, square, qdims, verdicts = {}, {}, {}, {}
    for m in bx.lattice.divisors:
        basis = kernel(mm.components[m])
        ideal[m] = basis
        raw = [nonzero_terms(K, v) for v in basis]
        span_i = Span(K, bx.dim(m), basis)
        span_sq = Span(K, bx.dim(m))
        for i, x in enumerate(raw):
            for j in range(i, len(raw)):
                prod = bilinear_terms(K, bx.green.terms(m), x, raw[j])
                if not span_i._contains(prod):
                    raise InternalCheckError(
                        f"I² is not contained in I at level {m}")
                span_sq._insert(prod)
        square[m] = span_sq.basis()
        qdims[m] = span_i.dim - span_sq.dim
        verdicts[m] = span_i.dim == span_sq.dim
    return IdealData(ideal, square, qdims, verdicts)


def ref_classical_etale_of_algebra(alg):
    """``etale.classical_etale_of_algebra`` with everything materialised:
    L ⊗_K L's product table (``tensor_algebra``), every ordered product
    b·u of two basis vectors of I as a dense reduced list, every product
    with b ≤ u inserted into I²'s span, and the whole separability system,
    one equation per (u, coordinate), solved by ``solve_matrix``."""
    K = alg.base
    tensor = tensor_algebra(alg, alg)
    n, N = alg.dim, tensor.dim
    rows = [[K.raw_zero] * N for _ in range(n)]
    for i, row in enumerate(alg.terms):
        for j, terms in enumerate(row):
            for k, c in terms:
                rows[k][i * n + j] = c
    ibasis = kernel_raw(Mat._from_raw(K, tuple(map(tuple, rows)), N))
    raw = [raw_terms(v) for v in ibasis]
    prods = [[bilinear_terms(K, tensor.terms, b, u) for u in raw]
             for b in raw]
    span_sq = Span(K, N)
    for i, row in enumerate(prods):
        for j in range(i, len(row)):
            span_sq._insert(row[j])
    etale = len(ibasis) == span_sq.dim
    unit = None
    if ibasis:
        eqs, rhs = [], []
        for j, u in enumerate(ibasis):
            eqs.extend(zip(*[row[j] for row in prods]))
            rhs.extend((c,) for c in u)
        sol = solve_matrix(Mat._from_raw(K, tuple(eqs), len(ibasis)),
                           Mat._from_raw(K, tuple(rhs), 1))
        if sol is not None:
            acc = [K.raw_zero] * N
            for (c,), terms in zip(sol.raw, raw):
                for t, v in terms:
                    acc[t] += c * v
            unit = K.fold(K.reduce(acc))
    return ClassicalEtaleReport(N, len(ibasis), span_sq.dim, etale, unit)


def fixed_space(E, m: int):
    """Basis of L^{C_m} = ker(σ^{n/m} - 1); C_m is generated by σ^{n/m}."""
    n = E.degree
    if m <= 0 or n % m != 0:
        raise FieldUsageError(f"{m} does not divide the degree {n}")
    return kernel(E.sigma_pow(n // m) - Mat.identity(E.base, n))


def fixed_labels(E, m: int):
    """The labels of the basis of L^{C_m} that ``fixed_space`` gives."""
    return [format_l_element(E, v) for v in fixed_space(E, m)]


def expand(lvl, rv):
    """The ambient canonical representative of the reduced coordinates rv
    of the ``PresentedLevel`` lvl: rv on the free generators, 0 at the
    pivots."""
    if len(rv) != lvl.dim:
        raise ValueError("reduced vector of wrong length")
    K = lvl.field
    return K.fold(dense_raw(K, zip(lvl.free, K.lift(rv)), lvl.ngens))


def level_reduce(lvl, v):
    """The reduced coordinates (length ``dim``) of the ambient vector v of
    the ``PresentedLevel`` lvl."""
    if len(v) != lvl.ngens:
        raise ValueError("ambient vector of wrong length")
    K = lvl.field
    return K.fold(lvl.project(nonzero_terms(K, v)))


def in_relation_span(lvl, v) -> bool:
    """Whether the ambient vector v lies in the relation span of the
    ``PresentedLevel`` lvl."""
    return all(c == lvl.field.zero for c in level_reduce(lvl, v))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(s, a):
    return tuple(s * x for x in a)


# ---------------------------------------------------------------------------
# a box read on its ambient presentation: its product table and its levels,
# independent of the reduced Green functor the builder derives from them


def amb_vec(bx, m, blocks):
    """The ambient vector of level m of the box bx holding the tensor
    vector ``blocks[d]`` at each component d, and zero elsewhere."""
    out = [bx.scalars.zero] * bx.amb_dim(m)
    for d, tensor in blocks.items():
        off = bx.offsets[m][d]
        out[off:off + len(tensor)] = tensor
    return tuple(out)


def mult_terms(bx, m, a, b):
    """The raw terms of the product of ambient generators a and b of level
    m, read from the box's product table; a missing entry is a vanishing
    product."""
    return bx._mult_cache.get((m, a, b), ())


def mult_vec(bx, m, va, vb):
    """The product of two ambient vectors of level m, the bilinear
    extension of ``mult_terms``."""
    K = bx.scalars
    nzb = nonzero_terms(K, vb)
    out = [K.raw_zero] * bx.amb_dim(m)
    for ca, a in nonzero_terms(K, va):
        for cb, b in nzb:
            c = a * b
            for t, p in mult_terms(bx, m, ca, cb):
                out[t] += c * p
    return K.fold(K.reduce(out))


def ref_norm_on_c2_box(bx, vec, term_order=None):
    """``norm_on_c2_box`` on the ambient presentation: the sum rule
    norm(x+y) = norm(x) + norm(y) + tr(x·τy) with the ambient τ and tr and
    ``mult_vec``, summed from the last term back to the first as ambient
    element vectors and reduced at the end."""
    K = bx.scalars
    ambient = expand(bx.levels[1], vec)
    terms = [(idx, c) for idx, c in enumerate(ambient) if c != K.zero]
    if term_order is not None:
        terms = [terms[t] for t in term_order]

    def norm_single(idx, c):
        (d, i, j) = bx.gens[1][idx]
        lv = [K.zero] * bx.left.dim(1)
        lv[i] = c
        nl = norm(bx.left, 2, 1, tuple(lv))
        nr = norm(bx.right, 2, 1, unit_vec(K, bx.right.dim(1), j))
        return amb_vec(bx, 2, {2: tensor_vec(K, nl, nr)})

    if not terms:
        return level_reduce(bx.levels[2], (K.zero,) * bx.amb_dim(2))
    total = norm_single(*terms[-1])
    for k in range(len(terms) - 2, -1, -1):
        head = terms[k]
        v1 = [K.zero] * bx.amb_dim(1)
        v1[head[0]] = head[1]
        vr = [K.zero] * bx.amb_dim(1)
        for idx, c in terms[k + 1:]:
            vr[idx] = c
        cross = mult_vec(bx, 1, tuple(v1), bx.ambient.weyl[1].apply(tuple(vr)))
        total = vec_add(vec_add(norm_single(*head), total),
                        bx.ambient.tr[(2, 1)].apply(cross))
    return level_reduce(bx.levels[2], total)


# ---------------------------------------------------------------------------
# a cyclic algebra that need not be a field


def cyclic_algebra(K, n, a, zeta):
    """K[x]/(x^n − a) with σ(α^j) = ζ^j α^j, as a Kummer ``GaloisExtension``
    built directly: none of ``kummer_extension``'s checks run, so a = 0
    gives the non-reduced algebra K[x]/(x^n), which is not étale."""
    modulus = [-a] + [K.zero] * (n - 1) + [K.one]
    algebra = poly_quotient_algebra(K, modulus, var="α",
                                    name=f"{K}(α), α^{n}={a}")
    sigma = Mat(K, [[zeta ** j if i == j else K.zero for j in range(n)]
                    for i in range(n)], ncols=n)
    return GaloisExtension(K, n, algebra, sigma, "kummer", a=a, zeta=zeta)
