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
class·class through tr(u)·tr(v) = tr(u·res(tr v)).  Every structure map is
checked to descend to the quotient during construction, and read off on the
reduced bases, through ``PresentedLevel.check_map`` and ``induced``.
Multiplication is checked one-sidedly where that is exact: relations times
every ambient generator, but only the free generators times relations, since
the ambient is the span of the free generators plus the relation span and
the latter times anything is covered by the first check.
``BoxProduct`` alone knows the ambient layout: callers outside this module
write ambient vectors through ``place``.

Two independent oracles validate the construction: a closed-form two-level
build for prime group order, and a coequalizer of the threefold box along
the two base-action maps for relative boxes.  The coequalizer presents its
quotient on T □ T's own ambient: the same generators and ambient maps, with
the action-difference rows added to T □ T's relations.
"""

from __future__ import annotations

import copy
import math

from .fields import Field
from .green import GreenFunctor, check_green_morphism, constant_functor
from .linalg import Mat, inverse, nonzero_terms, tensor_vec, unit_vec, \
    vec_add, vec_scale, vec_zero
from .mackey import InternalCheckError, MackeyFunctor, compose_chain
from .presented import PresentedLevel


class BoxProduct:
    """A fully reduced box product; ``green`` is its Green functor."""

    def __init__(self, left, right, lattice, scalars, name):
        self.left = left
        self.right = right
        self.lattice = lattice
        self.scalars = scalars
        self.name = name
        self.gens = {}                # m -> [(d, i, j)]
        self.offsets = {}             # m -> {d: column offset}
        self._amb_labels = {}         # m -> ambient generator labels
        self.levels = {}              # m -> PresentedLevel
        self.amb_res = {}             # (m', m) covering, m' | m
        self.amb_tr = {}              # (m', m) covering, m | m'
        self.amb_weyl = {}            # m
        self.green = None
        self._mult_cache = {}
        self._chain_cache = {}

    # -- ambient bookkeeping -------------------------------------------

    def amb_dim(self, m):
        return len(self.gens[m])

    def gen_index(self, m, d, i, j):
        return self.offsets[m][d] + i * self.right.dim(d) + j

    def gen_unit(self, m, idx):
        return unit_vec(self.scalars, self.amb_dim(m), idx)

    def place(self, m, d, tensor, out):
        """Add a component-d tensor vector into ambient accumulator ``out``."""
        off = self.offsets[m][d]
        for t, c in enumerate(tensor):
            out[off + t] = out[off + t] + c
        return out

    def amb_res_chain(self, d, m) -> Mat:
        """Composite ambient restriction from level m down to level d."""
        return self._chain("res", self.amb_res, m, d)

    def amb_tr_chain(self, m, d) -> Mat:
        """Composite ambient transfer (component relabeling) level d up to m."""
        return self._chain("tr", self.amb_tr, m, d)

    def _chain(self, kind, maps, hi, lo):
        key = (kind, hi, lo)
        if key not in self._chain_cache:
            self._chain_cache[key] = compose_chain(
                self.scalars, maps, self.amb_dim,
                self.lattice.chain_down(hi, lo), kind)
        return self._chain_cache[key]

    # -- multiplication --------------------------------------------------

    def mult_gens(self, m, ca, cb):
        """Product of two ambient generators of level m, as an ambient vector."""
        key = (m, ca, cb)
        if key in self._mult_cache:
            return self._mult_cache[key]
        K = self.scalars
        (d, i, j) = self.gens[m][ca]
        (e, i2, j2) = self.gens[m][cb]
        out = [K.zero] * self.amb_dim(m)
        if d == m and e == m:
            tensor = tensor_vec(self.left.mult[m][i][i2],
                                self.right.mult[m][j][j2])
            self.place(m, m, tensor, out)
        elif m in (d, e):
            # pure · class, either way round: restrict the pure tensor to
            # the class origin o and multiply it into the class there
            (pi, pj), (o, ci, cj) = ((i, j), (e, i2, j2)) if d == m \
                else ((i2, j2), (d, i, j))
            u1 = self.left.mackey.res_mat(o, m).col(pi)
            u2 = self.right.mackey.res_mat(o, m).col(pj)
            lvec = self.left.multiply(o, u1, unit_vec(K, self.left.dim(o), ci))
            rvec = self.right.multiply(o, u2,
                                       unit_vec(K, self.right.dim(o), cj))
            self.place(m, o, tensor_vec(lvec, rvec), out)
        else:
            # class · class: tr(u)·tr(v) = tr(u · res(tr v))
            down = self.amb_res_chain(d, m).col(cb)
            pure_idx = self.gen_index(d, d, i, j)
            prod_at_d = self.mult_vec(d, self.gen_unit(d, pure_idx), down)
            lifted = self.amb_tr_chain(m, d).apply(prod_at_d)
            out = [a + b for a, b in zip(out, lifted)]
        result = tuple(out)
        self._mult_cache[key] = result
        return result

    def mult_vec(self, m, va, vb):
        """Bilinear extension of mult_gens to ambient vectors."""
        K = self.scalars
        nzb = nonzero_terms(K, vb)
        out = [K.zero] * self.amb_dim(m)
        for ca, a in nonzero_terms(K, va):
            for cb, b in nzb:
                c = a * b
                for t, p in self._mult_sparse(m, ca, cb):
                    out[t] = out[t] + c * p
        return tuple(out)

    def _mult_sparse(self, m, ca, cb):
        key = ("s", m, ca, cb)
        cached = self._mult_cache.get(key)
        if cached is None:
            cached = nonzero_terms(self.scalars, self.mult_gens(m, ca, cb))
            self._mult_cache[key] = cached
        return cached

    def unit_ambient(self, m):
        K = self.scalars
        out = [K.zero] * self.amb_dim(m)
        tensor = tensor_vec(self.left.unit[m], self.right.unit[m])
        return tuple(self.place(m, m, tensor, out))

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
    cols = []
    for i in range(A.ncols):
        for j in range(B.ncols):
            cols.append(tensor_vec(A.col(i), B.col(j)))
    return Mat.from_cols(K, cols, A.nrows * B.nrows)


def _place_blocks(bx, m, blocks):
    """Ambient columns of level m from component blocks ``{d: B_d}``:
    column t is the sum over d of column t of B_d, placed at component d.
    The blocks share their number of columns."""
    ncols = next(iter(blocks.values())).ncols
    cols = []
    for t in range(ncols):
        out = [bx.scalars.zero] * bx.amb_dim(m)
        for d, block in blocks.items():
            bx.place(m, d, block.col(t), out)
        cols.append(tuple(out))
    return cols


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
        bx._amb_labels[m] = labels

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
        bx.amb_weyl[m] = Mat.from_cols(K, cols, bx.amb_dim(m))

    # ambient transfers: component relabeling upward
    for (m, mp) in lattice.covering_pairs:
        cols = [bx.gen_unit(mp, bx.gen_index(mp, d, i, j))
                for (d, i, j) in bx.gens[m]]
        bx.amb_tr[(mp, m)] = Mat.from_cols(K, cols, bx.amb_dim(mp))

    # ambient restrictions: res⊗res on pure tensors; a class of origin d
    # goes to origin g = gcd(d, m') through res to g, then the sum of the
    # c = m·g/(d·m') Weyl translates
    for (mp, m) in lattice.covering_pairs:
        res = tm(left.mackey.res[(mp, m)], right.mackey.res[(mp, m)])
        cols = _place_blocks(bx, mp, {mp: res})
        for d in bx.offsets[m]:
            if d == m:
                continue
            g = math.gcd(d, mp)
            orbit = weyl_pow(g, 0)
            for jj in range(1, m * g // (d * mp)):
                orbit = orbit + weyl_pow(g, jj * (n // m))
            down = tm(left.mackey.res_mat(g, d), right.mackey.res_mat(g, d))
            cols += _place_blocks(bx, mp, {g: orbit @ down})
        bx.amb_res[(mp, m)] = Mat.from_cols(K, cols, bx.amb_dim(mp))

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
        bx.levels[m] = PresentedLevel(K, bx._amb_labels[m], rows)

    if check:
        _check_descent(bx)

    _induce_reduced_structure(bx)
    return bx


def _check_descent(bx: BoxProduct) -> None:
    """Every structure map must send relations into relations.

    Multiplication is bilinear, so it descends exactly when Rel·A ⊆ Rel and
    A·Rel ⊆ Rel.  The first is checked as Rel·e ⊆ Rel for every ambient
    generator e.  The second needs only the free generators e of the level:
    the relation basis is in reduced echelon form, so A = span(free units)
    ⊕ Rel, and for x = f + s with s in Rel, x·r = f·r + s·r, where f·r is
    covered by the free generators and s·r lies in Rel·A, which the first
    check covers.
    """
    pairs = bx.lattice.covering_pairs
    for m in bx.lattice.divisors:
        lvl = bx.levels[m]
        maps = [(bx.amb_weyl[m].apply, m,
                 f"Weyl action fails to descend at level {m}")]
        maps += [(bx.amb_res[(lo, m)].apply, lo,
                  f"restriction {m}->{lo} fails to descend")
                 for (lo, hi) in pairs if hi == m]
        maps += [(bx.amb_tr[(hi, m)].apply, hi,
                  f"transfer {m}->{hi} fails to descend")
                 for (lo, hi) in pairs if lo == m]
        free = set(lvl.free)
        for e, label in enumerate(lvl.labels):
            sides = ("left", "right") if e in free else ("left",)
            for side in sides:
                maps.append((_times_generator(bx, m, e, side), m,
                             f"multiplication fails to descend at level "
                             f"{m}: {side} product of a relation with "
                             f"{label}"))
        for f, target, message in maps:
            lvl.check_map(f, bx.levels[target], message)


def _times_generator(bx: BoxProduct, m, e, side):
    """The map r ↦ r·e (``side`` "left": r is the left factor) or r ↦ e·r
    on relation rows, summed over their ``terms`` from the cached sparse
    products of generators."""
    zero = bx.scalars.zero

    def f(r):
        out = [zero] * bx.amb_dim(m)
        for c, a in r.terms:
            prod = bx._mult_sparse(m, c, e) if side == "left" \
                else bx._mult_sparse(m, e, c)
            for t, p in prod:
                out[t] = out[t] + a * p
        return tuple(out)
    return f


def _induce_reduced_structure(bx: BoxProduct) -> None:
    K = bx.scalars
    lattice = bx.lattice
    labels = {m: bx.levels[m].reduced_labels for m in lattice.divisors}

    def induced(amb_mat, m_from, m_to):
        return bx.levels[m_from].induced(amb_mat, bx.levels[m_to])

    res = {(mp, m): induced(bx.amb_res[(mp, m)], m, mp)
           for (mp, m) in lattice.covering_pairs}
    tr = {(mp, m): induced(bx.amb_tr[(mp, m)], m, mp)
          for (m, mp) in lattice.covering_pairs}
    weyl = {m: induced(bx.amb_weyl[m], m, m) for m in lattice.divisors}
    mack = MackeyFunctor(K, lattice, labels, res, tr, weyl, name=bx.name)

    mult = {}
    for m in lattice.divisors:
        free = bx.levels[m].free
        table = []
        for fi in free:
            row = []
            for fj in free:
                row.append(bx.reduce(m, bx.mult_gens(m, fi, fj)))
            table.append(row)
        mult[m] = table
    unit = {m: bx.reduce(m, bx.unit_ambient(m)) for m in lattice.divisors}
    bx.green = GreenFunctor(mack, mult, unit, name=bx.name)


def box(M: GreenFunctor, N: GreenFunctor, name: str = "") -> BoxProduct:
    """Absolute box product M □ N (prime or rational scalars)."""
    if not absolute_box_supported(M.scalars):
        raise ValueError("absolute box products need prime or rational "
                         "scalars; use a relative box over the base field")
    return build_box(M, N, name=name)


def box3(M: GreenFunctor, R: GreenFunctor, N: GreenFunctor) -> BoxProduct:
    """Threefold box product computed as (M □ R) □ N."""
    return build_box(box(M, R).green, N,
                     name=f"({M.name}□{R.name})□{N.name}")


def relative_box(T: GreenFunctor, base, name: str = "",
                 check: bool = True) -> BoxProduct:
    """Relative box product T □_base T with components tensored over the
    base field: a field, or a constant Green functor over one, which must be
    the scalar field of T."""
    base_field = base.scalars if isinstance(base, GreenFunctor) else base
    if base_field is not T.scalars:
        raise ValueError("the relative base must be the scalar field of T")
    return build_box(T, T, name=name or f"{T.name}□_{base_field}{T.name}",
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
        bx._amb_labels[m] = labels

    tau = _tensor_mat(K, M.mackey.weyl[1], N.mackey.weyl[1])
    dim1 = M.dim(1) * N.dim(1)
    rows = []
    for t in range(dim1):
        out = bx.place(p, 1, tau.col(t), [K.zero] * bx.amb_dim(p))
        out[bx.offsets[p][1] + t] = out[bx.offsets[p][1] + t] - K.one
        rows.append(tuple(out))
    trM, trN = M.mackey.tr[(p, 1)], N.mackey.tr[(p, 1)]
    rsM, rsN = M.mackey.res[(1, p)], N.mackey.res[(1, p)]
    for i in range(M.dim(1)):
        for j in range(N.dim(p)):
            out = [K.zero] * bx.amb_dim(p)
            ej = unit_vec(K, N.dim(p), j)
            bx.place(p, p, tensor_vec(trM.col(i), ej), out)
            ei = unit_vec(K, M.dim(1), i)
            bx.place(p, 1, vec_scale(-K.one, tensor_vec(ei, rsN.col(j))), out)
            rows.append(tuple(out))
    for i in range(M.dim(p)):
        for j in range(N.dim(1)):
            out = [K.zero] * bx.amb_dim(p)
            ei = unit_vec(K, M.dim(p), i)
            bx.place(p, p, tensor_vec(ei, trN.col(j)), out)
            ej = unit_vec(K, N.dim(1), j)
            bx.place(p, 1, vec_scale(-K.one, tensor_vec(rsM.col(i), ej)), out)
            rows.append(tuple(out))

    bx.levels[1] = PresentedLevel(K, bx._amb_labels[1], [])
    bx.levels[p] = PresentedLevel(K, bx._amb_labels[p], rows)

    # level-1 structure: pure tensors only
    bx.amb_weyl[1] = tau
    bx.amb_weyl[p] = _prime_oracle_weyl_top(bx, M, N, p, tau)
    # tr: classes are tagged copies of level-1 tensors
    cols = [bx.gen_unit(p, bx.offsets[p][1] + t) for t in range(dim1)]
    bx.amb_tr[(p, 1)] = Mat.from_cols(K, cols, bx.amb_dim(p))
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
            cols.append(tensor_vec(rsM.col(i), rsN.col(j)))
        else:
            cols.append(orbit_sum.col(i * N.dim(1) + j))
    bx.amb_res[(1, p)] = Mat.from_cols(K, cols, dim1)

    _attach_prime_oracle_mult(bx, M, N, p, orbit_sum)
    _check_descent(bx)
    _induce_reduced_structure(bx)
    return bx


def _prime_oracle_weyl_top(bx, M, N, p, tau):
    K = bx.scalars
    pure = _tensor_mat(K, M.mackey.weyl[p], N.mackey.weyl[p])
    cols = []
    for (d, i, j) in bx.gens[p]:
        block = pure if d == p else tau
        cols.append(tuple(bx.place(p, d, block.col(i * N.dim(d) + j),
                                   [K.zero] * bx.amb_dim(p))))
    return Mat.from_cols(K, cols, bx.amb_dim(p))


def _attach_prime_oracle_mult(bx, M, N, p, orbit_sum):
    """Closed-form multiplication; installs mult_gens via the cache.
    ``orbit_sum`` is the summed Weyl orbit map on level-1 tensors."""
    K = bx.scalars
    dim1 = M.dim(1) * N.dim(1)

    def level1_mult(t1, t2):
        i, j = divmod(t1, N.dim(1))
        i2, j2 = divmod(t2, N.dim(1))
        return tensor_vec(M.mult[1][i][i2], N.mult[1][j][j2])

    for t1 in range(dim1):
        for t2 in range(dim1):
            bx._mult_cache[(1, t1, t2)] = level1_mult(t1, t2)

    for ca, (d, i, j) in enumerate(bx.gens[p]):
        for cb, (e, i2, j2) in enumerate(bx.gens[p]):
            if d == p and e == p:
                comp, prod = p, tensor_vec(M.mult[p][i][i2], N.mult[p][j][j2])
            elif d == p:
                u = tensor_vec(M.mackey.res[(1, p)].col(i),
                               N.mackey.res[(1, p)].col(j))
                comp, prod = 1, bx.mult_vec(
                    1, u, bx.gen_unit(1, i2 * N.dim(1) + j2))
            elif e == p:
                u = tensor_vec(M.mackey.res[(1, p)].col(i2),
                               N.mackey.res[(1, p)].col(j2))
                comp, prod = 1, bx.mult_vec(
                    1, bx.gen_unit(1, i * N.dim(1) + j), u)
            else:
                orbit = orbit_sum.col(i2 * N.dim(1) + j2)
                comp, prod = 1, bx.mult_vec(
                    1, bx.gen_unit(1, i * N.dim(1) + j), orbit)
            bx._mult_cache[(p, ca, cb)] = tuple(
                bx.place(p, comp, prod, [K.zero] * bx.amb_dim(p)))


# ---------------------------------------------------------------------------
# oracle 2: coequalizer of the threefold box along the two base actions


def coequalizer_oracle(T: GreenFunctor, base) -> BoxProduct:
    """Relative box as the coequalizer of T □ base^c □ T ⇉ T □ T.

    The two maps multiply the middle constant factor into the left or the
    right tensor factor; the quotient of T □ T by the image of their
    difference must agree with the direct relative construction whenever the
    base is a prime field or Q.
    """
    base_field = base.scalars if isinstance(base, GreenFunctor) else base
    if base_field is not T.scalars:
        raise ValueError("the base must equal the scalar field of T")
    Kc = base if isinstance(base, GreenFunctor) \
        else constant_functor(base_field, T.lattice)
    inner = box(T, Kc)
    b3 = box(inner.green, T)
    # T □ T: its relation span is where the action maps must descend, and
    # its ambient carries the quotient
    b2 = box(T, T)
    K = T.scalars

    def act_left(m, d, wi, yj):
        """Middle factor into the left: [x⊗k]_e^d ⊗ y ↦ tr(kx) ⊗ y."""
        (e, i, _) = inner.gens[d][inner.levels[d].free[wi]]
        if e == d:
            return b2.gen_unit(m, b2.gen_index(m, d, i, yj))
        image = tensor_vec(T.mackey.tr_mat(d, e).col(i),
                           unit_vec(K, T.dim(d), yj))
        return tuple(b2.place(m, d, image, [K.zero] * b2.amb_dim(m)))

    def act_right(m, d, wi, yj):
        """Middle factor into the right, rewriting the inner class through
        Frobenius reciprocity first: [x⊗k]_e^d ⊗ y ≡ [x⊗k ⊗ res(y)]_e."""
        (e, i, _) = inner.gens[d][inner.levels[d].free[wi]]
        if e == d:
            return b2.gen_unit(m, b2.gen_index(m, d, i, yj))
        image = tensor_vec(unit_vec(K, T.dim(e), i),
                           T.mackey.res_mat(e, d).col(yj))
        return tuple(b2.place(m, e, image, [K.zero] * b2.amb_dim(m)))

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
            b3.levels[m].check_map(
                mat.apply, lvl,
                f"coequalizer action map ({side}) fails to descend at "
                f"level {m}")
        # the extra rows are the columns of ml - mr; zero rows drop out
        co.levels[m] = PresentedLevel(K, lvl.labels, lvl.relations
                                      + list((ml - mr).transpose().rows))
    _check_descent(co)
    _induce_reduced_structure(co)
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
    generator permutation; every mismatch of ambient size, labels, relation
    span or reduced size is appended to ``diffs`` instead.  The dense
    permutation matrices die here, before the Green-morphism check that
    is the memory peak of a comparison."""
    moves = {}     # m -> P, moving b1's generator t to b2's generator idx[t]
    for m in b1.lattice.divisors:
        if b1.amb_dim(m) != b2.amb_dim(m):
            diffs.append(f"level {m}: ambient dimensions differ")
            continue
        if gen_map is None:
            if b1._amb_labels[m] != b2._amb_labels[m]:
                diffs.append(f"level {m}: generator labels differ")
            idx = range(b1.amb_dim(m))
        else:
            idx = [b2.gens[m].index(gen_map(m, g)) for g in b1.gens[m]]
        P = moves[m] = Mat.from_cols(
            b1.scalars, [b2.gen_unit(m, t) for t in idx], b2.amb_dim(m))
        l1, l2 = b1.levels[m], b2.levels[m]
        # a permutation: its transpose moves b2's generators back
        for src, mat, target, way in ((l1, P, l2, "1 vs 2"),
                                      (l2, P.transpose(), l1, "2 vs 1")):
            try:
                src.check_map(mat.apply, target,
                              f"level {m}: relation span differs ({way})")
            except InternalCheckError as exc:
                diffs.append(str(exc))
        if b1.dim(m) != b2.dim(m):
            diffs.append(f"level {m}: reduced dimensions differ "
                         f"({b1.dim(m)} vs {b2.dim(m)})")
    if diffs:
        return {}
    return {m: b1.levels[m].induced(P, b2.levels[m])
            for m, P in moves.items()}


def swap_isomorphic(bMN: BoxProduct, bNM: BoxProduct):
    """Discrepancies of M□N against N□M under the factor swap."""
    return compare_boxes(bMN, bNM,
                         gen_map=lambda m, g: (g[0], g[2], g[1]))


def norm_on_c2_box(bx: BoxProduct, vec, term_order=None):
    """Tambara norm from the underlying to the fixed level of a C_2 box.

    Expands ``vec`` (reduced level-1 coordinates) into pure-tensor summands
    and folds the sum rule norm(x+y) = norm(x) + norm(y) + tr(x·τy); pure
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
        out = [K.zero] * bx.amb_dim(2)
        bx.place(2, 2, tensor_vec(nl, nr), out)
        return tuple(out)

    def fold(items):
        if not items:
            return vec_zero(K, bx.amb_dim(2))
        if len(items) == 1:
            return norm_single(*items[0])
        head, rest = items[0], items[1:]
        v1 = [K.zero] * bx.amb_dim(1)
        v1[head[0]] = head[1]
        vr = [K.zero] * bx.amb_dim(1)
        for idx, c in rest:
            vr[idx] = c
        cross = bx.mult_vec(1, tuple(v1),
                            bx.amb_weyl[1].apply(tuple(vr)))
        return vec_add(vec_add(norm_single(*head), fold(rest)),
                       bx.amb_tr[(2, 1)].apply(cross))

    return bx.reduce(2, fold(terms))
