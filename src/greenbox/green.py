"""Green-functor structure and Tambara norms for constant and fixed-point
functors over C_n.

A GreenFunctor wraps a MackeyFunctor with a commutative levelwise
multiplication and a unit.  The multiplication is stored in one form, the
raw terms of the product of each pair of basis vectors per level (see
``linalg``), and read through ``terms``: every product is
``linalg.bilinear_terms`` on raw terms.  Norms are evaluation procedures,
never matrices: they are multiplicative but not additive, and they map the
raw terms of a vector to a reduced raw list.  The axiom checks compare
reduced raw lists only.  The two families the engine constructs directly:

* constant functor of a finite commutative algebra R: every level is R,
  restriction is the identity, transfer from level m to m' multiplies by the
  index m'/m, the Weyl action is trivial, and the norm raises to the power
  m'/m.
* fixed-point functor of a cyclic extension: level m is the fixed subfield
  L^{C_m}, restriction is inclusion, transfer and norm are the sum and the
  product over coset representatives, and the Weyl generator acts through σ.
"""

from __future__ import annotations

from operator import ne

from .algebras import FiniteAlgebra, base_as_algebra
from .extensions import GaloisExtension, format_l_element
from .fields import Field
from .linalg import Mat, bilinear_terms, left_inverse, raw_terms, unit_vec
from .mackey import (InternalCheckError, MackeyFunctor, MackeyMorphism,
                     SubgroupLattice, Violation, fix_of_module, solve_in,
                     subgroup_lattice)


class GreenFunctor:
    """Mackey functor plus levelwise commutative multiplication and unit.

    ``products[m][i][j]`` holds the raw terms of the product of basis
    vectors i and j at level m; ``unit[m]`` is the unit vector.  ``norms``
    (optional) evaluates the multiplicative transfer.
    """

    def __init__(self, mackey: MackeyFunctor, products, unit, norms=None,
                 name: str = "", level_embed=None):
        self.mackey = mackey
        self._products = products
        self.unit = unit
        self.norms = norms
        self.name = name or mackey.name
        self.level_embed = level_embed  # optional LevelEmbeddings

    # pass-throughs
    @property
    def scalars(self):
        return self.mackey.scalars

    @property
    def lattice(self):
        return self.mackey.lattice

    def dim(self, m):
        return self.mackey.dim(m)

    def labels(self, m):
        return self.mackey.labels[m]

    def terms(self, m):
        """The level-m product terms: entry [i][j] is the raw terms of
        e_i·e_j."""
        return self._products[m]

    def norm(self, to: int, frm: int, terms):
        """The reduced raw list of the norm along frm | to of the level-frm
        vector with raw terms ``terms``."""
        if self.norms is None:
            raise InternalCheckError(f"{self.name} carries no norm rule")
        return self.norms.apply_terms(to, frm, terms)

    def __repr__(self):
        return f"GreenFunctor({self.name})"


class NormRule:
    """Multiplicative transfer along frm | to; subclasses implement
    ``apply_terms``, from the raw terms of a level-frm vector to the reduced
    raw list of its norm at level to."""

    def apply_terms(self, to: int, frm: int, terms):
        raise NotImplementedError


class ConstantNorm(NormRule):
    """The power x^(to/frm) in the algebra, from its unit up."""

    def __init__(self, algebra: FiniteAlgebra):
        self.algebra = algebra

    def apply_terms(self, to, frm, terms):
        if to % frm:
            raise ValueError("norm must go up the lattice")
        A = self.algebra
        out = A.base.lift(A.one)
        for _ in range(to // frm):
            out = bilinear_terms(A.base, A.terms, raw_terms(out), terms)
        return out


class LevelEmbeddings(dict):
    """The embeddings {m: Mat} of a functor's levels into an algebra, which
    also read the level-m coordinates of a vector of the algebra: through
    one ``linalg.left_inverse`` per level, built on first use."""

    def __init__(self, embeds):
        super().__init__(embeds)
        self._left = {}

    def coords(self, m: int, v):
        """The reduced raw coordinates of the reduced raw vector v in the
        basis of level m, or None if v does not lie in that level: the
        left inverse reads them, and they must embed back to v."""
        embed = self[m]
        if m not in self._left:
            self._left[m] = left_inverse(embed)
        x = self._left[m].apply_terms(raw_terms(v))
        return x if embed.apply_terms(raw_terms(x)) == list(v) else None


class FixNorm(NormRule):
    """Product over coset representatives σ^(j n / to), j < to/frm, in L,
    read back into level to through its ``LevelEmbeddings.coords``."""

    def __init__(self, ext: GaloisExtension, embeds: LevelEmbeddings):
        self.ext = ext
        self.embeds = embeds

    def apply_terms(self, to, frm, terms):
        if to % frm:
            raise ValueError("norm must go up the lattice")
        E = self.ext
        K, n, alg = E.base, E.degree, E.algebra
        x = raw_terms(self.embeds[frm].apply_terms(terms))
        out = K.lift(alg.one)
        for j in range(to // frm):
            y = E.sigma_pow(j * (n // to)).apply_terms(x)
            out = bilinear_terms(K, alg.terms, raw_terms(out), raw_terms(y))
        coords = self.embeds.coords(to, out)
        if coords is None:
            raise InternalCheckError(
                "norm image escaped the fixed subfield",
                witness=f"column 0: ({', '.join(map(str, K.fold(out)))})")
        return coords


# ---------------------------------------------------------------------------
# the two basic Tambara functors


def constant_functor(R, n_or_lattice) -> GreenFunctor:
    """Constant Green/Tambara functor of a field or finite algebra R."""
    lattice = n_or_lattice if isinstance(n_or_lattice, SubgroupLattice) \
        else subgroup_lattice(n_or_lattice)
    algebra = base_as_algebra(R) if isinstance(R, Field) else R
    K = algebra.base
    dim = algebra.dim
    labels = {m: list(algebra.labels) for m in lattice.divisors}
    ident = Mat.identity(K, dim)
    res = {(d, m): ident for (d, m) in lattice.covering_pairs}
    tr = {(m, d): ident.scale(K.from_int(m // d))
          for (d, m) in lattice.covering_pairs}
    weyl = {m: ident for m in lattice.divisors}
    mack = MackeyFunctor(K, lattice, labels, res, tr, weyl,
                         name=f"{algebra.name}^c")
    products = {m: algebra.terms for m in lattice.divisors}
    unit = {m: algebra.one for m in lattice.divisors}
    return GreenFunctor(mack, products, unit, norms=ConstantNorm(algebra))


def fix_functor(E: GaloisExtension) -> GreenFunctor:
    """Fixed-point Green/Tambara functor of a cyclic extension K ⊂ L: the
    fixed-point Mackey functor of L under σ (``fix_of_module``), with its
    basis written as elements of L and the products of L."""
    K, n = E.base, E.degree
    lattice = subgroup_lattice(n)
    alg = E.algebra
    fpm = fix_of_module(K, lattice, E.sigma)
    embeds, maps = LevelEmbeddings(fpm.embeds), fpm.functor
    labels = {m: [format_l_element(E, v) for v in embeds[m].cols()]
              for m in lattice.divisors}
    mack = MackeyFunctor(K, lattice, labels, maps.res, maps.tr, maps.weyl,
                         name=f"{alg.name}^fix")
    products = {}
    for m in lattice.divisors:
        basis = embeds[m].col_terms()
        prods = [bilinear_terms(K, alg.terms, u, v)
                 for u in basis for v in basis]
        cols = solve_in(embeds[m], Mat._from_raw(K, tuple(zip(*prods)),
                                                 len(prods)),
                        "fixed subfield is not closed under multiplication"
                        ).col_terms()
        dim = len(basis)
        products[m] = [list(cols[i * dim:(i + 1) * dim]) for i in range(dim)]
    unit = {m: solve_in(embeds[m], Mat.from_cols(K, [alg.one], n),
                        "the fixed subfield does not contain 1").col(0)
            for m in lattice.divisors}
    return GreenFunctor(mack, products, unit, norms=FixNorm(E, embeds),
                        level_embed=embeds)


# ---------------------------------------------------------------------------
# axiom checking


def check_green(G: GreenFunctor):
    """Exhaustive Green-functor checks on basis tuples; returns violations.
    Every side is a reduced raw list: products are ``bilinear_terms`` on
    raw terms and maps are ``apply_terms``.  Each level's products of basis
    pairs are formed once, into one local table of their raw terms."""
    out = []
    lat = G.lattice
    K = G.scalars
    one = K.raw_one

    prod_terms = {}
    for m in lat.divisors:
        dim, terms = G.dim(m), G.terms(m)
        e = [((i, one),) for i in range(dim)]
        unit = K.lift(G.unit[m])
        ut = raw_terms(unit)
        pt = prod_terms[m] = [[raw_terms(bilinear_terms(K, terms, ei, ej))
                               for ej in e] for ei in e]
        for i in range(dim):
            if bilinear_terms(K, terms, ut, e[i]) != \
                    K.lift(unit_vec(K, dim, i)):
                out.append(Violation("unit", {"level": m, "basis": i}, G.name))
        for i in range(dim):
            for j in range(i, dim):
                if pt[i][j] != pt[j][i]:
                    out.append(Violation("commutativity",
                                         {"level": m, "pair": (i, j)}, G.name))
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    lhs = bilinear_terms(K, terms, pt[i][j], e[k])
                    rhs = bilinear_terms(K, terms, e[i], pt[j][k])
                    if lhs != rhs:
                        out.append(Violation(
                            "associativity", {"level": m, "triple": (i, j, k)},
                            G.name))
        wm = G.mackey.weyl[m]
        wc = wm.col_terms()
        for i in range(dim):
            for j in range(dim):
                lhs = wm.apply_terms(pt[i][j])
                rhs = bilinear_terms(K, terms, wc[i], wc[j])
                if lhs != rhs:
                    out.append(Violation("weyl_ring_automorphism",
                                         {"level": m, "pair": (i, j)}, G.name))
        if wm.apply_terms(ut) != unit:
            out.append(Violation("weyl_unit", {"level": m}, G.name))

    for (d, m) in lat.covering_pairs:
        res = G.mackey.res[(d, m)]
        tr = G.mackey.tr[(m, d)]
        rc, tc = res.col_terms(), tr.col_terms()
        td, tm = G.terms(d), G.terms(m)
        if res.apply_terms(raw_terms(K.lift(G.unit[m]))) != K.lift(G.unit[d]):
            out.append(Violation("res_unit", {"pair": (d, m)}, G.name))
        dim_m, dim_d = G.dim(m), G.dim(d)
        for i in range(dim_m):
            for j in range(dim_m):
                lhs = res.apply_terms(prod_terms[m][i][j])
                rhs = bilinear_terms(K, td, rc[i], rc[j])
                if lhs != rhs:
                    out.append(Violation("res_ring_map",
                                         {"pair": (d, m), "basis": (i, j)},
                                         G.name))
        # Frobenius reciprocity: tr(x)·y = tr(x·res(y))
        for i in range(dim_d):
            for j in range(dim_m):
                lhs = bilinear_terms(K, tm, tc[i], ((j, one),))
                rhs = tr.apply_terms(raw_terms(
                    bilinear_terms(K, td, ((i, one),), rc[j])))
                if lhs != rhs:
                    out.append(Violation("frobenius_reciprocity",
                                         {"pair": (d, m), "basis": (i, j)},
                                         G.name))
    return out


def check_norms(G: GreenFunctor):
    """Norm invariants on basis vectors: multiplicativity, unit, and
    norm(res(x)) = x^(index), on reduced raw lists as ``check_green``
    compares them.  Per covering pair each distinct argument is normed
    once: e_i·e_j, e_i, the unit and res(e_i) often coincide."""
    out = []
    if G.norms is None:
        return out
    lat = G.lattice
    K = G.scalars
    one = K.raw_one
    for (d, m) in lat.covering_pairs:
        memo = {}

        def norm(v):
            key = tuple(v)
            if key not in memo:
                memo[key] = G.norm(m, d, raw_terms(key))
            return memo[key]

        dim_d, td, tm = G.dim(d), G.terms(d), G.terms(m)
        e = [((i, one),) for i in range(dim_d)]
        basis = [K.lift(unit_vec(K, dim_d, i)) for i in range(dim_d)]
        for i in range(dim_d):
            for j in range(dim_d):
                lhs = norm(bilinear_terms(K, td, e[i], e[j]))
                rhs = bilinear_terms(K, tm, raw_terms(norm(basis[i])),
                                     raw_terms(norm(basis[j])))
                if lhs != rhs:
                    out.append(Violation("norm_multiplicative",
                                         {"pair": (d, m), "basis": (i, j)},
                                         G.name))
        unit = K.lift(G.unit[m])
        if norm(K.lift(G.unit[d])) != unit:
            out.append(Violation("norm_unit", {"pair": (d, m)}, G.name))
        res = G.mackey.res[(d, m)]
        for i in range(G.dim(m)):
            power = unit
            for _ in range(m // d):
                power = bilinear_terms(K, tm, raw_terms(power), ((i, one),))
            if norm(res.apply_terms(((i, one),))) != power:
                out.append(Violation("norm_of_restriction",
                                     {"pair": (d, m), "basis": i}, G.name))
    return out


def check_green_morphism(source: GreenFunctor, target: GreenFunctor,
                         components, name: str = ""):
    """Violations of levelwise maps being a morphism of Green functors:
    those of MackeyMorphism.check, then per level at most one
    multiplication violation and the unit.

    φ(e_i·e_j) = φ(e_i)·φ(e_j) is compared for every ordered basis pair
    (i, j) on reduced raw lists: ``apply_terms`` of φ on the source's
    product terms against ``bilinear_terms`` of φ's column terms through
    the target's.

    Only a non-identity component takes that path.  At a level whose
    component is a known identity (``Mat.identity``), φ(e_i·e_j) = e_i·e_j
    and φ(e_i)·φ(e_j) = e_i·e_j in the target, so the two product tables
    and the two units are compared by equality; the structure maps already
    are, through the ``@`` identity shortcut.  Every φ the pipeline builds
    is ``Mat.identity`` (``compare_boxes`` and the unit law), and fuzz-c5
    runs about 9% slower without this shortcut.  It relies on each
    product's terms being one tuple of sorted, reduced, nonzero
    ``(index, scalar)`` pairs, which every functor the pipeline builds
    keeps.  The violations, their locations and their order are those of
    the general path."""
    out = MackeyMorphism(source.mackey, target.mackey, components,
                         name=name).check()
    K = source.scalars
    for m in source.lattice.divisors:
        phi = components[m]
        src, tgt = source.terms(m), target.terms(m)
        if phi.known_identity:
            mult_differs = any(any(map(ne, s, t)) for s, t in zip(src, tgt))
            image = tuple(source.unit[m])
        else:
            cols = phi.col_terms()
            mult_differs = any(
                phi.apply_terms(src[i][j])
                != bilinear_terms(K, tgt, cols[i], cols[j])
                for i in range(len(cols)) for j in range(len(cols)))
            image = phi.apply(source.unit[m])
        if mult_differs:
            out.append(Violation("morphism_mult", {"level": m}, name))
        if image != target.unit[m]:
            out.append(Violation("morphism_unit", {"level": m}, name))
    return out


def zero_green(M: MackeyFunctor) -> GreenFunctor:
    """Wrap a bare Mackey functor with the zero multiplication.

    Lets Mackey-only data flow through machinery that formally expects a
    Green functor (box-product comparisons of random functors); the ring
    checks are meaningless on the result and are not run.  Every product
    has no terms."""
    divs = M.lattice.divisors
    products = {m: [[()] * M.dim(m) for _ in range(M.dim(m))] for m in divs}
    unit = {m: (M.scalars.zero,) * M.dim(m) for m in divs}
    return GreenFunctor(M, products, unit, name=f"{M.name} (zero mult)")
