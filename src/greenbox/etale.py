"""Multiplication-kernel ideals and Green étaleness verdicts.

For a relative box B = T □_K T the multiplication morphism sends pure
tensors to products and a class [z]_d^m to tr(mult(z)); its levelwise kernel
is the ideal I.  Green étaleness asks for I = I² at every level (then the
Kähler differentials I/I² vanish) together with a projectivity certificate.
Everything reduces to exact rank and membership computations; there are no
tolerances anywhere.

The classical (nonequivariant) étale oracle anchors the free level: it
tests I = I² and seeks a separability idempotent in L ⊗_K L, from L's own
product terms.  For Kummer extensions the kernel generators
q·(1 ⊗ α^{td}) − [α^{id} ⊗ α^{(t-i)d}]_d^m and their product/congruence
identities are verified wholesale by ``kummer_congruence_checks``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .algebras import FiniteAlgebra, tensor_algebra
from .boxes import BoxProduct, relative_box
from .extensions import GaloisExtension
from .fields import Field
from .green import constant_functor
from .linalg import Mat, Span, bilinear_terms, dense_raw, kernel_raw, \
    kron_terms, nonzero_terms, rank, raw_terms, reduce_sums
from .mackey import InternalCheckError, MackeyMorphism
from .modules import constant_box_iso
from .presented import PresentedLevel, format_element


# ---------------------------------------------------------------------------
# the multiplication morphism


def mult_map(bx: BoxProduct) -> MackeyMorphism:
    """Multiplication morphism from a box of T with itself onto T.

    Pure tensors multiply; a class [z]_d^m maps to tr_{m<-d}(mult_d(z)),
    each image the transfer of T's product terms, as raw terms.  Descent
    to the quotient and compatibility with res/tr/weyl are asserted.
    """
    T = bx.left
    if bx.right is not T:
        raise ValueError("mult_map needs a box of T with itself")
    K = bx.scalars
    comps = {}
    for m in bx.lattice.divisors:
        images = [raw_terms(T.mackey.tr_mat(m, d).apply_terms(
            T.terms(d)[i][j])) for (d, i, j) in bx.gens[m]]
        lvl, onto = bx.levels[m], PresentedLevel(K, T.labels(m), [])
        comps[m] = lvl.descend(images.__getitem__, onto, "multiplication "
                               f"map does not kill relations at level {m}")
    morphism = MackeyMorphism(bx.green.mackey, T.mackey, comps, name="mult")
    bad = morphism.check()
    if bad:
        raise InternalCheckError(
            "multiplication is not a Mackey morphism", witness=str(bad[0]))
    return morphism


def unit_section_check(bx: BoxProduct, mm: MackeyMorphism) -> bool:
    """mult ∘ (x ↦ x·unit-tensor) must be the identity on T levelwise: each
    e_i ⊗ unit is projected from its raw terms at the pure component, and
    its image under mult must be e_i."""
    T = bx.left
    K, one = bx.scalars, bx.scalars.raw_one
    for m in bx.lattice.divisors:
        unit, mult = nonzero_terms(K, T.unit[m]), mm.components[m]
        for i in range(T.dim(m)):
            x = bx.levels[m].project(kron_terms(
                ((i, one),), unit, T.dim(m), bx.offsets[m][m]).items())
            if raw_terms(mult.apply_terms(raw_terms(x))) != ((i, one),):
                return False
    return True


# ---------------------------------------------------------------------------
# ideal and square


@dataclass
class IdealData:
    ideal: dict            # m -> list of reduced basis vectors of I
    square: dict           # m -> list of reduced basis vectors of I^2
    quotient_dims: dict    # m -> dim I/I^2
    verdicts: dict         # m -> bool (I == I^2)


def ideal_and_square(bx: BoxProduct, mm: MackeyMorphism) -> IdealData:
    """Kernel I of the multiplication map μ and the span of its pairwise
    products, per level, with I² ⊆ I asserted.  I's basis is asserted to
    be ker μ, so every product (``bilinear_terms`` over the box's reduced
    product terms, raw) is tested by μ(b·u) = 0; once I²'s span has I's
    dimension it equals I, and later products are tested, not inserted."""
    K = bx.scalars
    ideal, square, qdims, verdicts = {}, {}, {}, {}
    for m in bx.lattice.divisors:
        mu, lab = mm.components[m], bx.levels[m].reduced_labels
        vs, raw = _kernel(mu, f"at level {m}")
        ideal[m] = basis = [K.fold(v) for v in vs]
        terms, span_sq = bx.green.terms(m), Span(K, bx.dim(m))
        for i, x in enumerate(raw):
            for j in range(i, len(raw)):
                prod = bilinear_terms(K, terms, x, raw[j])
                if any(mu.apply_terms(raw_terms(prod))):
                    raise InternalCheckError(
                        f"I² is not contained in I at level {m}",
                        witness=f"({format_element(K, basis[i], lab)})·"
                        f"({format_element(K, basis[j], lab)}) = "
                        f"{format_element(K, K.fold(prod), lab)}")
                if span_sq.dim < len(raw):
                    span_sq._insert(prod)
        square[m] = span_sq.basis()
        qdims[m] = len(raw) - span_sq.dim
        verdicts[m] = len(raw) == span_sq.dim
    return IdealData(ideal, square, qdims, verdicts)


def _kernel(mu: Mat, where: str):
    """``kernel_raw(mu)`` and its raw terms, asserted to be ker μ: μ is 0
    on each of its dim − rank μ vectors, each a 1 at its own free column."""
    basis = kernel_raw(mu)
    raw = [raw_terms(v) for v in basis]
    if len(raw) != mu.ncols - rank(mu) or any(any(mu.apply_terms(x))
                                              for x in raw):
        raise InternalCheckError(f"the kernel basis {where} is not ker μ")
    return basis, raw


# ---------------------------------------------------------------------------
# classical étale oracle


@dataclass
class ClassicalEtaleReport:
    tensor_dim: int
    ideal_dim: int
    square_dim: int
    etale: bool
    separability_unit: tuple | None

    @property
    def has_separability_unit(self) -> bool:
        return self.separability_unit is not None


def classical_etale_oracle(E: GaloisExtension) -> ClassicalEtaleReport:
    """Étaleness of K ⊂ L: I = I² in L ⊗_K L, and some e in I is 1 on I."""
    return classical_etale_of_algebra(E.algebra)


def classical_etale_of_algebra(alg: FiniteAlgebra) -> ClassicalEtaleReport:
    """The classical oracle on raw scalars, materialising nothing: I = ker μ,
    μ being L's product terms as an n × n² matrix, and each product b·u
    (b ≤ u in I's basis order) is tested by μ(b·u) = 0 and inserted into
    I²'s span until that span has I's dimension."""
    K, n, N, terms = alg.base, alg.dim, alg.dim ** 2, alg.terms
    mu = Mat._from_terms(K, [t for row in terms for t in row], n, cols=True)
    vs, raw = _kernel(mu, "in L ⊗_K L")
    span_sq = Span(K, N)
    for i, b in enumerate(raw):
        for j in range(i, len(raw)):
            prod = _tensor_product(K, terms, n, b, raw[j])
            if any(mu.apply_terms(prod)):
                lab = [f"{x}⊗{y}" for x in alg.labels for y in alg.labels]
                raise InternalCheckError(
                    "I² is not contained in I in L ⊗_K L",
                    witness=f"({format_element(K, K.fold(vs[i]), lab)})·"
                    f"({format_element(K, K.fold(vs[j]), lab)}) = "
                    f"{format_element(K, K.fold(dense_raw(K, prod, N)), lab)}")
            if span_sq.dim < len(raw):
                span_sq._insert(dense_raw(K, prod, N))
    unit = _separability_unit(K, terms, n, raw) if raw else None
    return ClassicalEtaleReport(N, len(raw), span_sq.dim,
                                len(raw) == span_sq.dim, unit)


def _tensor_product(K, terms, n, xs, ys):
    """The sorted reduced raw terms of x·y in L ⊗_K L (e_a ⊗ e_b at a·n + b)
    from those of x and y, by (e_a ⊗ e_b)(e_c ⊗ e_d) = e_a·e_c ⊗ e_b·e_d."""
    acc = {}
    for p, x in xs:
        left, right = terms[p // n], terms[p % n]
        for q, y in ys:
            for a, s in left[q // n]:
                c = x * y * s
                for b, t in right[q % n]:
                    k = a * n + b
                    acc[k] = acc[k] + c * t if k in acc else c * t
    return reduce_sums(K, [acc])[0]


def _separability_unit(K, terms, n, raw):
    """The e = Σ c_i b_i with e·u = u on I, or None.  Rows (u_j, k) of
    Σ_i c_i (b_i·u_j)_k = (u_j)_k enter a ``Span`` in order, a column of
    b_i·u_j at a time, until c has full rank (then each row, coordinate k
    of e·u_j − u_j, is checked by e·u_j = u_j) or a row is inconsistent."""
    d, zero, span = len(raw), K.raw_zero, Span(K, len(raw) + 1)
    cols = ([dict(_tensor_product(K, terms, n, b, u)) for b in raw]
            + [dict(u)] for u in raw)
    for row in ([c.get(k, zero) for c in col] for col in cols
                for k in range(n * n)):
        if span._insert(row) and span._pivots[-1] >= d:
            return None
        if span.dim == d:
            break
    span._full()
    acc = {}
    for row, p in zip(span._rows, span._pivots):
        kron_terms(((0, row[d]),), raw[p], 0, into=acc)
    e, = reduce_sums(K, [acc])
    if span.dim == d and any(_tensor_product(K, terms, n, e, u) != u
                             for u in raw):
        return None
    return K.fold(dense_raw(K, e, n * n))


# ---------------------------------------------------------------------------
# Kummer kernel generators and their congruences


def ideal_generator(bx: BoxProduct, E: GaloisExtension, i: int, t: int,
                    d: int, m: int):
    """Reduced coordinates of q·(1 ⊗ α^{td}) − [α^{id} ⊗ α^{(t-i)d}]_d^m,
    where q = m/d; requires q | t and 0 <= i <= t.  Lies in the kernel of
    the multiplication map (asserted by callers)."""
    lat = bx.lattice
    lat.check_divisor(m)
    lat.check_divisor(d)
    if m % d:
        raise ValueError("the class origin d must divide the level m")
    q = m // d
    if t % q or not (0 <= i <= t):
        raise ValueError("need q | t and 0 <= i <= t")
    return bx.scalars.fold(AlphaPowers(bx, E).generator(m, d, i, t))


class AlphaPowers:
    """The coordinates of α^e in the level-d fixed subfield of a relative
    box's factor, each (level, exponent) pair read once through the
    factor's ``level_embed.coords`` and kept as raw terms, and the reduced
    raw vectors of a level built from their tensors."""

    def __init__(self, bx: BoxProduct, E: GaloisExtension):
        self.bx = bx
        self.E = E
        self._terms = {}

    def terms(self, d: int, e: int):
        """The raw terms of α^e in the basis of the level-d subfield;
        ValueError if it does not lie there."""
        key = (d, e)
        if key not in self._terms:
            E = self.E
            coords = self.bx.left.level_embed.coords(
                d, E.base.lift(E.alpha_power(e)))
            self._terms[key] = None if coords is None else raw_terms(coords)
        terms = self._terms[key]
        if terms is None:
            raise ValueError(
                f"α^{e} does not lie in the level-{d} subfield")
        return terms

    def project(self, m: int, parts):
        """The reduced raw vector of level m of Σ s·(α^{e1} ⊗ α^{e2}) over
        ``parts`` (s, e1, e2, origin): s an integer, each tensor at its
        origin's component.  The unreduced tensor terms are summed and
        reduced once by the level's ``project``."""
        bx = self.bx
        K = bx.scalars
        terms = []
        for s, e1, e2, d in parts:
            c = _raw_int(K, s)
            off, width = bx.offsets[m][d], bx.right.dim(d)
            terms += [(off + a * width + b, c * x * y)
                      for a, x in self.terms(d, e1)
                      for b, y in self.terms(d, e2)]
        return bx.levels[m].project(terms)

    def generator(self, m: int, d: int, i: int, t: int):
        """``ideal_generator`` x[i,t] of origin d at level m, as a reduced
        raw vector; the parameters are not checked."""
        return self.project(m, ((m // d, 0, t * d, m),
                                (-1, i * d, (t - i) * d, d)))


def _raw_int(K, s: int):
    """The raw scalar of the integer s in K."""
    return K.lift((K.from_int(s),))[0]


@dataclass
class CongruenceReport:
    checks_run: int = 0
    failures: list = field(default_factory=list)
    labels: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, label: str):
        self.checks_run += 1
        self.labels.append(label)
        if not ok:
            self.failures.append(label)


def kummer_congruence_checks(bx: BoxProduct, E: GaloisExtension,
                             data: IdealData) -> CongruenceReport:
    """Verify the kernel-generator identities of a Kummer relative box.

    Per level m and origin d < m (q = m/d, writing x[i,t] for the generator
    with parameters i, t):

    * x[i,t] lies in I;
    * x[0,t] = 0 exactly; x[t,t] = q·(1⊗α^{td} − α^{td}⊗1) exactly, hence
      lies in the pure-part kernel and in I²;
    * x[i+n/d, t] = x[i,t] (when i+n/d <= t; the unit a picked up by the
      first slot cancels against the second) and x[i+n/d, t+n/d] = a·x[i,t];
    * x[i,t]·x[i',t'] = q·(x[i,t+t'] + x[i',t+t'] − x[i+i',t+t']), exactly;
    * x[i,t] ≡ x[i+q,t] and x[i,t] ≡ i·x[1,t] mod I²;
    * ma − [α ⊗ α^{n-1}]_1^m lies in I, kernel-of-restriction elements z
      satisfy z·(ma − [α ⊗ α^{n-1}]) = ma·z, and ker(res to the free level)
      is contained in I².

    Every vector is a reduced raw list (x[i,t], w and the kernel of res,
    from ``kernel_raw``); products are ``bilinear_terms`` over the box's
    reduced product terms, and memberships are tested raw.

    On the relative box of L^fix the kernel of res is zero, so the three
    kernel-of-restriction checks record nothing: the box is isomorphic to
    the fixed-point functor of L ⊗_K L under σ⊗σ (the fixed-point functor
    is lax monoidal, and L is a free K[C_n]-module by the normal basis
    theorem), and under that isomorphism res_{1←m} is the inclusion of the
    C_m-fixed points of L ⊗_K L, which is injective.  The checks stay, as
    stated identities, for a box whose restriction has a kernel.
    """
    rep = CongruenceReport()
    powers = AlphaPowers(bx, E)
    K = bx.scalars
    n = E.degree
    a, = K.lift((E.a,))
    for m in bx.lattice.divisors:
        if m == 1:
            continue
        span_i = Span(K, bx.dim(m), data.ideal[m])
        span_sq = Span(K, bx.dim(m), data.square[m])
        terms = bx.green.terms(m)

        def product(u, v):
            return bilinear_terms(K, terms, raw_terms(u), raw_terms(v))

        # the auxiliary element w = ma − [α ⊗ α^{n−1}]_1^m
        w = powers.project(m, ((m, 0, n, m), (-1, 1, n - 1, 1)))
        rep.record(span_i._contains(w), f"level {m}: ma−[α⊗α^{n-1}] in I")

        # kernel of the restriction to the free level
        ma = _raw_int(K, m) * a
        for z in kernel_raw(bx.green.mackey.res_mat(1, m)):
            rep.record(span_i._contains(z),
                       f"level {m}: ker res ⊆ I")
            rep.record(span_sq._contains(z),
                       f"level {m}: ker res ⊆ I²")
            rep.record(product(z, w) == K.reduce([ma * c for c in z]),
                       f"level {m}: z·(ma−[α⊗α^{n-1}]) = ma·z")

        for d in bx.lattice.divisors:
            if m % d or d == m:
                continue
            q = m // d
            tmax = 2 * (n // d)
            ts = [t for t in range(q, tmax + 1, q)]

            # the checks below use each generator several times; build it once
            @functools.cache
            def x(i, t):
                return powers.generator(m, d, i, t)

            def sq_contains(u, c, v):
                """Whether u − c·v lies in I²."""
                c = _raw_int(K, c)
                return span_sq._contains(K.reduce([
                    s - c * r for s, r in zip(u, v)]))

            for t in ts:
                for i in range(0, t + 1):
                    rep.record(span_i._contains(x(i, t)),
                               f"level {m}, d={d}: x[{i},{t}] in I")
                rep.record(not any(x(0, t)),
                           f"level {m}, d={d}: x[0,{t}] = 0")
                swap_comm = powers.project(m, ((q, 0, t * d, m),
                                               (-q, t * d, 0, m)))
                rep.record(x(t, t) == swap_comm,
                           f"level {m}, d={d}: x[{t},{t}] = "
                           f"q·(1⊗α^td − α^td⊗1)")
                rep.record(span_sq._contains(x(t, t)),
                           f"level {m}, d={d}: x[{t},{t}] in I²")
                for i in range(0, t + 1):
                    if i + n // d <= t:
                        rep.record(
                            x(i + n // d, t) == x(i, t),
                            f"level {m}, d={d}: x[i+n/d,{t}] = x[{i},{t}]")
                    rep.record(
                        x(i + n // d, t + n // d) ==
                        K.reduce([a * c for c in x(i, t)]),
                        f"level {m}, d={d}: shifted wraparound at ({i},{t})")
                for i in range(0, t + 1):
                    if i + q <= t:
                        rep.record(
                            sq_contains(x(i, t), 1, x(i + q, t)),
                            f"level {m}, d={d}: x[{i},{t}] ≡ x[{i+q},{t}] "
                            f"mod I²")
                    rep.record(
                        sq_contains(x(i, t), i, x(1, t)),
                        f"level {m}, d={d}: x[{i},{t}] ≡ {i}·x[1,{t}] mod I²")

            # exact product rule, with its multiplicity q
            t1, t2 = q, q
            c = _raw_int(K, q)
            for i1 in range(0, t1 + 1):
                for i2 in range(0, t2 + 1):
                    rhs = K.reduce([c * (u + v - y) for u, v, y in zip(
                        x(i1, t1 + t2), x(i2, t1 + t2), x(i1 + i2, t1 + t2))])
                    rep.record(product(x(i1, t1), x(i2, t2)) == rhs,
                               f"level {m}, d={d}: product rule at "
                               f"({i1},{i2})")
    return rep


# ---------------------------------------------------------------------------
# constant-functor étale transfer


@dataclass
class ConstantEtaleReport:
    level_dims: dict
    tensor_dim: int
    box_matches_constant: bool
    ideal_dims: dict
    verdicts: dict
    classical: ClassicalEtaleReport

    @property
    def ok(self) -> bool:
        return self.box_matches_constant and all(self.verdicts.values()) \
            and self.classical.etale


def constant_etale_check(K: Field, L_alg: FiniteAlgebra, n: int
                         ) -> ConstantEtaleReport:
    """Étaleness of the constant functors K^c -> L^c over C_n.

    Builds L^c □_{K^c} L^c, matches it levelwise to (L ⊗_K L)^c, and checks
    I = I² at every level; the free-level verdict is anchored by the
    classical oracle."""
    Lc = constant_functor(L_alg, n)
    lattice = Lc.lattice
    bx = relative_box(Lc, K, name=f"{L_alg.name}^c□{L_alg.name}^c")
    tensor = tensor_algebra(L_alg, L_alg)
    iso = constant_box_iso(bx, tensor)
    mm = mult_map(bx)
    data = ideal_and_square(bx, mm)
    classical = classical_etale_of_algebra(L_alg)
    level_dims = {m: bx.dim(m) for m in lattice.divisors}
    ideal_dims = {m: len(data.ideal[m]) for m in lattice.divisors}
    matches = iso is not None and \
        all(level_dims[m] == tensor.dim for m in lattice.divisors) and \
        all(ideal_dims[m] == classical.ideal_dim for m in lattice.divisors)
    return ConstantEtaleReport(level_dims, tensor.dim, matches, ideal_dims,
                               dict(data.verdicts), classical)
