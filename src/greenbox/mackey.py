"""C_n-Mackey functors with finite-dimensional levels over an exact field.

A functor assigns to each divisor m | n a level M(C_n/C_m) with a named
basis, restriction/transfer matrices on covering pairs (d, m) with m/d
prime, and the action of the generator of the Weyl group C_n/C_m.  Indexing
convention: C_m is the subgroup of order m generated by σ^(n/m); level 1 is
the free (underlying) level and level n the fixed level.

Structure maps are stored on covering pairs only and composed on demand by
the one chain helper, ``compose_chain``, so transitivity is a checked
invariant instead of redundant data.  check_axioms exhaustively verifies
Weyl order, equivariance, chain independence (composing along every chain),
and the double coset formula, returning violations as data (never raising);
with ``first`` it stops at the first violation.

random_mackey builds axiom-true functors by construction: direct sums of
fixed-point functors of permutation modules K[C_n/C_e], with seeded
invertible base changes applied levelwise.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import islice

from .fields import Field, is_prime, prime_factors
from .linalg import Mat, Span, inverse, kernel, solve_matrix, unit_vec


class InternalCheckError(AssertionError):
    """A construction-time consistency assertion failed; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def solve_in(embed: Mat, image: Mat, message: str) -> Mat:
    """Coordinates X with ``embed @ X == image``.

    ``embed`` has independent columns, so X is unique when it exists; an
    image column outside their span raises InternalCheckError(message)
    whose witness names the first such column, as ``"column k: (…)"``.
    An image equal to ``embed`` gives ``Mat.identity``, the unique X."""
    if image == embed:
        return Mat.identity(embed.field, embed.ncols)
    coords = solve_matrix(embed, image)
    if coords is None:
        span = Span(embed.field, embed.nrows, embed.cols())
        k, col = next((k, c) for k, c in enumerate(image.cols())
                      if not span.contains(c))
        raise InternalCheckError(message, witness=(
            f"column {k}: ({', '.join(map(str, col))})"))
    return coords


# ---------------------------------------------------------------------------
# subgroup lattice of C_n


class SubgroupLattice:
    """Divisor lattice of n: levels, covering pairs, canonical chains."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("group order must be positive")
        self.n = n
        self.divisors = [d for d in range(1, n + 1) if n % d == 0]
        self.covering_pairs = [(d, m) for m in self.divisors
                               for d in self.divisors
                               if m % d == 0 and is_prime(m // d)]

    def check_divisor(self, m: int) -> None:
        if m not in self.divisors:
            raise ValueError(f"{m} is not a divisor of {self.n}")

    def chain_down(self, m: int, d: int):
        """Canonical covering chain m = c_0 > c_1 > ... > c_k = d,
        dividing by the smallest prime factor at each step."""
        self.check_divisor(m)
        self.check_divisor(d)
        if m % d != 0:
            raise ValueError(f"levels {d} and {m} are not comparable")
        chain = [m]
        cur = m
        while cur != d:
            cur //= prime_factors(cur // d)[0]
            chain.append(cur)
        return chain

    def all_chains_down(self, m: int, d: int):
        """Every covering chain from m down to d."""
        if m == d:
            return [[m]]
        chains = []
        for (dd, mm) in self.covering_pairs:
            if mm == m and dd % d == 0:
                for tail in self.all_chains_down(dd, d):
                    chains.append([m] + tail)
        return chains

    def __repr__(self):
        return f"SubgroupLattice(C_{self.n})"


@functools.lru_cache(maxsize=None)
def subgroup_lattice(n: int) -> SubgroupLattice:
    return SubgroupLattice(n)


# ---------------------------------------------------------------------------
# Mackey functors


class MackeyFunctor:
    """Levels, restrictions, transfers, and Weyl generator actions.

    Args:
        scalars: field of coefficients shared by every level.
        lattice: subgroup lattice of C_n.
        labels: dict m -> list of basis label strings.
        res: dict (d, m) -> Mat for covering pairs, level m -> level d.
        tr: dict (m, d) -> Mat for covering pairs, level d -> level m.
        weyl: dict m -> Mat, action of the generator (image of σ) of C_n/C_m.
    """

    def __init__(self, scalars: Field, lattice: SubgroupLattice, labels,
                 res, tr, weyl, name: str = ""):
        self.scalars = scalars
        self.lattice = lattice
        self.labels = {m: list(v) for m, v in labels.items()}
        self.res = dict(res)
        self.tr = dict(tr)
        self.weyl = dict(weyl)
        self.name = name
        self._cache = {}
        for m in lattice.divisors:
            if m not in self.labels:
                raise ValueError(f"missing level {m}")

    def dim(self, m: int) -> int:
        return len(self.labels[m])

    def res_mat(self, d: int, m: int) -> Mat:
        """Restriction level m -> level d (d | m), composed along the
        canonical covering chain."""
        return self._chain("res", m, d)

    def tr_mat(self, m: int, d: int) -> Mat:
        """Transfer level d -> level m (d | m) along the canonical chain."""
        return self._chain("tr", m, d)

    def _chain(self, kind, hi, lo):
        key = (kind, hi, lo)
        if key not in self._cache:
            self._cache[key] = compose_chain(self, kind,
                                             self.lattice.chain_down(hi, lo))
        return self._cache[key]

    def weyl_pow(self, m: int, k: int) -> Mat:
        k %= self.lattice.n // m
        key = ("weyl", m, k)
        if key not in self._cache:
            self._cache[key] = Mat.identity(self.scalars, self.dim(m)) \
                if k == 0 else self.weyl[m] @ self.weyl_pow(m, k - 1)
        return self._cache[key]

    def __repr__(self):
        dims = ", ".join(f"{m}:{self.dim(m)}" for m in self.lattice.divisors)
        return f"MackeyFunctor({self.name or 'unnamed'}; dims {dims})"


def compose_chain(M: MackeyFunctor, kind: str, chain_down) -> Mat:
    """Composite of M's covering-pair maps along c_0 > c_1 > ... > c_k.

    ``kind="res"`` composes ``M.res[(lo, hi)]`` from level c_0 down to c_k;
    ``kind="tr"`` composes ``M.tr[(hi, lo)]`` from c_k up to c_0.  A
    one-level chain yields the identity.
    """
    steps = list(zip(chain_down, chain_down[1:]))
    if kind == "res":
        out = Mat.identity(M.scalars, M.dim(chain_down[0]))
        mats = [M.res[(lo, hi)] for hi, lo in steps]
    else:
        out = Mat.identity(M.scalars, M.dim(chain_down[-1]))
        mats = [M.tr[(hi, lo)] for hi, lo in reversed(steps)]
    for mat in mats:
        out = mat @ out
    return out


@dataclass
class Violation:
    rule: str
    where: dict
    detail: str = ""

    def __str__(self):
        loc = ", ".join(f"{k}={v}" for k, v in self.where.items())
        return f"{self.rule} [{loc}] {self.detail}"


def check_axioms(M: MackeyFunctor, first: bool = False):
    """Exhaustively check the Mackey axioms; failures are data, not errors.

    Returns every violation, in check order; with ``first``, at most the
    first one, and no check after it runs.  Both read the one body,
    ``_axiom_violations``, so ``check_axioms(M, first=True)`` is
    ``check_axioms(M)[:1]``."""
    found = _axiom_violations(M)
    return list(islice(found, 1)) if first else list(found)


def _axiom_violations(M: MackeyFunctor):
    """The violations of ``check_axioms``, yielded as each check fails:
    Weyl order, equivariance, chain independence, then the double coset
    formula."""
    lat = M.lattice
    n = lat.n
    K = M.scalars

    for m in lat.divisors:
        ident = Mat.identity(K, M.dim(m))
        # weyl_pow(m, n // m) would reduce its exponent to 0; this chain
        # is the one the double-coset loop reads at k = n, d = m
        if M.weyl[m] @ M.weyl_pow(m, n // m - 1) != ident:
            yield Violation("weyl_order", {"level": m},
                            f"weyl^({n // m}) is not the identity")
        if m == n and M.weyl[m] != ident:
            yield Violation("weyl_top_level", {"level": m},
                            "Weyl action at the fixed level must be trivial")

    for (d, m) in lat.covering_pairs:
        res, tr = M.res[(d, m)], M.tr[(m, d)]
        if M.weyl[d] @ res != res @ M.weyl[m]:
            yield Violation("res_equivariance", {"pair": (d, m)}, "")
        if tr @ M.weyl[d] != M.weyl[m] @ tr:
            yield Violation("tr_equivariance", {"pair": (d, m)}, "")

    # chain independence of composites
    for m in lat.divisors:
        for d in lat.divisors:
            if m % d == 0 and d < m:
                chains = lat.all_chains_down(m, d)
                rs = [compose_chain(M, "res", c) for c in chains]
                ts = [compose_chain(M, "tr", c) for c in chains]
                if any(r != rs[0] for r in rs):
                    yield Violation("res_transitivity",
                                    {"from": m, "to": d}, "")
                if any(t != ts[0] for t in ts):
                    yield Violation("tr_transitivity",
                                    {"from": d, "to": m}, "")

    # double coset formula: res_{d<-k} tr_{k<-m} for all d, m | k
    for k in lat.divisors:
        for d in lat.divisors:
            for m in lat.divisors:
                if k % d or k % m:
                    continue
                g = math.gcd(d, m)
                c = k * g // (d * m)
                lhs = M.res_mat(d, k) @ M.tr_mat(k, m)
                acc = M.weyl_pow(g, 0)
                for j in range(1, c):
                    acc = acc + M.weyl_pow(g, j * (n // k))
                rhs = M.tr_mat(d, g) @ acc @ M.res_mat(g, m)
                if lhs != rhs:
                    yield Violation(
                        "double_coset", {"k": k, "d": d, "m": m},
                        f"res∘tr disagrees with tr∘(sum of {c} Weyl powers)∘res")


# ---------------------------------------------------------------------------
# morphisms


class MackeyMorphism:
    """Levelwise linear maps commuting with res, tr, and the Weyl action."""

    def __init__(self, source: MackeyFunctor, target: MackeyFunctor,
                 components, name: str = ""):
        self.source = source
        self.target = target
        self.components = dict(components)
        self.name = name

    def check(self):
        out = []
        lat = self.source.lattice
        for (d, m) in lat.covering_pairs:
            f_d, f_m = self.components[d], self.components[m]
            if f_d @ self.source.res[(d, m)] != self.target.res[(d, m)] @ f_m:
                out.append(Violation("morphism_res", {"pair": (d, m)}, self.name))
            if f_m @ self.source.tr[(m, d)] != self.target.tr[(m, d)] @ f_d:
                out.append(Violation("morphism_tr", {"pair": (d, m)}, self.name))
        for m in lat.divisors:
            f_m = self.components[m]
            if f_m @ self.source.weyl[m] != self.target.weyl[m] @ f_m:
                out.append(Violation("morphism_weyl", {"level": m}, self.name))
        return out

    def is_isomorphism(self) -> bool:
        """Whether the morphism checks and every component inverts: public
        for callers that want a yes or no, such as the eigenspace demo;
        ``inverse`` raises instead."""
        if self.check():
            return False
        return all(inverse(self.components[m]) is not None
                   for m in self.source.lattice.divisors)

    def inverse(self) -> "MackeyMorphism":
        comps = {}
        for m in self.source.lattice.divisors:
            inv = inverse(self.components[m])
            if inv is None:
                raise InternalCheckError(
                    f"component at level {m} is not invertible")
            comps[m] = inv
        return MackeyMorphism(self.target, self.source, comps,
                              name=f"{self.name}^-1")


# ---------------------------------------------------------------------------
# fixed-point functor of a K[C_n]-module


@dataclass(frozen=True)
class FixedPointModule:
    """A Mackey functor of fixed points together with its level embeddings.

    ``embeds[m]`` expresses the level-m basis inside the underlying module V
    (columns are basis vectors of V^{C_m} in V-coordinates).  Frozen, since
    ``permutation_module_atom`` hands one instance to every caller.
    """

    functor: MackeyFunctor
    embeds: dict
    action: Mat


def fix_of_module(scalars: Field, lattice: SubgroupLattice, action: Mat,
                  labels=None, name: str = "") -> FixedPointModule:
    """Fixed-point Mackey functor of a module V with generator action A.

    Level m is V^{C_m} = ker(A^(n/m) - 1); res is inclusion, tr from level d
    to level m is the sum over coset representatives σ^(j·n/m), and the Weyl
    generator acts by A itself.
    """
    n = lattice.n
    dim_v = action.nrows
    ident = Mat.identity(scalars, dim_v)
    powers = [ident]                    # A^k for k = 0, ..., n
    for _ in range(n):
        powers.append(action @ powers[-1])
    if powers[n] != ident:
        raise InternalCheckError("module action does not have order dividing n")

    embeds = {}
    for m in lattice.divisors:
        basis = kernel(powers[n // m] - ident)
        embeds[m] = Mat.from_cols(scalars, basis, dim_v)

    lab = {m: [f"v{m}.{i}" for i in range(embeds[m].ncols)]
           for m in lattice.divisors}
    if labels is not None:
        lab[1] = list(labels)

    res = {}
    tr = {}
    for (d, m) in lattice.covering_pairs:
        res[(d, m)] = solve_in(embeds[d], embeds[m],
                               f"V^(C_{m}) does not embed in V^(C_{d})")
        acc = powers[0]
        for j in range(1, m // d):
            acc = acc + powers[j * (n // m)]
        tr[(m, d)] = solve_in(embeds[m], acc @ embeds[d],
                              f"transfer image does not lie in V^(C_{m})")
    weyl = {m: solve_in(embeds[m], action @ embeds[m],
                        f"action does not preserve V^(C_{m})")
            for m in lattice.divisors}

    fun = MackeyFunctor(scalars, lattice, lab, res, tr, weyl, name=name)
    return FixedPointModule(fun, embeds, action)


# ---------------------------------------------------------------------------
# sums, base change, random functors


def direct_sum(functors, name: str = "") -> MackeyFunctor:
    first = functors[0]
    lat, K = first.lattice, first.scalars
    labels = {m: [] for m in lat.divisors}
    for idx, M in enumerate(functors):
        for m in lat.divisors:
            labels[m] += [f"{idx}.{s}" for s in M.labels[m]]
    res, tr, weyl = {}, {}, {}
    for (d, m) in lat.covering_pairs:
        res[(d, m)] = _block_diag(K, [M.res[(d, m)] for M in functors])
        tr[(m, d)] = _block_diag(K, [M.tr[(m, d)] for M in functors])
    for m in lat.divisors:
        weyl[m] = _block_diag(K, [M.weyl[m] for M in functors])
    return MackeyFunctor(K, lat, labels, res, tr, weyl, name=name)


def _block_diag(K, mats):
    if all(m.known_identity for m in mats):
        return Mat.identity(K, sum(m.nrows for m in mats))
    ncols = sum(m.ncols for m in mats)
    z = (K.raw_zero,)
    rows = []
    c0 = 0
    for m in mats:
        left, right = z * c0, z * (ncols - c0 - m.ncols)
        rows += [left + r + right for r in m.raw]
        c0 += m.ncols
    return Mat._from_raw(K, tuple(rows), ncols)


def _conjugate(M: MackeyFunctor, changes, inv, name) -> MackeyFunctor:
    """M with every structure map conjugated by ``changes`` and their
    inverses ``inv``, both levelwise; a known identity Weyl action stays
    the identity, since S·1·S⁻¹ = 1."""
    res = {(d, m): changes[d] @ M.res[(d, m)] @ inv[m]
           for (d, m) in M.lattice.covering_pairs}
    tr = {(m, d): changes[m] @ M.tr[(m, d)] @ inv[d]
          for (d, m) in M.lattice.covering_pairs}
    weyl = {}
    for m in M.lattice.divisors:
        w = M.weyl[m]
        weyl[m] = w if w.known_identity else changes[m] @ w @ inv[m]
    labels = {m: [f"b{m}.{i}" for i in range(M.dim(m))]
              for m in M.lattice.divisors}
    return MackeyFunctor(M.scalars, M.lattice, labels, res, tr, weyl,
                         name=name)


@functools.lru_cache(maxsize=None)
def permutation_module_atom(scalars: Field, lattice: SubgroupLattice,
                            e: int) -> FixedPointModule:
    """Fixed points of the permutation module K[C_n/C_e] (σ shifts cosets).

    Built, with ``fix_of_module``'s checks, once per ``(field, lattice, e)``
    and shared by every later call: fields are interned and
    ``subgroup_lattice`` is cached, so the key is exact."""
    lattice.check_divisor(e)
    size = lattice.n // e
    rows = [unit_vec(scalars, size, (i - 1) % size) for i in range(size)]
    shift = Mat(scalars, rows, ncols=size)
    return fix_of_module(scalars, lattice, shift, name=f"atom C_n/C_{e}")


def random_mackey(lattice: SubgroupLattice, scalars: Field, dims=None,
                  seed: int = 0, randomize_basis: bool = True
                  ) -> MackeyFunctor:
    """Deterministic (in seed) random functor satisfying all axioms.

    ``dims`` maps a divisor e to the multiplicity of the induced atom on
    C_n/C_e; drawn at random when omitted.  The atoms come from
    ``permutation_module_atom``, built once per ``(field, lattice, e)`` and
    shared; only their direct sum and its base change are new.  Each
    level's change of basis is drawn until ``inverse`` finds it invertible,
    and the structure maps are conjugated with that inverse, so every drawn
    matrix is eliminated once; the result equals ``base_change`` of the
    same matrices.  With dims={n: 1} and randomize_basis=False this is
    exactly the constant-functor shape.
    """
    rng = random.Random(seed)
    if dims is None:
        dims = {}
        while sum(dims.values()) == 0:
            dims = {e: rng.randrange(3) for e in lattice.divisors}
    parts = []
    for e in sorted(dims):
        lattice.check_divisor(e)
        parts += [permutation_module_atom(scalars, lattice, e).functor] \
            * dims[e]
    total = direct_sum(parts, name=f"random(seed={seed})")
    if not randomize_basis:
        return total
    changes, inv = {}, {}
    for m in lattice.divisors:
        changes[m], inv[m] = _random_invertible(scalars, total.dim(m), rng)
    return _conjugate(total, changes, inv, name=f"random(seed={seed})")


def small_random_mackey(lattice: SubgroupLattice, scalars: Field,
                        seed: int = 0) -> MackeyFunctor:
    """Random functor from at most two induced atoms; keeps box products of
    random pairs at desk scale."""
    rng = random.Random(seed)
    k = rng.randrange(1, 3)
    chosen = set()
    while len(chosen) < k:
        chosen.add(lattice.divisors[rng.randrange(len(lattice.divisors))])
        if len(chosen) == len(lattice.divisors):
            break
    dims = {e: 1 for e in chosen}
    return random_mackey(lattice, scalars, dims=dims, seed=seed)


def _random_invertible(K: Field, n: int, rng):
    """A random invertible n x n matrix and its inverse: singular draws are
    rejected, so the rng advances exactly as a rank test would make it."""
    while True:
        mat = Mat(K, [[K.random(rng) for _ in range(n)] for _ in range(n)],
                  ncols=n)
        inv = inverse(mat)
        if inv is not None:
            return mat, inv


def corrupt_transfer(M: MackeyFunctor, seed: int = 0) -> MackeyFunctor:
    """Negative control: perturb one entry of one transfer matrix."""
    rng = random.Random(seed)
    pairs = [p for p in M.lattice.covering_pairs if M.dim(p[0]) and
             M.dim(p[1])]
    if not pairs:
        raise ValueError("no transfer matrix to corrupt")
    (d, m) = pairs[rng.randrange(len(pairs))]
    tmat = M.tr[(m, d)]
    i = rng.randrange(tmat.nrows)
    j = rng.randrange(tmat.ncols)
    rows = [list(r) for r in tmat.rows]
    rows[i][j] = rows[i][j] + M.scalars.one
    tr = dict(M.tr)
    tr[(m, d)] = Mat(M.scalars, rows, ncols=tmat.ncols)
    return MackeyFunctor(M.scalars, M.lattice, M.labels, M.res, tr, M.weyl,
                         name=f"{M.name}+corrupt")
