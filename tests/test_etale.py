import copy
import pathlib
import tracemalloc

import pytest

from conftest import Bundle, gen_coords, unit_vec

from greenbox import etale
from greenbox.algebras import base_as_algebra, poly_quotient_algebra
from greenbox.etale import (AlphaPowers, classical_etale_oracle,
                            classical_etale_of_algebra, constant_etale_check,
                            ideal_and_square, ideal_generator,
                            kummer_congruence_checks, mult_map,
                            unit_section_check)
from greenbox.extensions import kummer_extension
from greenbox.fields import finite_field, prime_field
from greenbox.green import FixNorm, LevelEmbeddings, fix_functor
from greenbox.boxes import relative_box
from greenbox.linalg import Mat, Span, bilinear_terms, dense_raw, kernel, \
    kernel_raw, nonzero_terms, raw_terms, tensor_vec, vec_sub
from greenbox.mackey import InternalCheckError, MackeyMorphism
from greenbox.report import load_config

from reference import algebra_table, amb_vec, bumped, check_ideal, \
    corrupt_multiplication, cyclic_algebra, level_reduce, multiply, \
    permute_green, ref_classical_etale_of_algebra, ref_ideal_and_square, \
    vec_scale

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
DUAL = poly_quotient_algebra(F3, [F3.zero, F3.zero, F3.one], var="s",
                             name="F_3[s]/(s^2)")


# ---------------------------------------------------------------------------
# multiplication morphism


def test_mult_values_artin_schreier(as_bundle):
    mm = as_bundle.mult
    rb = as_bundle.box
    mult = mm.components[2]
    assert mult.apply(gen_coords(rb, 2, 1, 1, 1)) == (F2.one,)  # mult[α⊗α]
    assert mult.apply(gen_coords(rb, 2, 2, 0, 0)) == (F2.one,)  # unit
    assert unit_section_check(rb, mm)


def test_mult_map_witness_uses_basis_labels(kummer4_bundle):
    # factors with one perturbed structure constant (seed 0 breaks level 2):
    # the multiplication map no longer kills the relations
    rb = kummer4_bundle.box
    bad = copy.copy(rb)
    bad.left = bad.right = corrupt_multiplication(kummer4_bundle.fix, seed=0)
    with pytest.raises(InternalCheckError, match="does not kill") as exc:
        mult_map(bad)
    witness = exc.value.witness
    assert isinstance(witness, str) and "↦" in witness
    assert any(lab in witness for lvl in rb.levels.values()
               for lab in lvl.labels)


def test_mult_map_names_the_first_violation(kummer4_bundle):
    """A multiplication map that descends but does not commute with the
    box's restriction raises with its first violation, as a string."""
    rb = kummer4_bundle.box
    bad = copy.copy(rb)
    bad.green = copy.copy(rb.green)
    bad.green.mackey = copy.copy(rb.green.mackey)
    bad.green.mackey.res = dict(rb.green.mackey.res)
    bad.green.mackey.res[(1, 2)] = bumped(rb.green.mackey.res[(1, 2)])
    with pytest.raises(InternalCheckError,
                       match="multiplication is not a Mackey morphism") as exc:
        mult_map(bad)
    assert exc.value.witness == "morphism_res [pair=(1, 2)] mult"


def test_mult_values_kummer(kummer2_bundle):
    mm = kummer2_bundle.mult
    rb = kummer2_bundle.box
    # mult[α⊗α] = 2a = 4 over F_5
    assert mm.components[2].apply(gen_coords(rb, 2, 1, 1, 1)) == \
        (F5.from_int(4),)
    assert unit_section_check(rb, mm)


def _ambient_unit_section_check(bx, mm):
    """``unit_section_check`` on ambient element vectors: each x ⊗ unit is
    placed at the pure component, reduced, and sent through ``mm``."""
    T, K = bx.left, bx.scalars
    for m in bx.lattice.divisors:
        for i in range(T.dim(m)):
            x = unit_vec(K, T.dim(m), i)
            out = amb_vec(bx, m, {m: tensor_vec(K, x, T.unit[m])})
            if mm.components[m].apply(level_reduce(bx.levels[m],
                                                   out)) != x:
                return False
    return True


@pytest.mark.parametrize("bundle_name", [
    "as_bundle", "kummer2_bundle", "kummer3_bundle", "kummer4_bundle",
    "rational_bundle"])
def test_unit_section_check_matches_the_ambient_path(bundle_name, request):
    """On the multiplication map and on copies of it with one entry of one
    component bumped, the raw-term check gives the ambient verdict, and
    some bumped copy fails it."""
    bundle = request.getfixturevalue(bundle_name)
    bx, mm, K = bundle.box, bundle.mult, bundle.base
    assert unit_section_check(bx, mm) and _ambient_unit_section_check(bx, mm)
    verdicts = set()
    for m, comp in mm.components.items():
        for r, c in {(0, 0), (comp.nrows - 1, comp.ncols - 1)}:
            rows = [list(row) for row in comp.rows]
            rows[r][c] = rows[r][c] + K.one
            bad = MackeyMorphism(mm.source, mm.target, {
                **mm.components, m: Mat(K, rows, ncols=comp.ncols)})
            verdict = unit_section_check(bx, bad)
            assert verdict == _ambient_unit_section_check(bx, bad), (m, r, c)
            verdicts.add(verdict)
    assert False in verdicts


# ---------------------------------------------------------------------------
# ideal and square


def test_ideal_artin_schreier(as_bundle):
    data = as_bundle.ideal
    rb = as_bundle.box
    assert len(data.ideal[2]) == 1
    gen = data.ideal[2][0]
    expected = tuple(a + b for a, b in zip(gen_coords(rb, 2, 2, 0, 0),
                                           gen_coords(rb, 2, 1, 1, 1)))
    assert gen == expected                       # 1⊗1 + [α⊗α]
    assert multiply(rb.green, 2, gen, gen) == gen  # idempotent
    assert data.verdicts == {1: True, 2: True}
    assert data.quotient_dims == {1: 0, 2: 0}
    assert check_ideal(rb, data) == []


def test_ideal_kummer_c2(kummer2_bundle):
    data = kummer2_bundle.ideal
    rb = kummer2_bundle.box
    aa = gen_coords(rb, 2, 1, 1, 1)
    one = gen_coords(rb, 2, 2, 0, 0)
    two_a = F5.from_int(4)
    gen = tuple(two_a * a - b for a, b in zip(one, aa))  # 2a − [α⊗α]
    span = Span(F5, rb.dim(2), data.ideal[2])
    assert span.dim == 1 and span.contains(gen)
    # [α⊗α]² = 4a² = 16 = 1; (2a − [α⊗α])² = 8a² − 4a[α⊗α]
    assert multiply(rb.green, 2, aa, aa) == \
        tuple(F5.from_int(16) * a for a in one)
    sq = multiply(rb.green, 2, gen, gen)
    expected = tuple(F5.from_int(32) * a - F5.from_int(8) * b
                     for a, b in zip(one, aa))
    assert sq == expected
    assert data.verdicts == {1: True, 2: True}


def test_ideal_free_level_matches_classical(kummer2_bundle):
    data = kummer2_bundle.ideal
    rep = classical_etale_oracle(kummer2_bundle.ext)
    assert len(data.ideal[1]) == rep.ideal_dim


def ref_tensor_mul(alg, x, y):
    """x·y in L ⊗_K L, summed over pairs of nonzero coordinates with
    ``tensor_vec`` of L's dense structure constants."""
    K, n = alg.base, alg.dim
    table = algebra_table(alg)
    out = [K.zero] * (n * n)
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            if xa == K.zero or yb == K.zero:
                continue
            prod = tensor_vec(K, table[a // n][b // n], table[a % n][b % n])
            out = [o + xa * yb * c for o, c in zip(out, prod)]
    return tuple(out)


def classical_ideal(alg):
    """The kernel of the multiplication map L ⊗_K L -> L, from L's dense
    structure constants."""
    n = alg.dim
    table = algebra_table(alg)
    cols = [table[i][j] for i in range(n) for j in range(n)]
    return kernel(Mat.from_cols(alg.base, cols, n))


BENCH_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "bench" / \
    "configs"


@pytest.mark.parametrize("bundle_name,tensor_dim,ideal_dim", [
    ("as_bundle", 4, 2),
    ("kummer2_bundle", 4, 2),
    ("kummer3_bundle", 9, 6),
    ("kummer4_bundle", 16, 12),
    ("kummer_f11_n5.cfg", 25, 20),
    ("kummer_f9_n4.cfg", 16, 12),
])
def test_classical_oracle(bundle_name, tensor_dim, ideal_dim, request):
    if bundle_name.endswith(".cfg"):
        ext = load_config(str(BENCH_CONFIGS / bundle_name)).extension()
    else:
        ext = request.getfixturevalue(bundle_name).ext
    rep = classical_etale_oracle(ext)
    assert rep.tensor_dim == tensor_dim
    assert rep.ideal_dim == ideal_dim
    assert rep.square_dim == ideal_dim
    assert rep.etale
    assert rep.has_separability_unit
    # the witness lies in I and acts as the identity on I
    alg = ext.algebra
    ideal = classical_ideal(alg)
    assert Span(alg.base, tensor_dim, ideal).contains(rep.separability_unit)
    for u in ideal:
        assert ref_tensor_mul(alg, rep.separability_unit, u) == u


def test_classical_oracle_rejects_a_non_reduced_algebra():
    """F_3[s]/(s²) is not étale: I is spanned by s ⊗ 1 − 1 ⊗ s and s ⊗ s,
    I² by (s ⊗ 1 − 1 ⊗ s)² = −2 s ⊗ s alone, and no e in I acts as the
    identity on I."""
    rep = classical_etale_of_algebra(DUAL)
    assert (rep.tensor_dim, rep.ideal_dim, rep.square_dim) == (4, 2, 1)
    assert not rep.etale
    assert rep.separability_unit is None
    assert not rep.has_separability_unit


def test_constant_etale_check_rejects_a_non_reduced_algebra():
    rep = constant_etale_check(F3, DUAL, 2)
    assert not rep.ok
    assert not rep.classical.etale
    assert rep.verdicts and not any(rep.verdicts.values())


# the classical oracle against its materialised reference: every config,
# the cyclic algebras K[x]/(x^n − a) of ROADMAP item 15 (a = 0 is not
# étale) and F_3[s]/(s²)
F9 = finite_field(3, 2)       # F_3[t]/(t² + 1), where t has order 4
CLASSICAL_CYCLIC = {
    "C5/F11 a=0": (prime_field(11), 5, 0, 3),
    "C6/F13 a=0": (prime_field(13), 6, 0, 4),
    "C6/F13 a=2^6": (prime_field(13), 6, 2 ** 6, 4),
    "C6/F13 a=2^2": (prime_field(13), 6, 2 ** 2, 4),
    "C6/F13 a=2^3": (prime_field(13), 6, 2 ** 3, 4),
    "C4/F9 a=0": (F9, 4, 0, None),
    "C4/F9 a=1": (F9, 4, 1, None),
}
CLASSICAL_INPUTS = sorted(
    str(p.relative_to(BENCH_CONFIGS.parents[1]))
    for p in [*BENCH_CONFIGS.parent.parent.glob("configs/*.cfg"),
              *BENCH_CONFIGS.glob("*.cfg")]) + [*CLASSICAL_CYCLIC, "DUAL"]


def _classical_input(name):
    if name == "DUAL":
        return DUAL
    if name in CLASSICAL_CYCLIC:
        K, n, a, zeta = CLASSICAL_CYCLIC[name]
        zeta = K.gen if zeta is None else K.from_int(zeta)
        return cyclic_algebra(K, n, K.from_int(a), zeta).algebra
    return load_config(str(BENCH_CONFIGS.parents[1] / name)).extension() \
        .algebra


@pytest.mark.parametrize("name", CLASSICAL_INPUTS)
def test_classical_oracle_matches_the_materialised_reference(name):
    """The streamed oracle gives the whole report of the materialised one,
    separability unit included: I² stopped once full, every product tested
    by μ, and the separability rows produced only up to full rank and then
    checked by e·u = u."""
    alg = _classical_input(name)
    want = ref_classical_etale_of_algebra(alg)
    assert classical_etale_of_algebra(alg) == want
    assert want.etale == want.has_separability_unit == \
        (name != "DUAL" and "a=0" not in name)


def _counting(monkeypatch, change=None):
    """Wrap ``etale._tensor_product``: record each call, and pass the
    result of call k through ``change(k, terms)`` when given."""
    real, seen = etale._tensor_product, []

    def wrapped(*args):
        out = real(*args)
        seen.append(out)
        return out if change is None else change(len(seen) - 1, out)

    monkeypatch.setattr(etale, "_tensor_product", wrapped)
    return seen


def test_a_classical_product_outside_i_is_caught(monkeypatch):
    """Every product b·u (b ≤ u) is tested by μ(b·u) = 0, also after I²'s
    span is full: the last one, replaced by 1⊗1, raises with the pair in
    L ⊗_K L's labels."""
    alg = _classical_input("configs/kummer_f7_n3.cfg")
    d = classical_etale_of_algebra(alg).ideal_dim
    target = d * (d + 1) // 2 - 1
    one = ((0, alg.base.raw_one),)
    seen = _counting(monkeypatch,
                     lambda k, out: one if k == target else out)
    with pytest.raises(InternalCheckError,
                       match="I² is not contained in I in L ⊗_K L") as exc:
        classical_etale_of_algebra(alg)
    assert len(seen) == target + 1
    # the last basis vector of I, squared
    assert exc.value.witness == \
        "(4·1⊗α + α^2⊗α^2)·(4·1⊗α + α^2⊗α^2) = 1⊗1"


def test_a_perturbed_product_after_full_rank_leaves_no_unit(monkeypatch):
    """The separability rows that are not eliminated are still checked:
    the last product formed, e·u for the last u, made after the system has
    full rank, moved inside I by adding a basis vector of I, leaves no
    separability unit, while I and I² are unchanged."""
    alg = _classical_input("configs/kummer_f7_n3.cfg")
    K, N = alg.base, alg.dim ** 2
    seen = _counting(monkeypatch)
    want = classical_etale_of_algebra(alg)
    last, d = len(seen) - 1, want.ideal_dim
    assert last >= d * (d + 1) // 2 + 2 * d - 1   # past I², a column, a check
    b0 = K.lift(classical_ideal(alg)[0])
    monkeypatch.undo()

    def move(k, out):
        if k != last:
            return out
        return raw_terms(K.reduce([x + y for x, y in
                                   zip(dense_raw(K, out, N), b0)]))

    _counting(monkeypatch, move)
    rep = classical_etale_of_algebra(alg)
    assert (rep.ideal_dim, rep.square_dim, rep.etale) == \
        (want.ideal_dim, want.square_dim, True)
    assert want.separability_unit is not None
    assert rep.separability_unit is None


def test_the_classical_oracle_materialises_nothing():
    """At C_12/F_13 (N = 144, dim I = 132) the oracle's traced peak stays
    under 8 MB; with L ⊗_K L's product table and every product kept it was
    about 46 MB."""
    F13 = prime_field(13)
    alg = kummer_extension(F13, 12, F13.from_int(2), F13.from_int(2)).algebra
    tracemalloc.start()
    try:
        rep = classical_etale_of_algebra(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.ideal_dim, rep.square_dim) == (132, 132)
    assert rep.has_separability_unit
    assert peak < 8 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"


@pytest.mark.parametrize("drop", [False, True])
def test_a_kernel_basis_that_is_not_ker_mu_is_caught(kummer4_bundle, drop,
                                                     monkeypatch):
    """I = ker μ is asserted before any product is tested by μ: a basis
    missing a vector, or with a vector that μ does not kill, raises, in
    ``ideal_and_square`` and in the classical oracle."""
    real = etale.kernel_raw

    def corrupted(mat):
        basis = real(mat)
        if drop:
            return basis[1:]
        j = next(j for j, col in enumerate(mat.col_terms()) if col)
        return [dense_raw(mat.field, ((j, mat.field.raw_one),),
                          mat.ncols)] + basis[1:]

    monkeypatch.setattr(etale, "kernel_raw", corrupted)
    with pytest.raises(InternalCheckError,
                       match="the kernel basis at level 1 is not ker μ"):
        ideal_and_square(kummer4_bundle.box, kummer4_bundle.mult)
    with pytest.raises(InternalCheckError,
                       match="the kernel basis in L ⊗_K L is not ker μ"):
        classical_etale_of_algebra(kummer4_bundle.ext.algebra)


# ---------------------------------------------------------------------------
# kernel generators and the congruence suite


def test_ideal_generator_membership(kummer4_bundle):
    rb = kummer4_bundle.box
    data = kummer4_bundle.ideal
    for (d, m) in ((1, 2), (1, 4), (2, 4)):
        q = m // d
        span = Span(F5, rb.dim(m), data.ideal[m])
        for t in (q, 2 * q):
            for i in range(t + 1):
                assert span.contains(ideal_generator(rb,
                                                     kummer4_bundle.ext,
                                                     i, t, d, m))


def test_ideal_generator_exact_relations(kummer3_bundle):
    rb = kummer3_bundle.box
    E = kummer3_bundle.ext
    a = E.a
    x = lambda i, t: ideal_generator(rb, E, i, t, 1, 3)
    assert all(c == F7.zero for c in x(0, 3))
    assert x(4, 6) == x(1, 6)                       # slot units cancel
    assert x(4, 3 + 3) == x(1, 6)
    assert x(1 + 3, 3 + 3) == vec_scale(a, x(1, 3))  # both slots shift


def test_ideal_generator_product_rule(kummer3_bundle):
    rb = kummer3_bundle.box
    E = kummer3_bundle.ext
    q = 3
    x = lambda i, t: ideal_generator(rb, E, i, t, 1, 3)
    for i1 in range(q + 1):
        for i2 in range(q + 1):
            lhs = multiply(rb.green, 3, x(i1, q), x(i2, q))
            rhs = tuple(
                F7.from_int(q) * (a + b - c)
                for a, b, c in zip(x(i1, 2 * q), x(i2, 2 * q),
                                   x(i1 + i2, 2 * q)))
            assert lhs == rhs


def test_ideal_generator_bad_parameters(kummer4_bundle):
    rb = kummer4_bundle.box
    E = kummer4_bundle.ext
    with pytest.raises(ValueError):
        ideal_generator(rb, E, 0, 3, 1, 2)   # q = 2 does not divide t = 3
    with pytest.raises(ValueError):
        ideal_generator(rb, E, 5, 4, 1, 2)   # i > t
    with pytest.raises(ValueError):
        ideal_generator(rb, E, 0, 2, 3, 4)   # d does not divide m


def test_alpha_power_outside_the_level_subfield_is_refused(kummer4_bundle):
    """α^e lies in the level-d subfield L^{C_d} exactly when d | e."""
    powers = AlphaPowers(kummer4_bundle.box, kummer4_bundle.ext)
    assert powers.terms(2, 2) == powers.terms(2, 2)
    for d, e in ((2, 1), (4, 2), (4, 6)):
        with pytest.raises(ValueError, match=f"α\\^{e} does not lie"):
            powers.terms(d, e)


def test_congruences_solve_each_alpha_power_once(kummer4_bundle,
                                                 monkeypatch):
    """One report reads each (level, exponent) pair once, through the
    factor's left inverse, whichever check and generator reads it."""
    read = []
    real = LevelEmbeddings.coords

    def counting(embeds, m, v):
        read.append((id(embeds), m, tuple(v)))
        return real(embeds, m, v)

    monkeypatch.setattr(LevelEmbeddings, "coords", counting)
    b = kummer4_bundle
    rep = kummer_congruence_checks(b.box, b.ext, b.ideal)
    assert rep.ok and rep.checks_run
    assert read and len(read) == len(set(read))


def test_left_inverse_reads_are_checked_by_reembedding(kummer4_bundle):
    """A vector outside the fixed subfield is refused, not given the
    coordinates the left inverse reads off it: α^e at level d for d ∤ e,
    in particular α at the top level n, and the level-4 norm of a rule
    whose product escapes the subfield it is read into."""
    E, L = kummer4_bundle.ext, kummer4_bundle.fix
    K, n = E.base, E.degree
    powers = AlphaPowers(kummer4_bundle.box, E)
    assert n >= 2
    with pytest.raises(ValueError, match="α\\^1 does not lie in the "
                       f"level-{n} subfield"):
        powers.terms(n, 1)
    alpha = K.lift(E.alpha_power(1))
    for d in L.lattice.divisors:
        assert (L.level_embed.coords(d, alpha) is None) == (d != 1), d
    one = K.lift(E.alpha_power(0))
    assert all(L.level_embed.coords(d, one) == K.lift(L.unit[d])
               for d in L.lattice.divisors)
    # level 2 embedded as K·1 only: the norm α·σ²(α) = −α² of the level-1
    # basis vector α is read as zero by the left inverse, and refused
    bad = FixNorm(E, LevelEmbeddings({**L.level_embed,
                                      2: L.level_embed[4]}))
    with pytest.raises(InternalCheckError,
                       match="norm image escaped the fixed subfield") as exc:
        bad.apply_terms(2, 1, ((1, K.raw_one),))
    assert exc.value.witness == "column 0: (0, 0, 4, 0)"


ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted(
    [str(p.relative_to(ROOT)) for p in [*ROOT.glob("configs/*.cfg"),
                                         *BENCH_CONFIGS.glob("*.cfg")]])
    + ["C_8/F_17"])
def test_restriction_to_the_free_level_is_injective(path):
    """res_{1←m} of the relative box of L^fix has no kernel at any level,
    so the congruence suite's three kernel-of-restriction checks run on an
    empty kernel (see ``kummer_congruence_checks``); on all seven configs
    and on C_8/F_17."""
    if path == "C_8/F_17":
        F17 = prime_field(17)
        ext = kummer_extension(F17, 8, F17.from_int(3), F17.from_int(2))
    else:
        ext = load_config(str(ROOT / path)).extension()
    bx = relative_box(fix_functor(ext), ext.base)
    for m in bx.lattice.divisors:
        assert kernel_raw(bx.green.mackey.res_mat(1, m)) == [], m


def reference_congruence_checks(bx, E, data):
    """The congruence suite on field elements, as ``kummer_congruence_checks``
    ran it before it moved to raw scalars: every vector is a tuple of
    elements, built from element tensors of the α-power coordinates and
    reduced through ``level_reduce``; products go through the element
    ``reference.multiply`` and memberships through ``Span.contains``.
    The same checks are recorded in the same order, under the same
    labels."""
    rep = etale.CongruenceReport()
    powers = AlphaPowers(bx, E)
    K = bx.scalars
    n, a = E.degree, E.a

    def coords(d, e):
        """α^e in the basis of the level-d subfield, as elements."""
        out = [K.zero] * bx.left.dim(d)
        terms = powers.terms(d, e)
        for (t, _), c in zip(terms, K.fold([c for _, c in terms])):
            out[t] = c
        return tuple(out)

    def tensor(m, e1, e2, origin=None):
        d = m if origin is None else origin
        return amb_vec(bx, m, {d: tensor_vec(K, coords(d, e1),
                                             coords(d, e2))})

    for m in bx.lattice.divisors:
        if m == 1:
            continue
        span_i = Span(K, bx.dim(m), data.ideal[m])
        span_sq = Span(K, bx.dim(m), data.square[m])
        w = level_reduce(bx.levels[m], vec_sub(
            vec_scale(K.from_int(m), tensor(m, 0, n)),
            tensor(m, 1, n - 1, origin=1)))
        rep.record(span_i.contains(w), f"level {m}: ma−[α⊗α^{n-1}] in I")
        for z in kernel(bx.green.mackey.res_mat(1, m)):
            rep.record(span_i.contains(z), f"level {m}: ker res ⊆ I")
            rep.record(span_sq.contains(z), f"level {m}: ker res ⊆ I²")
            rep.record(multiply(bx.green, m, z, w) ==
                       vec_scale(K.from_int(m) * a, z),
                       f"level {m}: z·(ma−[α⊗α^{n-1}]) = ma·z")
        for d in bx.lattice.divisors:
            if m % d or d == m:
                continue
            q = m // d
            ts = range(q, 2 * (n // d) + 1, q)

            def x(i, t):
                return level_reduce(bx.levels[m], vec_sub(
                    vec_scale(K.from_int(q), tensor(m, 0, t * d)),
                    tensor(m, i * d, (t - i) * d, origin=d)))

            for t in ts:
                for i in range(t + 1):
                    rep.record(span_i.contains(x(i, t)),
                               f"level {m}, d={d}: x[{i},{t}] in I")
                rep.record(all(c == K.zero for c in x(0, t)),
                           f"level {m}, d={d}: x[0,{t}] = 0")
                swap_comm = level_reduce(bx.levels[m], vec_scale(
                    K.from_int(q),
                    vec_sub(tensor(m, 0, t * d), tensor(m, t * d, 0))))
                rep.record(x(t, t) == swap_comm,
                           f"level {m}, d={d}: x[{t},{t}] = "
                           f"q·(1⊗α^td − α^td⊗1)")
                rep.record(span_sq.contains(x(t, t)),
                           f"level {m}, d={d}: x[{t},{t}] in I²")
                for i in range(t + 1):
                    if i + n // d <= t:
                        rep.record(
                            x(i + n // d, t) == x(i, t),
                            f"level {m}, d={d}: x[i+n/d,{t}] = x[{i},{t}]")
                    rep.record(
                        x(i + n // d, t + n // d) == vec_scale(a, x(i, t)),
                        f"level {m}, d={d}: shifted wraparound at ({i},{t})")
                for i in range(t + 1):
                    if i + q <= t:
                        rep.record(
                            span_sq.contains(vec_sub(x(i, t), x(i + q, t))),
                            f"level {m}, d={d}: x[{i},{t}] ≡ x[{i+q},{t}] "
                            f"mod I²")
                    rep.record(
                        span_sq.contains(vec_sub(
                            x(i, t), vec_scale(K.from_int(i), x(1, t)))),
                        f"level {m}, d={d}: x[{i},{t}] ≡ {i}·x[1,{t}] mod I²")
            for i1 in range(q + 1):
                for i2 in range(q + 1):
                    lhs = multiply(bx.green, m, x(i1, q), x(i2, q))
                    rhs = tuple(K.from_int(q) * (u + v - y) for u, v, y in zip(
                        x(i1, 2 * q), x(i2, 2 * q), x(i1 + i2, 2 * q)))
                    rep.record(lhs == rhs,
                               f"level {m}, d={d}: product rule at "
                               f"({i1},{i2})")
    return rep


def assert_matches_the_reference(bx, E, data):
    rep = kummer_congruence_checks(bx, E, data)
    ref = reference_congruence_checks(bx, E, data)
    assert (rep.checks_run, rep.labels, rep.failures) == \
        (ref.checks_run, ref.labels, ref.failures)
    return rep


@pytest.mark.parametrize("bundle_name", ["kummer2_bundle", "kummer3_bundle",
                                         "kummer4_bundle"])
def test_congruence_suite_matches_the_element_reference(bundle_name,
                                                        request):
    b = request.getfixturevalue(bundle_name)
    assert assert_matches_the_reference(b.box, b.ext, b.ideal).ok


def test_congruence_suite_matches_the_reference_over_f4():
    F4 = finite_field(2, 2)
    b = Bundle(kummer_extension(F4, 3, F4.gen, F4.gen))
    assert assert_matches_the_reference(b.box, b.ext, b.ideal).ok


def test_congruence_suite_fails_without_an_i_squared_vector(kummer4_bundle):
    """Negative control: with the last basis vector of I² at level 4 of
    C_4/F_5 dropped, 7 of the 252 checks fail, as in the reference."""
    import dataclasses
    b = kummer4_bundle
    square = dict(b.ideal.square)
    square[4] = square[4][:-1]
    rep = assert_matches_the_reference(
        b.box, b.ext, dataclasses.replace(b.ideal, square=square))
    assert (rep.checks_run, len(rep.failures)) == (252, 7)
    assert all("level 4" in lab for lab in rep.failures)


def test_congruence_suite_fails_with_a_wrong_a(kummer4_bundle):
    """Negative control: an extension record whose a is not α^n fails the
    checks that read a, as in the reference."""
    b = kummer4_bundle
    wrong = copy.copy(b.ext)
    wrong.a = F5.from_int(3)
    rep = assert_matches_the_reference(b.box, wrong, b.ideal)
    assert rep.failures and rep.checks_run == 252
    assert all("wraparound" in lab or "ma·z" in lab for lab in rep.failures)


@pytest.mark.parametrize("bundle_name", ["kummer2_bundle", "kummer3_bundle",
                                         "kummer4_bundle"])
def test_congruence_suite(bundle_name, request):
    bundle = request.getfixturevalue(bundle_name)
    rep = kummer_congruence_checks(bundle.box, bundle.ext, bundle.ideal)
    assert rep.ok, rep.failures
    assert rep.checks_run > 0


def test_congruence_suite_covers_intermediate_origins(kummer4_bundle):
    rep = kummer_congruence_checks(kummer4_bundle.box, kummer4_bundle.ext,
                                   kummer4_bundle.ideal)
    assert any("level 4, d=2" in lab for lab in rep.labels)
    assert any("level 4, d=1" in lab for lab in rep.labels)
    assert any("level 2, d=1" in lab for lab in rep.labels)


def test_eq5_and_eq6_congruences_direct(kummer4_bundle):
    rb = kummer4_bundle.box
    E = kummer4_bundle.ext
    data = kummer4_bundle.ideal
    sq = Span(F5, rb.dim(4), data.square[4])
    x = lambda i, t, d: ideal_generator(rb, E, i, t, d, 4)
    # x[i,t] ≡ x[i+q,t] and x[i,t] ≡ i·x[1,t] mod I², intermediate origin d=2
    assert sq.contains(vec_sub(x(1, 4, 2), x(3, 4, 2)))
    assert sq.contains(vec_sub(x(3, 4, 2),
                               vec_scale(F5.from_int(3), x(1, 4, 2))))


# ---------------------------------------------------------------------------
# Kähler dimensions and verdict invariance


def test_kahler_dims_zero(as_bundle, kummer2_bundle, kummer3_bundle,
                          kummer4_bundle):
    for bundle in (as_bundle, kummer2_bundle, kummer3_bundle,
                   kummer4_bundle):
        dims = bundle.ideal.quotient_dims
        assert all(v == 0 for v in dims.values())


def test_kahler_dims_degenerate_identity_extension():
    E = kummer_extension(F5, 1, F5.from_int(3), F5.one)
    b = Bundle(E)
    assert b.ideal.quotient_dims == {1: 0}


def test_kahler_negative_control(kummer2_bundle):
    # emptying the computed square must surface nonzero quotients
    import dataclasses
    broken = dataclasses.replace(kummer2_bundle.ideal,
                                 square={m: [] for m in (1, 2)},
                                 quotient_dims={m: len(
                                     kummer2_bundle.ideal.ideal[m])
                                     for m in (1, 2)})
    dims = broken.quotient_dims
    assert dims[1] > 0 and dims[2] > 0


def test_verdicts_invariant_under_basis_permutation(kummer4_bundle):
    perms = {1: [2, 0, 3, 1], 2: [1, 0], 4: [0]}
    P = permute_green(kummer4_bundle.fix, perms)
    rb = relative_box(P, F5)
    mm = mult_map(rb)
    data = ideal_and_square(rb, mm)
    base = kummer4_bundle.ideal
    for m in (1, 2, 4):
        assert rb.dim(m) == kummer4_bundle.box.dim(m)
        assert len(data.ideal[m]) == len(base.ideal[m])
        assert data.verdicts[m] == base.verdicts[m]
    assert data.quotient_dims == base.quotient_dims


# ---------------------------------------------------------------------------
# the I² span stops growing once it has I's dimension


IDEAL_INPUTS = sorted(
    str(p.relative_to(BENCH_CONFIGS.parents[1]))
    for p in [*BENCH_CONFIGS.parent.parent.glob("configs/*.cfg"),
              *BENCH_CONFIGS.glob("*.cfg")]) + \
    ["C_8/F_17", "F_13[x]/(x^3)", "F_13[x]/(x^4)"]
F13 = prime_field(13)
# K[x]/(x^n) over F_13 with a primitive n-th root ζ: a = 0, I ≠ I²
CYCLIC_ZERO = {"F_13[x]/(x^3)": (3, 3), "F_13[x]/(x^4)": (4, 5)}


def _ideal_input(name):
    if name == "C_8/F_17":
        F17 = prime_field(17)
        ext = kummer_extension(F17, 8, F17.from_int(3), F17.from_int(2))
    elif name in CYCLIC_ZERO:
        n, zeta = CYCLIC_ZERO[name]
        ext = cyclic_algebra(F13, n, F13.zero, F13.from_int(zeta))
    else:
        ext = load_config(str(BENCH_CONFIGS.parents[1] / name)).extension()
    bx = relative_box(fix_functor(ext), ext.base)
    return bx, mult_map(bx)


@pytest.mark.parametrize("name", IDEAL_INPUTS)
def test_ideal_and_square_matches_full_insertion(name):
    """Stopping the I² span once it is full gives the square, the quotient
    dimensions and the verdicts of inserting every product, on every
    config, at C_8/F_17 and on the a = 0 algebras K[x]/(x^n), whose I² span
    never fills."""
    bx, mm = _ideal_input(name)
    want = ref_ideal_and_square(bx, mm)
    assert ideal_and_square(bx, mm) == want
    assert all(want.verdicts.values()) == (name not in CYCLIC_ZERO)


def test_constant_etale_check_matches_full_insertion(monkeypatch):
    """The constant-functor check gives the same report with the stopping
    span as with full insertion: F_3[s]/(s²), where I ≠ I², and
    F_2 ⊂ F_4."""
    F4alg = poly_quotient_algebra(F2, [F2.one, F2.one, F2.one], var="t",
                                  name="F_4")
    cases = ((F3, DUAL, 2), (F2, F4alg, 4))
    got = [constant_etale_check(*case) for case in cases]
    monkeypatch.setattr(etale, "ideal_and_square", ref_ideal_and_square)
    assert got == [constant_etale_check(*case) for case in cases]
    assert [rep.ok for rep in got] == [False, True]


def test_a_product_outside_i_after_the_square_fills_is_caught(
        kummer4_bundle, monkeypatch):
    """Every product is still tested against I once the I² span is full:
    one product after that point, replaced by a vector outside I, raises."""
    bx, mm, data = kummer4_bundle.box, kummer4_bundle.mult, \
        kummer4_bundle.ideal
    K = bx.scalars
    calls = 0
    for m in bx.lattice.divisors:
        raw = [nonzero_terms(K, v) for v in data.ideal[m]]
        prods = [bilinear_terms(K, bx.green.terms(m), x, raw[j])
                 for i, x in enumerate(raw) for j in range(i, len(raw))]
        span, filled = Span(K, bx.dim(m)), []
        for k, v in enumerate(prods):
            span._insert(v)
            if span.dim == len(raw):
                filled.append(k)
        if filled and filled[0] < len(prods) - 1:
            break
        calls += len(prods)
    target = calls + len(prods) - 1          # the level's last product
    span_i = Span(K, bx.dim(m), data.ideal[m])
    outside = next(e for e in (unit_vec(K, bx.dim(m), t)
                               for t in range(bx.dim(m)))
                   if not span_i.contains(e))
    seen = []
    real = etale.bilinear_terms

    def corrupted(*args):
        seen.append(1)
        return K.lift(outside) if len(seen) - 1 == target else real(*args)

    monkeypatch.setattr(etale, "bilinear_terms", corrupted)
    with pytest.raises(InternalCheckError,
                       match=f"I² is not contained in I at level {m}"):
        ideal_and_square(bx, mm)
    assert len(seen) == target + 1


# ---------------------------------------------------------------------------
# constant functors


def test_constant_etale_f2_f4():
    F4alg = poly_quotient_algebra(F2, [F2.one, F2.one, F2.one], var="t",
                                  name="F_4")
    for n in (2, 4):
        rep = constant_etale_check(F2, F4alg, n)
        assert rep.ok
        assert all(d == 4 for d in rep.level_dims.values())
        assert all(rep.verdicts.values())


def test_constant_etale_f5_f25():
    F25alg = poly_quotient_algebra(F5, [F5.from_int(3), F5.zero, F5.one],
                                   var="t", name="F_25")
    rep = constant_etale_check(F5, F25alg, 3)
    assert rep.ok and rep.tensor_dim == 4


def test_constant_etale_trivial_extension():
    rep = constant_etale_check(F5, base_as_algebra(F5), 2)
    assert rep.ok
    assert all(d == 0 for d in rep.ideal_dims.values())


def test_etale_over_extension_base():
    F4 = finite_field(2, 2)
    E = kummer_extension(F4, 3, F4.gen, F4.gen)
    b = Bundle(E)
    assert all(b.ideal.verdicts.values())
    rep = kummer_congruence_checks(b.box, E, b.ideal)
    assert rep.ok
