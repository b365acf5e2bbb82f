import copy
import gc
import itertools
import pathlib
import random
import sys
import weakref
from fractions import Fraction

import pytest

from conftest import gen_coords, unit_vec

from greenbox import boxes
from greenbox.boxes import (box, compare_boxes, coequalizer_oracle,
                            norm_on_c2_box, prime_box_oracle, relative_box)
from greenbox.extensions import kummer_extension
from greenbox.fields import finite_field, prime_field, rationals
from greenbox.green import (GreenFunctor, check_green, constant_functor,
                            fix_functor, zero_green)
from greenbox.linalg import Mat, nonzero_terms, rref, tensor_vec
from greenbox.mackey import InternalCheckError, MackeyFunctor, check_axioms, \
    corrupt_transfer, small_random_mackey, subgroup_lattice
from greenbox.presented import PresentedLevel
from greenbox.report import ORACLE_EVERY, load_config

from reference import amb_vec, bumped, burnside_c2, \
    corrupt_multiplication, expand, in_relation_span, level_reduce, \
    mult_table, mult_terms, mult_vec, multiply, products, ref_norm_on_c2_box, \
    vec_add

F2 = prime_field(2)
F5 = prime_field(5)
F7 = prime_field(7)


def box3(M, R, N):
    """Threefold box product computed as (M □ R) □ N."""
    return boxes.build_box(box(M, R).green, N,
                           name=f"({M.name}□{R.name})□{N.name}")


def swap_isomorphic(bMN, bNM):
    """Discrepancies of M□N against N□M under the factor swap."""
    return compare_boxes(bMN, bNM, gen_map=lambda m, g: (g[0], g[2], g[1]))


# ---------------------------------------------------------------------------
# the two C_2 cases of the absolute box L^fix □ L^fix


def test_artin_schreier_box_levels(as_bundle):
    b = box(as_bundle.fix, as_bundle.fix)
    assert b.dim(1) == 4
    assert b.dim(2) == 2
    assert b.levels[2].reduced_labels == ["1⊗1", "[α⊗α]"]


def test_artin_schreier_box_structure_maps(as_bundle):
    b = box(as_bundle.fix, as_bundle.fix)
    res = b.green.mackey.res[(1, 2)]
    tr = b.green.mackey.tr[(2, 1)]
    aa = gen_coords(b, 2, 1, 1, 1)           # the class [α⊗α]
    # res[α⊗α] = α⊗1 + 1⊗α + 1⊗1
    assert res.apply(aa) == (F2.one, F2.one, F2.one, F2.zero)
    # tr(1⊗α) = 1⊗1 = tr(α⊗1), tr(1⊗1) = 0, tr(α⊗α) = [α⊗α]
    assert tr.apply(gen_coords(b, 1, 1, 0, 1)) == (F2.one, F2.zero)
    assert tr.apply(gen_coords(b, 1, 1, 1, 0)) == (F2.one, F2.zero)
    assert tr.apply(gen_coords(b, 1, 1, 0, 0)) == (F2.zero, F2.zero)
    assert tr.apply(gen_coords(b, 1, 1, 1, 1)) == aa


def test_kummer_c2_box_structure_maps(kummer2_bundle):
    b = box(kummer2_bundle.fix, kummer2_bundle.fix)
    assert b.levels[2].reduced_labels == ["1⊗1", "[α⊗α]"]
    res = b.green.mackey.res[(1, 2)]
    tr = b.green.mackey.tr[(2, 1)]
    aa = gen_coords(b, 2, 1, 1, 1)
    # res[α⊗α] = 2(α⊗α); tr(1⊗1) = 2(1⊗1); tr of mixed terms dies
    assert res.apply(aa) == (F5.zero, F5.zero, F5.zero, F5.from_int(2))
    assert tr.apply(gen_coords(b, 1, 1, 0, 0)) == (F5.from_int(2), F5.zero)
    assert tr.apply(gen_coords(b, 1, 1, 0, 1)) == (F5.zero, F5.zero)
    assert tr.apply(gen_coords(b, 1, 1, 1, 0)) == (F5.zero, F5.zero)


# ---------------------------------------------------------------------------
# threefold boxes


def test_artin_schreier_box3(as_bundle):
    L = as_bundle.fix
    Kc = constant_functor(F2, L.lattice)
    b = box3(L, Kc, L)
    assert b.dim(2) == 2
    labels = b.levels[2].reduced_labels
    assert labels == ["1⊗1⊗1", "[α⊗1⊗α]"]
    res = b.green.mackey.res[(1, 2)]
    cls = tuple(F2.one if lab == "[α⊗1⊗α]" else F2.zero for lab in labels)
    img = res.apply(cls)
    lab1 = b.levels[1].reduced_labels
    expect = {"α⊗1⊗1", "1⊗1⊗α", "1⊗1⊗1"}
    got = {lab for lab, c in zip(lab1, img) if c != F2.zero}
    assert got == expect and all(c in (F2.zero, F2.one) for c in img)


def test_kummer_box3_transfers(kummer2_bundle):
    L = kummer2_bundle.fix
    Kc = constant_functor(F5, L.lattice)
    b = box3(L, Kc, L)
    tr = b.green.mackey.tr[(2, 1)]
    lab1 = b.levels[1].reduced_labels
    one = tuple(F5.one if lab == "1⊗1⊗1" else F5.zero for lab in lab1)
    img = tr.apply(level_reduce(b.levels[1], expand(b.levels[1], one)))
    lab2 = b.levels[2].reduced_labels
    # tr(1⊗1⊗1) = 2(1⊗1⊗1); tr(α⊗1⊗1) = 0
    assert img == tuple(F5.from_int(2) if lab == "1⊗1⊗1" else F5.zero
                        for lab in lab2)
    alpha = tuple(F5.one if lab == "α⊗1⊗1" else F5.zero for lab in lab1)
    assert all(c == F5.zero for c in tr.apply(alpha))


def test_box3_association_dims(as_bundle):
    L = as_bundle.fix
    Kc = constant_functor(F2, L.lattice)
    left = box3(L, Kc, L)
    inner_right = box(Kc, L).green
    right = box(L, inner_right)
    for m in (1, 2):
        assert left.dim(m) == right.dim(m)


# ---------------------------------------------------------------------------
# relative boxes and the oracles


def test_relative_box_c2_cases(as_bundle, kummer2_bundle):
    for bundle in (as_bundle, kummer2_bundle):
        rb = bundle.box
        assert rb.dim(2) == 2
        assert rb.levels[2].reduced_labels == ["1⊗1", "[α⊗α]"]


def test_relative_box_n4_component_dims(kummer4_bundle):
    rb = kummer4_bundle.box
    # ambient components at the top level: dim(L^{C_d} ⊗_K L^{C_d}) = (4/d)²
    comp_dims = {d: (4 // d) ** 2 for d in (1, 2, 4)}
    for d, expected in comp_dims.items():
        count = sum(1 for (dd, _, _) in rb.gens[4] if dd == d)
        assert count == expected
    # the coequalizer of the threefold box is rb itself: the oracle passes
    assert coequalizer_oracle(rb) is None


@pytest.mark.parametrize("bundle_name",
                         ["as_bundle", "kummer2_bundle", "kummer3_bundle"])
def test_coequalizer_agreement(bundle_name, request):
    bundle = request.getfixturevalue(bundle_name)
    assert coequalizer_oracle(bundle.box) is None


def test_prime_oracle_on_fix_functors(as_bundle, kummer2_bundle,
                                      kummer3_bundle):
    for bundle, p in ((as_bundle, 2), (kummer2_bundle, 2),
                      (kummer3_bundle, 3)):
        b = box(bundle.fix, bundle.fix)
        po = prime_box_oracle(bundle.fix, bundle.fix, p)
        assert compare_boxes(b, po) == []


@pytest.mark.parametrize("p,field", [(2, F5), (3, F7), (5, prime_field(11))])
def test_prime_oracle_on_constant_functors(p, field):
    Kc = constant_functor(field, p)
    assert compare_boxes(box(Kc, Kc), prime_box_oracle(Kc, Kc, p)) == []


@pytest.mark.parametrize("p", [2, 3])
def test_prime_oracle_on_random_pairs(p):
    lat = subgroup_lattice(p)
    for s in range(8):
        A = zero_green(small_random_mackey(lat, F7, seed=300 + s))
        B = zero_green(small_random_mackey(lat, F7, seed=400 + s))
        assert compare_boxes(box(A, B), prime_box_oracle(A, B, p)) == []


def test_box_axioms_and_green(kummer4_bundle, kummer3_bundle):
    for bundle in (kummer3_bundle, kummer4_bundle):
        assert check_axioms(bundle.box.green.mackey) == []
        assert check_green(bundle.box.green) == []


def test_box_symmetry(as_bundle, kummer3_bundle):
    for bundle in (as_bundle, kummer3_bundle):
        L = bundle.fix
        Kc = constant_functor(bundle.base, L.lattice)
        bMN = box(L, Kc)
        bNM = box(Kc, L)
        assert swap_isomorphic(bMN, bNM) == []


def test_relative_box_over_extension_base():
    F4 = finite_field(2, 2)
    E = kummer_extension(F4, 3, F4.gen, F4.gen)
    L = fix_functor(E)
    rb = relative_box(L, F4)
    assert check_green(rb.green) == []
    assert rb.dim(1) == 9


def test_absolute_box_rejects_extension_scalars():
    F4 = finite_field(2, 2)
    E = kummer_extension(F4, 3, F4.gen, F4.gen)
    L = fix_functor(E)
    with pytest.raises(ValueError):
        box(L, L)


def test_relative_box_rejects_a_foreign_base(kummer4_bundle):
    L = kummer4_bundle.fix
    with pytest.raises(ValueError):
        relative_box(L, F7)
    with pytest.raises(ValueError):
        relative_box(L, "F5")


def test_coequalizer_rejects_extension_scalars():
    F4 = finite_field(2, 2)
    E = kummer_extension(F4, 3, F4.gen, F4.gen)
    L = fix_functor(E)
    with pytest.raises(ValueError):
        coequalizer_oracle(relative_box(L, F4))


def test_coequalizer_builds_each_box_once(kummer4_bundle, monkeypatch):
    # T □ K^c only: the threefold box keeps its generators and relations,
    # and the quotient is the given T □ T, which is not rebuilt
    calls = []
    build = boxes.build_box

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(boxes, "build_box", counting)
    coequalizer_oracle(kummer4_bundle.box)
    assert len(calls) == 1


def test_coequalizer_rejects_a_box_missing_a_relation(kummer4_bundle):
    """The threefold relation rows must lie in the relation span of the box
    the oracle is given: drop one relation row that lowers the rank, and a
    raw threefold row escapes at that level.  The witness is that row, in
    the threefold labels, and its nonzero image in the box's level."""
    rb = kummer4_bundle.box
    weaker = {}
    for m, lvl in rb.levels.items():
        for k in range(len(lvl.relations)):
            level = PresentedLevel(lvl.field, lvl.labels,
                                   lvl.relations[:k] + lvl.relations[k + 1:])
            if level.dim > lvl.dim:
                weaker.setdefault(m, []).append(level)
    assert {m: len(levels) for m, levels in weaker.items()} == {4: 2}
    faulty = copy.copy(rb)
    faulty.levels = {**rb.levels, 4: weaker[4][0]}
    with pytest.raises(InternalCheckError) as exc:
        coequalizer_oracle(faulty)
    assert str(exc.value) == \
        "coequalizer action map (left) fails to descend at level 4"
    assert exc.value.witness == "3·[α⊗1⊗α]_1 ↦ 3·[α⊗α]_1"


def test_coequalizer_rejects_a_functor_that_is_not_a_kc_module():
    """The Burnside functor of C_2 is Mackey and Green but no F_3^c-module:
    A □ F_3^c is not A, and the unit law names the level where it shows."""
    A = burnside_c2(prime_field(3))
    assert check_axioms(A.mackey) == []
    assert check_green(A) == []
    with pytest.raises(InternalCheckError) as exc:
        coequalizer_oracle(box(A, A))
    assert str(exc.value) == "T □ K^c is not T: the unit law fails"
    assert exc.value.witness == "level 2: dimension 1, not 2"


def test_coequalizer_rejects_a_unit_box_with_a_class_left_free(
        kummer4_bundle, monkeypatch):
    """T □ K^c's top level, its generators reversed: the same span, the
    same dimension and the same Green functor, but with classes left free
    instead of the pure x⊗1, so the two action maps would no longer agree
    generator by generator.  The unit law names the level."""
    build = boxes.box
    reversed_levels = []

    def reversing(M, N, name=""):
        bx = build(M, N, name)
        n, lvl = bx.lattice.n, bx.levels[bx.lattice.n]
        order = range(lvl.ngens - 1, -1, -1)
        bx.levels = {**bx.levels, n: PresentedLevel(
            lvl.field, [lvl.labels[j] for j in order],
            [[row[j] for j in order] for row in lvl.relations])}
        reversed_levels.append((lvl, bx.levels[n]))
        return bx

    monkeypatch.setattr(boxes, "box", reversing)
    with pytest.raises(InternalCheckError) as exc:
        coequalizer_oracle(kummer4_bundle.box)
    [(lvl, other)] = reversed_levels
    assert other.dim == lvl.dim and other.free != lvl.free
    assert str(exc.value) == "T □ K^c is not T: the unit law fails"
    assert exc.value.witness == \
        "level 4: free generators [1⊗1]_2, not the pure x⊗1"


def _one_place_off(G, place):
    """G with one structure map, product entry or unit changed, and its
    dimensions kept."""
    M, K = G.mackey, G.scalars
    res, tr, weyl = dict(M.res), dict(M.tr), dict(M.weyl)
    prods, unit = products(G), dict(G.unit)
    kind, key = place
    if kind == "product":
        row = [list(r) for r in prods[2]]
        entry = dict(row[1][1])
        entry[0] = K.reduce_scalar(entry.get(0, K.raw_zero) + K.raw_one)
        row[1][1] = tuple(sorted((i, c) for i, c in entry.items() if c))
        prods[2] = row
    elif kind == "unit":
        unit[key] = (unit[key][0] + K.one,) + tuple(unit[key][1:])
    else:
        maps = {"weyl": weyl, "res": res, "tr": tr}[kind]
        maps[key] = bumped(maps[key])
    mack = MackeyFunctor(K, M.lattice, M.labels, res, tr, weyl, name=M.name)
    return GreenFunctor(mack, prods, unit, name=G.name)


@pytest.mark.parametrize("place,witness", [
    (("weyl", 2), "morphism_weyl [level=2] unit law"),
    (("res", (2, 4)), "morphism_res [pair=(2, 4)] unit law"),
    (("tr", (4, 2)), "morphism_tr [pair=(2, 4)] unit law"),
    (("product", 2), "morphism_mult [level=2] unit law"),
    (("unit", 1), "morphism_unit [level=1] unit law"),
], ids=["weyl", "res", "tr", "product", "unit"])
def test_coequalizer_rejects_a_unit_box_off_in_one_place(
        kummer4_bundle, monkeypatch, place, witness):
    """T □ K^c for T = L^fix of C_4/F_5 with one Weyl, res or tr matrix,
    one level-2 product entry or one unit changed: the dimensions and the
    free generators are T's, so only the Green-morphism part of the unit
    law can see it, and its witness names the place."""
    build = boxes.box
    built = []

    def off_in_one_place(M, N, name=""):
        bx = build(M, N, name)
        built.append(bx)
        bx.green = _one_place_off(bx.green, place)
        return bx

    monkeypatch.setattr(boxes, "box", off_in_one_place)
    T = kummer4_bundle.box.left
    with pytest.raises(InternalCheckError) as exc:
        coequalizer_oracle(kummer4_bundle.box)
    [inner] = built
    assert all(inner.dim(m) == T.dim(m) and
               inner.levels[m].free == tuple(range(T.dim(m)))
               for m in T.lattice.divisors)
    assert str(exc.value) == "T □ K^c is not T: the unit law fails"
    assert exc.value.witness == witness


def test_frobenius_on_transfer_classes(kummer4_bundle):
    # tr(u)·tr(v) = tr(u·res(tr(v))) on reduced level-d bases
    rb = kummer4_bundle.box
    g = rb.green
    K = rb.scalars
    for (d, m) in rb.lattice.covering_pairs:
        tr = g.mackey.tr[(m, d)]
        res = g.mackey.res[(d, m)]
        for i in range(rb.dim(d)):
            u = unit_vec(K, rb.dim(d), i)
            for j in range(rb.dim(d)):
                v = unit_vec(K, rb.dim(d), j)
                lhs = multiply(g, m, tr.apply(u), tr.apply(v))
                rhs = tr.apply(multiply(g, d, u, res.apply(tr.apply(v))))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# the C_2 norm on boxes


def test_norm_of_unit(as_bundle):
    rb = as_bundle.box
    one = gen_coords(rb, 1, 1, 0, 0)
    assert norm_on_c2_box(rb, one) == gen_coords(rb, 2, 2, 0, 0)


def test_norm_sum_artin_schreier(as_bundle):
    rb = as_bundle.box
    x = tuple(a + b for a, b in zip(gen_coords(rb, 1, 1, 0, 1),
                                    gen_coords(rb, 1, 1, 1, 0)))
    value = norm_on_c2_box(rb, x)
    expected = tuple(a + b for a, b in zip(gen_coords(rb, 2, 2, 0, 0),
                                           gen_coords(rb, 2, 1, 1, 1)))
    assert value == expected            # 1⊗1 + [α⊗α]


def test_norm_difference_kummer(kummer2_bundle):
    rb = kummer2_bundle.box
    x = tuple(a - b for a, b in zip(gen_coords(rb, 1, 1, 0, 1),
                                    gen_coords(rb, 1, 1, 1, 0)))
    value = norm_on_c2_box(rb, x)
    # norm(1⊗α − α⊗1) = [α⊗α] − 2a: the sum rule with tr(x·τy) forces this
    # sign, and res of the value equals the product of the conjugates
    two_a = F5.from_int(4)
    expected = tuple(b - two_a * a
                     for a, b in zip(gen_coords(rb, 2, 2, 0, 0),
                                     gen_coords(rb, 2, 1, 1, 1)))
    assert value == expected


def test_norm_leaves_no_reference_cycle():
    """The C_2 box is freed by reference counting alone once its last
    caller drops it: norm_on_c2_box holds no cycle through it."""
    ext = kummer_extension(F5, 2, F5.from_int(2), F5.from_int(-1))
    gc.disable()
    try:
        rb = relative_box(fix_functor(ext), F5)
        x = tuple(a - b for a, b in zip(gen_coords(rb, 1, 1, 0, 1),
                                        gen_coords(rb, 1, 1, 1, 0)))
        norm_on_c2_box(rb, x)
        dead = weakref.ref(rb)
        del rb
        assert dead() is None
    finally:
        gc.enable()


def test_norm_respects_conjugate_product(kummer2_bundle, as_bundle):
    # res(norm(z)) = z · τ(z) for every level-1 basis vector
    for bundle in (kummer2_bundle, as_bundle):
        rb = bundle.box
        K = rb.scalars
        res = rb.green.mackey.res[(1, 2)]
        tau = rb.green.mackey.weyl[1]
        for i in range(rb.dim(1)):
            z = unit_vec(K, rb.dim(1), i)
            lhs = res.apply(norm_on_c2_box(rb, z))
            rhs = multiply(rb.green, 1, z, tau.apply(z))
            assert lhs == rhs


def test_norm_is_order_independent(kummer2_bundle):
    rb = kummer2_bundle.box
    K = rb.scalars
    v = [K.zero] * rb.dim(1)
    coeffs = [1, 2, 0, 3]
    for i, c in enumerate(coeffs):
        v[i] = K.from_int(c)
    v = tuple(v)
    base = norm_on_c2_box(rb, v)
    nonzero = sum(1 for c in coeffs if c)
    import itertools
    for perm in itertools.permutations(range(nonzero)):
        assert norm_on_c2_box(rb, v, term_order=list(perm)) == base


@pytest.mark.parametrize("config", ["artin_schreier_f2.cfg",
                                    "kummer_f5_n2.cfg", "Q"])
def test_norm_agrees_with_the_ambient_reference(config, rational_bundle):
    """The norm read off the box's Green functor equals the one computed on
    its ambient presentation, from the product table and the ambient τ and
    tr (``ref_norm_on_c2_box``): on zero, every level-1 basis vector, every
    sum of two of them, and 20 seeded random vectors each taken in a
    random term order, on both shipped C_2 configs and over Q."""
    if config == "Q":
        rb = rational_bundle.box
    else:
        ext = load_config(str(CONFIG_DIR / config)).extension()
        rb = relative_box(fix_functor(ext), ext.base)
    K, dim = rb.scalars, rb.dim(1)
    basis = [unit_vec(K, dim, i) for i in range(dim)]
    vecs = [(K.zero,) * dim] + basis + [
        vec_add(a, b)
        for a, b in itertools.combinations_with_replacement(basis, 2)]
    for v in vecs:
        assert norm_on_c2_box(rb, v) == ref_norm_on_c2_box(rb, v), v
    rng = random.Random(2)
    for _ in range(20):
        v = tuple(K.random(rng) for _ in range(dim))
        order = list(range(sum(1 for c in v if c != K.zero)))
        rng.shuffle(order)
        value = norm_on_c2_box(rb, v, term_order=order)
        assert value == ref_norm_on_c2_box(rb, v, term_order=order), v
        assert value == norm_on_c2_box(rb, v), v


# ---------------------------------------------------------------------------
# descent: negative controls
#
# A C_4 box built without the descent check, then one ambient map at a time
# is bumped by the rank-one term e_f ⊗ e_p, where p is the last nonzero
# coordinate of a relation-basis row and f a free generator of the target
# level.  That row's image then leaves the target relation span, so the
# check must fail and name the corrupted map.  Level 1 of C_4 has no
# relations, so only maps out of levels 2 and 4 can fail.


@pytest.fixture
def unchecked_c4_box(kummer4_bundle):
    return relative_box(kummer4_bundle.fix, F5, check=False)


def _bump(bx, amb, src, target):
    """``amb`` (ambient level src -> target) plus e_f ⊗ e_p, as a Mat."""
    p, f = _bump_indices(bx, src, target)
    rows = [list(r) for r in amb.rows]
    rows[f][p] = rows[f][p] + F5.one
    return Mat(F5, rows)


def _bump_indices(bx, src, target):
    row = bx.levels[src].relation_basis[0]
    p = max(t for t, c in enumerate(row) if c != F5.zero)
    return p, bx.levels[target].free[0]


def test_descent_holds_on_unchecked_box(unchecked_c4_box):
    boxes._check_descent(unchecked_c4_box)


def test_descent_rejects_corrupt_weyl(unchecked_c4_box):
    bx = unchecked_c4_box
    bx.ambient.weyl[4] = _bump(bx, bx.ambient.weyl[4], 4, 4)
    with pytest.raises(InternalCheckError, match="Weyl action"):
        boxes._check_descent(bx)


def test_descent_witness_uses_basis_labels(unchecked_c4_box):
    bx = unchecked_c4_box
    bx.ambient.weyl[4] = _bump(bx, bx.ambient.weyl[4], 4, 4)
    with pytest.raises(InternalCheckError) as exc:
        boxes._check_descent(bx)
    witness = exc.value.witness
    assert isinstance(witness, str) and "↦" in witness
    assert any(lab in witness for lab in bx.levels[4].labels)


def test_descent_rejects_corrupt_restriction(unchecked_c4_box):
    bx = unchecked_c4_box
    bx.ambient.res[(2, 4)] = _bump(bx, bx.ambient.res[(2, 4)], 4, 2)
    with pytest.raises(InternalCheckError, match="restriction 4->2"):
        boxes._check_descent(bx)


def test_descent_rejects_corrupt_transfer(unchecked_c4_box):
    bx = unchecked_c4_box
    bx.ambient.tr[(4, 2)] = _bump(bx, bx.ambient.tr[(4, 2)], 2, 4)
    with pytest.raises(InternalCheckError, match="transfer 2->4"):
        boxes._check_descent(bx)


def _bump_product(bx, m, a, b, f):
    """Add e_f to the cached raw terms of the product of generators a and b
    of level m; returns the terms it replaced."""
    saved = mult_terms(bx, m, a, b)
    K = bx.scalars
    raw = dict(saved)
    raw[f] = K.reduce([raw.get(f, K.raw_zero) + K.lift([K.one])[0]])[0]
    bx._mult_cache[(m, a, b)] = tuple(sorted((t, c) for t, c in raw.items()
                                             if c))
    return saved


def test_descent_rejects_corrupt_multiplication(unchecked_c4_box):
    bx = unchecked_c4_box
    p, f = _bump_indices(bx, 4, 4)
    _bump_product(bx, 4, p, 0, f)
    with pytest.raises(InternalCheckError, match="multiplication"):
        boxes._check_descent(bx)


def test_one_sided_product_check_is_exactly_as_strong(unchecked_c4_box):
    """Right products are checked by free generators only.  Bumping one
    product of two level-4 generators at a free coordinate must still be
    caught exactly when some relation-basis row times some generator, on
    either side, leaves the relation span."""
    bx = unchecked_c4_box
    lvl = bx.levels[4]
    gens = (lvl.pivots[0], lvl.pivots[-1], lvl.free[0], lvl.free[-1])
    units = [unit_vec(F5, lvl.ngens, g) for g in range(lvl.ngens)]

    def brute_force_violation():
        return any(not in_relation_span(lvl, prod)
                   for r in lvl.relation_basis for e in units
                   for prod in (mult_vec(bx, 4, r, e), mult_vec(bx, 4, e, r)))

    caught_with_pivot_left = False
    for a in gens:
        for b in gens:
            saved = _bump_product(bx, 4, a, b, lvl.free[0])
            violated = brute_force_violation()
            try:
                boxes._check_descent(bx)
            except InternalCheckError as exc:
                assert "multiplication" in str(exc), (a, b)
                assert violated, (a, b)
                caught_with_pivot_left |= a in lvl.pivots
            else:
                assert not violated, (a, b)
            bx._mult_cache[(4, a, b)] = saved
    assert caught_with_pivot_left


def test_check_false_skips_only_the_descent_check(kummer4_bundle,
                                                  unchecked_c4_box):
    """``relative_box(check=False)`` builds the same box; the one pass
    behind both rejects a corrupt product only when it checks."""
    T = kummer4_bundle.fix
    assert compare_boxes(relative_box(T, F5),
                         relative_box(T, F5, check=False)) == []
    bx = unchecked_c4_box
    p, f = _bump_indices(bx, 4, 4)
    _bump_product(bx, 4, p, 0, f)
    with pytest.raises(InternalCheckError, match="multiplication"):
        boxes._check_descent(bx)
    boxes._check_descent(bx, check=False)


# ---------------------------------------------------------------------------
# the one descent pass against the ambient structure read through
# the levels' expand and reduce


def _assert_reduced_structure_is_ambient(bx):
    """Each reduced Weyl, res and tr matrix is reduce ∘ ambient map ∘
    expand, and each reduced product is reduce(mult_vec(expand eₐ,
    expand e_b)), at every level."""
    G, K, pairs = bx.green, bx.scalars, bx.lattice.covering_pairs
    for m in bx.lattice.divisors:
        lifted = [expand(bx.levels[m], unit_vec(K, bx.dim(m), k))
                  for k in range(bx.dim(m))]
        maps = [(G.mackey.weyl[m], bx.ambient.weyl[m], m)]
        maps += [(G.mackey.res[(lo, m)], bx.ambient.res[(lo, m)], lo)
                 for (lo, hi) in pairs if hi == m]
        maps += [(G.mackey.tr[(hi, m)], bx.ambient.tr[(hi, m)], hi)
                 for (lo, hi) in pairs if lo == m]
        for reduced, amb, target in maps:
            assert reduced.cols() == [
                level_reduce(bx.levels[target], amb.apply(v))
                for v in lifted], (m, target)
        table = mult_table(G, m)
        for a, va in enumerate(lifted):
            for b, vb in enumerate(lifted):
                assert table[a][b] == level_reduce(
                    bx.levels[m], mult_vec(bx, m, va, vb)), (m, a, b)


def test_descent_pass_matches_the_ambient_on_an_unchecked_box(
        unchecked_c4_box):
    _assert_reduced_structure_is_ambient(unchecked_c4_box)


# ---------------------------------------------------------------------------
# one product form: the raw terms in the product cache


def _f9_fix():
    cfg = load_config(str(pathlib.Path(__file__).resolve().parents[1]
                          / "bench" / "configs" / "kummer_f9_n4.cfg"))
    return fix_functor(cfg.extension())


def _q_fix():
    Q = rationals()
    return fix_functor(kummer_extension(Q, 2, Fraction(2), Fraction(-1)))


def _f5_fix():
    return fix_functor(kummer_extension(F5, 4, F5.from_int(2),
                                        F5.from_int(2)))


def _f7_fix():
    return fix_functor(kummer_extension(F7, 3, F7.from_int(3),
                                        F7.from_int(2)))


def _element_product(bx, m, a, b):
    """The product of generators a and b of level m through element
    vectors: the pure part tensors the factors' products, a pure factor is
    restricted to the class origin and multiplied there, and class·class
    is tr(u · res(tr v)).  The reference for the cached raw terms."""
    K, L, R = bx.scalars, bx.left, bx.right
    (d, i, j), (e, i2, j2) = bx.gens[m][a], bx.gens[m][b]
    if d == m and e == m:
        return amb_vec(bx, m, {m: tensor_vec(K, mult_table(L, m)[i][i2],
                                             mult_table(R, m)[j][j2])})
    if m in (d, e):
        (pi, pj), (o, ci, cj) = ((i, j), (e, i2, j2)) if d == m \
            else ((i2, j2), (d, i, j))
        lvec = multiply(L, o, L.mackey.res_mat(o, m).col(pi),
                          unit_vec(L.scalars, L.dim(o), ci))
        rvec = multiply(R, o, R.mackey.res_mat(o, m).col(pj),
                          unit_vec(R.scalars, R.dim(o), cj))
        return amb_vec(bx, m, {o: tensor_vec(K, lvec, rvec)})
    u = unit_vec(K, bx.amb_dim(d), bx.gen_index(d, d, i, j))
    at_d = mult_vec(bx, d, u, bx.ambient.res_mat(d, m).col(b))
    return bx.ambient.tr_mat(m, d).apply(at_d)


def _assert_one_product_form(bx, reference=None):
    """Every cached generator product is its sorted, distinct, reduced and
    nonzero raw terms, and equals ``mult_vec`` of the two unit vectors and,
    when given, the ``reference`` product."""
    K = bx.scalars
    assert bx._mult_cache
    for (m, a, b), terms in bx._mult_cache.items():
        index = [t for t, _ in terms]
        coeffs = [c for _, c in terms]
        assert index == sorted(set(index)), (m, a, b)
        assert all(0 <= t < bx.amb_dim(m) for t in index), (m, a, b)
        assert all(coeffs), (m, a, b)
        assert K.reduce(list(coeffs)) == coeffs, (m, a, b)
        dense = [K.zero] * bx.amb_dim(m)
        for t, c in zip(index, K.fold(coeffs)):
            dense[t] = c
        units = [unit_vec(K, bx.amb_dim(m), g) for g in (a, b)]
        assert tuple(dense) == mult_vec(bx, m, *units), (m, a, b)
        if reference is not None:
            assert tuple(dense) == reference(bx, m, a, b), (m, a, b)


@pytest.mark.parametrize("make_fix", [_f5_fix, _f7_fix, _f9_fix, _q_fix],
                         ids=["F5-C4", "F7-C3", "F9-C4", "Q-C2"])
def test_product_cache_holds_sorted_reduced_nonzero_terms(make_fix):
    T = make_fix()
    _assert_one_product_form(relative_box(T, T.scalars), _element_product)


def test_prime_oracle_installs_the_same_product_form(kummer2_bundle):
    T = kummer2_bundle.fix
    _assert_one_product_form(prime_box_oracle(T, T, 2))


ROOT = pathlib.Path(__file__).resolve().parents[1]
C5_CONFIG = ROOT / "bench" / "configs" / "kummer_f11_n5.cfg"
CONFIG_DIR = ROOT / "configs"
ALL_CONFIGS = sorted([*CONFIG_DIR.glob("*.cfg"),
                      *(ROOT / "bench" / "configs").glob("*.cfg")])


@pytest.mark.parametrize("path", ALL_CONFIGS, ids=lambda p: p.name)
def test_relation_basis_is_the_last_pivot_rref(path):
    """``relation_basis``, each e_p less its canonical form, is the rows of
    ``rref(relation_rows, "last")`` at every level of the relative box."""
    ext = load_config(str(path)).extension()
    bx = relative_box(fix_functor(ext), ext.base)
    for m in bx.lattice.divisors:
        lvl = bx.levels[m]
        assert lvl.relation_basis == \
            rref(lvl.relation_rows, "last")[0].rows, m


def _assert_oracle_products_are_the_box_products(A, B, p):
    """The product of every pair of generators, read through
    ``mult_terms`` from the prime oracle's sparse table and from the generic
    box's, is the same; returns how many pairs were compared."""
    po, bx = prime_box_oracle(A, B, p), box(A, B)
    count = 0
    for m in (1, p):
        assert po.amb_dim(m) == bx.amb_dim(m), m
        for a in range(po.amb_dim(m)):
            for b in range(po.amb_dim(m)):
                assert mult_terms(po, m, a, b) == mult_terms(bx, m, a, b), \
                    (m, a, b)
                count += 1
    return count


def _fuzz_oracle_pairs():
    """The pairs ``fuzz`` draws for its oracle rounds on C_5/F_11."""
    cfg = load_config(str(C5_CONFIG))
    K, lat = cfg.extension().base, subgroup_lattice(cfg.n)
    for k in range(0, cfg.count, ORACLE_EVERY):
        rng = random.Random(10 ** 6 + cfg.seed + k)
        yield tuple(zero_green(small_random_mackey(
            lat, K, seed=rng.randrange(2 ** 30))) for _ in range(2))


def test_box_terms_are_the_product_terms_of_its_table(kummer4_bundle):
    """The box's reduced product terms, on the C_4/F_5 relative box and
    one C_5 fuzz oracle pair, are the nonzero terms of the reduced ambient
    product of the two lifted basis vectors."""
    for L, R in [(kummer4_bundle.fix,) * 2, next(_fuzz_oracle_pairs())]:
        bx = boxes.build_box(L, R)
        G, K = bx.green, bx.scalars
        for m in G.lattice.divisors:
            lvl = bx.levels[m]
            lifted = [expand(lvl, unit_vec(K, bx.dim(m), k))
                      for k in range(bx.dim(m))]
            assert len(G.terms(m)) == G.dim(m), m
            assert G.terms(m) == [
                [nonzero_terms(K, level_reduce(lvl,
                                               mult_vec(bx, m, va, vb)))
                 for vb in lifted] for va in lifted], m


def test_prime_oracle_products_on_the_fuzz_oracle_pairs():
    for A, B in _fuzz_oracle_pairs():
        assert _assert_oracle_products_are_the_box_products(A, B,
                                                            A.lattice.n)


@pytest.mark.parametrize("p,field", [(2, F5), (3, F7), (5, prime_field(11))])
def test_prime_oracle_products_on_constant_functors(p, field):
    Kc = constant_functor(field, p)
    assert _assert_oracle_products_are_the_box_products(Kc, Kc, p)


def test_prime_oracle_products_on_fix_functors(as_bundle, kummer2_bundle,
                                               kummer3_bundle):
    c5 = fix_functor(load_config(str(C5_CONFIG)).extension())
    for T, p in ((as_bundle.fix, 2), (kummer2_bundle.fix, 2),
                 (kummer3_bundle.fix, 3), (c5, 5)):
        assert _assert_oracle_products_are_the_box_products(T, T, p)


def _raise(*args, **kwargs):
    raise AssertionError("called")


def test_prime_oracle_reuses_no_builder_fill(monkeypatch, kummer2_bundle,
                                             kummer3_bundle):
    """The closed form writes its own presentation, maps and products: with
    the builder's ambient, relation and fill code patched to raise, it
    still builds on a fuzz pair and on the C_2 and C_3 fixed-point
    functors."""
    pair = next(_fuzz_oracle_pairs())
    for name in ("_fill_products", "_fill_pure", "_spread", "_ambient_maps",
                 "_relations", "_kron_cols"):
        monkeypatch.setattr(boxes, name, _raise)
    prime_box_oracle(*pair, pair[0].lattice.n)
    for T, p in ((kummer2_bundle.fix, 2), (kummer3_bundle.fix, 3)):
        prime_box_oracle(T, T, p)


@pytest.mark.parametrize("make_fix", [_f5_fix, _f7_fix, _q_fix],
                         ids=["F5-C4", "F7-C3", "Q-C2"])
def test_builder_fills_every_generator_product_once(make_fix):
    """The sparse table holds exactly the nonzero products: ``mult_terms``
    of every pair of generators is the element-level product, and no stored
    entry is ``()``."""
    T = make_fix()
    bx = relative_box(T, T.scalars, check=False)
    K = bx.scalars
    assert () not in bx._mult_cache.values()
    for m in bx.lattice.divisors:
        for a in range(bx.amb_dim(m)):
            for b in range(bx.amb_dim(m)):
                dense = [K.zero] * bx.amb_dim(m)
                terms = mult_terms(bx, m, a, b)
                for t, c in zip([t for t, _ in terms],
                                K.fold([c for _, c in terms])):
                    dense[t] = c
                assert tuple(dense) == _element_product(bx, m, a, b), \
                    (m, a, b)


def test_box_build_reduces_once_per_table(monkeypatch):
    """Building the C_3/F_7 relative box reduces the field's raw scalars
    once per ambient Weyl and res map (a transfer only relabels, so it
    reduces nothing), once per level's relation rows, once per level for
    the pure-tensor products, once per ``_spread`` call for the class
    products, once per ``project_many`` call on a level with relations
    (never on one without) and once per ``check_images`` call: a reduction
    per vector cannot come back unnoticed."""
    T = _f7_fix()
    K = T.scalars
    for m in T.lattice.divisors:
        T.terms(m)
    reductions = []
    real_reduce = K.reduce
    monkeypatch.setattr(
        K, "reduce", lambda raw: reductions.append(1) or real_reduce(raw))
    seen = {}

    def counted(name, fn):
        def wrapper(*args):
            before = len(reductions)
            out = fn(*args)
            seen.setdefault(name, []).append((args, len(reductions) - before))
            return out
        return wrapper

    monkeypatch.setattr(boxes, "_fill_pure",
                        counted("pure", boxes._fill_pure))
    monkeypatch.setattr(boxes, "_spread", counted("spread", boxes._spread))
    for name in ("_ambient_maps", "_relations"):
        monkeypatch.setattr(boxes, name, counted(name, getattr(boxes, name)))
    for name in ("project_many", "check_images"):
        monkeypatch.setattr(PresentedLevel, name,
                            counted(name, getattr(PresentedLevel, name)))
    relative_box(T, K)
    # the Weyl maps of levels 1 and 3 and res_{1←3}; then levels 1 and 3
    assert [count for _, count in seen["_ambient_maps"]] == [2 + 1]
    assert [count for _, count in seen["_relations"]] == [1, 1]
    assert [count for _, count in seen["pure"]] == [1, 1]
    assert seen["spread"] and {count for _, count in seen["spread"]} == {1}
    with_relations = {count for (lvl, _), count in seen["project_many"]
                      if lvl.pivots}
    without = {count for (lvl, _), count in seen["project_many"]
               if not lvl.pivots}
    assert with_relations == {1} and without == {0}
    assert {count for _, count in seen["check_images"]} == {1}


def test_prime_oracle_reduces_once_per_table(monkeypatch):
    """The C_3/F_7 closed form reduces its raw terms once for tau, once for
    its relation rows, once for the pure Weyl block and once for res (tr
    only relabels), then once per level of products: one ``reduce_sums``
    call each, and one reduction per call."""
    T = _f7_fix()
    K = T.scalars
    for m in T.lattice.divisors:
        T.terms(m)
    reductions, calls = [], []
    real_reduce, real_sums = K.reduce, boxes.reduce_sums
    monkeypatch.setattr(
        K, "reduce", lambda raw: reductions.append(1) or real_reduce(raw))

    def counted_sums(field, sums):
        before = len(reductions)
        out = real_sums(field, sums)
        calls.append((sys._getframe(1).f_code.co_name,
                      len(reductions) - before))
        return out

    monkeypatch.setattr(boxes, "reduce_sums", counted_sums)
    prime_box_oracle(T, T, 3)
    assert calls == [("_write_prime_oracle", 1)] * 4 \
        + [("_attach_prime_oracle_mult", 1)] * 2


def _assert_box_build_multiplies_no_ambient_matrix(monkeypatch, path):
    T = fix_functor(load_config(str(path)).extension())
    largest = max(T.dim(m) for m in T.lattice.divisors)
    shapes = []
    real_matmul = Mat.__matmul__

    def matmul(a, b):
        if not (a.known_identity or b.known_identity):
            shapes.append((a.nrows, a.ncols, b.nrows, b.ncols))
        return real_matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", matmul)
    bx = relative_box(T, T.scalars)
    assert min(bx.amb_dim(m) for m in T.lattice.divisors) > largest
    assert shapes and max(map(max, shapes)) <= largest


def test_c5_box_build_multiplies_no_ambient_matrix(monkeypatch):
    """Building the C_5/F_11 relative box multiplies only factor-sized
    matrices: the ambient maps and relation rows come from the factors'
    column terms, never from a product of ambient-sized operands.  A
    product with ``Mat.identity``, which does no arithmetic, is not
    counted: a one-step chain composite is such a product."""
    _assert_box_build_multiplies_no_ambient_matrix(monkeypatch, C5_CONFIG)


@pytest.mark.parametrize("path", [
    CONFIG_DIR / "kummer_f5_n4.cfg",
    ROOT / "bench" / "configs" / "kummer_f13_n6.cfg"],
    ids=["C4", "C6"])
def test_composite_order_box_build_multiplies_no_ambient_matrix(
        monkeypatch, path):
    """At a composite order the product table also reads restriction and
    transfer composites along chains of two or more covering steps; they
    are composed from the covering maps' terms, so these builds multiply
    only factor-sized matrices too."""
    _assert_box_build_multiplies_no_ambient_matrix(monkeypatch, path)


def test_a_zero_multiplication_stores_no_product():
    """On a fuzz oracle pair, whose factors multiply to zero, neither the
    generic box nor the prime oracle stores a product."""
    A, B = next(_fuzz_oracle_pairs())
    assert box(A, B)._mult_cache == {}
    assert prime_box_oracle(A, B, A.lattice.n)._mult_cache == {}


def test_one_inserted_product_is_caught_exactly_when_it_escapes():
    """On the zero-multiplication box of a fuzz oracle pair, one nonzero
    product inserted into the empty table is caught by the descent check
    exactly when some relation-basis row times some generator, on either
    side, leaves the relation span."""
    bx = box(*next(_fuzz_oracle_pairs()))
    K = bx.scalars
    one = K.lift([K.one])[0]
    outcomes = set()
    for m in bx.lattice.divisors:
        lvl = bx.levels[m]
        units = [unit_vec(K, lvl.ngens, g) for g in range(lvl.ngens)]
        picks = sorted({0, lvl.ngens - 1, *lvl.pivots[:1], *lvl.pivots[-1:],
                        *lvl.free[:1], *lvl.free[-1:]})
        for a in picks:
            for b in picks:
                for f in picks:
                    bx._mult_cache[(m, a, b)] = ((f, one),)
                    violated = any(
                        not in_relation_span(lvl, prod)
                        for r in lvl.relation_basis for e in units
                        for prod in (mult_vec(bx, m, r, e),
                                     mult_vec(bx, m, e, r)))
                    try:
                        boxes._check_descent(bx)
                    except InternalCheckError as exc:
                        assert "multiplication" in str(exc), (m, a, b, f)
                        assert violated, (m, a, b, f)
                    else:
                        assert not violated, (m, a, b, f)
                    outcomes.add(violated)
                    del bx._mult_cache[(m, a, b)]
    assert outcomes == {False, True}


def test_descent_check_reads_only_the_product_table(monkeypatch,
                                                    kummer4_bundle):
    """``_check_descent`` on a built C_4 box computes no product: with the
    builder's product fill (``_fill_products``, ``_fill_pure`` and
    ``_spread``) patched to raise, it still passes and installs the same
    reduced products."""
    bx = relative_box(kummer4_bundle.fix, F5)
    before = products(bx.green)
    for name in ("_fill_products", "_fill_pure", "_spread"):
        monkeypatch.setattr(boxes, name, _raise)
    boxes._check_descent(bx)
    assert products(bx.green) == before


def test_vanishing_reduced_products_share_one_tuple():
    lat = subgroup_lattice(3)
    A = zero_green(small_random_mackey(lat, F7, seed=1))
    G = box(A, A).green
    for m in lat.divisors:
        assert {v for row in G.terms(m) for v in row} == {()}, m
        assert len({id(v) for row in G.terms(m) for v in row}) == 1, m


def test_commuted_reduced_products_share_one_tuple(kummer3_bundle):
    G = kummer3_bundle.box.green
    for m in G.lattice.divisors:
        table = G.terms(m)
        assert all(table[a][b] is table[b][a]
                   for a in range(len(table)) for b in range(a)), m


@pytest.mark.parametrize("config", [
    "artin_schreier_f2.cfg", "kummer_f5_n2.cfg", "kummer_f7_n3.cfg",
    "kummer_f5_n4.cfg", "fuzz oracle pair"])
def test_ambient_transfer_composites_relabel(config):
    """``_chain_terms`` reads the transfer composite's column t as its single
    index ``up[t][0][0]``: every column is one 1, in a row of its own."""
    if config.endswith(".cfg"):
        ext = load_config(str(CONFIG_DIR / config)).extension()
        bx = relative_box(fix_functor(ext), ext.base)
    else:
        bx = box(*next(_fuzz_oracle_pairs()))
    one = bx.scalars.lift([bx.scalars.one])[0]
    divs = bx.lattice.divisors
    for m in divs:
        for d in (d for d in divs if m % d == 0):
            cols = bx.ambient.tr_mat(m, d).col_terms()
            assert all(len(c) == 1 and c[0][1] == one for c in cols), (m, d)
            rows = [c[0][0] for c in cols]
            assert len(set(rows)) == len(rows), (m, d)


# ---------------------------------------------------------------------------
# compare_boxes: negative controls
#
# The C_4 relative box against a shallow copy of itself whose Green functor
# has one structure map changed; the comparison must report that map and
# nothing else.


def _bumped(mat):
    """``mat`` with its top-left entry increased by one."""
    rows = [list(r) for r in mat.rows]
    rows[0][0] = rows[0][0] + F5.one
    return Mat(F5, rows, ncols=mat.ncols)


def _with_mackey(G, res=None, weyl=None):
    M = G.mackey
    mack = MackeyFunctor(F5, M.lattice, M.labels, res or M.res, M.tr,
                         weyl or M.weyl)
    return GreenFunctor(mack, products(G), G.unit)


def _corrupt_res(G):
    return _with_mackey(G, res={**G.mackey.res,
                                (2, 4): _bumped(G.mackey.res[(2, 4)])})


def _corrupt_weyl(G):
    return _with_mackey(G, weyl={**G.mackey.weyl,
                                 4: _bumped(G.mackey.weyl[4])})


def _corrupt_unit(G):
    u = list(G.unit[1])
    u[0] = u[0] + F5.one
    return GreenFunctor(G.mackey, products(G), {**G.unit, 1: tuple(u)})


@pytest.mark.parametrize("corrupt,rule", [
    (_corrupt_res, "morphism_res"),
    (lambda G: GreenFunctor(corrupt_transfer(G.mackey), products(G),
                            G.unit),
     "morphism_tr"),
    (_corrupt_weyl, "morphism_weyl"),
    (corrupt_multiplication, "morphism_mult"),
    (_corrupt_unit, "morphism_unit"),
], ids=["res", "tr", "weyl", "mult", "unit"])
def test_compare_boxes_names_corrupt_map(kummer4_bundle, corrupt, rule):
    rb = kummer4_bundle.box
    bad = copy.copy(rb)
    bad.green = corrupt(rb.green)
    diffs = compare_boxes(rb, bad)
    assert diffs and all(d.startswith(rule) for d in diffs), diffs


# The same box against a copy whose level 4 is presented by one relation
# fewer, or by one more: each direction of the span comparison must fire.


def _with_level4_relations(bx, rows):
    other = copy.copy(bx)
    other.levels = {**bx.levels,
                    4: PresentedLevel(F5, bx.levels[4].labels, rows)}
    return other


def test_compare_boxes_names_a_smaller_relation_span(kummer4_bundle):
    rb = kummer4_bundle.box
    fewer = _with_level4_relations(rb, rb.levels[4].relation_basis[1:])
    diffs = compare_boxes(rb, fewer)
    assert "level 4: relation span differs (1 vs 2)" in diffs
    assert "level 4: relation span differs (2 vs 1)" not in diffs


def test_compare_boxes_names_a_larger_relation_span(kummer4_bundle):
    rb = kummer4_bundle.box
    lvl = rb.levels[4]
    extra = unit_vec(F5, lvl.ngens, lvl.free[0])
    more = _with_level4_relations(rb, list(lvl.relation_basis) + [extra])
    diffs = compare_boxes(rb, more)
    assert "level 4: relation span differs (2 vs 1)" in diffs
    assert "level 4: relation span differs (1 vs 2)" not in diffs


# Ambient mismatches are reported before any relation span is compared.


def test_compare_boxes_names_different_ambient_sizes(kummer2_bundle):
    Kc = constant_functor(F5, 2)
    diffs = compare_boxes(box(Kc, Kc), box(Kc, kummer2_bundle.fix))
    assert "level 1: ambient dimensions differ" in diffs
    assert "level 2: ambient dimensions differ" in diffs


def test_compare_boxes_names_different_generator_labels(kummer2_bundle):
    A, B = constant_functor(F5, 2), kummer2_bundle.fix
    b1, b2 = box(A, B), box(B, A)
    assert all(b1.amb_dim(m) == b2.amb_dim(m) for m in (1, 2))
    assert "level 1: generator labels differ" in compare_boxes(b1, b2)
