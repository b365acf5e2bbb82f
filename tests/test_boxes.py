import copy

import pytest

from conftest import gen_coords, unit_vec

from greenbox import boxes
from greenbox.boxes import (box, box3, compare_boxes, coequalizer_oracle,
                            norm_on_c2_box, prime_box_oracle, relative_box,
                            swap_isomorphic)
from greenbox.extensions import kummer_extension
from greenbox.fields import finite_field, prime_field
from greenbox.green import (GreenFunctor, check_green, constant_functor,
                            corrupt_multiplication, fix_functor, zero_green)
from greenbox.linalg import Mat
from greenbox.mackey import InternalCheckError, MackeyFunctor, check_axioms, \
    corrupt_transfer, small_random_mackey, subgroup_lattice
from greenbox.presented import PresentedLevel

F2 = prime_field(2)
F5 = prime_field(5)
F7 = prime_field(7)


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
    img = tr.apply(b.reduce(1, b.expand(1, one)))
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
    # reduced dimensions agree with the independent coequalizer
    co = coequalizer_oracle(kummer4_bundle.fix, F5)
    assert compare_boxes(rb, co) == []


@pytest.mark.parametrize("bundle_name",
                         ["as_bundle", "kummer2_bundle", "kummer3_bundle"])
def test_coequalizer_agreement(bundle_name, request):
    bundle = request.getfixturevalue(bundle_name)
    co = coequalizer_oracle(bundle.fix, bundle.base)
    assert compare_boxes(bundle.box, co) == []


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
        coequalizer_oracle(L, F4)


def test_coequalizer_builds_each_box_once(kummer4_bundle, monkeypatch):
    # T □ K^c, (T □ K^c) □ T and T □ T; the quotient reuses T □ T's ambient
    calls = []
    build = boxes.build_box

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(boxes, "build_box", counting)
    coequalizer_oracle(kummer4_bundle.fix, F5)
    assert len(calls) == 3


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
                lhs = g.multiply(m, tr.apply(u), tr.apply(v))
                rhs = tr.apply(g.multiply(d, u, res.apply(tr.apply(v))))
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
            rhs = rb.green.multiply(1, z, tau.apply(z))
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
    bx.amb_weyl[4] = _bump(bx, bx.amb_weyl[4], 4, 4)
    with pytest.raises(InternalCheckError, match="Weyl action"):
        boxes._check_descent(bx)


def test_descent_witness_uses_basis_labels(unchecked_c4_box):
    bx = unchecked_c4_box
    bx.amb_weyl[4] = _bump(bx, bx.amb_weyl[4], 4, 4)
    with pytest.raises(InternalCheckError) as exc:
        boxes._check_descent(bx)
    witness = exc.value.witness
    assert isinstance(witness, str) and "↦" in witness
    assert any(lab in witness for lab in bx.levels[4].labels)


def test_descent_rejects_corrupt_restriction(unchecked_c4_box):
    bx = unchecked_c4_box
    bx.amb_res[(2, 4)] = _bump(bx, bx.amb_res[(2, 4)], 4, 2)
    with pytest.raises(InternalCheckError, match="restriction 4->2"):
        boxes._check_descent(bx)


def test_descent_rejects_corrupt_transfer(unchecked_c4_box):
    bx = unchecked_c4_box
    bx.amb_tr[(4, 2)] = _bump(bx, bx.amb_tr[(4, 2)], 2, 4)
    with pytest.raises(InternalCheckError, match="transfer 2->4"):
        boxes._check_descent(bx)


def test_descent_rejects_corrupt_multiplication(unchecked_c4_box):
    bx = unchecked_c4_box
    p, f = _bump_indices(bx, 4, 4)
    bumped = list(bx.mult_gens(4, p, 0))
    bumped[f] = bumped[f] + F5.one
    bx._mult_cache[(4, p, 0)] = tuple(bumped)
    bx._mult_cache.pop(("s", 4, p, 0), None)
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
        return any(not lvl.in_relation_span(prod)
                   for r in lvl.relation_basis for e in units
                   for prod in (bx.mult_vec(4, r, e), bx.mult_vec(4, e, r)))

    caught_with_pivot_left = False
    for a in gens:
        for b in gens:
            saved = bx.mult_gens(4, a, b)
            bumped = list(saved)
            bumped[lvl.free[0]] = bumped[lvl.free[0]] + F5.one
            bx._mult_cache[(4, a, b)] = tuple(bumped)
            bx._mult_cache.pop(("s", 4, a, b), None)
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
            bx._mult_cache.pop(("s", 4, a, b), None)
    assert caught_with_pivot_left


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
    return GreenFunctor(mack, G.mult, G.unit)


def _corrupt_res(G):
    return _with_mackey(G, res={**G.mackey.res,
                                (2, 4): _bumped(G.mackey.res[(2, 4)])})


def _corrupt_weyl(G):
    return _with_mackey(G, weyl={**G.mackey.weyl,
                                 4: _bumped(G.mackey.weyl[4])})


def _corrupt_unit(G):
    u = list(G.unit[1])
    u[0] = u[0] + F5.one
    return GreenFunctor(G.mackey, G.mult, {**G.unit, 1: tuple(u)})


@pytest.mark.parametrize("corrupt,rule", [
    (_corrupt_res, "morphism_res"),
    (lambda G: GreenFunctor(corrupt_transfer(G.mackey), G.mult, G.unit),
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
