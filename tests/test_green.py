import copy
import pathlib

import pytest

from greenbox.algebras import poly_quotient_algebra
from greenbox.extensions import artin_schreier_extension, kummer_extension
from greenbox.fields import finite_field, prime_field
from greenbox.green import (GreenFunctor, NormRule, check_green, check_norms,
                            constant_functor, fix_functor)
from greenbox.linalg import nonzero_terms, unit_vec
from greenbox.mackey import MackeyFunctor, check_axioms
from greenbox.report import load_config

from reference import bumped, corrupt_multiplication, green_functor, \
    mult_table, multiply, norm, permute_green, products, ref_check_green, \
    ref_check_norms

F2 = prime_field(2)
F5 = prime_field(5)
F7 = prime_field(7)
F13 = prime_field(13)


def test_constant_functor_characteristic_two():
    Kc = constant_functor(F2, 2)
    assert Kc.mackey.tr[(2, 1)].apply((F2.one,)) == (F2.zero,)  # 2 = 0


def test_constant_functor_index_formulas():
    Kc = constant_functor(F5, 4)
    lam = (F5.from_int(3),)
    assert Kc.mackey.tr[(4, 2)].apply(lam) == (F5.from_int(6),)
    assert norm(Kc, 4, 2, lam) == (F5.from_int(9),)
    assert Kc.mackey.res[(2, 4)].apply(lam) == lam


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_constant_functor_green_invariants(n):
    for K in (F2, F5, F7):
        Kc = constant_functor(K, n)
        assert check_axioms(Kc.mackey) == []
        assert check_green(Kc) == []
        assert check_norms(Kc) == []


def test_constant_functor_of_algebra():
    F4alg = poly_quotient_algebra(F2, [F2.one, F2.one, F2.one], var="t")
    Ac = constant_functor(F4alg, 2)
    assert Ac.dim(1) == 2
    assert check_green(Ac) == []
    assert check_norms(Ac) == []


def test_fix_functor_artin_schreier_transfer():
    E = artin_schreier_extension(F2, F2.one)
    L = fix_functor(E)
    alpha = (F2.zero, F2.one)
    assert L.mackey.tr[(2, 1)].apply(alpha) == (F2.one,)   # α + τα = 1
    assert L.mackey.res[(1, 2)].apply((F2.one,)) == (F2.one, F2.zero)


def test_fix_functor_kummer_c2_norm_and_transfer():
    E = kummer_extension(F5, 2, F5.from_int(2), F5.from_int(-1))
    L = fix_functor(E)
    alpha = (F5.zero, F5.one)
    assert L.mackey.tr[(2, 1)].apply(alpha) == (F5.zero,)  # α + (−α) = 0
    # norm(α) = −α² = −a = 3 over F_5 with a = 2
    assert norm(L, 2, 1, alpha) == (F5.from_int(3),)


def test_fix_functor_kummer_c4_fixed_level_transfers():
    E = kummer_extension(F5, 4, F5.from_int(2), F5.from_int(2))
    L = fix_functor(E)
    # level-2 basis {1, α²}: tr to the top level kills α² (4 does not divide
    # 2) and doubles elements of K
    tr = L.mackey.tr[(4, 2)]
    assert tr.apply((F5.zero, F5.one)) == (F5.zero,)
    assert tr.apply((F5.from_int(2), F5.zero)) == (F5.from_int(4),)
    # tr between intermediate levels on α²: index 2 | 2, so tr doubles it
    tr21 = L.mackey.tr[(2, 1)]
    a2 = (F5.zero, F5.zero, F5.one, F5.zero)
    assert tr21.apply(a2) == (F5.zero, F5.from_int(2))


@pytest.mark.parametrize("make", [
    lambda: fix_functor(artin_schreier_extension(F2, F2.one)),
    lambda: fix_functor(kummer_extension(F5, 2, F5.from_int(2),
                                         F5.from_int(-1))),
    lambda: fix_functor(kummer_extension(F7, 3, F7.from_int(3),
                                         F7.from_int(2))),
    lambda: fix_functor(kummer_extension(F5, 4, F5.from_int(2),
                                         F5.from_int(2))),
])
def test_fix_functor_invariants(make):
    L = make()
    assert check_axioms(L.mackey) == []
    assert check_green(L) == []
    assert check_norms(L) == []


def test_fix_functor_over_extension_base():
    F4 = finite_field(2, 2)
    E = kummer_extension(F4, 3, F4.gen, F4.gen)
    L = fix_functor(E)
    assert check_green(L) == []
    assert check_norms(L) == []


def test_corrupted_multiplication_detected():
    E = kummer_extension(F5, 2, F5.from_int(2), F5.from_int(-1))
    L = fix_functor(E)
    bad = corrupt_multiplication(L, seed=1)
    violations = check_green(bad)
    assert violations
    rules = {v.rule for v in violations}
    assert rules & {"frobenius_reciprocity", "associativity", "res_ring_map",
                    "unit", "weyl_ring_automorphism"}


class BumpedNorm(NormRule):
    """A norm rule with one value perturbed: the norm of ``arg`` (a vector
    of elements) along the covering pair ``pair`` = (d, m) gets one added
    to its first coordinate."""

    def __init__(self, inner, pair, arg):
        self.inner, self.pair, self.field = inner, pair, arg[0].field
        self.arg = nonzero_terms(self.field, arg)

    def apply_terms(self, to, frm, terms):
        out = self.inner.apply_terms(to, frm, terms)
        if (frm, to) == self.pair and tuple(terms) == self.arg:
            out = self.field.reduce([out[0] + self.field.raw_one, *out[1:]])
        return out


NORM_FUNCTORS = {
    "C4/F5": lambda: fix_functor(kummer_extension(F5, 4, F5.from_int(2),
                                                  F5.from_int(2))),
    "C6/F13": lambda: fix_functor(kummer_extension(F13, 6, F13.from_int(2),
                                                   F13.from_int(4))),
}


@pytest.mark.parametrize("functor,pair,level,i,j", [
    ("C4/F5", (1, 2), 1, 1, None),     # the basis vector α
    ("C4/F5", (2, 4), 2, 0, None),     # the basis vector 1, also the unit
    ("C4/F5", (1, 2), 1, 2, 3),        # the product α²·α³ = 2α
    ("C4/F5", (2, 4), 2, 1, 1),        # the product α²·α² = 2
    # (1, 2) and (1, 3) norm the same arguments to different levels
    ("C6/F13", (1, 3), 1, 1, None),
    ("C6/F13", (1, 2), 1, 3, 4),       # the product α³·α⁴ = 2α
])
def test_check_norms_reports_every_perturbed_norm(functor, pair, level, i,
                                                  j):
    L = NORM_FUNCTORS[functor]()
    assert check_norms(L) == ref_check_norms(L) == []
    K = L.scalars
    e = [unit_vec(K, L.dim(level), k) for k in range(L.dim(level))]
    arg = e[i] if j is None else multiply(L, level, e[i], e[j])
    assert j is None or arg not in e
    bad = copy.copy(L)
    bad.norms = BumpedNorm(L.norms, pair, arg)
    got = check_norms(bad)
    assert got == ref_check_norms(bad)
    assert got and {v.where["pair"] for v in got} == {pair}


def test_permute_green_preserves_structure():
    E = kummer_extension(F5, 4, F5.from_int(2), F5.from_int(2))
    L = fix_functor(E)
    perms = {1: [3, 0, 2, 1], 2: [1, 0], 4: [0]}
    P = permute_green(L, perms)
    assert check_axioms(P.mackey) == []
    assert check_green(P) == []
    assert P.labels(1) == ["α^3", "1", "α^2", "α"]


# ---------------------------------------------------------------------------
# check_green against the element loop over the dense product table


ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg")) + \
    sorted((ROOT / "bench" / "configs").glob("*.cfg"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_check_green_matches_the_element_loop_on_every_config(config):
    E = load_config(str(config)).extension()
    for G in (fix_functor(E), constant_functor(E.base, E.degree)):
        assert check_green(G) == ref_check_green(G) == [], G.name


def _with_maps(G, res=None, weyl=None):
    M = G.mackey
    mack = MackeyFunctor(M.scalars, M.lattice, M.labels,
                         {**M.res, **(res or {})}, M.tr,
                         {**M.weyl, **(weyl or {})}, name=M.name)
    return GreenFunctor(mack, products(G), G.unit, name=G.name)


def _with_bumped_unit(G):
    u = list(G.unit[2])
    u[0] = u[0] + G.scalars.one
    return GreenFunctor(G.mackey, products(G), {**G.unit, 2: tuple(u)},
                        name=G.name)


def _with_one_sided_product(G):
    """G with e_1·e_0 at level 1 bumped and e_0·e_1 left as it is."""
    mult = {m: mult_table(G, m) for m in G.lattice.divisors}
    mult[1][1][0] = (mult[1][1][0][0] + G.scalars.one,) + mult[1][1][0][1:]
    return green_functor(G.mackey, mult, G.unit, name=G.name)


CORRUPTIONS = {
    **{f"mult-seed{s}": (lambda G, s=s: corrupt_multiplication(G, seed=s))
       for s in range(5)},
    "mult-one-sided": _with_one_sided_product,
    "weyl": lambda G: _with_maps(G, weyl={2: bumped(G.mackey.weyl[2])}),
    "res": lambda G: _with_maps(G, res={(1, 2): bumped(
        G.mackey.res[(1, 2)])}),
    "unit": _with_bumped_unit,
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_check_green_matches_the_element_loop_on_corruptions(corruption):
    """The C_4/F_5 fixed-point functor with one product (on both sides or
    on one), one Weyl entry, one restriction entry or one unit coordinate
    changed: check_green reports the same violations, in the same order,
    as the element loop."""
    G = CORRUPTIONS[corruption](NORM_FUNCTORS["C4/F5"]())
    got = check_green(G)
    assert got and got == ref_check_green(G)


def _strings(violations):
    return [str(v) for v in violations]


def _with_unit(G, m):
    """G with the first coordinate of its level-m unit increased by one;
    its norms and level embeddings kept."""
    u = list(G.unit[m])
    u[0] = u[0] + G.scalars.one
    return GreenFunctor(G.mackey, products(G), {**G.unit, m: tuple(u)},
                        norms=G.norms, name=G.name, level_embed=G.level_embed)


def _config_functors(config):
    E = load_config(str(config)).extension()
    return fix_functor(E), constant_functor(E.base, E.degree)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_check_green_matches_the_element_loop_on_bumped_units_and_weyl(
        config):
    """On every config, with one unit coordinate or one Weyl entry changed
    at any level, the raw check_green reports the element loop's
    violations, in its order."""
    for G in _config_functors(config):
        for m in G.lattice.divisors:
            weyl = _with_maps(G, weyl={m: bumped(G.mackey.weyl[m])})
            for bad in (_with_unit(G, m), weyl):
                got = check_green(bad)
                assert got and got == ref_check_green(bad), (G.name, m)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_check_norms_matches_the_element_loop_on_every_config(config):
    """The raw check_norms and the element loop give the same violation
    strings on every config (F_9 and C_6 included): none on the
    fixed-point and constant functors, and the same ones, in the same
    order, with one level's unit perturbed or one basis vector's norm
    bumped along one covering pair.  A perturbed top-level unit is always
    caught (norm_unit); below the top the perturbation may have norm 1,
    as 2 ∈ F_7 has along C_3, and then both report nothing."""
    for G in _config_functors(config):
        assert _strings(check_norms(G)) == _strings(ref_check_norms(G)) \
            == [], G.name
        for m in G.lattice.divisors:
            bad = _with_unit(G, m)
            got = _strings(check_norms(bad))
            assert got == _strings(ref_check_norms(bad)), (G.name, m)
            assert got or m != G.lattice.n, G.name
        K = G.scalars
        for (d, m) in G.lattice.covering_pairs:
            for i in range(G.dim(d)):
                bad = copy.copy(G)
                bad.norms = BumpedNorm(G.norms, (d, m),
                                       unit_vec(K, G.dim(d), i))
                got = _strings(check_norms(bad))
                assert got == _strings(ref_check_norms(bad)), (d, m, i)
                assert got and all(f"pair=({d}, {m})" in v for v in got)
