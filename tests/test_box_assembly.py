"""The sparse box assembly against the dense reference in
``dense_box_reference``: every ambient Weyl, res and tr matrix (with the
column terms it carries), every level's relation rows in order, and every
product table with its key order, for the generic builder, the prime
oracle and the coequalizer's T □ K^c and threefold boxes; the threefold
box built in full has the ambient maps and product table of the box the
coequalizer quotients, its relation rows are the raw rows the coequalizer
projects, and the reference quotient has that box's relation rows."""

import pathlib
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import dense_box_reference as ref  # noqa: E402
from greenbox.algebras import poly_quotient_algebra  # noqa: E402
from greenbox import boxes  # noqa: E402
from greenbox.boxes import box, coequalizer_oracle, prime_box_oracle, \
    relative_box  # noqa: E402
from greenbox.extensions import kummer_extension  # noqa: E402
from greenbox.fields import is_prime, prime_field, rationals  # noqa: E402
from greenbox.green import constant_functor, fix_functor, \
    zero_green  # noqa: E402
from greenbox.mackey import small_random_mackey, \
    subgroup_lattice  # noqa: E402
from greenbox.report import load_config  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = sorted(str(p.relative_to(ROOT)) for p in [
    *ROOT.glob("configs/*.cfg"), *ROOT.glob("bench/configs/*.cfg")])
F17 = prime_field(17)


def assert_same_maps(amb, weyl, res, tr):
    """The ambient maps equal the reference ones, and the column terms they
    were handed equal those read off the reference entries."""
    for got, want in ((amb.weyl, weyl), (amb.res, res), (amb.tr, tr)):
        assert got.keys() == want.keys()
        for key, mat in want.items():
            assert got[key] == mat, key
            assert got[key].col_terms() == mat.col_terms(), key


def assert_builder_matches(bx):
    weyl, res, tr, relations = ref.ambient_and_relations(bx)
    assert_same_maps(bx.ambient, weyl, res, tr)
    for m in bx.lattice.divisors:
        assert bx.levels[m].relation_rows == relations[m], m
    assert list(bx._mult_cache.items()) == \
        list(ref.fill_products(bx).items())


def assert_prime_oracle_matches(M, N, p):
    po = prime_box_oracle(M, N, p)
    weyl, res, tr, relations, products = ref.prime_oracle(po, M, N, p)
    assert_same_maps(po.ambient, weyl, res, tr)
    assert po.levels[1].relation_rows.nrows == 0
    assert po.levels[p].relation_rows == relations
    assert list(po._mult_cache.items()) == list(products.items())


def assert_coequalizer_matches(b2):
    """The coequalizer against the dense reference, and the threefold box
    the oracle presents by generators and relations only against one built
    in full.  The reference quotient, b2's rows and the dense action maps'
    difference, has b2's relation rows: the coequalizer is b2 itself, which
    the oracle does not rebuild.  The full build's ambient maps and product
    table are b2's, which b2's own descent pass read, and the raw rows the
    oracle projects through b2's levels are the full build's relation rows,
    so every descent triple of the threefold box is checked there."""
    laid_out, projected = [], {}
    layout, project_many = boxes._layout, boxes.PresentedLevel.project_many
    levels = {id(lvl): m for m, lvl in b2.levels.items()}

    def recording(lvl, batch):
        if id(lvl) in levels:
            projected.setdefault(levels[id(lvl)], []).append(list(batch))
        return project_many(lvl, batch)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boxes, "_layout",
                   lambda bx: laid_out.append(bx) or layout(bx))
        mp.setattr(boxes.PresentedLevel, "project_many", recording)
        assert coequalizer_oracle(b2) is None
    presented = laid_out[-1]
    inner, b3 = ref.coequalizer_factors(b2)
    assert_builder_matches(inner)
    assert_builder_matches(b3)
    amb = b2.ambient
    assert_same_maps(b3.ambient, amb.weyl, amb.res, amb.tr)
    assert list(b3._mult_cache.items()) == list(b2._mult_cache.items())
    assert presented.gens == b3.gens == b2.gens
    assert presented.levels == {}
    rows = ref.coequalizer_relations(b2, inner, b3)
    assert projected.keys() == set(b2.lattice.divisors)
    for m in b2.lattice.divisors:
        assert rows[m] == b2.levels[m].relation_rows, m
        batch, = projected[m]
        assert [r for r in batch if r] == \
            list(b3.levels[m].relation_rows.row_terms()), m


def _config_fix(path):
    ext = load_config(str(ROOT / path)).extension()
    return fix_functor(ext), ext


def _check_fix(T, ext):
    bx = relative_box(T, ext.base)
    assert_builder_matches(bx)
    K = ext.base
    if K.order is None or K.order == K.characteristic:
        assert_coequalizer_matches(bx)
        if is_prime(ext.degree):
            assert_prime_oracle_matches(T, T, ext.degree)


@pytest.mark.parametrize("path", CONFIGS)
def test_assembly_matches_the_dense_reference_on_every_config(path):
    _check_fix(*_config_fix(path))


def test_assembly_matches_the_dense_reference_at_c8():
    ext = kummer_extension(F17, 8, F17.from_int(3), F17.from_int(2))
    _check_fix(fix_functor(ext), ext)


FIELDS = {"F5": prime_field(5), "F7": prime_field(7),
          "F11": prime_field(11), "Q": rationals()}
PROPS = settings(derandomize=True, database=None, max_examples=25,
                 deadline=None)


@st.composite
def functor_pairs(draw, orders=(2, 3, 4, 5, 6)):
    """Two Green functors on one lattice over F_5, F_7, F_11 or Q: random
    axiom-true functors with zero multiplication (dense base changes),
    constant functors of the field or of K[t]/(t² − c), in any mix."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    K = FIELDS[name]
    n = draw(st.sampled_from([n for n in orders if name != "Q" or n < 5]))
    lat = subgroup_lattice(n)

    def functor():
        kind = draw(st.sampled_from(["random", "constant", "algebra"]))
        if kind == "random":
            seed = draw(st.integers(0, 10 ** 6))
            return zero_green(small_random_mackey(lat, K, seed=seed))
        if kind == "constant":
            return constant_functor(K, lat)
        c = draw(st.integers(1, 4))
        c = Fraction(c) if name == "Q" else K.from_int(c)
        alg = poly_quotient_algebra(K, [-c, K.zero, K.one])
        return constant_functor(alg, lat)

    return functor(), functor()


@PROPS
@given(functor_pairs())
def test_assembly_matches_the_dense_reference_on_random_pairs(pair):
    A, B = pair
    assert_builder_matches(box(A, B))
    n = A.lattice.n
    if is_prime(n):
        assert_prime_oracle_matches(A, B, n)


@settings(PROPS, max_examples=12)
@given(functor_pairs(orders=[2, 3, 4, 5]))
def test_coequalizer_matches_the_dense_reference_on_random_functors(pair):
    T = pair[0]
    assert_coequalizer_matches(box(T, T))
