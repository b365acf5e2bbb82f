"""The identity transport of ``compare_boxes`` against the general path.

When two boxes share their generators and keep the same free generators,
``_permuted_bases`` hands ``Mat.identity`` to ``check_green_morphism``,
which then compares product terms and units by equality.  These tests pin
that shortcut to the path it replaces: the descended matrix is the identity
entry for entry, the identity is used exactly when the free generators
agree, and the violation lists of both paths are equal, in order, on the
oracle pairs of every config, on the boxes of a fuzz pass and on corrupted
targets.  The equality path needs every product's terms as one tuple of
sorted, reduced, nonzero ``(index, scalar)`` pairs; the last tests assert
that of every Green functor the pipeline builds.
"""

import copy
import functools
import pathlib

import pytest

import greenbox.report
from greenbox.boxes import _permuted_bases, absolute_box_supported, \
    coequalizer_oracle, compare_boxes, prime_box_oracle
from greenbox.fields import is_prime
from greenbox.green import GreenFunctor, check_green_morphism, \
    constant_functor, zero_green
from greenbox.linalg import Mat
from greenbox.mackey import MackeyFunctor, random_mackey, subgroup_lattice
from greenbox.report import EtaleReport, fuzz, load_config

from reference import corrupt_multiplication, products

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = sorted(str(p.relative_to(ROOT)) for p in [
    *ROOT.glob("configs/*.cfg"), *ROOT.glob("bench/configs/*.cfg")])
C5 = str(ROOT / "bench" / "configs" / "kummer_f11_n5.cfg")

@functools.cache
def report(path):
    """The report of a config, its boxes built once per test run."""
    return EtaleReport(load_config(str(ROOT / path)))


@functools.cache
def oracle_pairs(path):
    """(relative box, oracle box) for the prime closed form where it
    applies to the config, as the report compares them; the coequalizer
    oracle, which returns no box, must pass."""
    r = report(path)
    rb, n = r.rel_box, r.galois.degree
    if not absolute_box_supported(r.galois.base):
        return []
    assert coequalizer_oracle(rb) is None
    if is_prime(n):
        return [(rb, prime_box_oracle(r.fixed, r.fixed, n))]
    return []


@functools.cache
def fuzz_pairs():
    """The box pairs one plain fuzz pass over C_5/F_11 compares."""
    seen = []

    def recording(b1, b2, gen_map=None):
        seen.append((b1, b2))
        return compare_boxes(b1, b2, gen_map)

    mp = pytest.MonkeyPatch()
    mp.setattr(greenbox.report, "compare_boxes", recording)
    try:
        assert fuzz(load_config(C5)).ok
    finally:
        mp.undo()
    return seen


def identities(G):
    return {m: Mat.identity(G.scalars, G.dim(m)) for m in G.lattice.divisors}


def plain(components):
    """The same matrices as plain ``Mat``s, which take the general path."""
    return {m: Mat._from_raw(phi.field, phi.raw, phi.ncols)
            for m, phi in components.items()}


def assert_same_violations(source, target):
    """Both paths of ``check_green_morphism`` give the same list; returned
    for the caller to inspect."""
    ident = identities(source)
    fast = check_green_morphism(source, target, ident, "φ")
    assert fast == check_green_morphism(source, target, plain(ident), "φ")
    return fast


def identity_descent(b1, b2, m):
    """The induced matrix of the identity generator map at level m, as
    ``_permuted_bases`` descends it."""
    one = b1.scalars.raw_one
    return b1.levels[m].descend(lambda t: ((t, one),), b2.levels[m], "")


def assert_identity_transport(b1, b2):
    diffs = []
    phi = _permuted_bases(b1, b2, None, diffs)
    assert diffs == [] and sorted(phi) == b1.lattice.divisors
    for m, found in phi.items():
        assert b1.levels[m].free == b2.levels[m].free
        ident = Mat.identity(b1.scalars, b1.dim(m))
        assert found is ident
        descended = identity_descent(b1, b2, m)
        assert not descended.known_identity
        assert (descended.nrows, descended.ncols, descended.raw) == \
            (ident.nrows, ident.ncols, ident.raw)


# ---------------------------------------------------------------------------
# the transported basis


@pytest.mark.parametrize("path", CONFIGS)
def test_oracle_pairs_transport_by_the_interned_identity(path):
    for b1, b2 in oracle_pairs(path):
        assert_identity_transport(b1, b2)


def test_fuzz_pairs_transport_by_the_interned_identity():
    pairs = fuzz_pairs()
    assert len(pairs) == 10
    for b1, b2 in pairs:
        assert_identity_transport(b1, b2)


def _reordered(lvl):
    """``lvl`` with its reduced coordinates in reverse order: the same
    relation span and quotient, on the free generators in another order."""
    other = copy.copy(lvl)
    last = lvl.dim - 1
    other.free = lvl.free[::-1]
    other.reduced_labels = lvl.reduced_labels[::-1]
    other._column = [None if c is None else last - c for c in lvl._column]
    other.q = tuple(None if t is None else
                    tuple(sorted((last - k, a) for k, a in t)) for t in lvl.q)
    return other


def test_free_generators_in_another_order_keep_the_descended_matrix(
        kummer4_bundle):
    """Equal relation spans on differently ordered free generators: both
    descents pass, and the transported basis is the descended permutation,
    not the identity, so the comparison reports the relabeling."""
    rb = kummer4_bundle.box
    other = copy.copy(rb)
    other.levels = {**rb.levels, 4: _reordered(rb.levels[4])}
    assert rb.dim(4) > 1 and rb.levels[4].free != other.levels[4].free
    diffs = []
    phi = _permuted_bases(rb, other, None, diffs)
    assert diffs == []
    assert not phi[4].known_identity
    assert phi[4] == identity_descent(rb, other, 4)
    assert phi[4] != Mat.identity(rb.scalars, rb.dim(4))
    assert all(phi[m] is Mat.identity(rb.scalars, rb.dim(m)) for m in (1, 2))
    assert compare_boxes(rb, other) != []


# ---------------------------------------------------------------------------
# check_green_morphism: the equality path against the general one


@pytest.mark.parametrize("path", CONFIGS)
def test_oracle_pairs_have_the_same_violations_on_both_paths(path):
    for b1, b2 in oracle_pairs(path):
        assert assert_same_violations(b1.green, b2.green) == []


def test_fuzz_pairs_have_the_same_violations_on_both_paths():
    for b1, b2 in fuzz_pairs():
        assert assert_same_violations(b1.green, b2.green) == []


def _bump(mat):
    """``mat`` with its first entry increased by one."""
    K = mat.field
    rows = [list(r) for r in mat.rows]
    rows[0][0] = rows[0][0] + K.one
    return Mat(K, rows, ncols=mat.ncols)


def _with_maps(G, res=None, weyl=None, unit=None):
    M = G.mackey
    mack = MackeyFunctor(G.scalars, M.lattice, M.labels, res or M.res, M.tr,
                         weyl or M.weyl)
    return GreenFunctor(mack, products(G), unit or G.unit, name=G.name)


def corrupted_targets(G):
    """(corruption, expected rule) pairs: five corrupted multiplications
    and one bumped restriction, Weyl and unit entry."""
    pair = next(p for p in G.lattice.covering_pairs
                if G.dim(p[0]) and G.dim(p[1]))
    unit = list(G.unit[1])
    unit[0] = unit[0] + G.scalars.one
    out = [(corrupt_multiplication(G, seed), "morphism_mult")
           for seed in range(5)]
    out += [(_with_maps(G, res={**G.mackey.res,
                                pair: _bump(G.mackey.res[pair])}),
             "morphism_res"),
            (_with_maps(G, weyl={**G.mackey.weyl,
                                 1: _bump(G.mackey.weyl[1])}),
             "morphism_weyl"),
            (_with_maps(G, unit={**G.unit, 1: tuple(unit)}),
             "morphism_unit")]
    return out


@pytest.mark.parametrize("path", CONFIGS)
def test_corrupted_targets_have_the_same_violations_on_both_paths(path):
    G = report(path).rel_box.green
    for target, rule in corrupted_targets(G):
        found = assert_same_violations(G, target)
        assert rule in [v.rule for v in found], (rule, found)


# ---------------------------------------------------------------------------
# the form the equality path relies on


def assert_canonical_terms(G):
    """Every product's terms: one tuple of (index, scalar) pairs in
    strictly increasing index, each scalar reduced and nonzero; every unit
    a tuple of the level's length."""
    K = G.scalars
    for m in G.lattice.divisors:
        dim = G.dim(m)
        table = G.terms(m)
        assert len(table) == dim
        for row in table:
            assert len(row) == dim
            for terms in row:
                assert type(terms) is tuple, (m, terms)
                idx = [j for j, _ in terms]
                assert idx == sorted(set(idx)) and all(
                    0 <= j < dim for j in idx), (m, terms)
                assert all(c and K.reduce([c]) == [c] for _, c in terms), \
                    (m, terms)
        assert type(G.unit[m]) is tuple and len(G.unit[m]) == dim


@pytest.mark.parametrize("path", CONFIGS)
def test_pipeline_functors_keep_canonical_product_terms(path):
    r = report(path)
    functors = [r.fixed, r.rel_box.green,
                constant_functor(r.galois.base, r.galois.degree)]
    functors += [b.green for _, b in oracle_pairs(path)]
    for G in functors:
        assert_canonical_terms(G)


def test_fuzz_functors_keep_canonical_product_terms():
    for b1, b2 in fuzz_pairs():
        for G in (b1.left, b1.right, b1.green, b2.green):
            assert_canonical_terms(G)
    K = load_config(C5).extension().base
    assert_canonical_terms(zero_green(random_mackey(subgroup_lattice(5), K)))
