import dataclasses
import hashlib
import random

import pytest

from greenbox import mackey
from greenbox.fields import finite_field, prime_field, rationals
from greenbox.green import constant_functor, fix_functor
from greenbox.linalg import Mat, rank
from greenbox.mackey import (InternalCheckError, MackeyFunctor,
                             MackeyMorphism, check_axioms, corrupt_transfer,
                             fix_of_module, permutation_module_atom,
                             random_mackey, small_random_mackey, solve_in,
                             subgroup_lattice)

from reference import base_change

F5 = prime_field(5)
F7 = prime_field(7)


def identity_morphism(M):
    return MackeyMorphism(M, M, {m: Mat.identity(M.scalars, M.dim(m))
                                 for m in M.lattice.divisors}, name="id")


def test_lattice_shape():
    lat = subgroup_lattice(12)
    assert lat.divisors == [1, 2, 3, 4, 6, 12]
    assert (6, 12) in lat.covering_pairs and (4, 12) in lat.covering_pairs
    assert (3, 12) not in lat.covering_pairs  # index 4 is not prime
    assert lat.chain_down(12, 1) == [12, 6, 3, 1]
    assert len(lat.all_chains_down(12, 1)) > 1


def test_constant_functor_axioms():
    for n in (1, 2, 3, 4, 6):
        Kc = constant_functor(F5, n)
        assert check_axioms(Kc.mackey) == []


def test_compose_structure_identity_and_chains():
    """Composite structure maps through ``res_mat`` and ``tr_mat``."""
    lat = subgroup_lattice(6)
    Kc = constant_functor(F7, lat)
    ident = Mat.identity(F7, 1)
    assert Kc.mackey.res_mat(6, 6) == ident
    assert Kc.mackey.res_mat(1, 6) == ident
    assert Kc.mackey.tr_mat(6, 1) == ident.scale(F7.from_int(6))
    with pytest.raises(ValueError):
        Kc.mackey.res_mat(3, 2)


def _scaled(M, kind, key):
    """M with the covering map ``M.<kind>[key]`` scaled by 2."""
    maps = {"res": dict(M.res), "tr": dict(M.tr)}
    maps[kind][key] = maps[kind][key].scale(M.scalars.from_int(2))
    return MackeyFunctor(M.scalars, M.lattice, M.labels, maps["res"],
                         maps["tr"], M.weyl)


@pytest.mark.parametrize("kind,key,rule", [
    ("tr", (2, 1), "tr_transitivity"),
    ("res", (1, 2), "res_transitivity"),
], ids=["tr", "res"])
def test_chain_dependence_is_reported_at_c6(kind, key, rule):
    """C_6 has two covering chains 6 > 2 > 1 and 6 > 3 > 1; scaling a map
    on one of them makes the composites along the two disagree."""
    M = constant_functor(F7, 6).mackey
    assert check_axioms(M) == []
    bad = _scaled(M, kind, key)
    assert rule in {v.rule for v in check_axioms(bad)}


@pytest.mark.parametrize("level,scale,violated", [
    (1, 2, True), (1, -1, False), (2, 2, True), (2, -1, False),
    (4, 2, True)], ids=["1-by-2", "1-by--1", "2-by-2", "2-by--1", "4-by-2"])
def test_weyl_order_is_the_power_n_over_m(level, scale, violated):
    """Over F_7 the scalar s on level m of C_4 has s^(4/m) = 1 exactly when
    s = -1 and m < 4 (2^4 = 2, 2^2 = 4 and 2^1 = 2 mod 7)."""
    M = constant_functor(F7, 4).mackey
    weyl = {**M.weyl, level: M.weyl[level].scale(F7.from_int(scale))}
    bad = MackeyFunctor(F7, M.lattice, M.labels, M.res, M.tr, weyl)
    found = {v.where["level"] for v in check_axioms(bad)
             if v.rule == "weyl_order"}
    assert found == ({level} if violated else set())


def test_fix_functor_transfer_values():
    # tr from the free level to the top: tr(1) = n, tr(α) = 0
    E_field = prime_field(5)
    from greenbox.extensions import kummer_extension
    E = kummer_extension(E_field, 4, E_field.from_int(2),
                         E_field.from_int(2))
    L = fix_functor(E)
    tr = L.mackey.tr_mat(4, 1)
    one = (E_field.one, E_field.zero, E_field.zero, E_field.zero)
    alpha = (E_field.zero, E_field.one, E_field.zero, E_field.zero)
    assert tr.apply(one) == (E_field.from_int(4),)
    assert tr.apply(alpha) == (E_field.zero,)
    assert check_axioms(L.mackey) == []


def test_corrupted_transfer_detected():
    lat = subgroup_lattice(4)
    Kc = constant_functor(F5, lat)
    bad = corrupt_transfer(Kc.mackey, seed=3)
    violations = check_axioms(bad)
    assert violations
    assert any(v.rule in ("double_coset", "tr_equivariance",
                          "tr_transitivity") for v in violations)


@pytest.mark.parametrize("n,p", [(4, 5), (5, 11), (6, 13)])
def test_first_violation_is_the_head_of_the_full_list(n, p):
    """``check_axioms(M, first=True)`` stops at the first violation: it is
    the full list cut to one entry, on corrupted and on sound functors."""
    lat, K = subgroup_lattice(n), prime_field(p)
    caught, longer = 0, 0
    for seed in range(50):
        M = random_mackey(lat, K, seed=seed)
        assert check_axioms(M, first=True) == check_axioms(M) == []
        bad = corrupt_transfer(M, seed=seed)
        full = check_axioms(bad)
        assert check_axioms(bad, first=True) == full[:1]
        caught += bool(full)
        longer += len(full) > 1
    assert caught == 50 and longer > 0


def test_random_mackey_constant_pattern():
    lat = subgroup_lattice(4)
    M = random_mackey(lat, F5, dims={4: 1}, randomize_basis=False)
    Kc = constant_functor(F5, lat).mackey
    for (d, m) in lat.covering_pairs:
        assert M.res[(d, m)] == Kc.res[(d, m)]
        assert M.tr[(m, d)] == Kc.tr[(m, d)]
    for m in lat.divisors:
        assert M.weyl[m] == Kc.weyl[m]


def test_random_mackey_deterministic():
    lat = subgroup_lattice(6)
    a = random_mackey(lat, F7, seed=42)
    b = random_mackey(lat, F7, seed=42)
    for (d, m) in lat.covering_pairs:
        assert a.res[(d, m)] == b.res[(d, m)]
        assert a.tr[(m, d)] == b.tr[(m, d)]
    c = random_mackey(lat, F7, seed=43)
    assert any(a.res[p] != c.res[p] for p in a.res) or \
        any(a.tr[p] != c.tr[p] for p in a.tr) or \
        any(a.weyl[m] != c.weyl[m] for m in lat.divisors)


# seed -> (singular draws rejected, SHA-256 of the structure maps' raw rows)
# of random_mackey(C_5, F_11, seed), as recorded before the elimination
# kernel deferred its back-substitution
RNG_STREAM = {
    0: (0, "d2a9910bbdc6113ea077e76f66247c0dee0f0d7fd71ed67f64d1afeeeac1eaeb"),
    3: (0, "d4994373a6e75513c18ad4a285221da0e6a7fc78f8de9ce10d248dc05ebf8bf3"),
    10: (1, "b0db6c529f9b719e2016d3086461faf3e8ac54fa94677a9cefebb0f9844b039d"),
    37: (1, "891b3aa007e41cff84a424c9f2700859edb642bf6aa66d776b21de08af1afc33"),
}


@pytest.mark.parametrize("seed", sorted(RNG_STREAM))
def test_random_mackey_rng_stream_is_pinned(seed, monkeypatch):
    """The fuzz functors on C_5/F_11 are the recorded ones, and ``inverse``
    rejects the same singular draws (seeds 10 and 37 each reject one), so
    a fuzz failure reproduces from its seed whatever the kernel does."""
    rejected = []

    def inverse(mat):
        inv = real_inverse(mat)
        if inv is None:
            rejected.append(mat)
        return inv

    real_inverse = mackey.inverse
    monkeypatch.setattr(mackey, "inverse", inverse)
    M = random_mackey(subgroup_lattice(5), prime_field(11), seed=seed)
    digest = hashlib.sha256()
    for kind in ("res", "tr"):
        for key in sorted(getattr(M, kind)):
            digest.update(repr((kind, key, getattr(M, kind)[key].raw))
                          .encode())
    for m in sorted(M.weyl):
        digest.update(repr(("weyl", m, M.weyl[m].raw)).encode())
    assert (len(rejected), digest.hexdigest()) == RNG_STREAM[seed]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_random_mackey_axioms(n):
    lat = subgroup_lattice(n)
    K = F5 if n % 5 else F7
    for seed in range(20):
        assert check_axioms(random_mackey(lat, K, seed=seed)) == []
        assert check_axioms(small_random_mackey(lat, K, seed=seed)) == []


def test_random_mackey_over_rationals():
    lat = subgroup_lattice(4)
    assert check_axioms(random_mackey(lat, rationals(), seed=1)) == []


def test_fix_of_module_regular_representation():
    lat = subgroup_lattice(2)
    swap = Mat(F5, [[F5.zero, F5.one], [F5.one, F5.zero]], ncols=2)
    fpm = fix_of_module(F5, lat, swap)
    assert fpm.functor.dim(1) == 2 and fpm.functor.dim(2) == 1
    assert check_axioms(fpm.functor) == []


def test_morphism_checks():
    lat = subgroup_lattice(4)
    Kc = constant_functor(F5, lat).mackey
    ident = identity_morphism(Kc)
    assert ident.check() == []
    assert ident.is_isomorphism()
    bad = MackeyMorphism(Kc, Kc, {m: Mat.identity(F5, 1).scale(
        F5.from_int(m)) for m in lat.divisors})
    assert bad.check()   # scaling by the level index breaks res-compatibility


def test_solve_in_coordinates_and_escape():
    line = Mat(F5, [[F5.one], [F5.from_int(2)]], ncols=1)
    inside = Mat(F5, [[F5.from_int(3)], [F5.one]], ncols=1)
    assert solve_in(line, inside, "unused") == Mat(F5, [[F5.from_int(3)]])
    outside = Mat(F5, [[F5.one], [F5.one]], ncols=1)
    with pytest.raises(InternalCheckError, match="^image leaves the line$") \
            as exc:
        solve_in(line, Mat.from_cols(F5, inside.cols() + outside.cols(), 2),
                 "image leaves the line")
    assert exc.value.witness == "column 1: (1, 1)"


def test_solve_in_names_the_column_that_escapes_a_fixed_point_embedding():
    # C_4 permuting the basis of F_5^4 cyclically: V^(C_2) is spanned by
    # e0 + e2 and e1 + e3, which e0 + e1 + e2 + e3 lies in and e0 does not
    lat = subgroup_lattice(4)
    shift = Mat(F5, [[F5.one if i == (j + 1) % 4 else F5.zero
                      for j in range(4)] for i in range(4)])
    fixed = fix_of_module(F5, lat, shift).embeds[2]
    image = Mat.from_cols(F5, [(F5.one,) * 4, fixed.col(1),
                               (F5.one, F5.zero, F5.zero, F5.zero)], 4)
    with pytest.raises(InternalCheckError, match="escapes") as exc:
        solve_in(fixed, image, "escapes")
    assert exc.value.witness == "column 2: (1, 0, 0, 0)"


def test_a_random_invertible_0x0_matrix_draws_nothing():
    rng = random.Random(5)
    state = rng.getstate()
    mat, inv = mackey._random_invertible(F7, 0, rng)
    assert mat == inv == Mat.identity(F7, 0)
    assert (mat.nrows, mat.ncols) == (0, 0)
    assert rng.getstate() == state


def test_weyl_powers_match_repeated_products():
    lat = subgroup_lattice(6)
    M = random_mackey(lat, F7, seed=3)
    for m in lat.divisors:
        w = M.weyl[m]
        acc = Mat.identity(F7, M.dim(m))
        for k in range(2 * (6 // m) + 1):
            assert M.weyl_pow(m, k) == acc
            acc = w @ acc


def test_permutation_atom_is_built_once_and_shared_read_only():
    lat, K = subgroup_lattice(5), prime_field(11)
    for e in lat.divisors:
        atom = permutation_module_atom(K, lat, e)
        assert permutation_module_atom(K, lat, e) is atom
        assert check_axioms(atom.functor) == []
        with pytest.raises(dataclasses.FrozenInstanceError):
            atom.action = None


@pytest.mark.parametrize("n,field", [(5, prime_field(11)),
                                     (4, finite_field(3, 2)),
                                     (3, rationals())],
                         ids=["F11-C5", "F9-C4", "Q-C3"])
def test_random_mackey_on_shared_atoms_matches_fresh_atoms(n, field,
                                                           monkeypatch):
    lat = subgroup_lattice(n)
    for s in range(10):
        shared = random_mackey(lat, field, seed=s)
        with monkeypatch.context() as patch:
            patch.setattr(mackey, "permutation_module_atom",
                          permutation_module_atom.__wrapped__)
            fresh = random_mackey(lat, field, seed=s)
        assert (shared.res, shared.tr, shared.weyl) == \
            (fresh.res, fresh.tr, fresh.weyl), s


@pytest.mark.parametrize("n,field", [(5, prime_field(11)),
                                     (4, finite_field(3, 2)),
                                     (3, rationals())],
                         ids=["F11-C5", "F9-C4", "Q-C3"])
def test_random_mackey_equals_base_change_of_the_same_draws(n, field):
    """Replays random_mackey's draws, with a rank test as the rejection
    rule, and conjugates through the public base_change."""
    lat = subgroup_lattice(n)
    for s in range(10):
        got = random_mackey(lat, field, seed=s)
        rng = random.Random(s)
        dims = {}
        while sum(dims.values()) == 0:
            dims = {e: rng.randrange(3) for e in lat.divisors}
        plain = random_mackey(lat, field, dims=dims, seed=s,
                              randomize_basis=False)
        changes = {}
        for m in lat.divisors:
            d = plain.dim(m)
            while True:
                S = Mat(field, [[field.random(rng) for _ in range(d)]
                                for _ in range(d)], ncols=d)
                if rank(S) == d:
                    break
            changes[m] = S
        want = base_change(plain, changes, name=got.name)
        assert (got.res, got.tr, got.weyl, got.labels) == \
            (want.res, want.tr, want.weyl, want.labels), s


def test_base_change_rejects_a_singular_change():
    M = random_mackey(subgroup_lattice(2), F5, seed=1)
    changes = {m: Mat.identity(F5, M.dim(m)) for m in (1, 2)}
    changes[1] = Mat.zeros(F5, M.dim(1), M.dim(1))
    with pytest.raises(ValueError, match="level 1 is singular"):
        base_change(M, changes)
