import random
import re

import pytest

from greenbox.algebras import (base_as_algebra, poly_quotient_algebra,
                               tensor_algebra)
from greenbox.boxes import box, relative_box
from greenbox.extensions import artin_schreier_extension, kummer_extension
from greenbox.fields import prime_field
from greenbox.green import constant_functor, fix_functor
from greenbox.linalg import Mat, inverse, unit_vec
from greenbox.mackey import (InternalCheckError, MackeyMorphism, check_axioms,
                             corrupt_transfer, random_mackey, solve_in,
                             subgroup_lattice)
from greenbox.presented import PresentedLevel

from reference import vec_scale
from greenbox.modules import (_assert_iso, check_eigen, constant_box_iso,
                              constant_box_lemma_check,
                              eigen_decompose, fix_reconstruction,
                              projectivity_certificate, verify_certificate)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)


def fix_of_module_map(src, dst, level1_map):
    """Morphism of fixed-point functors induced by an equivariant map of
    underlying modules (must commute with the actions)."""
    if level1_map @ src.action != dst.action @ level1_map:
        raise InternalCheckError("level-1 map is not equivariant")
    comps = {m: solve_in(dst.embeds[m], level1_map @ src.embeds[m],
                         f"induced map does not preserve fixed points at "
                         f"level {m}")
             for m in src.functor.lattice.divisors}
    return MackeyMorphism(src.functor, dst.functor, comps)


# ---------------------------------------------------------------------------
# eigen decomposition


def test_eigen_table_matches_fixed_point_functor(kummer4_bundle):
    dec = eigen_decompose(kummer4_bundle.fix.mackey, F5.from_int(2))
    assert check_eigen(dec) == []
    for i in range(4):
        for m in (1, 2, 4):
            expected = 1 if i % m == 0 else 0
            assert dec.pieces[i].functor.dim(m) == expected
    # piece i at level 1 is spanned by α^i
    L = kummer4_bundle.fix
    for i in range(4):
        vec = L.level_embed[1].apply(dec.pieces[i].embed[1].col(0))
        nz = [idx for idx, c in enumerate(vec) if c != F5.zero]
        assert nz == [i]


def test_eigen_piece_transfers(kummer4_bundle):
    # on piece i with m | i, the fixed-to-free transfers multiply by m/d
    dec = eigen_decompose(kummer4_bundle.fix.mackey, F5.from_int(2))
    piece2 = dec.pieces[2].functor
    assert piece2.tr[(2, 1)] == Mat.identity(F5, 1).scale(F5.from_int(2))


def test_eigen_constant_functor_concentrated_in_piece_zero():
    Kc = constant_functor(F5, 4)
    dec = eigen_decompose(Kc.mackey, F5.from_int(2))
    assert check_eigen(dec) == []
    for m in (1, 2, 4):
        assert dec.pieces[0].functor.dim(m) == 1
        for i in (1, 2, 3):
            assert dec.pieces[i].functor.dim(m) == 0


def test_eigen_requires_invertible_order():
    Kc = constant_functor(F2, 2)
    with pytest.raises(ValueError):
        eigen_decompose(Kc.mackey, F2.one)


def test_eigen_requires_primitive_root():
    Kc = constant_functor(F5, 4)
    with pytest.raises(ValueError):
        eigen_decompose(Kc.mackey, F5.from_int(4))   # order 2, not 4


def test_eigen_random_modules():
    lat = subgroup_lattice(4)
    for seed in range(10):
        M = random_mackey(lat, F5, seed=seed)
        dec = eigen_decompose(M, F5.from_int(2))
        assert check_eigen(dec) == []
        assert sum(dec.pieces[i].functor.dim(1) for i in range(4)) == M.dim(1)


# ---------------------------------------------------------------------------
# fixed-point reconstruction


def test_reconstruction_of_fix_functor(kummer4_bundle):
    morphism, fpm = fix_reconstruction(kummer4_bundle.fix.mackey)
    assert morphism.is_isomorphism()
    assert morphism.components[1] == Mat.identity(F5, 4)


def test_reconstruction_of_constant_functor():
    Kc = constant_functor(F7, 3)
    morphism, _ = fix_reconstruction(Kc.mackey)
    assert morphism.is_isomorphism()


@pytest.mark.parametrize("n,field", [(3, F7), (4, F5)])
def test_reconstruction_random_modules(n, field):
    lat = subgroup_lattice(n)
    for seed in range(10):
        M = random_mackey(lat, field, seed=seed)
        morphism, _ = fix_reconstruction(M)
        assert morphism.is_isomorphism()


def test_reconstruction_naturality():
    # projector combinations are endomorphisms; the reconstruction squares
    # must commute with the induced map of fixed-point functors
    lat = subgroup_lattice(3)
    rng = random.Random(7)
    for seed in range(8):
        M = random_mackey(lat, F7, seed=seed)
        dec = eigen_decompose(M, F7.from_int(2))
        phi_comps = {}
        coeffs = [F7.random(rng) for _ in range(3)]
        for m in lat.divisors:
            acc = Mat.zeros(F7, M.dim(m), M.dim(m))
            for i, c in enumerate(coeffs):
                acc = acc + dec.projectors[i][m].scale(c)
            phi_comps[m] = acc
        phi = MackeyMorphism(M, M, phi_comps)
        assert phi.check() == []
        morphism, fpm = fix_reconstruction(M)
        induced = fix_of_module_map(fpm, fpm, phi.components[1])
        for m in lat.divisors:
            lhs = induced.components[m] @ morphism.components[m]
            rhs = morphism.components[m] @ phi.components[m]
            assert lhs == rhs


# ---------------------------------------------------------------------------
# projectivity certificates


def test_normal_basis_certificate(as_bundle):
    cert = projectivity_certificate(as_bundle.ext, as_bundle.fix)
    assert cert.kind == "normal_basis"
    assert verify_certificate(cert) == []
    assert cert.details["normal_basis_determinant"] != "0"


def test_plus_minus_certificate(kummer2_bundle):
    cert = projectivity_certificate(kummer2_bundle.ext, kummer2_bundle.fix)
    assert cert.kind == "plus_minus"
    assert verify_certificate(cert) == []
    assert cert.details["plus_dims"] == {1: 1, 2: 1}
    assert cert.details["minus_dims"] == {1: 1, 2: 0}


@pytest.mark.parametrize("bundle_name", ["kummer3_bundle", "kummer4_bundle"])
def test_eigen_free_certificates(bundle_name, request):
    bundle = request.getfixturevalue(bundle_name)
    cert = projectivity_certificate(bundle.ext, bundle.fix)
    assert cert.kind == "eigen_free"
    assert verify_certificate(cert) == []
    n = bundle.ext.degree
    assert len(cert.witnesses) == n


def test_certificate_witnesses_are_two_sided(kummer4_bundle):
    cert = projectivity_certificate(kummer4_bundle.ext, kummer4_bundle.fix)
    for w in cert.witnesses:
        for m in w.morphism.source.lattice.divisors:
            fwd, bwd = w.morphism.components[m], w.inverse.components[m]
            n = fwd.ncols
            assert bwd @ fwd == Mat.identity(F5, n)
            assert inverse(fwd) is not None or n == 0


def test_tampered_certificate_detected(kummer2_bundle):
    cert = projectivity_certificate(kummer2_bundle.ext, kummer2_bundle.fix)
    w = cert.witnesses[0]
    w.morphism.components[2] = w.morphism.components[2].scale(F5.from_int(2))
    assert verify_certificate(cert)


# ---------------------------------------------------------------------------
# failure witnesses: the first failing column, "<label> ↦ <image>"


def test_reconstruction_witness_names_a_failing_column():
    M = corrupt_transfer(random_mackey(subgroup_lattice(4), F5, seed=1))
    with pytest.raises(InternalCheckError,
                       match="reconstruction is not a morphism") as exc:
        fix_reconstruction(M)
    found = re.fullmatch(r"morphism_tr \[pair=\((\d+), (\d+)\)\] "
                         r"reconstruction: (\S+) ↦ (.+)", exc.value.witness)
    assert found, exc.value.witness
    assert found[3] in M.labels[int(found[1])]
    assert found[4] != "0"


def _tampered_plus_minus(bundle):
    """The C_2 Kummer certificate with its level-2 component doubled."""
    cert = projectivity_certificate(bundle.ext, bundle.fix)
    w = cert.witnesses[0]
    w.morphism.components[2] = w.morphism.components[2].scale(F5.from_int(2))
    return cert, w.morphism


def test_iso_witness_names_a_failing_column(kummer2_bundle):
    _, fwd = _tampered_plus_minus(kummer2_bundle)
    with pytest.raises(InternalCheckError,
                       match="witness is not a morphism") as exc:
        _assert_iso(fwd)
    label = fwd.source.labels[2][0]
    assert exc.value.witness == \
        f"morphism_res [pair=(1, 2)] plus_part: {label} ↦ 4·1"


def test_iso_check_rejects_a_singular_morphism():
    """The zero endomorphism of a constant functor commutes with every
    structure map, so only the invertibility test can reject it."""
    M = constant_functor(F5, 2).mackey
    zero = MackeyMorphism(M, M, {m: Mat.zeros(F5, 1, 1)
                                 for m in M.lattice.divisors}, name="zero")
    assert zero.check() == []
    with pytest.raises(InternalCheckError,
                       match="^witness is not an isomorphism$"):
        _assert_iso(zero)


@pytest.mark.parametrize("rule,side", [("witness_left_inverse", "source"),
                                       ("witness_right_inverse", "target")])
def test_inverse_witness_names_a_failing_column(kummer2_bundle, rule, side):
    cert, fwd = _tampered_plus_minus(kummer2_bundle)
    label = getattr(fwd, side).labels[2][0]
    details = [v.detail for v in verify_certificate(cert) if v.rule == rule]
    assert details == [f"{label} ↦ 2·{label}"]


# ---------------------------------------------------------------------------
# constant-box identification


def test_constant_box_f4_squared():
    F4alg = poly_quotient_algebra(F2, [F2.one, F2.one, F2.one], var="t",
                                  name="F_4")
    for n in (2, 4):
        chk = constant_box_lemma_check(F4alg, F4alg, n)
        assert chk.ok, chk.failures
        assert chk.tensor_dim == 4
        assert all(d == 4 for d in chk.level_dims.values())


def test_constant_box_one_dimensional():
    one = base_as_algebra(F2)
    for n in (2, 3, 6):
        chk = constant_box_lemma_check(one, one, n)
        assert chk.ok
        assert all(d == 1 for d in chk.level_dims.values())


def test_constant_box_with_nilpotents():
    F9alg = poly_quotient_algebra(F3, [F3.one, F3.zero, F3.one], var="t",
                                  name="F_9")
    dual = poly_quotient_algebra(F3, [F3.zero, F3.zero, F3.one], var="s",
                                 name="F_3[s]/(s^2)")
    chk = constant_box_lemma_check(F9alg, dual, 3)
    assert chk.ok, chk.failures
    assert chk.tensor_dim == 4


def test_constant_box_requires_prime_field():
    from greenbox.fields import finite_field
    F4 = finite_field(2, 2)
    with pytest.raises(ValueError):
        constant_box_lemma_check(base_as_algebra(F4), base_as_algebra(F4), 2)


# ---------------------------------------------------------------------------
# the constant-box identification against a dense reference


def _dense_constant_box_iso(bx, tensor):
    """``constant_box_iso`` through a dense ambient matrix whose column for
    the generator (d, i, j) of level m is (m/d)·e_{i·dim B(d) + j}."""
    K, B = bx.scalars, bx.right
    onto = PresentedLevel(K, tensor.labels, [])
    iso = {}
    for m in bx.lattice.divisors:
        cols = [vec_scale(K.from_int(m // d),
                          unit_vec(K, tensor.dim, i * B.dim(d) + j))
                for (d, i, j) in bx.gens[m]]
        try:
            phi = bx.levels[m].descend(Mat.from_cols(K, cols, tensor.dim),
                                       onto, "")
        except InternalCheckError:
            return None
        if inverse(phi) is None:
            return None
        iso[m] = phi
    return iso


F4ALG = poly_quotient_algebra(F2, [F2.one, F2.one, F2.one], var="t",
                              name="F_4")
F5SQRT2 = poly_quotient_algebra(F5, [F5.from_int(3), F5.zero, F5.one],
                                var="t", name="F_5(√2)")


@pytest.mark.parametrize("alg,n", [
    (F4ALG, 2), (F4ALG, 4), (F5SQRT2, 2), (F5SQRT2, 5),
    (base_as_algebra(F3), 3), (base_as_algebra(F7), 6)])
def test_constant_box_iso_matches_the_dense_reference(alg, n):
    """The identification built from one raw term per generator is the
    dense one, both where some m/d vanishes in the field (F_2 at n = 2, 4;
    F_5 at n = 5; F_3 at n = 3) and where none does (F_5 at n = 2; F_7 at
    n = 6)."""
    Ac = constant_functor(alg, n)
    bx = box(Ac, Ac)
    tensor = tensor_algebra(alg, alg)
    iso = constant_box_iso(bx, tensor)
    assert iso is not None
    assert iso == _dense_constant_box_iso(bx, tensor)


def test_constant_box_iso_refuses_a_box_of_fixed_point_functors():
    """On L^fix □ L^fix over C_2 (not a box of constant functors) both
    paths find no identification."""
    ext = kummer_extension(F5, 2, F5.from_int(2), F5.from_int(-1))
    bx = relative_box(fix_functor(ext), F5)
    tensor = tensor_algebra(ext.algebra, ext.algebra)
    assert constant_box_iso(bx, tensor) is None
    assert _dense_constant_box_iso(bx, tensor) is None
