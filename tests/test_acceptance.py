"""End-to-end acceptance suite.

Each test covers one numbered criterion at its exact (zero-tolerance) values
and prints one pass line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import pathlib

import pytest

from conftest import gen_coords, unit_vec

from greenbox.algebras import poly_quotient_algebra
from greenbox.boxes import (box, compare_boxes, coequalizer_oracle,
                            norm_on_c2_box, prime_box_oracle)
from greenbox.etale import constant_etale_check, kummer_congruence_checks
from greenbox.extensions import kummer_extension
from greenbox.fields import prime_field
from greenbox.green import check_green, constant_functor, fix_functor, \
    zero_green
from greenbox.linalg import Mat, Span, inverse
from greenbox.mackey import (check_axioms, corrupt_transfer, random_mackey,
                             small_random_mackey, subgroup_lattice)
from greenbox.modules import (check_eigen, constant_box_lemma_check,
                              eigen_decompose, fix_reconstruction,
                              projectivity_certificate, verify_certificate)
from greenbox.report import emit, load_config, run_pipeline

from reference import corrupt_multiplication, multiply

F2 = prime_field(2)
F5 = prime_field(5)
F7 = prime_field(7)
F11 = prime_field(11)

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def passline(num, message):
    print(f"\n[criterion {num:02d}] PASS: {message}")


def test_criterion_01_artin_schreier_relative_box(as_bundle):
    rb = as_bundle.box
    data = as_bundle.ideal
    assert rb.dim(2) == 2
    assert rb.levels[2].reduced_labels == ["1⊗1", "[α⊗α]"]
    assert len(data.ideal[2]) == 1
    gen = data.ideal[2][0]
    one = gen_coords(rb, 2, 2, 0, 0)
    cls = gen_coords(rb, 2, 1, 1, 1)
    assert gen == tuple(a + b for a, b in zip(one, cls))  # 1⊗1 + [α⊗α]
    assert multiply(rb.green, 2, gen, gen) == gen          # idempotent
    assert data.verdicts == {1: True, 2: True}
    assert data.quotient_dims == {1: 0, 2: 0}
    passline(1, "Artin-Schreier C_2: basis {1⊗1, [α⊗α]}, idempotent "
                "generator, I = I² at both levels, Kähler dims 0")


def test_criterion_02_kummer_c2_ideal(kummer2_bundle):
    rb = kummer2_bundle.box
    data = kummer2_bundle.ideal
    one = gen_coords(rb, 2, 2, 0, 0)
    cls = gen_coords(rb, 2, 1, 1, 1)
    two_a = F5.from_int(4)
    gen = tuple(two_a * a - b for a, b in zip(one, cls))   # 2a − [α⊗α]
    span = Span(F5, rb.dim(2), data.ideal[2])
    assert span.dim == 1 and span.contains(gen)
    assert multiply(rb.green, 2, cls, cls) == \
        tuple(F5.from_int(16) * a for a in one)            # [α⊗α]² = 4a²
    assert multiply(rb.green, 2, gen, gen) == tuple(
        F5.from_int(32) * a - F5.from_int(8) * b
        for a, b in zip(one, cls))                         # 8a² − 4a[α⊗α]
    assert data.verdicts == {1: True, 2: True}
    assert data.quotient_dims == {1: 0, 2: 0}
    passline(2, "Kummer C_2 over F_5: I generated by 2a−[α⊗α], "
                "[α⊗α]² = 4a², (2a−[α⊗α])² = 8a²−4a[α⊗α], I = I²")


def test_criterion_03_structure_golden_values(as_bundle, kummer2_bundle):
    # exact vector identities
    rb = as_bundle.box
    res = rb.green.mackey.res[(1, 2)]
    tr = rb.green.mackey.tr[(2, 1)]
    aa = gen_coords(rb, 2, 1, 1, 1)
    expected = tuple(a + b + c for a, b, c in zip(
        gen_coords(rb, 1, 1, 1, 0), gen_coords(rb, 1, 1, 0, 1),
        gen_coords(rb, 1, 1, 0, 0)))
    assert res.apply(aa) == expected                       # α⊗1+1⊗α+1⊗1
    assert tr.apply(gen_coords(rb, 1, 1, 0, 1)) == \
        gen_coords(rb, 2, 2, 0, 0)                          # tr(1⊗α) = 1⊗1
    rb2 = kummer2_bundle.box
    res2 = rb2.green.mackey.res[(1, 2)]
    tr2 = rb2.green.mackey.tr[(2, 1)]
    aa2 = gen_coords(rb2, 2, 1, 1, 1)
    assert res2.apply(aa2) == tuple(F5.from_int(2) * c
                                    for c in gen_coords(rb2, 1, 1, 1, 1))
    assert tr2.apply(gen_coords(rb2, 1, 1, 0, 0)) == tuple(
        F5.from_int(2) * c for c in gen_coords(rb2, 2, 2, 0, 0))
    # byte-exact golden report carrying those values
    report = emit(run_pipeline(load_config(
        str(CONFIGS / "artin_schreier_f2.cfg"))), "text")
    assert report == (GOLDEN / "artin_schreier_f2_report.txt").read_bytes()
    text = report.decode()
    assert "res[α⊗α] = 1⊗1 + 1⊗α + α⊗1" in text
    assert "tr(1⊗α) = 1⊗1" in text
    text2 = emit(run_pipeline(load_config(
        str(CONFIGS / "kummer_f5_n2.cfg"))), "text").decode()
    assert "res[α⊗α] = 2·α⊗α" in text2
    assert "tr(1⊗1) = 2·1⊗1" in text2
    passline(3, "structure-map golden values exact; golden report "
                "byte-identical")


def test_criterion_04_norm_remark(as_bundle, kummer2_bundle):
    rb = as_bundle.box
    x = tuple(a + b for a, b in zip(gen_coords(rb, 1, 1, 0, 1),
                                    gen_coords(rb, 1, 1, 1, 0)))
    assert norm_on_c2_box(rb, x) == tuple(
        a + b for a, b in zip(gen_coords(rb, 2, 2, 0, 0),
                              gen_coords(rb, 2, 1, 1, 1)))
    rb2 = kummer2_bundle.box
    y = tuple(a - b for a, b in zip(gen_coords(rb2, 1, 1, 0, 1),
                                    gen_coords(rb2, 1, 1, 1, 0)))
    value = norm_on_c2_box(rb2, y)
    one = gen_coords(rb2, 2, 2, 0, 0)
    cls = gen_coords(rb2, 2, 1, 1, 1)
    stated = tuple(F5.from_int(4) * a - b for a, b in zip(one, cls))
    # the Tambara identity res∘norm(z) = z·τz forces norm(1⊗α − α⊗1) to be
    # the stated generator times the unit −1; both span the same ideal line
    assert value == tuple(-c for c in stated)
    assert value != stated
    res = rb2.green.mackey.res[(1, 2)]
    tau = rb2.green.mackey.weyl[1]
    assert res.apply(value) == multiply(rb2.green, 1, y, tau.apply(y))
    ideal_span = Span(F5, rb2.dim(2), kummer2_bundle.ideal.ideal[2])
    assert ideal_span.contains(value)
    assert Span(F5, rb2.dim(2), [value]).contains(stated)
    passline(4, "C_2 norms: norm(1⊗α+α⊗1) = 1⊗1+[α⊗α]; "
                "norm(1⊗α−α⊗1) = −(2a−[α⊗α]), spanning I (sign fixed by "
                "res∘norm = z·τz)")


def test_criterion_05_cyclic_kummer_etale(kummer3_bundle, kummer4_bundle):
    for bundle in (kummer3_bundle, kummer4_bundle):
        assert all(bundle.ideal.verdicts.values())
        rep = kummer_congruence_checks(bundle.box, bundle.ext, bundle.ideal)
        assert rep.ok, rep.failures
    rep4 = kummer_congruence_checks(kummer4_bundle.box, kummer4_bundle.ext,
                                    kummer4_bundle.ideal)
    assert any("level 4, d=2" in lab for lab in rep4.labels)
    passline(5, "C_3 (F_7) and C_4 (F_5) Kummer: I = I² at every level; "
                f"{rep4.checks_run} congruence checks incl. origin d=2 "
                "at m=4")


def test_criterion_06_oracle_equivalence(as_bundle, kummer2_bundle,
                                         kummer3_bundle, kummer4_bundle):
    fix_cases = {
        2: as_bundle.fix,
        3: kummer3_bundle.fix,
        5: fix_functor(kummer_extension(F11, 5, F11.from_int(2),
                                        F11.from_int(3))),
    }
    const_fields = {2: F2, 3: prime_field(3), 5: F5}
    pair_counts = {}
    for p in (2, 3, 5):
        L = fix_cases[p]
        assert compare_boxes(box(L, L), prime_box_oracle(L, L, p)) == []
        Kc = constant_functor(const_fields[p], p)
        assert compare_boxes(box(Kc, Kc), prime_box_oracle(Kc, Kc, p)) == []
        lat = subgroup_lattice(p)
        scalars = const_fields[p] if p != 2 else F7
        count = 0
        for s in range(50):
            A = zero_green(small_random_mackey(lat, scalars, seed=1000 + s))
            B = zero_green(small_random_mackey(lat, scalars, seed=2000 + s))
            assert compare_boxes(box(A, B),
                                 prime_box_oracle(A, B, p)) == []
            count += 1
        pair_counts[p] = count
    assert all(c >= 50 for c in pair_counts.values())
    for bundle in (as_bundle, kummer2_bundle, kummer3_bundle,
                   kummer4_bundle):
        assert coequalizer_oracle(bundle.box) is None
    passline(6, "box ≡ closed form on fixed/constant functors and 50 "
                "random pairs per prime; relative ≡ coequalizer for all "
                "four extensions")


def test_criterion_07_eigen_suite(kummer4_bundle):
    dec = eigen_decompose(kummer4_bundle.fix.mackey, F5.from_int(2))
    assert check_eigen(dec) == []
    for i in range(4):
        for m in (1, 2, 4):
            assert dec.pieces[i].functor.dim(m) == (1 if i % m == 0 else 0)
    # projector identities are part of check_eigen; re-verify the scalars
    for i in (0, 2):
        piece = dec.pieces[i].functor
        for m in (2, 4):
            if i % m:
                continue
            res = piece.res_mat(1, m)
            tr = piece.tr_mat(m, 1)
            assert tr @ res == Mat.identity(F5, 1).scale(F5.from_int(m))
            assert res @ tr == Mat.identity(F5, 1).scale(F5.from_int(m))
    counts = {}
    for n, K in ((3, F7), (4, F5)):
        lat = subgroup_lattice(n)
        done = 0
        for seed in range(50):
            morphism, _ = fix_reconstruction(random_mackey(lat, K,
                                                           seed=seed))
            assert morphism.is_isomorphism()
            done += 1
        counts[n] = done
    assert counts == {3: 50, 4: 50}
    passline(7, "eigen table matches the fixed-point functor; res∘tr = "
                "tr∘res = m; 50 reconstructions for n = 3 and n = 4")


def test_criterion_08_projectivity_certificates(as_bundle, kummer2_bundle,
                                                kummer3_bundle,
                                                kummer4_bundle):
    cert_as = projectivity_certificate(as_bundle.ext, as_bundle.fix)
    assert cert_as.kind == "normal_basis"
    assert verify_certificate(cert_as) == []
    cert2 = projectivity_certificate(kummer2_bundle.ext, kummer2_bundle.fix)
    assert cert2.kind == "plus_minus"
    assert verify_certificate(cert2) == []
    assert cert2.details["minus_dims"][2] == 0
    for bundle in (kummer3_bundle, kummer4_bundle):
        cert = projectivity_certificate(bundle.ext, bundle.fix)
        assert cert.kind == "eigen_free"
        assert verify_certificate(cert) == []
        for w in cert.witnesses:
            for m in w.morphism.source.lattice.divisors:
                fwd = w.morphism.components[m]
                bwd = w.inverse.components[m]
                assert bwd @ fwd == Mat.identity(bundle.base, fwd.ncols)
                assert fwd @ bwd == Mat.identity(bundle.base, fwd.nrows)
    passline(8, "normal_basis (F_2⊂F_4), plus_minus (F_5, n=2) with "
                "vanishing minus part, eigen_free (n=3,4); all witnesses "
                "two-sided isomorphisms")


def test_criterion_09_constant_functors():
    F4alg = poly_quotient_algebra(F2, [F2.one, F2.one, F2.one], var="t",
                                  name="F_4")
    for n in (2, 4):
        chk = constant_box_lemma_check(F4alg, F4alg, n)
        assert chk.ok, chk.failures
        assert all(d == 4 for d in chk.level_dims.values())
        rep = constant_etale_check(F2, F4alg, n)
        assert rep.ok
    F25alg = poly_quotient_algebra(F5, [F5.from_int(3), F5.zero, F5.one],
                                   var="t", name="F_25")
    rep25 = constant_etale_check(F5, F25alg, 3)
    assert rep25.ok
    passline(9, "F_4^c □ F_4^c ≅ (F_4⊗F_4)^c over C_2 and C_4; constant "
                "étale transfer for F_2⊂F_4 (n=2,4) and F_5⊂F_25 (n=3)")


@pytest.mark.parametrize("n,field", [(2, F5), (3, F7), (4, F5), (6, F7)])
def test_criterion_10_axiom_fuzz(n, field):
    lat = subgroup_lattice(n)
    for seed in range(100):
        M = random_mackey(lat, field, seed=seed)
        assert check_axioms(M) == []
    # determinism in the seed
    a = random_mackey(lat, field, seed=17)
    b = random_mackey(lat, field, seed=17)
    assert all(a.res[p] == b.res[p] for p in a.res)
    # negative controls: injected corruptions are detected
    detected = 0
    for seed in range(10):
        bad = corrupt_transfer(random_mackey(lat, field, seed=seed),
                               seed=seed)
        if check_axioms(bad):
            detected += 1
    assert detected == 10
    Kc = constant_functor(field, lat)
    assert check_green(Kc) == []
    assert check_green(corrupt_multiplication(Kc, seed=n)) != []
    passline(10, f"n={n}: 100 random functors pass the axiom checker, "
                 "10/10 corruptions detected, seeds reproduce")
