"""Eigenspace decomposition of constant-functor modules, fixed-point
reconstruction, and constructive projectivity certificates.

When n is invertible in K and K contains a primitive n-th root of unity ζ,
the averaging projectors P_i = (1/n) Σ_j ζ^{-ij} σ^j split any module over
the constant functor into eigenpieces: piece i vanishes at level m unless
m | i, and there res and tr between the free level and level m are mutually
inverse up to the scalar m.  Evaluation at the free level is then an
equivalence, realized here by an explicit isomorphism M ≅ (M at level 1)^fix.

Projectivity is certified constructively, never through lifting problems:

* eigen_free (Kummer, any n with ζ in K): each nonzero eigenpiece of the
  fixed-point functor is matched to a rank-one atom by an explicit
  isomorphism;
* normal_basis (Artin–Schreier): {α, σα} is a basis of L, exhibiting L as a
  free module over the group algebra, and the fixed-point functor of that
  free module is matched to the fixed-point functor of L;
* plus_minus (C_2 Kummer): the ±-eigenspace splitting, with the plus part
  isomorphic to the constant functor and the minus part concentrated at the
  free level.

Certificates are proofs-by-data: every witness is verified as a two-sided
Mackey isomorphism before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import FiniteAlgebra, tensor_algebra
from .boxes import BoxProduct, box
from .extensions import GaloisExtension, is_primitive_root_of_unity
from .fields import Field
from .green import GreenFunctor, check_green_morphism, constant_functor
from .linalg import Mat, column_space, inverse
from .mackey import (FixedPointModule, InternalCheckError, MackeyFunctor,
                     MackeyMorphism, Violation, fix_of_module, solve_in)
from .presented import PresentedLevel, format_element


# ---------------------------------------------------------------------------
# eigen decomposition


@dataclass
class EigenPiece:
    index: int
    functor: MackeyFunctor
    embed: dict              # m -> Mat (piece basis in module coordinates)


@dataclass
class EigenDecomposition:
    source: MackeyFunctor
    zeta: object
    pieces: list
    projectors: dict         # i -> {m: Mat}


def eigen_decompose(M: MackeyFunctor, zeta) -> EigenDecomposition:
    """Split a module over the constant functor into ζ^i-eigenpieces.

    Requires n invertible in the scalars and ζ a primitive n-th root of
    unity; the characteristic-2 C_2 case has no such splitting and routes
    to the normal-basis certificate instead.
    """
    K = M.scalars
    n = M.lattice.n
    if K.characteristic and n % K.characteristic == 0:
        raise ValueError(f"{n} is not invertible in {K}")
    if not is_primitive_root_of_unity(K, zeta, n):
        raise ValueError(f"{zeta} is not a primitive {n}-th root of unity")

    inv_n = K.one / K.from_int(n)
    projectors = {}
    pieces = []
    for i in range(n):
        proj = {}
        for m in M.lattice.divisors:
            acc = Mat.zeros(K, M.dim(m), M.dim(m))
            for j in range(n):
                acc = acc + M.weyl_pow(m, j).scale(zeta ** (-i * j))
            proj[m] = acc.scale(inv_n)
        projectors[i] = proj

    for i in range(n):
        embed = {}
        labels = {}
        for m in M.lattice.divisors:
            basis = column_space(projectors[i][m])
            embed[m] = Mat.from_cols(K, basis, M.dim(m))
            labels[m] = [f"e{i}.{m}.{t}" for t in range(len(basis))]
        msg = "structure map does not preserve the eigenpiece"
        res, tr = {}, {}
        for (d, m) in M.lattice.covering_pairs:
            res[(d, m)] = solve_in(embed[d], M.res[(d, m)] @ embed[m], msg)
            tr[(m, d)] = solve_in(embed[m], M.tr[(m, d)] @ embed[d], msg)
        weyl = {m: solve_in(embed[m], M.weyl[m] @ embed[m], msg)
                for m in M.lattice.divisors}
        fun = MackeyFunctor(K, M.lattice, labels, res, tr, weyl,
                            name=f"{M.name}^(ζ^{i})")
        pieces.append(EigenPiece(i, fun, embed))
    return EigenDecomposition(M, zeta, pieces, projectors)


def check_eigen(dec: EigenDecomposition):
    """Projector identities and the three eigenpiece properties."""
    out = []
    M = dec.source
    K = M.scalars
    n = M.lattice.n
    for m in M.lattice.divisors:
        total = Mat.zeros(K, M.dim(m), M.dim(m))
        for i in range(n):
            total = total + dec.projectors[i][m]
        if total != Mat.identity(K, M.dim(m)):
            out.append(Violation("projector_sum", {"level": m}, ""))
        for i in range(n):
            for j in range(n):
                prod = dec.projectors[i][m] @ dec.projectors[j][m]
                expected = dec.projectors[i][m] if i == j \
                    else Mat.zeros(K, M.dim(m), M.dim(m))
                if prod != expected:
                    out.append(Violation("projector_orthogonality",
                                         {"level": m, "pair": (i, j)}, ""))
    for i in range(n):
        piece = dec.pieces[i]
        for m in M.lattice.divisors:
            dim = piece.functor.dim(m)
            w = piece.functor.weyl[m]
            if w != Mat.identity(K, dim).scale(dec.zeta ** i):
                out.append(Violation("eigenvalue", {"piece": i, "level": m},
                                     "Weyl generator is not ζ^i"))
            if m != 1 and i % m and dim:
                out.append(Violation("vanishing", {"piece": i, "level": m},
                                     "piece must vanish when m does not "
                                     "divide i"))
        for m in M.lattice.divisors:
            if m == 1 or i % m:
                continue
            dim = piece.functor.dim(m)
            res = piece.functor.res_mat(1, m)
            tr = piece.functor.tr_mat(m, 1)
            scalar = K.from_int(m)
            if tr @ res != Mat.identity(K, dim).scale(scalar):
                out.append(Violation("res_tr_scalar",
                                     {"piece": i, "level": m},
                                     "tr∘res is not multiplication by m"))
            dim1 = piece.functor.dim(1)
            if res @ tr != Mat.identity(K, dim1).scale(scalar):
                out.append(Violation("tr_res_scalar",
                                     {"piece": i, "level": m},
                                     "res∘tr is not multiplication by m"))
    return out


# ---------------------------------------------------------------------------
# fixed-point reconstruction


def fix_reconstruction(M: MackeyFunctor) -> tuple:
    """Isomorphism M ≅ (level-1 module)^fix: the identity at the free level,
    restriction maps elsewhere.  Returns (morphism, fixed_point_module);
    raises if some restriction fails to be invertible onto the fixed points
    (which the eigen hypotheses guarantee)."""
    K = M.scalars
    fpm = fix_of_module(K, M.lattice, M.weyl[1],
                        labels=M.labels[1], name=f"fix({M.name}(1))")
    comps = {m: solve_in(fpm.embeds[m], M.res_mat(1, m),
                         f"restriction image at level {m} escapes the "
                         f"fixed points")
             for m in M.lattice.divisors}
    morphism = MackeyMorphism(M, fpm.functor, comps, name="reconstruction")
    _assert_iso(morphism, "reconstruction",
                "; the module is not recovered from its free level")
    return morphism, fpm


# ---------------------------------------------------------------------------
# projectivity certificates


@dataclass
class CertificateWitness:
    description: str
    morphism: MackeyMorphism
    inverse: MackeyMorphism


@dataclass
class ProjectivityCertificate:
    kind: str                     # eigen_free | normal_basis | plus_minus
    witnesses: list
    details: dict = field(default_factory=dict)


def verify_certificate(cert: ProjectivityCertificate):
    """Re-verify every witness as a two-sided isomorphism of functors."""
    out = []
    for w in cert.witnesses:
        out += [Violation("witness_morphism", {"witness": w.description},
                          str(v)) for v in w.morphism.check()]
        out += [Violation("witness_inverse", {"witness": w.description},
                          str(v)) for v in w.inverse.check()]
        fwd = w.morphism
        bwd = w.inverse
        for m in fwd.source.lattice.divisors:
            for rule, prod, side in (
                    ("witness_left_inverse",
                     bwd.components[m] @ fwd.components[m], fwd.source),
                    ("witness_right_inverse",
                     fwd.components[m] @ bwd.components[m], fwd.target)):
                ident = Mat.identity(side.scalars, side.dim(m))
                if prod != ident:
                    out.append(Violation(
                        rule, {"witness": w.description, "level": m},
                        _first_column(prod, ident, side.labels[m],
                                      side.labels[m])))
    return out


def rank_one_atom(K: Field, lattice, zeta_power) -> FixedPointModule:
    """Fixed-point functor of the one-dimensional module with σ acting by
    the given root of unity."""
    action = Mat(K, [[zeta_power]], ncols=1)
    return fix_of_module(K, lattice, action, labels=["e"],
                         name=f"atom(ζ-power {zeta_power})")


def projectivity_certificate(E: GaloisExtension, L: GreenFunctor,
                             eigen=None) -> ProjectivityCertificate:
    """Constructive projectivity of E's fixed-point functor L over the
    constant functor, dispatching on the extension flavor.

    A Kummer certificate reads L's decomposition for E's ζ (−1 when
    n = 2) and raises InternalCheckError when ``check_eigen`` finds a
    violation.  ``eigen`` is that decomposition and its violations, as a
    pair, when the caller has built them; otherwise they are built here."""
    if E.flavor == "artin_schreier":
        return _normal_basis_certificate(E, L)
    if E.flavor == "kummer":
        if eigen is None:
            dec = eigen_decompose(L.mackey, E.zeta)
            eigen = dec, check_eigen(dec)
        dec, bad = eigen
        if bad:
            raise InternalCheckError("eigen decomposition failed",
                                     witness=bad)
        if E.degree == 2:
            return _plus_minus_certificate(E, L, dec)
        return _eigen_free_certificate(E, L, dec)
    raise ValueError(f"no certificate construction for flavor {E.flavor!r}")


def _normal_basis_certificate(E: GaloisExtension, L: GreenFunctor):
    K = E.base
    alpha = E.alpha_power(1)
    sigma_alpha = E.apply_sigma(alpha)
    basis = Mat.from_cols(K, [alpha, sigma_alpha], 2)
    (a, b), (c, d) = basis.rows
    det = a * d - b * c
    if det == K.zero:
        raise InternalCheckError("{α, σα} is not a basis of L")
    # the regular representation of the group algebra: σ swaps e and σe
    swap = Mat(K, [[K.zero, K.one], [K.one, K.zero]], ncols=2)
    free = fix_of_module(K, L.lattice, swap, labels=["e", "σe"],
                         name="group-algebra atom")
    # level 1: send the normal basis to the free basis
    to_free_level1 = inverse(basis)
    comps = {1: to_free_level1}
    for m in L.lattice.divisors:
        if m != 1:
            comps[m] = solve_in(free.embeds[m],
                                to_free_level1 @ L.level_embed[m],
                                "normal-basis map does not respect fixed "
                                "points")
    fwd = MackeyMorphism(L.mackey, free.functor, comps, name="normal_basis")
    witness = CertificateWitness("L^fix ≅ fixed points of the free rank-one "
                                 "group-algebra module", fwd, _assert_iso(fwd))
    return ProjectivityCertificate(
        "normal_basis", [witness],
        details={"normal_basis_determinant": str(det)})


def _plus_minus_certificate(E: GaloisExtension, L: GreenFunctor,
                            dec: EigenDecomposition):
    K = E.base
    plus, minus = dec.pieces[0], dec.pieces[1]
    if minus.functor.dim(2) != 0:
        raise InternalCheckError(
            "minus part must vanish at the fixed level")
    Kc = constant_functor(K, L.lattice)
    comps = {}
    for m in L.lattice.divisors:
        if plus.functor.dim(m) != 1:
            raise InternalCheckError("plus part must be levelwise a line")
        # the component sends c·1 to c: it reads off the α^0 = 1 coefficient
        comps[m] = Mat(K, [[_alpha_coordinate(E, L, plus, m, 0)]], ncols=1)
    fwd = MackeyMorphism(plus.functor, Kc.mackey, comps, name="plus_part")
    witness = CertificateWitness("plus part ≅ constant functor", fwd,
                                 _assert_iso(fwd))
    return ProjectivityCertificate(
        "plus_minus", [witness],
        details={"minus_dims": {m: minus.functor.dim(m)
                                for m in L.lattice.divisors},
                 "plus_dims": {m: plus.functor.dim(m)
                               for m in L.lattice.divisors}})


def _eigen_free_certificate(E: GaloisExtension, L: GreenFunctor,
                            dec: EigenDecomposition):
    K = E.base
    n = E.degree
    witnesses = []
    piece_dims = {}
    for i in range(n):
        piece = dec.pieces[i]
        piece_dims[i] = {m: piece.functor.dim(m)
                         for m in L.lattice.divisors}
        atom = rank_one_atom(K, L.lattice, E.zeta ** i)
        comps = {}
        for m in L.lattice.divisors:
            if piece.functor.dim(m) == 0:
                comps[m] = Mat(K, [], ncols=0) if atom.functor.dim(m) == 0 \
                    else None
                if comps[m] is None:
                    raise InternalCheckError(
                        f"piece {i} and its atom disagree at level {m}")
                continue
            # the component reads off the α^i coefficient, so transfers
            # carry over with equal scalars
            comps[m] = Mat(K, [[_alpha_coordinate(E, L, piece, m, i)]],
                           ncols=1)
        fwd = MackeyMorphism(piece.functor, atom.functor, comps,
                             name=f"piece{i}")
        witnesses.append(CertificateWitness(
            f"eigenpiece {i} ≅ rank-one atom", fwd, _assert_iso(fwd)))
    return ProjectivityCertificate("eigen_free", witnesses,
                                   details={"piece_dims": piece_dims})


def _alpha_coordinate(E: GaloisExtension, L: GreenFunctor,
                      piece: EigenPiece, m: int, i: int):
    """Coefficient c with piece basis vector = c·α^i inside the field."""
    K = E.base
    vec = L.level_embed[m].apply(piece.embed[m].col(0))
    target = E.alpha_power(i)
    coeff = None
    for c, t in zip(vec, target):
        if t == K.zero:
            if c != K.zero:
                raise InternalCheckError(
                    f"piece {i} is not spanned by α^{i} at level {m}")
        elif coeff is None:
            coeff = c / t
        elif c != coeff * t:
            raise InternalCheckError(
                f"piece {i} is not proportional to α^{i} at level {m}")
    if coeff is None or coeff == K.zero:
        raise InternalCheckError(
            f"piece {i} does not contain α^{i} at level {m}")
    return coeff


def _assert_iso(morphism: MackeyMorphism, name="witness", why=""):
    """The inverse of ``morphism``, each component inverted once.  Raises
    ``InternalCheckError`` if it is not a morphism (witness: the first
    failing column of a square) or some component is singular."""
    bad = morphism.check()
    if bad:
        raise InternalCheckError(f"{name} is not a morphism",
                                 witness=_square_witness(morphism, bad[0]))
    try:
        return morphism.inverse()
    except InternalCheckError:
        raise InternalCheckError(f"{name} is not an isomorphism{why}") \
            from None


def _first_column(mat: Mat, expected: Mat, labels, image_labels) -> str:
    """``"<label> ↦ <image>"`` for the first column k where ``mat`` differs
    from ``expected``: ``labels[k]`` and column k of ``mat``, written in
    ``image_labels``."""
    k = next(k for k, (a, b) in enumerate(zip(mat.cols(), expected.cols()))
             if a != b)
    return f"{labels[k]} ↦ " \
        f"{format_element(mat.field, mat.col(k), image_labels)}"


def _square_witness(morphism: MackeyMorphism, v: Violation) -> str:
    """The violation ``v`` of ``morphism.check()`` followed by the first
    source basis vector on which the two sides f∘s and t∘f of its square
    differ, sent to their difference, in basis labels."""
    f, src, dst = morphism.components, morphism.source, morphism.target
    if v.rule == "morphism_weyl":
        frm = to = v.where["level"]
        s, t = src.weyl[frm], dst.weyl[frm]
    else:   # res and tr maps are both keyed (to, from)
        kind, (d, m) = v.rule[len("morphism_"):], v.where["pair"]
        frm, to = (m, d) if kind == "res" else (d, m)
        s, t = getattr(src, kind)[(to, frm)], getattr(dst, kind)[(to, frm)]
    diff = f[to] @ s - t @ f[frm]
    zero = Mat.zeros(diff.field, diff.nrows, diff.ncols)
    return f"{v}: {_first_column(diff, zero, src.labels[frm], dst.labels[to])}"


# ---------------------------------------------------------------------------
# the constant-box identification A^c □ B^c ≅ (A ⊗ B)^c


@dataclass
class ConstantBoxCheck:
    ok: bool
    level_dims: dict
    tensor_dim: int
    iso: dict | None
    failures: list


def constant_box_iso(bx: BoxProduct, tensor: FiniteAlgebra):
    """Levelwise isomorphism from a box of constant functors onto the
    constant functor of the tensor algebra, or None.

    Sends a pure tensor to the corresponding tensor-algebra element and a
    class [x ⊗ y]_d^m to (m/d)·(x ⊗ y); checks that this kills the
    relations, is bijective, and commutes with res, tr, weyl, mult, unit.
    """
    K = bx.scalars
    B = bx.right
    onto = PresentedLevel(K, tensor.labels, [])
    iso = {}
    for m in bx.lattice.divisors:
        images = []
        for (d, i, j) in bx.gens[m]:
            c, = K.lift((K.from_int(m // d),))
            images.append(((i * B.dim(d) + j, c),) if c else ())
        try:
            phi = bx.levels[m].descend(images.__getitem__, onto,
                                       "identification fails to descend at "
                                       f"level {m}")
        except InternalCheckError:
            return None
        if inverse(phi) is None:
            return None
        iso[m] = phi
    return iso


def constant_box_lemma_check(A_alg: FiniteAlgebra, B_alg: FiniteAlgebra,
                             n: int) -> ConstantBoxCheck:
    """Verify A^c □ B^c ≅ (A ⊗ B)^c over C_n with explicit data.

    Restricted to prime-field algebras, where the componentwise tensor is
    the integral one."""
    K = A_alg.base
    if K.order != K.characteristic:
        raise ValueError("constant-box identification needs a prime field")
    Ac = constant_functor(A_alg, n)
    Bc = constant_functor(B_alg, n)
    bx = box(Ac, Bc, name=f"{A_alg.name}^c□{B_alg.name}^c")
    tensor = tensor_algebra(A_alg, B_alg)
    target = constant_functor(tensor, n)
    failures = []
    iso = constant_box_iso(bx, tensor)
    if iso is None:
        failures.append("no levelwise bijection onto the tensor algebra")
    else:
        failures += [str(v) for v in check_green_morphism(
            bx.green, target, iso, name="constant_box")]
    return ConstantBoxCheck(
        ok=not failures,
        level_dims={m: bx.dim(m) for m in bx.lattice.divisors},
        tensor_dim=tensor.dim,
        iso=iso,
        failures=failures)
