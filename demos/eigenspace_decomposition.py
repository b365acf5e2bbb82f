"""Eigenspace decompositions and constructive projectivity.

With n invertible and a primitive n-th root of unity available, every
module over the constant functor splits into eigenpieces of the group
action.  For the fixed-point functor of a Kummer extension the table of
pieces is completely explicit: piece i lives on the levels m dividing i
and is spanned there by α^i.  The script prints that table, rebuilds a
module from its free level, and assembles the projectivity certificates
for all three extension flavors.
"""

from greenbox import (artin_schreier_extension, check_eigen, eigen_decompose,
                      fix_functor, fix_reconstruction, kummer_extension,
                      prime_field, projectivity_certificate, random_mackey,
                      subgroup_lattice, verify_certificate)


def eigen_table():
    F5 = prime_field(5)
    E = kummer_extension(F5, 4, F5.from_int(2), F5.from_int(2))
    L = fix_functor(E)
    dec = eigen_decompose(L.mackey, E.zeta)
    assert check_eigen(dec) == []
    print("=== eigenpieces of the fixed-point functor, C_4 over F_5 ===")
    print("piece \\ level |  1  2  4")
    for i in range(4):
        dims = [dec.pieces[i].functor.dim(m) for m in (1, 2, 4)]
        print(f"   ζ^{i}        |  " + "  ".join(str(d) for d in dims))
    print("(piece i is spanned by α^i exactly on the levels dividing i)\n")


def reconstruction():
    print("=== rebuilding modules from their free level ===")
    F7 = prime_field(7)
    lat = subgroup_lattice(3)
    for seed in (1, 2, 3):
        M = random_mackey(lat, F7, seed=seed)
        morphism, fpm = fix_reconstruction(M)
        dims = {m: M.dim(m) for m in lat.divisors}
        print(f"random module {dims} ≅ fixed points of its own free level: "
              f"{'yes' if morphism.is_isomorphism() else 'NO'}")
    print()


def certificates():
    print("=== projectivity certificates ===")
    F2 = prime_field(2)
    F5 = prime_field(5)
    F7 = prime_field(7)
    cases = [
        ("Artin-Schreier F_2 ⊂ F_4",
         artin_schreier_extension(F2, F2.one)),
        ("Kummer F_5 ⊂ F_25",
         kummer_extension(F5, 2, F5.from_int(2), F5.from_int(-1))),
        ("Kummer F_7 ⊂ F_343",
         kummer_extension(F7, 3, F7.from_int(3), F7.from_int(2))),
        ("Kummer F_5 ⊂ F_625",
         kummer_extension(F5, 4, F5.from_int(2), F5.from_int(2))),
    ]
    for tag, ext in cases:
        cert = projectivity_certificate(ext, fix_functor(ext))
        ok = not verify_certificate(cert)
        print(f"{tag}: kind = {cert.kind}, "
              f"witnesses = {len(cert.witnesses)}, "
              f"verified: {'yes' if ok else 'NO'}")


def main():
    eigen_table()
    reconstruction()
    certificates()


if __name__ == "__main__":
    main()
