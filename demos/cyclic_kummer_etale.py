"""Green étaleness of Kummer extensions beyond prime degree.

Runs the full verification for a C_3 extension of F_7 and a C_4 extension
of F_5: the multiplication-kernel ideal satisfies I = I² at every level
(including the intermediate orbit for n = 4), the kernel-generator
congruences all hold, and two independent constructions of the relative
box agree with the direct one.
"""

from greenbox import (coequalizer_oracle, fix_functor, ideal_and_square,
                      kummer_congruence_checks, kummer_extension, mult_map,
                      prime_field, relative_box)


def verify(p, n, a, zeta):
    K = prime_field(p)
    E = kummer_extension(K, n, K.from_int(a), K.from_int(zeta))
    print(f"=== C_{n}-Kummer extension of F_{p}, a = {a}, ζ = {zeta} ===")
    L = fix_functor(E)
    rb = relative_box(L, K)
    dims = {m: rb.dim(m) for m in rb.lattice.divisors}
    print(f"box level dimensions: {dims}")

    mm = mult_map(rb)
    data = ideal_and_square(rb, mm)
    for m in rb.lattice.divisors:
        print(f"  level C{n}/C{m}: dim I = {len(data.ideal[m])}, "
              f"dim I² = {len(data.square[m])}, "
              f"I = I²: {'yes' if data.verdicts[m] else 'NO'}")
    print(f"Kähler dimensions: {data.quotient_dims}")

    rep = kummer_congruence_checks(rb, E, data)
    origins = sorted({lab.split(":")[0] for lab in rep.labels})
    print(f"kernel-generator congruences: {rep.checks_run} checks "
          f"({len(rep.failures)} failures) across {origins}")

    coequalizer_oracle(rb)          # raises InternalCheckError on failure
    print("coequalizer construction agrees: yes")
    print()


def main():
    verify(7, 3, 3, 2)
    verify(5, 4, 2, 2)


if __name__ == "__main__":
    main()
