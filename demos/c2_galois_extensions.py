"""Both flavors of C_2-Galois field extension, worked end to end.

Builds the Artin-Schreier extension F_2 ⊂ F_4 and the Kummer extension
F_5 ⊂ F_25, forms the relative box product of the fixed-point functor with
itself over the constant functor, prints the reduced level bases and
structure maps, locates the multiplication-kernel ideal, squares its
generator, and evaluates the Tambara norm that reaches the same generator.
"""

from fractions import Fraction

from greenbox import (artin_schreier_extension, fix_functor, format_element,
                      ideal_and_square, kummer_extension, mult_map,
                      norm_on_c2_box, prime_field, rationals, relative_box)
from greenbox.linalg import bilinear_terms, nonzero_terms


def explore(tag, ext):
    K = ext.base
    print(f"=== {tag}: degree-2 extension of {K} ===")
    L = fix_functor(ext)
    rb = relative_box(L, K)
    for m in (1, 2):
        labels = rb.levels[m].reduced_labels
        print(f"box level C2/C{m}: dim {rb.dim(m)}, "
              f"basis {{{', '.join(labels)}}}")
    res = rb.green.mackey.res[(1, 2)]
    tr = rb.green.mackey.tr[(2, 1)]
    lab1 = rb.levels[1].reduced_labels
    lab2 = rb.levels[2].reduced_labels
    for idx, lab in enumerate(lab2):
        print(f"  res of {lab}: "
              f"{format_element(K, res.col(idx), lab1)}")
    for idx, lab in enumerate(lab1):
        print(f"  tr({lab}) = {format_element(K, tr.col(idx), lab2)}")

    mm = mult_map(rb)
    data = ideal_and_square(rb, mm)
    gen = data.ideal[2][0]
    print(f"kernel ideal at the fixed level: dim {len(data.ideal[2])}, "
          f"generated by {format_element(K, gen, lab2)}")
    # products are stored as raw terms; bilinear_terms multiplies two
    # vectors given by their raw terms
    raw = nonzero_terms(K, gen)
    square = K.fold(bilinear_terms(K, rb.green.terms(2), raw, raw))
    print(f"its square: {format_element(K, square, lab2)}")
    print(f"I = I² per level: {data.verdicts}; "
          f"Kähler dims: {data.quotient_dims}")

    # the same generator is hit (up to a unit) by a norm from below
    plus = K.characteristic == 2
    x = [K.zero] * rb.dim(1)
    x[rb.gen_index(1, 1, 0, 1)] = K.one
    x[rb.gen_index(1, 1, 1, 0)] = K.one if plus else -K.one
    arg = tuple(x)
    value = norm_on_c2_box(rb, arg)
    sign = "+" if plus else "−"
    print(f"norm(1⊗α {sign} α⊗1) = {format_element(K, value, lab2)}")
    print()


def main():
    F2 = prime_field(2)
    explore("Artin-Schreier", artin_schreier_extension(F2, F2.one))
    F5 = prime_field(5)
    explore("Kummer over F_5",
            kummer_extension(F5, 2, F5.from_int(2), F5.from_int(-1)))
    Q = rationals()
    explore("Kummer over Q (adjoining √2)",
            kummer_extension(Q, 2, Fraction(2), Fraction(-1)))


if __name__ == "__main__":
    main()
