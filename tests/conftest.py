import pytest

from greenbox.boxes import relative_box
from greenbox.etale import ideal_and_square, mult_map
from greenbox.extensions import artin_schreier_extension, kummer_extension
from greenbox.fields import prime_field, rationals
from greenbox.green import fix_functor

from reference import level_reduce


class Bundle:
    """One extension with its fixed-point functor, relative box, and ideal."""

    def __init__(self, ext):
        self.ext = ext
        self.base = ext.base
        self.fix = fix_functor(ext)
        self.box = relative_box(self.fix, ext.base)
        self.mult = mult_map(self.box)
        self.ideal = ideal_and_square(self.box, self.mult)


@pytest.fixture(scope="session")
def as_bundle():
    F2 = prime_field(2)
    return Bundle(artin_schreier_extension(F2, F2.one))


@pytest.fixture(scope="session")
def kummer2_bundle():
    F5 = prime_field(5)
    return Bundle(kummer_extension(F5, 2, F5.from_int(2), F5.from_int(-1)))


@pytest.fixture(scope="session")
def kummer3_bundle():
    F7 = prime_field(7)
    return Bundle(kummer_extension(F7, 3, F7.from_int(3), F7.from_int(2)))


@pytest.fixture(scope="session")
def kummer4_bundle():
    F5 = prime_field(5)
    return Bundle(kummer_extension(F5, 4, F5.from_int(2), F5.from_int(2)))


@pytest.fixture(scope="session")
def rational_bundle():
    from fractions import Fraction
    Q = rationals()
    return Bundle(kummer_extension(Q, 2, Fraction(2), Fraction(-1)))


def unit_vec(field, n, idx):
    return tuple(field.one if t == idx else field.zero for t in range(n))


def gen_coords(bx, m, d, i, j):
    """Reduced coordinates of one ambient generator of a box level."""
    return level_reduce(bx.levels[m], unit_vec(
        bx.scalars, bx.amb_dim(m), bx.gen_index(m, d, i, j)))
