"""Exact computation of Mackey, Green, and Tambara functors over cyclic
groups: box products as presented quotients, multiplication-kernel ideals,
and Green étaleness certificates for Galois field extensions."""

from .algebras import FiniteAlgebra, base_as_algebra, poly_quotient_algebra, \
    tensor_algebra
from .boxes import BoxProduct, box, compare_boxes, coequalizer_oracle, \
    norm_on_c2_box, prime_box_oracle, relative_box
from .etale import ClassicalEtaleReport, IdealData, classical_etale_oracle, \
    constant_etale_check, ideal_and_square, ideal_generator, \
    kummer_congruence_checks, mult_map, unit_section_check
from .extensions import ConstructionError, GaloisExtension, \
    artin_schreier_extension, explicit_extension, kummer_extension
from .fields import Field, FieldUsageError, extension_field, finite_field, \
    prime_field, rationals
from .green import GreenFunctor, NormRule, check_green, check_norms, \
    constant_functor, fix_functor, zero_green
from .linalg import Mat, Span, kernel, rank, rref
from .mackey import MackeyFunctor, MackeyMorphism, SubgroupLattice, \
    Violation, check_axioms, fix_of_module, random_mackey, subgroup_lattice
from .modules import EigenDecomposition, ProjectivityCertificate, \
    check_eigen, constant_box_lemma_check, eigen_decompose, \
    fix_reconstruction, projectivity_certificate, verify_certificate
from .presented import PresentedLevel
from .report import EtaleReport, RunConfig, emit, format_element, fuzz, \
    load_config, run_pipeline

__version__ = "0.1.0"
