"""Exact computations on finite-dimensional real Lie algebras carrying
complex structures, inner products and canonical connections.

Everything runs over the rationals: validity checks are identities, never
tolerances.  The central objects are Lie algebras built by doubling a
compatible pair of commutative associative products, the abelian complex
structures they carry, and the Hermitian geometry (Levi-Civita and first
canonical connections, curvature, the Kähler splitting) on top.
"""
from .assoc import (
    AxiomWitness, CommAssocAlgebra, CompatibilityWitness, GenericityError,
    IdempotentSet, IrrationalSpectrumError, NilradicalReport, NotSemisimpleError,
    check_axioms, check_compatibility, minimal_polynomial, nilradical,
    primitive_idempotents, square_span, unit,
)
from .complex_structures import (
    AbelianReport, ComplexStructure, HolomorphicPair, abelian_cs_report,
    is_abelian_cs, is_holomorphic_iso, is_integrable, j_stable_commutator,
)
from .constructions import (
    AffModel, DoubleProduct, ExtractedProducts, IncompatiblePairError,
    NotApplicableError, RefinedWitness,
    aff_algebra, aff_from_abelian_ideal, double_product, equal_products_iso,
    extract_products, recognize_aff, refine_to_witness, semidirect_r2_family,
    standard_complex_structure, witness_check,
)
from .hermitian import (
    Connection, ConnectionFlags, FlatMetricReport, HermitianTriple,
    InnerProduct, NotPositiveDefiniteError, complex_projection,
    connection_flags, curvature, curvature_norm_sq,
    cyclic_metric_identity, d_omega, first_canonical, first_canonical_pairing,
    flat_metric_report, is_flat, is_hermitian, is_kahler, is_torsion_free,
    kahler_form, kahler_form_matrix, levi_civita, sectional_curvature,
    torsion, twisted_cyclic_identity,
)
from .lab import (
    KahlerDecomposition, KahlerFactor, KahlerSample,
    TrialReport, kahler_decompose, random_instance, random_kahler_instance,
    report_to_dict, theorem_suite,
)
from .lie import (
    JacobiWitness, LieAlgebra, PreconditionError, SeriesReport, SubspaceRole,
    bracket_span, center, center_of_subalgebra, check_jacobi,
    classify_subspace, commutator_ideal, derived_and_central_series,
    is_isomorphism, is_unimodular, pushforward,
)
from .linalg import (
    CertificateError, DimensionMismatch, Matrix, SingularMatrix, Subspace,
    rat, vec,
)
from .serialize import (
    InputError, Instance, ValidationFailure, instance_from_dict,
    instance_to_dict, load_algebra, load_instance, load_matrix, save_instance,
)

__version__ = "0.1.0"
