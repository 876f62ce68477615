"""Exact-arithmetic workbench for anticommutative antiassociative algebras.

Structure-constant algebras over Q and F_p, identity checkers, free
algebras with symbolic normal forms, a small-dimension catalog with a
mod-p enumeration oracle, adjoint and representation laws, the bracket
cochain complex, and the operad generating-series computations.
"""

from .algebra import (Algebra, Element, Fingerprint, QuadIdentityCoeffs,
                      acaa_coeffs, antiassociativity_coeffs, change_basis,
                      check_acaa, check_acaa_admissible, check_anticommutative,
                      check_quadratic_identity, check_rho_associative,
                      commutator_algebra, direct_sum, fingerprint,
                      jacobi_coeffs, polarize, quadratic_identity_value, rho)
from .catalog import (CatalogEntry, all_entries, entry, enumerate_finite,
                      recognize)
from .cohomology import (GradedAlgebra, check_cyclic_sum, delta0, delta1,
                         delta2, delta3, g_map, infer_grading)
from .fields import FpElement, PrimeField, Q, RationalField
from .free import (FreeAcaaAlgebra, eval_word, free_acaa, graded_dims,
                   normal_form, parse_word)
from .linalg import Matrix, Subspace, rank_kernel, span, subspace_equal
from .operad import (MonomialSpace, acaa_dims, dual_dims,
                     dual_relations_force_nilpotency, monomial_space,
                     orthogonal_complement, pairing_matrix)
from .reps import (Representation, ad_matrix, adjoint_representation,
                   check_ad_identities, check_representation,
                   check_weighted_antiderivation, h3_faithfulness_search,
                   is_faithful)
from .serialize import algebra_from_json, algebra_to_json, load_algebra, save_algebra
from .series import (TruncatedSeries, acaa_generating_series, compose,
                     compositional_inverse, dual_generating_series,
                     generating_series, koszul_residual, minimal_model_series)

__version__ = "0.1.0"
