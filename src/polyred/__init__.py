"""Exact tools for polynomial-system invertibility.

Sparse multivariate polynomials over the Gaussian rationals, Jacobian
membership tests, partial elimination with certified block inverses, the
degree-lowering dimension-raising embeddings, graded formal inverses with a
plane-tree oracle, and the partition-function determinant identity.  Every
computation is exact; verdicts always carry exact witnesses.
"""

from .couplings import CouplingTensor, NormalizationError
from .elimination import (
    BlockNotInvertibleError,
    PartialInverse,
    SplitSystem,
    build_H,
    elimination_variety,
    invert_R,
    is_j_partial,
    is_jlin_partial,
    schur_identity_check,
    split,
)
from .family import (
    FamilyInstance,
    closed_form_jlin_conditions,
    closed_form_partial_conditions,
    closed_sum_form,
    corpus_report,
    family_system,
    reference_form_deviation,
    reference_form_template,
    separation_witnesses,
    specialized_jacobian,
)
from .gaussian import Gaussian, Q
from .jacobian import (
    MEMBER,
    NON_MEMBER,
    UNDETERMINED,
    LinearPartError,
    MembershipVerdict,
    PolyMatrix,
    certify_polynomial_inverse,
    classical_degree_cap,
    drop_degree_zero,
    is_jlin,
    jacobian_matrix,
)
from .poly import Polynomial, PolySystem, block_jacobian, compose_many, exact_div
from .reduction import (
    ALGEBRAIC,
    QFT,
    ImageCheck,
    ReducedSystem,
    aux_index,
    h_recovery_check,
    is_in_image_of_phi,
    phi,
    phi_algebraic,
    phi_qft,
    phi_qft_system,
    reduce_to_quadratic,
    reduced_inverse_check,
    transport_determinant_check,
    verify_theorem_main,
)
from .series import (
    GradedPoly,
    GradedSeriesVector,
    PlaneTree,
    compose_poly,
    enumerate_trees,
    formal_inverse_fixed_point,
    inversion_defect,
    partition_identity,
    theta_homogeneity_check,
    tree_amplitude,
    tree_oracle_inverse,
    z_det_identity_check,
)

__version__ = "0.1.0"
