"""Exact arithmetic for third-order k-Jacobsthal sequences.

Scalar terms (periodic closed form; recurrence and Binet form as reference
routes), the 3x3 matrix families built on them, classic k = 2 integer
specializations, and a registry of exactly verifiable identities.  All
arithmetic is exact: arbitrary-precision rationals for fixed k, Laurent
polynomials for symbolic k.
"""

from .rings import (
    ConsistencyError,
    DomainError,
    ExactAlgebraError,
    InexactDivisionError,
    LaurentPolynomial,
    OmegaElement,
    Scalar,
)
from .matrix3 import Matrix3, SingularMatrixError
from .sequences import (
    KValue,
    SequenceTerm,
    T_term,
    jac3_binet,
    jac3_term,
    lucas3_term,
    sequence_term,
    t_term,
)
from .classic import (
    Y,
    Z,
    jac3_classic,
    jac3_multi_index,
    modified_lucas_classic,
    modified_lucas_recurrence,
)
from .matrices import (
    J_power,
    M_matrix,
    N_matrix,
    assemble_J_closed_form,
    assemble_j_closed_form,
    characteristic_residual,
    det_J,
    det_j,
    generator,
    j_power,
    matrix_term,
)
from .identities import (
    IDENTITIES,
    IDENTITY_NAMES,
    Counterexample,
    Identity,
    VerificationReport,
    get_identity,
    verify_all,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "Counterexample",
    "DomainError",
    "ExactAlgebraError",
    "IDENTITIES",
    "IDENTITY_NAMES",
    "Identity",
    "InexactDivisionError",
    "J_power",
    "KValue",
    "LaurentPolynomial",
    "M_matrix",
    "Matrix3",
    "N_matrix",
    "OmegaElement",
    "Scalar",
    "SequenceTerm",
    "SingularMatrixError",
    "T_term",
    "VerificationReport",
    "Y",
    "Z",
    "assemble_J_closed_form",
    "assemble_j_closed_form",
    "characteristic_residual",
    "det_J",
    "det_j",
    "generator",
    "get_identity",
    "j_power",
    "jac3_binet",
    "jac3_classic",
    "jac3_multi_index",
    "jac3_term",
    "lucas3_term",
    "matrix_term",
    "modified_lucas_classic",
    "modified_lucas_recurrence",
    "sequence_term",
    "t_term",
    "verify_all",
    "verify_identity",
]
