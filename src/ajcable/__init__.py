"""Exact annihilators for colored Jones sequences of cabled torus knots.

The package computes, entirely in exact integer arithmetic:

* colored Jones sequences of torus knots and of their (r, s)-cables;
* recurrence identities those sequences satisfy, checked symbolically
  color by color;
* an explicit annihilating operator for every cable, with a cleared,
  denominator-free form suitable for fast verification;
* the evaluation of that operator at t = -1 and its projective
  comparison against the cable's classical A-polynomial;
* closed-form nonvanishing certificates (the inhomogeneous term and the
  elimination determinant at t = -1);
* sharp degree predictions for the sequences; and
* bounded searches certifying that no lower-order annihilator exists
  within explicit coefficient boxes.
"""

from .algebra import (
    DivByZero,
    IntLaurent1,
    IntLaurent2,
    NotDivisible,
    PoleAtMinusOne,
    RationalM,
    RationalTM,
    ZeroPolynomial,
    degree_bounds,
    limit_t_minus1,
    poly_exact_div,
    poly_mul,
    shift_M,
    substitute_M,
)
from .aj import (
    AnnihilatorBundle,
    BZero,
    build_ab,
    build_annihilator,
    cabled_a_polynomial,
    cabled_a_polynomial_factors,
    case_l_degree,
    case_tag,
    compare_aj,
    determinant_check,
    evaluate_annihilator_at_minus1,
    f_poly,
    g_poly,
    LPolynomialOverM,
    verify_tuple,
)
from .degrees import (
    DegreePrediction,
    audit_degrees,
    predicted_cable_degrees,
    predicted_torus_degrees,
)
from .jones import (
    BadParams,
    CablingParams,
    OddMCoefficient,
    applicable_identities,
    cable_sequence,
    cable_step_coefficients,
    cabled_jones,
    clear_caches,
    identity_suite,
    quantum_integer,
    symbolic_delta,
    torus_jones,
    unknot_sequence,
)
from .minimality import (
    SearchBounds,
    SystemTooSmall,
    default_search_bounds,
    search_bounded_annihilator,
)
from .qtorus import (
    SkewOperator,
    apply_operator,
    check_annihilation,
    skew_multiply,
)

__version__ = "0.1.0"

__all__ = [
    "AnnihilatorBundle",
    "BZero",
    "BadParams",
    "CablingParams",
    "DegreePrediction",
    "DivByZero",
    "IntLaurent1",
    "IntLaurent2",
    "LPolynomialOverM",
    "NotDivisible",
    "OddMCoefficient",
    "PoleAtMinusOne",
    "RationalM",
    "RationalTM",
    "SearchBounds",
    "SkewOperator",
    "SystemTooSmall",
    "ZeroPolynomial",
    "applicable_identities",
    "apply_operator",
    "audit_degrees",
    "build_ab",
    "build_annihilator",
    "cable_sequence",
    "cable_step_coefficients",
    "cabled_a_polynomial",
    "cabled_a_polynomial_factors",
    "cabled_jones",
    "case_l_degree",
    "case_tag",
    "check_annihilation",
    "clear_caches",
    "compare_aj",
    "default_search_bounds",
    "degree_bounds",
    "determinant_check",
    "evaluate_annihilator_at_minus1",
    "f_poly",
    "g_poly",
    "identity_suite",
    "limit_t_minus1",
    "poly_exact_div",
    "poly_mul",
    "predicted_cable_degrees",
    "predicted_torus_degrees",
    "quantum_integer",
    "search_bounded_annihilator",
    "shift_M",
    "skew_multiply",
    "substitute_M",
    "symbolic_delta",
    "torus_jones",
    "unknot_sequence",
    "verify_tuple",
]
