"""Radial multiplier norms via trace-class Hankel matrices.

The library represents radial symbols (functions on the non-negative
integers), computes their summable-difference norms exactly from
finite-dimensional Hankel data, and realizes the induced multiplier map on
a truncated free-product word space, where every operator identity can be
checked as a concrete matrix equation.
"""

from .errors import (
    DimensionMismatch,
    NonConvergent,
    NumericalFailure,
    RadialMultError,
    TooLarge,
    UnsupportedRepresentation,
    UnsupportedTail,
)
from .fock import (
    CASE_ONE,
    CASE_TWO,
    FockOperator,
    FockSpace,
    FockSpec,
    build_space,
    classify_case,
    creation,
    diagonal,
    eps,
    factor_end_projection,
    fock_spec_from_json,
    fock_spec_from_obj,
    fock_spec_to_obj,
    identity,
    left_word,
    level_projection,
    operator_to_csv,
    rho,
    rho_power,
    right_creation,
    right_word,
    tail_projection,
    word_label,
    word_operator,
)
from .hankel import (
    CPrimeReport,
    HankelReport,
    RankOneDecomposition,
    c_norm,
    cprime_norm,
    hankel_h,
    hankel_hhat,
    hankel_k,
    rank_one_decompose,
    singular_values,
    trace_norm,
)
from .integral import (
    DoublingReport,
    MembershipReport,
    eval_measure,
    representation_for,
    verify_doubling,
    verify_membership_bound,
    weight,
)
from .multiplier import (
    ComponentReport,
    EigenReport,
    MultiplierPlan,
    TensorReport,
    apply_T,
    apply_T1,
    apply_T2,
    build_plan,
    cs_bound,
    kraus_row_sum,
    phi1_apply,
    phi2_apply,
    plan_cb_bound,
    spectral_norm,
    tensor_shift,
    ucp_pi_apply,
    verify_component_eigenaction,
    verify_eigenaction,
    verify_ucp_relations,
)
from .symbols import (
    DiscreteMeasure,
    Doubled,
    Finite,
    FromMeasure,
    Geometric,
    Indicator,
    ParityTail,
    RadialSymbol,
    TruncatedGeometric,
    double,
    evaluate,
    parity_tails,
    psi1,
    psi2,
    symbol_from_json,
    symbol_from_obj,
    symbol_to_json,
    symbol_to_obj,
    tail_constant,
)

__version__ = "0.1.0"
