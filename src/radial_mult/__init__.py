"""Radial multiplier norms via trace-class Hankel matrices.

The library represents radial symbols (functions on the non-negative
integers), computes their summable-difference norms exactly from
finite-dimensional Hankel data, and realizes the induced multiplier map on
a truncated free-product word space, where every operator identity can be
checked as a concrete matrix equation.
"""

from .errors import (
    DimensionMismatch,
    NumericalFailure,
    RadialMultError,
    TooLarge,
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
    rho,
    right_word,
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
)
from .integral import (
    DoublingReport,
    MembershipReport,
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
    plan_cb_bound,
    spectral_norm,
    ucp_pi_apply,
    verify_component_eigenaction,
    verify_eigenaction,
    verify_ucp_relations,
)
from .schema import (
    fock_spec_from_obj,
    measure_from_obj,
    symbol_from_obj,
    to_csv,
    to_obj,
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
    eigenvalue_lower_bound,
    evaluate,
    measure_atoms,
    parity_tails,
    psi1,
    psi2,
    tail_constant,
)

__version__ = "0.1.0"
