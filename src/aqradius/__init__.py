"""Weighted q-numerical radius and Crawford number toolbox.

Computes the q-numerical radius and q-Crawford number of complex matrices over
a positive-semidefinite weighted semi-inner product, their gaps against the
weighted operator seminorm, closed forms for 2x2 matrices and the 3x3 Jordan
block, an executable suite of the inequalities these quantities satisfy, and
convergence experiments for operator and parameter sequences.
"""

from .exact import (
    CanonicalForm2x2,
    ComplexQUnsupported,
    EllipseDisk,
    QOutOfRange,
    canonical_2x2,
    jordan3_q_radius,
    q_crawford_2x2,
    q_radius_2x2,
    q_range_2x2,
)
from .laws import (
    LawReport,
    LinComboParams,
    SuiteConfig,
    law_app1,
    law_cor1,
    law_note,
    law_t1_1,
    law_t1_23,
    law_t1_45,
    law_t1_78,
    law_t2,
    law_t3,
    law_t4_1,
    law_t5_1,
    law_t5_3,
    reports_csv_summary,
    reports_to_jsonl,
    run_suite,
    summarize_reports,
)
from .pairs import RankTooLow, UnitPair, complete_pair, sample_pairs
from .radius import (
    LOWER_BOUND_OF_SUP,
    TWO_SIDED,
    UPPER_BOUND_OF_INF,
    Budget,
    Estimate,
    GapValue,
    a_crawford,
    a_radius,
    aq_crawford,
    aq_radius,
    gaps,
    oracle_grid,
)
from .semispace import (
    NotABounded,
    Weight,
    a_adjoint,
    a_inner,
    a_norm_vec,
    a_opnorm,
    as_operator,
    kron,
    matrix_from_json,
    matrix_to_json,
    reduce_to_range,
    validate_q,
    weight_from_json,
    weight_to_json,
)
from .sequences import (
    DEFAULT_INDICES,
    ConvergenceTrace,
    EnvelopeViolation,
    OperatorSequence,
    trace_crawford,
    trace_gaps,
    trace_q,
    trace_radius,
    trace_to_csv,
)

__version__ = "0.1.0"
