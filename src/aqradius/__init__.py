"""Weighted q-numerical radius and Crawford number toolbox.

Computes the q-numerical radius and q-Crawford number of complex matrices over
a positive-semidefinite weighted semi-inner product (``semispace`` reduces to
the standard one, ``radius`` estimates with witness pairs), their gaps against
the weighted operator seminorm, closed forms for 2x2 matrices and the 3x3
Jordan block (``exact``), an executable suite of the inequalities these
quantities satisfy (``laws``), and convergence experiments for operator and
parameter sequences (``sequences``).
"""

from .exact import (
    CanonicalForm2x2,
    EllipseDisk,
    QOutOfRange,
    canonical_2x2,
    jordan3_q_radius,
    q_crawford_2x2,
    q_extremal_2x2,
    q_radius_2x2,
    q_range_2x2,
)
from .laws import (
    LawReport,
    LinComboParams,
    SuiteConfig,
    check_law,
    reports_csv_summary,
    reports_to_jsonl,
    run_suite,
    summarize_reports,
)
from .radius import (
    LOWER_BOUND_OF_SUP,
    TWO_SIDED,
    UPPER_BOUND_OF_INF,
    Budget,
    Estimate,
    a_crawford,
    a_radius,
    aq_crawford,
    aq_radius,
)
from .semispace import (
    NotABounded,
    RankTooLow,
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
    trace,
    trace_gaps,
    trace_q,
    trace_to_csv,
)

__version__ = "0.1.0"
