"""Simulators and cost accounting for the list accessing problem.

Classical algorithms (static, mtf, transpose, fc) run under the full,
partial, pd:<d> and centralized cost models; the buffered look-ahead
engine (amr) keeps the list fixed and pays access, matching and
replacement costs instead.
"""

from .amr import (
    Buffer,
    LookaheadWindow,
    buffer_insert,
    lookahead_window,
    match_parallel,
    serve_amr,
    set_flags,
)
from .classic import CLASSIC_ALGORITHMS, run_classic
from .core import (
    InvalidWorkload,
    ListConfig,
    NotInList,
    ParseError,
    RequestSequence,
    Workload,
    make_workload,
    parse_workload,
    position,
    serialize_workload,
    validate_workload,
)
from .costs import (
    CENTRALIZED,
    FULL,
    PARTIAL,
    CostBreakdown,
    CostModel,
    ExchangeKind,
    OutOfRange,
    StepEvent,
    Unsupported,
    access_cost,
    center_position,
    exchange_cost,
    model_token,
    parse_model_token,
    pd,
)
from .workloads import (
    DISTRIBUTIONS,
    GeneratorSpec,
    InvalidSpec,
    SplitMix64,
    element_name,
    generate,
    list_elements,
    spec_from_dist_token,
)
