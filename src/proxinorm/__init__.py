"""Exact-arithmetic renorming of the space of null sequences, with
certified Gateaux derivatives and machine-checkable descent certificates
showing non-attainment of best approximations from finite-codimension
subspaces."""

from .approxlin import (
    LinearityReport,
    build_report,
    coherence_margin,
    span_match_feasible,
    verify_linearity_bound,
)
from .config import Config, load_config
from .construction import ConstructionTable, canonical_table
from .demo import SignMatrix, independence_check, run_demo, sign_table, theta_values
from .descent import (
    DescentCertificate,
    DescentChain,
    Subspace,
    certify_descent,
    find_descent_direction,
    minimizing_sequence,
    verify_certificate,
    verify_chain,
)
from .errors import (
    BudgetError,
    DepthBudgetError,
    EliminationBudgetError,
    HypothesisError,
    InputFormatError,
    PrecisionBudgetError,
    PreconditionError,
    ProxinormError,
    SearchBudgetError,
)
from .gateaux import (
    derivative_from_json,
    derivative_to_json,
    dminus_norm,
    dplus_abs_pairing,
    dplus_norm,
    dplus_sup,
    term_lipschitz,
)
from .linalg import LinearSystem, feasible, kernel_directions
from .norms import equivalence_check, norm_difference_sign, norm_enclosure
from .vectors import Enclosure, SparseVec, l1_norm, pair, sgn, sup_norm

__version__ = "0.1.0"
