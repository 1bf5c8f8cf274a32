"""dynrel: hidden deterministic relations in rational stochastic models.

Given a continuous-time stationary model (A, B, C) whose output spectral
density may be rank deficient, this package extracts the exact rational
map F(s) linking sub-processes, classifies its stability and the
Granger-causality / feedback structure of the network, and performs
exact sampling and its inverse, including recovery of rank deficiencies
that sampling hides.
"""

from .errors import (
    AlgebraicLoopSingular,
    BColumnDeficient,
    ConditionError,
    DimensionMismatch,
    DynrelError,
    ExistenceFailure,
    InadmissibleSelection,
    InputError,
    LogFailure,
    NoAdmissibleSelection,
    NonPositiveH,
    NotObservable,
    NotPSD,
    NotReachable,
    NotSemidefinite,
    NotStable,
    ParseError,
    PoleHit,
    QdSingular,
    RankCBDeficient,
    RankInconsistent,
    SchemaVersionUnsupported,
    SelectionLimitExceeded,
    SingularInput,
    SpectrumConflict,
)
from .kernels import (
    COND_LIMIT,
    DEFAULT_TOL,
    Tolerances,
    is_invertible,
    matrix_exp,
    matrix_log_principal,
    numerical_rank,
    psd_factor,
    solve_lyap_continuous,
    solve_lyap_discrete,
)
from .lti import (
    CtModel,
    StateSpace,
    freq_response,
    is_strictly_stable,
    minimal_realization,
    minimal_realizations,
    poles,
    validate_ct_model,
)
from .spectral import GRID_CAP, default_grid, spectral_rank_profile
from .relation import (
    SELECTION_CAP,
    RelationReport,
    classify_selection,
    classify_selections,
    enumerate_selections,
    stable_selection_exists,
)
from .feedback import (
    FeedbackFreeVerdict,
    closed_loop_T,
    feedback_free,
    granger_verdict,
    verify_interchange_identities,
)
from .sampling import (
    DesampleDiagnostics,
    HiddenRankReport,
    SampledModel,
    desample,
    dual_lyapunov_check,
    hidden_rank_report,
    sample,
)

__version__ = "0.1.0"
