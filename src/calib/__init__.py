"""Joint threshold calibration for ensembles combined by max score.

Given per-classifier scores of positive and negative samples, find one
threshold per classifier so that every positive is scored positively by at
least one classifier while as few negatives as possible are, then compare
that joint operating point against per-classifier calibration baselines.
"""

from .calibrators import (
    AffineParams,
    CalibrationModel,
    ConstantParams,
    IsotonicParams,
    ShiftParams,
    SigmoidParams,
    calibrated_matrix,
    ensemble_scores,
    fit_affine,
    fit_independent_sigmoid,
    fit_isotonic,
    fit_joint_sigmoid,
    fit_joint_thresholds,
    load_model,
    pava,
    save_model,
    smoothed_targets,
)
from .cover import CoverState
from .errors import (
    CalibError,
    DegenerateVariance,
    DimensionMismatch,
    EmptyJournal,
    InfeasibleSolution,
    InvalidSpec,
    IoError,
    MonotonicityViolation,
    ParseError,
    TooLarge,
    UnreachableRecall,
    ValidationError,
)
from .evaluation import (
    ComparisonReport,
    CurvePoint,
    FpAtRecall,
    MethodRow,
    average_precision,
    compare_methods,
    fit_method,
    fp_at_recall,
    pr_curve,
    recall_at_thresholds,
)
from .oracle import OracleResult, oracle_node_count, oracle_solve
from .problem import (
    Problem,
    ROOT_COVERED,
    SearchStats,
    Solution,
    check_feasible,
    compute_loss,
    derive_assignment,
    load_problem,
    load_solution,
    save_problem,
    save_solution,
)
from .search import (
    SearchOptions,
    SearchTreeSpec,
    difficulty_order,
    plan_tree,
    redundant_classifiers,
    solve_anytime,
    solve_exact,
)
from .synthgen import CounterRng, GenerateSpec, generate
from .thresholds import CandidateGrid, extract_candidates

__version__ = "0.1.0"
