"""decoyeval: decoy-aware evaluation of ranked retrieval.

Scores ranked runs with standard effectiveness metrics (nDCG, Recall, RBP,
ERR), measures vulnerability to the decoy effect (DEJA-VU, its LC blend
with an effectiveness metric), and mines SERP interaction logs for decoy
target / control document behaviour comparisons.
"""

from .decoy import (
    SerpPairRecord,
    detect_decoy_pairs,
    detect_decoy_pairs_at_k,
    identify_controls,
    identify_targets,
)
from .ingest import (
    ParseDiagnostic,
    ParseError,
    parse_interaction_log,
    parse_pair_sims,
    parse_qrels,
    parse_records,
    parse_run,
    parse_vectors,
)
from .logmine import (
    GroupComparison,
    GroupStats,
    Thresholds,
    WelchResult,
    derive_thresholds,
    extract_records,
    group_stats,
    log_doc_universe,
    regularized_incomplete_beta,
    student_t_two_sided_p,
    welch_t_test,
)
from .metrics import (
    AggregateScores,
    MetricConfig,
    RunEvaluation,
    SweepRow,
    TopicScores,
    aggregate,
    dejavu,
    dejavu_at_k,
    err_at_k,
    err_grade_map,
    evaluate_run,
    linear_combination,
    ndcg_at_k,
    rbp_at_k,
    recall_at_k,
    resolve_metrics,
    sweep,
)
from .model import (
    CoverageError,
    DecoyConfig,
    DecoyPair,
    GradeBand,
    InteractionLog,
    MinGradeGap,
    PairStore,
    Qrels,
    Ranking,
    RecordColumns,
    RunList,
    VectorStore,
    clamp_similarity,
)
from .simsig import cosine, percentile_threshold, topic_sim_matrix

__version__ = "0.1.0"

__all__ = [
    "AggregateScores", "CoverageError", "DecoyConfig", "DecoyPair",
    "GradeBand", "GroupComparison", "GroupStats", "InteractionLog",
    "MetricConfig", "MinGradeGap", "PairStore",
    "ParseDiagnostic", "ParseError", "Qrels", "Ranking", "RecordColumns", "RunEvaluation",
    "RunList", "SerpPairRecord", "SweepRow",
    "Thresholds", "TopicScores", "VectorStore",
    "WelchResult", "aggregate", "clamp_similarity", "cosine", "dejavu",
    "dejavu_at_k", "derive_thresholds", "detect_decoy_pairs",
    "detect_decoy_pairs_at_k", "err_at_k", "err_grade_map", "evaluate_run",
    "extract_records", "group_stats", "identify_controls",
    "identify_targets", "linear_combination", "log_doc_universe",
    "ndcg_at_k", "parse_interaction_log", "parse_pair_sims", "parse_qrels",
    "parse_records", "parse_run", "parse_vectors", "percentile_threshold",
    "rbp_at_k", "recall_at_k", "regularized_incomplete_beta",
    "resolve_metrics", "student_t_two_sided_p", "sweep", "topic_sim_matrix",
    "welch_t_test",
]
