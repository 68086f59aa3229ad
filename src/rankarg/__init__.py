"""rankarg: ranking-based acceptability semantics for abstract argumentation
frameworks, with mechanical checking of the classical axioms."""

from .axioms import (
    DEPENDENCY_RULES,
    EXTENDED_DEPENDENCY_RULES,
    INCOMPATIBLE_PAIRS,
    PROPERTY_ORDER,
    Demand,
    IncompatibilityWitness,
    PropertyId,
    PropertyVerdict,
    VerdictStatus,
    Witness,
    audit_dependencies,
    branch_roots,
    check,
    defense_is_distributed,
    defense_is_simple,
    incompatibility_witness,
    parse_property,
    replay_incompatibility,
)
from .framework import (
    ApxError,
    ArgFramework,
    BranchProfile,
    CyclicFrameworkError,
    FrameworkError,
    UnknownArgumentError,
    WalkCountTable,
    branch_profiles,
    clone_fresh,
    connected_components,
    disjoint_union,
    framework_key,
    graft_branch,
    has_cycle,
    parse_apx,
    rename,
    serialize_apx,
    walk_counts,
)
from .game import GameSolution, GameSolverError, game_value
from .orders import Ranking, group_geq, group_gt, ranking_from_scores
from .semantics import (
    SEMANTICS_IDS,
    NonConvergenceError,
    SemanticsRef,
    SizeCapExceededError,
    SolverConfig,
    bbs_ranking,
    bbs_vectors,
    categoriser_scores,
    compare_tuples,
    dbs_ranking,
    dbs_vectors,
    grounded_labelling,
    grounded_ranking,
    mt_scores,
    saf_scores,
    tuples_ranking,
    tuples_values,
)

__version__ = "0.1.0"
