"""Individual-based stable matchings in marriage and roommate games.

Verifiers for seven stability concepts with concrete witnesses, constructive
solvers, an exhaustive desk-scale oracle, better-response dynamics with cycle
detection, general-graph maximum matching, and hardness-gadget instance
generators, all behind one CLI.
"""

from .errors import FormatError, InternalCheckError, PreconditionError
from .graph_matching import (
    Graph,
    max_matching,
    minimum_maximal_matching,
    parse_graph,
)
from .matching import Matching, parse_matching, serialize_matching
from .model import (
    MARRIAGE,
    ROOMMATE,
    Game,
    GenParams,
    PreferenceList,
    has_no_unacceptability,
    parse_instance,
    random_game,
    serialize_instance,
)
from .reductions import (
    PlayerRole,
    ReductionArtifact,
    mmm_to_marriage_ns,
    mmm_to_roommate_is,
)
from .solvers import (
    DynamicsTrace,
    SolverReport,
    brute_force,
    compute_cis_ir,
    compute_cns,
    compute_is_marriage,
    compute_ns_marriage_complete,
    exists_ns_is_roommate_complete,
    gale_shapley,
    run_dynamics,
)
from .stability import (
    Concept,
    DeviationWitness,
    PairBlockWitness,
    find_deviation,
    find_pair_block,
    is_individually_rational,
    is_stable,
)

__all__ = [
    "Concept",
    "DeviationWitness",
    "DynamicsTrace",
    "FormatError",
    "Game",
    "GenParams",
    "Graph",
    "InternalCheckError",
    "MARRIAGE",
    "Matching",
    "PairBlockWitness",
    "PlayerRole",
    "PreconditionError",
    "PreferenceList",
    "ROOMMATE",
    "ReductionArtifact",
    "SolverReport",
    "brute_force",
    "compute_cis_ir",
    "compute_cns",
    "compute_is_marriage",
    "compute_ns_marriage_complete",
    "exists_ns_is_roommate_complete",
    "find_deviation",
    "find_pair_block",
    "gale_shapley",
    "has_no_unacceptability",
    "is_individually_rational",
    "is_stable",
    "max_matching",
    "minimum_maximal_matching",
    "mmm_to_marriage_ns",
    "mmm_to_roommate_is",
    "parse_graph",
    "parse_instance",
    "parse_matching",
    "random_game",
    "run_dynamics",
    "serialize_instance",
    "serialize_matching",
]

__version__ = "0.1.0"
