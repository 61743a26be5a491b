"""The package's public names and record fields: pinned, so each change is deliberate."""

from __future__ import annotations

import stablepairs

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(stablepairs.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(stablepairs, name) is not None, name


RECORD_SLOTS = {
    "PreferenceList": ("owner", "order", "ranks", "self_rank", "bottom_rank", "num_acceptable"),
    "Game": ("n", "profile", "kind", "num_men"),
    "Graph": ("n", "edges"),
    "ReductionArtifact": ("game", "roles", "graph", "n", "k", "r"),
    "Matching": ("_partner",),
}


def test_frozen_record_fields_are_pinned():
    for name, slots in RECORD_SLOTS.items():
        assert getattr(stablepairs, name).__slots__ == slots, name
