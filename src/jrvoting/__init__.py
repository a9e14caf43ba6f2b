"""Approval-based committee voting: rules, representation axioms, exact solvers.

The package is organized as:

* `core`    domain types (profiles, committees, weight vectors) and exact scoring
* `solver`  exact optimization over size-k committees
* `rules`   the named voting rules (score-based, sequential, representation-constrained)
* `axioms`  representation axiom checkers, greedy constructions, brute-force oracles
* `corpus`  counterexample fixtures, hardness-instance generator, random cultures
* `cli`     command-line interface and the profile file format
"""

from .core import (
    AV,
    Ballot,
    BallotProfile,
    BudgetExhausted,
    Committee,
    GroupIndex,
    MAV,
    ProfileError,
    SAV,
    ScoringObjective,
    TieBreak,
    WeightVector,
    normalize_profile,
    score_committee,
    wpav_objective,
)
from .solver import (
    OptimizationRequest,
    OptimizationResult,
    optimize_committee,
)
from .rules import (
    RoundRecord,
    RuleSpec,
    compute_ejrav,
    compute_rule,
    compute_score_rule,
    compute_sequential_rule,
    compute_ujrav,
    sequential_trace,
)
from .axioms import (
    AxiomReport,
    Witness,
    check_ejr,
    check_ell_jr,
    check_jr,
    check_sjr,
    check_unanimity,
    exists_sjr_committee,
    find_ell_jr_committee,
    find_jr_committee,
    replay_witness,
)
from .corpus import (
    BipartiteGraph,
    Fixture,
    FixedSize,
    FixtureParameterError,
    UniformSubsets,
    UrnLike,
    build_fixture,
    complete_bipartite,
    fixture_names,
    has_balanced_biclique,
    random_profile,
    reduce_biclique,
    verify_fixture,
)

__version__ = "0.1.0"
