"""Approval-based committee voting: rules, representation axioms, exact solvers.

The package is organized as:

* `core`    domain types (profiles, committees, weight vectors) and exact scoring
* `solver`  exact optimization over size-k committees
* `rules`   the named voting rules (score-based, sequential, representation-constrained)
* `axioms`  representation axiom checkers, greedy constructions, brute-force oracles
* `corpus`  counterexample fixtures, hardness-instance generator, random cultures
* `cli`     command-line interface and the profile file format

Every name in `__all__` is re-exported from its layer lazily (PEP 562):
``import jrvoting`` loads no layer, and the first access to a name, as in
``from jrvoting import check_jr``, loads its layer and the layers that one
imports (here `core` and `axioms`).  Each access reads the name from its
layer, and the layers themselves load the same way (``jrvoting.corpus``).
``import jrvoting.cli`` loads `core` and the `cli` only; a command loads the
layers it runs on its first call.
"""

from importlib import import_module

_LAYERS = {
    "core": (
        "AV",
        "Ballot",
        "BallotProfile",
        "BudgetExhausted",
        "Committee",
        "GroupIndex",
        "MAV",
        "ProfileError",
        "SAV",
        "ScoringObjective",
        "TieBreak",
        "WeightVector",
        "normalize_profile",
        "score_committee",
        "wpav_objective",
    ),
    "solver": (
        "OptimizationRequest",
        "OptimizationResult",
        "optimize_committee",
    ),
    "rules": (
        "RoundRecord",
        "RuleSpec",
        "compute_ejrav",
        "compute_rule",
        "compute_score_rule",
        "compute_sequential_rule",
        "compute_ujrav",
        "sequential_trace",
    ),
    "axioms": (
        "AxiomReport",
        "Witness",
        "check_ejr",
        "check_ell_jr",
        "check_jr",
        "check_sjr",
        "check_unanimity",
        "exists_sjr_committee",
        "find_ell_jr_committee",
        "find_jr_committee",
        "replay_witness",
    ),
    "corpus": (
        "BipartiteGraph",
        "Fixture",
        "FixedSize",
        "FixtureParameterError",
        "UniformSubsets",
        "UrnLike",
        "build_fixture",
        "complete_bipartite",
        "fixture_names",
        "has_balanced_biclique",
        "random_profile",
        "reduce_biclique",
        "verify_fixture",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_LAYER_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAYERS:
        # importing a layer binds it in the package
        return import_module(f"{__name__}.{name}")
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not bound here: the name reads what its layer holds at each access, so
    # a layer attribute that is replaced and later restored (a test's patch,
    # a tracer's wrapper) is never left stale in the package
    return getattr(import_module(f"{__name__}.{layer}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAYERS) | set(__all__))
