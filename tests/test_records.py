"""The immutable records of every layer, each a `core.Record`: the contract
``@dataclass(frozen=True)`` gave them, pinned class by class."""

import copy
import pickle
from fractions import Fraction

import pytest

from jrvoting import axioms, core, corpus, rules, solver
from jrvoting.core import AV, FrozenInstanceError, ProfileError, TieBreak

WEIGHTS = core.WeightVector((1, Fraction(1, 2)))
PROFILE = core.BallotProfile.from_groups(2, [({0}, 2), ({1}, 1)])
PROFILE_REPR = (
    "BallotProfile(num_candidates=2, ballots=(Ballot(approved=frozenset({0}), multiplicity=2), "
    "Ballot(approved=frozenset({1}), multiplicity=1)))"
)

# each class with the field values of one record, the same values with one
# field changed, and that record's repr, pinned from the dataclass version
CASES = [
    (core.Ballot, ({1}, 2), ({1}, 3), "Ballot(approved=frozenset({1}), multiplicity=2)"),
    (
        core.GroupIndex,
        (((0,), (1,)), (2, 1), ((0, 2), (1, 1)), (0, 1)),
        (((0,), (1,)), (2, 1), ((0, 2), (1, 1)), (1, 0)),
        "GroupIndex(members=((0,), (1,)), mults=(2, 1), entries=((0, 2), (1, 1)), order=(0, 1))",
    ),
    (core.Committee, ((0, 2),), ((0, 3),), "Committee(members=(0, 2))"),
    (
        core.WeightVector,
        ((1, Fraction(1, 2)),),
        ((1, 1),),
        "WeightVector(weights=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    (core.ScoringObjective, ("av", None), ("sav", None), "ScoringObjective(kind='av', weights=None)"),
    (
        rules.RuleSpec,
        ("wpav", WEIGHTS, TieBreak.PREFER_JR),
        ("wpav", WEIGHTS, TieBreak.LEXICOGRAPHIC),
        "RuleSpec(name='wpav', weights=WeightVector(weights=(Fraction(1, 1), Fraction(1, 2))), "
        "tiebreak=<TieBreak.PREFER_JR: 'prefer-jr'>)",
    ),
    (
        rules.RoundRecord,
        (0, 1, Fraction(3, 2), {1: Fraction(3, 2), 2: Fraction(1)}),
        (0, 1, Fraction(3, 2), {1: Fraction(3, 2)}),
        "RoundRecord(index=0, candidate=1, weight=Fraction(3, 2), "
        "weights={1: Fraction(3, 2), 2: Fraction(1, 1)})",
    ),
    (
        rules._Rule,
        (len, max, None, False, True),
        (len, min, None, False, True),
        "_Rule(compute=<built-in function len>, score=<built-in function max>, family=None, "
        "explicit_weights=False, searches=True)",
    ),
    (
        axioms.Witness,
        (1, (0,), (0, 2), 3),
        (1, (0,), (0, 2), 4),
        "Witness(level=1, candidates=(0,), ballot_indices=(0, 2), group_size=3)",
    ),
    (
        axioms.AxiomReport,
        ("jr", False, axioms.Witness(1, (0,), (0, 2), 3)),
        ("jr", False, None),
        "AxiomReport(axiom='jr', passed=False, witness=Witness(level=1, candidates=(0,), "
        "ballot_indices=(0, 2), group_size=3))",
    ),
    (
        axioms.Axiom,
        (len, None, None, False),
        (len, None, None, True),
        "Axiom(check=<built-in function len>, oracle=None, find=None, leveled=False)",
    ),
    (
        solver.OptimizationRequest,
        (PROFILE, 1, AV, TieBreak.LEXICOGRAPHIC, None),
        (PROFILE, 1, AV, TieBreak.LEXICOGRAPHIC, 5),
        f"OptimizationRequest(profile={PROFILE_REPR}, k=1, objective=ScoringObjective(kind='av', "
        "weights=None), tiebreak=<TieBreak.LEXICOGRAPHIC: 'lex'>, budget=None)",
    ),
    (
        solver.OptimizationResult,
        (core.Committee((0,)), Fraction(2), 1, 3),
        (core.Committee((1,)), Fraction(2), 1, 3),
        "OptimizationResult(committee=Committee(members=(0,)), score=Fraction(2, 1), "
        "co_optimal_count=1, nodes_explored=3)",
    ),
    (
        corpus.Expectation,
        ("rule", {"rule": "av", "k": 1}, {"committee": [0]}),
        ("rule", {"rule": "av", "k": 1}, {"committee": [1]}),
        "Expectation(op='rule', inputs={'rule': 'av', 'k': 1}, expected={'committee': [0]})",
    ),
    (
        corpus.Fixture,
        ("tiny", {}, PROFILE, 1, (), "two voters on 0, one on 1", None, {0: "a"}),
        ("tiny", {}, PROFILE, 1, (), "two voters on 0, one on 1", None, {0: "b"}),
        f"Fixture(name='tiny', params={{}}, profile={PROFILE_REPR}, k=1, expectations=(), "
        "citation='two voters on 0, one on 1', weights=None, candidate_names={0: 'a'})",
    ),
    (
        corpus.ExpectationResult,
        ("rule av", True, ""),
        ("rule av", False, ""),
        "ExpectationResult(description='rule av', ok=True, detail='')",
    ),
    (
        corpus.BipartiteGraph,
        (2, 1, {(0, 0)}),
        (2, 1, {(1, 0)}),
        "BipartiteGraph(left_size=2, right_size=1, edges=frozenset({(0, 0)}))",
    ),
    (corpus.UniformSubsets, (0.5,), (0.25,), "UniformSubsets(p=0.5)"),
    (corpus.FixedSize, (2,), (3,), "FixedSize(size=2)"),
    (corpus.UrnLike, (3, 0.75), (3, 0.5), "UrnLike(groups=3, cohesion=0.75)"),
]
CLASSES = [case[0] for case in CASES]
# hold a dict, so hashing raises
UNHASHABLE = {rules.RoundRecord, corpus.Expectation, corpus.Fixture}

# the fewest arguments each class with defaults takes, and the defaults
DEFAULTS = {
    core.Ballot: (({1},), {"multiplicity": 1}),
    core.ScoringObjective: (("av",), {"weights": None}),
    rules.RuleSpec: (("pav",), {"weights": None, "tiebreak": TieBreak.LEXICOGRAPHIC}),
    rules._Rule: ((len, max), {"family": None, "explicit_weights": False, "searches": True}),
    axioms.AxiomReport: (("jr", True), {"witness": None}),
    axioms.Axiom: ((len,), {"oracle": None, "find": None, "leveled": False}),
    solver.OptimizationRequest: (
        (PROFILE, 1, AV), {"tiebreak": TieBreak.LEXICOGRAPHIC, "budget": None},
    ),
    corpus.Fixture: (
        ("tiny", {}, PROFILE, 1, (), "citation"), {"weights": None, "candidate_names": {}},
    ),
}

# each class with a `__post_init__`, arguments it rejects and the error
CHECKED = {
    core.Ballot: (({1}, 0), ProfileError),
    core.Committee: (((2, 1),), ValueError),
    core.WeightVector: (((1, 2),), ValueError),
    core.ScoringObjective: (("wpav", None), ValueError),
    rules.RuleSpec: (("wpav",), ValueError),
    solver.OptimizationRequest: ((PROFILE, 3, AV), ValueError),
    corpus.BipartiteGraph: ((2, 1, {(2, 0)}), ValueError),
    corpus.UniformSubsets: ((1.5,), ValueError),
    corpus.FixedSize: ((-1,), ValueError),
    corpus.UrnLike: ((0, 0.5), ValueError),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def _case(cls):
    return next(case for case in CASES if case[0] is cls)


ids = pytest.mark.parametrize("cls", CLASSES, ids=[cls.__name__ for cls in CLASSES])


def test_every_record_of_every_layer_is_covered():
    records = {
        value
        for module in (core, rules, axioms, solver, corpus)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, core.Record) and value is not core.Record
    }
    assert records == set(CLASSES) and len(CLASSES) == 20
    assert {cls for cls in CLASSES if "__post_init__" in vars(cls)} == set(CHECKED)


@ids
def test_assignment_and_deletion_raise(cls):
    record = cls(*_case(cls)[1])
    for name in (*cls._fields, "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
    for name in cls._fields:
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert _fields(record) == _fields(cls(*_case(cls)[1]))


def test_frozen_error_is_an_attribute_error_and_profiles_raise_it():
    assert issubclass(FrozenInstanceError, AttributeError)
    with pytest.raises(FrozenInstanceError):
        PROFILE.num_candidates = 3
    with pytest.raises(FrozenInstanceError):
        del PROFILE.num_candidates


@ids
def test_equality_follows_class_and_fields(cls):
    _, values, changed, _ = _case(cls)
    record, twin, other = cls(*values), cls(*values), cls(*changed)
    assert record == record and record != other
    assert record != _fields(record) and _fields(record) != record
    # a subclass's record with the same fields is another class's record
    subclassed = type("Subclass", (cls,), {})(*values)
    assert record != subclassed and subclassed != record
    if cls is core.GroupIndex:  # identity equality
        assert record != twin
    else:
        assert record == twin and not record != twin


@ids
def test_hash_is_the_hash_of_the_fields(cls):
    _, values, _, _ = _case(cls)
    record, twin = cls(*values), cls(*values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    elif cls is core.GroupIndex:
        assert hash(record) == object.__hash__(record)
    else:
        assert hash(record) == hash(twin) == hash(_fields(record))


@ids
def test_repr_is_pinned(cls):
    _, values, _, shown = _case(cls)
    assert repr(cls(*values)) == shown


@ids
def test_keyword_construction_matches_positional(cls):
    _, values, _, _ = _case(cls)
    record = cls(**dict(zip(cls._fields, values)))
    assert _fields(record) == _fields(cls(*values))


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=[cls.__name__ for cls in DEFAULTS])
def test_defaults(cls):
    args, defaults = DEFAULTS[cls]
    record = cls(*args)
    assert {name: getattr(record, name) for name in defaults} == defaults


def test_each_fixture_gets_its_own_candidate_names():
    args = DEFAULTS[corpus.Fixture][0]
    first, second = corpus.Fixture(*args), corpus.Fixture(*args)
    assert first.candidate_names == {} and first.candidate_names is not second.candidate_names


@ids
def test_pickle_and_deepcopy_round_trip(cls):
    record = cls(*_case(cls)[1])
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is cls and _fields(clone) == _fields(record)
        if cls is not core.GroupIndex:
            assert clone == record
        with pytest.raises(FrozenInstanceError):
            setattr(clone, cls._fields[0], 0)


@pytest.mark.parametrize("cls", list(CHECKED), ids=[cls.__name__ for cls in CHECKED])
def test_every_post_init_runs_on_construction(cls, monkeypatch):
    seen = []
    post_init = cls.__post_init__

    def counting(record):
        seen.append(record)
        post_init(record)

    monkeypatch.setattr(cls, "__post_init__", counting)
    record = cls(*_case(cls)[1])
    assert seen == [record] and seen[0] is record
    args, error = CHECKED[cls]
    with pytest.raises(error):
        cls(*args)
    assert len(seen) == 2


def test_fields_are_normalized_on_construction():
    assert core.Ballot([1, 1]).approved == frozenset({1})
    assert core.Committee(iter([0, 2])).members == (0, 2)
    assert core.WeightVector(["1", "1/2"]).weights == (Fraction(1), Fraction(1, 2))
    assert corpus.BipartiteGraph(1, 1, [(0, 0)]).edges == frozenset({(0, 0)})
