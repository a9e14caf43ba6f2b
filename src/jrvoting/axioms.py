"""Representation axioms for approval committees.

Each axiom comes in up to three forms: a fast checker returning a verdict
with a concrete violation witness, a greedy construction guaranteed to
produce a committee satisfying the axiom, and a definition-verbatim
brute-force oracle used to cross-validate the fast checker on small
instances.

Quota comparisons never materialize the rational threshold l*n/k: a group of
total multiplicity ``size`` meets the level-l quota iff ``k * size >= l * n``,
which is the same inequality over integers and avoids boundary errors for
groups of exactly quota size.

The fast checkers work on the profile's ballot groups as integer bitmasks:
a voter set is a mask over the groups, a candidate's approvers its column
(`BallotProfile.columns`, built once per profile and shared by every level,
round and check on it), and a mask's voters an exact weighted popcount
(`GroupIndex.weigh`).  A check reads the columns only after the cheap test
that the voters it could name reach the quota at all.  The paper's JR
construction, `find_jr_committee`, is greedy cover on the same columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappushpop
from operator import and_
from typing import Callable, Optional

from .core import (
    BallotProfile,
    Committee,
    _columns,
    _flags_mask,
    _mask_flags,
    _weigher,
)

JR = "jr"
ELL_JR = "ell-jr"
EJR = "ejr"
SJR = "sjr"
UNANIMITY = "unanimity"


@dataclass(frozen=True)
class Witness:
    """A concrete violation: a cohesive voter group and its common candidates.

    ``ballot_indices`` are the ascending indices of the referenced ballots
    in the profile's ``ballots`` (one per document line); their
    multiplicities sum to ``group_size``.  Every referenced voter approves
    every candidate in ``candidates``.  The checkers work on ballot groups
    (`BallotProfile.index`) and name a group's ballots only here.
    """

    level: int
    candidates: tuple[int, ...]
    ballot_indices: tuple[int, ...]
    group_size: int


@dataclass(frozen=True)
class AxiomReport:
    """Verdict of an axiom check, with a witness when the check fails."""

    axiom: str
    passed: bool
    witness: Optional[Witness] = None

    @property
    def failed(self) -> bool:
        return not self.passed


def _validate(profile: BallotProfile, k: int, committee: Committee) -> None:
    if committee.k != k:
        raise ValueError(f"committee has size {committee.k}, expected k={k}")
    if committee.members[-1] >= profile.num_candidates:
        raise ValueError(
            f"committee member {committee.members[-1]} out of range for m={profile.num_candidates}"
        )


def _mask_bits(mask: int) -> tuple[int, ...]:
    return tuple(itertools.compress(itertools.count(), _mask_flags(mask, 0)))


def check_jr(profile: BallotProfile, k: int, committee: Committee) -> AxiomReport:
    """Does the committee leave no quota-sized unrepresented cohesive group?

    Justified representation is level-1 representation: the committee fails
    iff some candidate is approved by at least n/k voters none of whom
    approves a committee member; the witness is the first such candidate
    with all of its unrepresented approvers.
    """
    report = _check_level(profile, k, committee, 1)
    return AxiomReport(JR, passed=report.passed, witness=report.witness)


def check_ell_jr(
    profile: BallotProfile, k: int, committee: Committee, ell: int
) -> AxiomReport:
    """Does every l-cohesive quota group contain a voter with >= l winners?

    Searches candidate l-sets rather than voter groups: any violating voter
    group can be replaced by the set of *all* under-represented voters
    approving the same l candidates, so the candidate side is complete.  The
    witness is the lexicographically first violating l-set, found by the
    pruned depth-first search of `_cohesive_set`.
    """
    return _check_level(profile, k, committee, ell)


def _check_level(profile: BallotProfile, k: int, committee: Committee, ell: int) -> AxiomReport:
    # shared by check_jr and check_ell_jr, so that each check is one public call
    _validate(profile, k, committee)
    if not 1 <= ell <= k:
        raise ValueError(f"level must satisfy 1 <= l <= k, got {ell} with k={k}")
    found = _cohesive_set(profile, k, ell, committee.mask)
    if found is None:
        return AxiomReport(ELL_JR, passed=True)
    candidates, held, size = found
    witness = Witness(ell, candidates, profile.index.positions(held), size)
    return AxiomReport(ELL_JR, passed=False, witness=witness)


def _active_view(profile: BallotProfile, k: int, ell: int, wmask: int):
    """The view `_cohesive_set` searches: the active groups, those holding
    fewer than l members of ``wmask``, as ``(columns, weigh, active, ids)``,
    or None if all of their voters together miss the level-l quota.

    ``columns[c]`` holds the groups approving candidate c and ``active`` the
    active groups as bitmasks, and ``weigh`` gives a bitmask's voters.  One
    pass over the groups' bitmasks counts each group's winners, before any
    column is read.  The view is the profile's own, with ``ids`` None, where
    its columns are built or more than an eighth of the groups are active;
    otherwise it is built over the active groups alone, bit i for group
    ``ids[i]``.  That build costs about the active share of the profile's
    and is not kept, so past an eighth the profile's columns, kept for the
    later levels, rounds and checks on the profile, are built instead.
    """
    quota = ell * profile.n
    index = profile.index
    groups = len(index.mults)
    if ell == 1:
        held = bytes([not mask & wmask for mask in index.masks])
    else:
        held = bytes([(mask & wmask).bit_count() < ell for mask in index.masks])
    if k * sum(itertools.compress(index.mults, held)) < quota:
        return None
    count = held.count(1)  # of the active groups
    if "columns" in vars(profile) or 8 * count > groups:
        active = (1 << groups) - 1 if count == groups else _flags_mask(held)
        return profile.columns, index.weigh, active, None
    ids = list(itertools.compress(itertools.count(), held))
    columns = _columns(map(index.members.__getitem__, ids), profile.num_candidates)
    return columns, _weigher([index.mults[g] for g in ids]), (1 << len(ids)) - 1, ids


def _cohesive_set(
    profile: BallotProfile, k: int, ell: int, wmask: int, skip: int = 0
) -> Optional[tuple[tuple[int, ...], bytes, int]]:
    """The lexicographically first l-set of candidates outside ``skip`` whose
    common approvers among the active ballots, those holding fewer than l
    members of ``wmask``, reach the level-l quota, as ``(candidates, held,
    voters)``, ``held`` flagging those approvers' groups, one flag per
    group (`GroupIndex.positions` names their ballots); None if there is
    none.

    It runs on integers, over the bitmasks of `_active_view`, which ends
    the search if the active voters together miss the quota: depth-first
    over the candidates whose active approvers reach quota on their own, in
    index order, carrying the common active approvers of the chosen prefix
    as one bitmask, weighed by an exact weighted popcount
    (`core._weigher`).  A prefix below quota is pruned, since support only
    shrinks as the set grows (Eclat's itemset search on its vertical bit
    vectors).  The stack is explicit because l can exceed Python's
    recursion limit.
    """
    view = _active_view(profile, k, ell, wmask)
    if view is None:
        return None
    columns, weigh, active, ids = view
    quota = ell * profile.n
    candidates = []
    for c, column in enumerate(columns):
        if not skip >> c & 1:
            column &= active
            if column and k * weigh(column) >= quota:
                candidates.append((c, column))
    # (next candidate, chosen candidates, their common active groups)
    stack = [(0, (), active)]
    while stack:
        j, chosen, common = stack.pop()
        if len(candidates) - j < ell - len(chosen):
            continue
        c, column = candidates[j]
        stack.append((j + 1, chosen, common))
        common &= column
        size = weigh(common)
        if k * size >= quota:
            chosen += (c,)
            if len(chosen) == ell:
                groups = len(profile.index.mults)
                if ids is None:
                    return chosen, _mask_flags(common, groups), size
                held = bytearray(groups)
                for g in itertools.compress(ids, _mask_flags(common, len(ids))):
                    held[g] = 1
                return chosen, bytes(held), size
            stack.append((j + 1, chosen, common))
    return None


def check_ejr(profile: BallotProfile, k: int, committee: Committee) -> AxiomReport:
    """Check level-l representation for every l = 1..k.

    Worst-case exponential in the candidate count (the problem is
    coNP-complete in general); support pruning keeps desk-scale instances
    fast.  Fails with the witness of the smallest violated level.
    """
    _validate(profile, k, committee)
    for ell in range(1, k + 1):
        report = check_ell_jr(profile, k, committee, ell)
        if report.failed:
            return AxiomReport(EJR, passed=False, witness=report.witness)
    return AxiomReport(EJR, passed=True)


def check_sjr(profile: BallotProfile, k: int, committee: Committee) -> AxiomReport:
    """Must the committee hit the common approval set of every quota group?

    Polynomial check, one candidate at a time: for c outside the committee,
    take N_c = all approvers of c.  The committee fails iff some N_c reaches
    quota size and the intersection of its ballots avoids the committee.
    This is complete because enlarging a violating group only shrinks its
    intersection: if some quota group's intersection avoids W and contains c,
    then N_c is a superset of that group, still reaches quota, and its
    intersection (which still contains c) still avoids W.
    """
    _validate(profile, k, committee)
    wmask = committee.mask
    n = profile.n
    index = profile.index
    for c, size in enumerate(profile.approval_scores):
        if wmask >> c & 1 or k * size < n:
            continue
        groups = profile.owners[c]
        inter = reduce(and_, map(index.masks.__getitem__, groups))
        if inter & wmask == 0:
            held = bytearray(len(index.mults))
            for g in groups:
                held[g] = 1
            witness = Witness(1, _mask_bits(inter), index.positions(held), size)
            return AxiomReport(SJR, passed=False, witness=witness)
    return AxiomReport(SJR, passed=True)


def check_unanimity(profile: BallotProfile, k: int, committee: Committee) -> AxiomReport:
    """If all voters share an approved candidate, the committee must contain one."""
    _validate(profile, k, committee)
    common = -1
    for mask in profile.index.masks:
        common &= mask
    if common == 0 or common & committee.mask:
        return AxiomReport(UNANIMITY, passed=True)
    return AxiomReport(
        UNANIMITY,
        passed=False,
        witness=Witness(
            1, _mask_bits(common), tuple(range(len(profile.index.order))), profile.n
        ),
    )


def find_jr_committee(profile: BallotProfile, k: int) -> Committee:
    """Greedy construction of a committee providing justified representation.

    This is the paper's construction and the `gav` rule (greedy approval
    voting, the sequential rule with coverage weights (1, 0, ..., 0)):
    each round elects the candidate approved by the most voters who
    approve no winner yet, lowest index on ties; once every ballot is
    covered (or empty) the lowest-index unelected candidates fill the
    remaining seats.  The output always passes `check_jr`.

    It is greedy cover on the profile's columns: the uncovered groups are
    one bitmask, and a candidate's gain is its column's uncovered voters
    (`GroupIndex.weigh`).  Gains never rise, so a heap keyed (-gain,
    candidate, round) gives each winner lazily: an entry popped with a key
    from an earlier round goes back with its current gain, and the first
    entry popped with a key of this round is the lowest-index maximum (the
    accelerated greedy of Minoux, 1978).  Once every approving voter is
    covered, every gain is 0 and the heap gives the unelected candidates in
    index order.
    """
    m = profile.num_candidates
    if not 1 <= k <= m:  # before anything per candidate
        raise ValueError(f"k={k} out of range for m={m}")
    columns, weigh = profile.columns, profile.index.weigh
    uncovered = -1  # every group
    heap = [(-weigh(column), c, 0) for c, column in enumerate(columns)]
    heapify(heap)
    chosen = []
    for seat in range(k):
        key, best, seen = heappop(heap)
        while seen != seat:
            key, best, seen = heappushpop(heap, (-weigh(columns[best] & uncovered), best, seat))
        chosen.append(best)
        uncovered &= ~columns[best]
    return Committee.of(chosen)


def find_ell_jr_committee(profile: BallotProfile, k: int, ell: int) -> Committee:
    """Greedy construction of a committee providing level-l representation.

    While at least l seats remain, elect the lexicographically first l-set of
    unelected candidates unanimously approved by a level-l quota of the
    active ballots, those holding fewer than l winners; this is the search
    behind `check_ell_jr`, with the winners so far both as the committee and
    as the excluded candidates.  When no such set exists (or fewer than l
    seats remain), fill with the lowest-index unelected candidates.  The
    output passes `check_ell_jr` at level l.
    """
    if not 1 <= k <= profile.num_candidates:
        raise ValueError(f"k={k} out of range for m={profile.num_candidates}")
    if not 1 <= ell <= k:
        raise ValueError(f"level must satisfy 1 <= l <= k, got {ell} with k={k}")
    wmask = 0
    for _ in range(k // ell):
        found = _cohesive_set(profile, k, ell, wmask, wmask)
        if found is None:
            break
        for c in found[0]:
            wmask |= 1 << c
    chosen = list(_mask_bits(wmask))
    rest = [c for c in range(profile.num_candidates) if not wmask >> c & 1]
    return Committee.of(chosen + rest[: k - len(chosen)])


def exists_sjr_committee(
    profile: BallotProfile, k: int, budget: Optional[int] = None
) -> Optional[Committee]:
    """Lexicographically first committee passing `check_sjr`, or None.

    Exhaustive depth-first search over the C(m, k) committees that stops at
    the first passing one; unlike the other axioms, a passing committee need
    not exist at all.  The budget counts search nodes.
    """
    # deferred: the solver imports this module for its prefer-JR tie-break
    from .solver import _best_accepted

    return _best_accepted(
        profile, k, lambda w: check_sjr(profile, k, w).passed, None, budget
    )


def replay_witness(
    profile: BallotProfile, k: int, committee: Committee, report: AxiomReport
) -> bool:
    """Re-check a failure witness against the raw axiom definition.

    Returns True iff the report is a failure and its witness reproduces the
    violation verbatim: the referenced voters all approve the witness
    candidates, meet the integer quota for the witness level, and are
    under-represented in the sense of the violated axiom.
    """
    if report.passed or report.witness is None:
        return False
    w = report.witness
    n = profile.n
    wmask = committee.mask
    cmask = 0
    for c in w.candidates:
        cmask |= 1 << c
    masks = profile.masks
    size = sum(masks[i][1] for i in w.ballot_indices)
    if size != w.group_size:
        return False
    if any(masks[i][0] & cmask != cmask for i in w.ballot_indices):
        return False

    if report.axiom == UNANIMITY:
        return cmask != 0 and cmask & wmask == 0 and size == n
    if report.axiom == SJR:
        return cmask != 0 and cmask & wmask == 0 and k * size >= n
    # jr / ell-jr / ejr
    ell = w.level
    if len(w.candidates) < ell or k * size < ell * n:
        return False
    return all(
        (masks[i][0] & wmask).bit_count() < ell for i in w.ballot_indices
    )


# ---------------------------------------------------------------------------
# Definition-verbatim brute-force oracles.
#
# Every oracle expands the profile into unit ballots and enumerates voter
# subsets directly from the axiom definition.  For the representation axioms
# the definitions constrain each group member individually (no approved
# winner / fewer than l winners), so enumeration is restricted to the voters
# meeting that per-voter clause; this loses nothing.  The strong axiom has no
# per-voter clause, so there all subsets are enumerated.
# ---------------------------------------------------------------------------


def _unit_masks(profile: BallotProfile) -> list[int]:
    units = []
    for mask, mult in profile.masks:
        units.extend([mask] * mult)
    return units


def oracle_check_jr(profile: BallotProfile, k: int, committee: Committee) -> bool:
    _validate(profile, k, committee)
    wmask = committee.mask
    n = profile.n
    eligible = [mask for mask in _unit_masks(profile) if mask & wmask == 0]
    min_size = -(-n // k)
    for size in range(min_size, len(eligible) + 1):
        for group in itertools.combinations(eligible, size):
            inter = -1
            for mask in group:
                inter &= mask
            if inter != 0:
                return False
    return True


def oracle_check_ell_jr(
    profile: BallotProfile, k: int, committee: Committee, ell: int
) -> bool:
    _validate(profile, k, committee)
    if not 1 <= ell <= k:
        raise ValueError(f"level must satisfy 1 <= l <= k, got {ell} with k={k}")
    wmask = committee.mask
    n = profile.n
    eligible = [
        mask
        for mask in _unit_masks(profile)
        if (mask & wmask).bit_count() < ell
    ]
    min_size = -(-(ell * n) // k)
    for size in range(min_size, len(eligible) + 1):
        for group in itertools.combinations(eligible, size):
            inter = -1
            for mask in group:
                inter &= mask
            if inter.bit_count() >= ell:
                return False
    return True


def oracle_check_ejr(profile: BallotProfile, k: int, committee: Committee) -> bool:
    return all(
        oracle_check_ell_jr(profile, k, committee, ell) for ell in range(1, k + 1)
    )


def oracle_check_sjr(profile: BallotProfile, k: int, committee: Committee) -> bool:
    _validate(profile, k, committee)
    wmask = committee.mask
    n = profile.n
    units = _unit_masks(profile)
    min_size = -(-n // k)
    for size in range(min_size, len(units) + 1):
        for group in itertools.combinations(units, size):
            inter = -1
            for mask in group:
                inter &= mask
            if inter != 0 and inter & wmask == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# The axiom table.  Entries call this module's functions by name at call time,
# so rebinding a module attribute (a wrapper or a test double) takes effect.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Axiom:
    """``check(profile, k, committee, ell)`` gives the fast checker's report,
    ``oracle`` (same arguments) the brute-force verdict and ``find(profile,
    k, ell)`` a committee with the axiom; ``ell`` is the level of a
    ``leveled`` axiom and ignored otherwise."""

    check: Callable[[BallotProfile, int, Committee, Optional[int]], AxiomReport]
    oracle: Optional[Callable[[BallotProfile, int, Committee, Optional[int]], bool]] = None
    find: Optional[Callable[[BallotProfile, int, Optional[int]], Committee]] = None
    leveled: bool = False


AXIOMS: dict[str, Axiom] = {
    JR: Axiom(
        lambda p, k, w, ell: check_jr(p, k, w),
        lambda p, k, w, ell: oracle_check_jr(p, k, w),
        lambda p, k, ell: find_jr_committee(p, k),
    ),
    ELL_JR: Axiom(
        lambda p, k, w, ell: check_ell_jr(p, k, w, ell),
        lambda p, k, w, ell: oracle_check_ell_jr(p, k, w, ell),
        lambda p, k, ell: find_ell_jr_committee(p, k, ell),
        leveled=True,
    ),
    EJR: Axiom(
        lambda p, k, w, ell: check_ejr(p, k, w),
        lambda p, k, w, ell: oracle_check_ejr(p, k, w),
    ),
    SJR: Axiom(
        lambda p, k, w, ell: check_sjr(p, k, w),
        lambda p, k, w, ell: oracle_check_sjr(p, k, w),
    ),
    UNANIMITY: Axiom(lambda p, k, w, ell: check_unanimity(p, k, w)),
}

AXIOM_NAMES = tuple(AXIOMS)
