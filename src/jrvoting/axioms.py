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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .core import BallotProfile, Committee

JR = "jr"
ELL_JR = "ell-jr"
EJR = "ejr"
SJR = "sjr"
UNANIMITY = "unanimity"


@dataclass(frozen=True)
class Witness:
    """A concrete violation: a cohesive voter group and its common candidates.

    ``ballot_indices`` point into the profile's ballot groups; multiplicities
    of the referenced groups sum to ``group_size``.  Every referenced voter
    approves every candidate in ``candidates``.
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
    level: Optional[int] = None

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
    bits = []
    c = 0
    while mask:
        if mask & 1:
            bits.append(c)
        mask >>= 1
        c += 1
    return tuple(bits)


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

    Enumerates candidate l-subsets rather than voter groups: any violating
    voter group can be replaced by the set of *all* under-represented voters
    approving the same l candidates, so candidate-side enumeration is
    complete.  Candidates whose support among under-represented voters is
    below quota are discarded before subset enumeration.
    """
    return _check_level(profile, k, committee, ell)


def _check_level(profile: BallotProfile, k: int, committee: Committee, ell: int) -> AxiomReport:
    # shared by check_jr and check_ell_jr, so that each check is one public call
    _validate(profile, k, committee)
    if not 1 <= ell <= k:
        raise ValueError(f"level must satisfy 1 <= l <= k, got {ell} with k={k}")
    wmask = committee.mask
    n = profile.n
    restricted = [
        (i, mask, mult)
        for i, (mask, mult) in enumerate(profile.masks)
        if (mask & wmask).bit_count() < ell
    ]
    if k * sum(mult for *_, mult in restricted) < ell * n:
        return AxiomReport(ELL_JR, passed=True, level=ell)
    support = [0] * profile.num_candidates
    for _i, mask, mult in restricted:
        for c in _mask_bits(mask):
            support[c] += mult
    eligible = [c for c in range(profile.num_candidates) if k * support[c] >= ell * n]
    for combo in itertools.combinations(eligible, ell):
        cmask = 0
        for c in combo:
            cmask |= 1 << c
        indices = []
        size = 0
        for i, mask, mult in restricted:
            if mask & cmask == cmask:
                indices.append(i)
                size += mult
        if k * size >= ell * n:
            return AxiomReport(
                ELL_JR,
                passed=False,
                witness=Witness(ell, combo, tuple(indices), size),
                level=ell,
            )
    return AxiomReport(ELL_JR, passed=True, level=ell)


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
    for c in range(profile.num_candidates):
        if wmask >> c & 1:
            continue
        indices = []
        size = 0
        inter = -1
        for i, (mask, mult) in enumerate(profile.masks):
            if mask >> c & 1:
                indices.append(i)
                size += mult
                inter &= mask
        if size and k * size >= n and inter & wmask == 0:
            return AxiomReport(
                SJR,
                passed=False,
                witness=Witness(1, _mask_bits(inter), tuple(indices), size),
            )
    return AxiomReport(SJR, passed=True)


def check_unanimity(profile: BallotProfile, k: int, committee: Committee) -> AxiomReport:
    """If all voters share an approved candidate, the committee must contain one."""
    _validate(profile, k, committee)
    common = -1
    for mask, _mult in profile.masks:
        common &= mask
    if common == 0 or common & committee.mask:
        return AxiomReport(UNANIMITY, passed=True)
    return AxiomReport(
        UNANIMITY,
        passed=False,
        witness=Witness(
            1, _mask_bits(common), tuple(range(len(profile.ballots))), profile.n
        ),
    )


def find_jr_committee(profile: BallotProfile, k: int) -> Committee:
    """Greedy construction of a committee providing justified representation.

    Repeatedly elect the candidate with the highest approval score among
    the ballots not yet covered, then drop all ballots approving it.  Once
    every remaining ballot is covered (or empty), fill with the lowest-index
    unelected candidates.  The output always passes `check_jr`.
    """
    if not 1 <= k <= profile.num_candidates:
        raise ValueError(f"k={k} out of range for m={profile.num_candidates}")
    active = list(profile.masks)
    chosen: set[int] = set()
    while len(chosen) < k:
        support = [0] * profile.num_candidates
        for mask, mult in active:
            for c in _mask_bits(mask):
                support[c] += mult
        best = -1
        best_support = 0
        for c in range(profile.num_candidates):
            if c not in chosen and support[c] > best_support:
                best, best_support = c, support[c]
        if best < 0:
            break
        chosen.add(best)
        active = [(mask, mult) for mask, mult in active if not mask >> best & 1]
    for c in range(profile.num_candidates):
        if len(chosen) == k:
            break
        chosen.add(c)
    return Committee.of(chosen)


def find_ell_jr_committee(profile: BallotProfile, k: int, ell: int) -> Committee:
    """Greedy construction of a committee providing level-l representation.

    While at least l seats remain, elect the lexicographically first l-set of
    unelected candidates unanimously approved by a level-l quota of the still
    active ballots, then deactivate every ballot holding >= l winners.  When
    no such set exists (or fewer than l seats remain), fill with the
    lowest-index unelected candidates.  The output passes `check_ell_jr` at
    level l.
    """
    if not 1 <= k <= profile.num_candidates:
        raise ValueError(f"k={k} out of range for m={profile.num_candidates}")
    if not 1 <= ell <= k:
        raise ValueError(f"level must satisfy 1 <= l <= k, got {ell} with k={k}")
    n = profile.n
    active = list(profile.masks)
    chosen: list[int] = []
    wmask = 0
    while len(chosen) <= k - ell:
        unchosen = [c for c in range(profile.num_candidates) if not wmask >> c & 1]
        found = None
        for combo in itertools.combinations(unchosen, ell):
            cmask = 0
            for c in combo:
                cmask |= 1 << c
            size = sum(mult for mask, mult in active if mask & cmask == cmask)
            if k * size >= ell * n:
                found = combo
                break
        if found is None:
            break
        chosen.extend(found)
        for c in found:
            wmask |= 1 << c
        active = [
            (mask, mult)
            for mask, mult in active
            if (mask & wmask).bit_count() < ell
        ]
    for c in range(profile.num_candidates):
        if len(chosen) == k:
            break
        if not wmask >> c & 1:
            chosen.append(c)
            wmask |= 1 << c
    return Committee.of(chosen)


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
