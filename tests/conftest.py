"""Shared test helpers: profile constructors, deterministic random streams,
and the naive references: the token-by-token document parser, the
per-ballot rational scorer, the full-enumeration optimizer used as the
solver's oracle, the greedy committee of an objective built from whole
committee scores, the ballot-deleting greedy cover, the sequential rule
recomputed from its definition every round, the l-subset scan for the
first cohesive candidate set, and JR and the maximin read per ballot group."""

import itertools
import random
from fractions import Fraction
from typing import Optional

from jrvoting.cli import ProfileParseError, _plain_integers
from jrvoting.core import BallotProfile, Committee, ScoringObjective, _check_committee, normalize_profile
from jrvoting.corpus import FixedSize, UniformSubsets, UrnLike, random_profile


def profile_of(m, *groups):
    """Build a profile from (iterable, mult) pairs or bare iterables (mult 1)."""
    normalized = []
    for group in groups:
        if isinstance(group, tuple) and len(group) == 2 and isinstance(group[1], int):
            normalized.append((group[0], group[1]))
        else:
            normalized.append((group, 1))
    return BallotProfile.from_groups(m, normalized)


def naive_parse_profile(text: str) -> tuple[BallotProfile, Optional[int]]:
    """Parse a profile document; returns the profile and the optional k header.

    The parser as it was before ballot lines were read in one call: every
    line, repeated or not, token by token."""
    m: Optional[int] = None
    k: Optional[int] = None
    groups: list[tuple[set[int], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not _plain_integers(line):
            raise ProfileParseError(f"numbers must be ASCII decimal digits in {line!r}", lineno)
        head, _, rest = line.partition(" ")
        if head == "m":
            if m is not None:
                raise ProfileParseError("duplicate m header", lineno)
            try:
                m = int(rest)
            except ValueError:
                raise ProfileParseError(f"bad m header {rest!r}", lineno) from None
            if m < 1:
                raise ProfileParseError(f"m must be >= 1, got {m}", lineno)
            continue
        if head == "k":
            if k is not None:
                raise ProfileParseError("duplicate k header", lineno)
            try:
                k = int(rest)
            except ValueError:
                raise ProfileParseError(f"bad k header {rest!r}", lineno) from None
            continue
        mult_text, sep, indices_text = line.partition(":")
        if not sep:
            raise ProfileParseError(f"unrecognized line {line!r}", lineno)
        try:
            mult = int(mult_text.strip())
        except ValueError:
            raise ProfileParseError(f"bad multiplicity {mult_text.strip()!r}", lineno) from None
        if mult < 1:
            raise ProfileParseError(f"multiplicity must be >= 1, got {mult}", lineno)
        if m is None:
            raise ProfileParseError("ballot line before m header", lineno)
        approved: set[int] = set()
        for token in indices_text.split():
            try:
                c = int(token)
            except ValueError:
                raise ProfileParseError(f"bad candidate index {token!r}", lineno) from None
            if c in approved:
                raise ProfileParseError(f"duplicate candidate index {c}", lineno)
            if not 0 <= c < m:
                raise ProfileParseError(
                    f"candidate index {c} out of range for m={m}", lineno
                )
            approved.add(c)
        groups.append((approved, mult))
    if m is None:
        raise ProfileParseError("missing m header")
    if not groups:
        raise ProfileParseError("profile contains no ballots")
    return BallotProfile.from_groups(m, groups), k


def naive_score(profile, committee, objective: ScoringObjective) -> Fraction:
    """Exact score of a committee, one rational per ballot group."""
    _check_committee(profile, committee)
    wmask = committee.mask
    if objective.kind == "av":
        total = sum(
            mult * (mask & wmask).bit_count() for mask, mult in profile.masks
        )
        return Fraction(total)
    if objective.kind == "sav":
        total = Fraction(0)
        for ballot in profile.ballots:
            size = len(ballot.approved)
            if size == 0:
                continue
            reps = (ballot.mask & wmask).bit_count()
            total += ballot.multiplicity * Fraction(reps, size)
        return total
    if objective.kind == "wpav":
        weights = objective.weights
        assert weights is not None
        if len(weights) != profile.num_candidates:
            raise ValueError(
                f"weight vector length {len(weights)} != number of candidates {profile.num_candidates}"
            )
        table = weights.satisfaction_table
        total = Fraction(0)
        for mask, mult in profile.masks:
            total += mult * table[(mask & wmask).bit_count()]
        return total
    # mav: maximum symmetric-difference distance over distinct ballots
    k = committee.k
    worst = 0
    for mask, _mult in profile.masks:
        dist = k + mask.bit_count() - 2 * (mask & wmask).bit_count()
        if dist > worst:
            worst = dist
    return Fraction(worst)


def naive_optimize(profile, k, objective: ScoringObjective):
    """Full enumeration with explicit tie-break: returns (score, co-optima).

    Independent of the solver: scores every committee with the reference
    rational scorer `naive_score`.  Co-optima come out in lexicographic
    order.
    """
    best_score = None
    co = []
    for members in itertools.combinations(range(profile.num_candidates), k):
        score = naive_score(profile, Committee(members), objective)
        if best_score is None:
            best_score, co = score, [members]
            continue
        better = score > best_score if objective.maximize else score < best_score
        if better:
            best_score, co = score, [members]
        elif score == best_score:
            co.append(members)
    return best_score, co


def naive_greedy(profile, k, objective: ScoringObjective):
    """The greedy committee of an additive objective, from whole committee
    scores: k times, add the first unelected candidate whose committee
    scores highest under `naive_score`, that is the first of largest
    marginal gain."""
    chosen = []
    for _ in range(k):
        best = max(
            (c for c in range(profile.num_candidates) if c not in chosen),
            key=lambda c: naive_score(profile, Committee.of(chosen + [c]), objective),
        )
        chosen.append(best)
    return Committee.of(chosen)


def naive_greedy_cover(profile, k):
    """The greedy JR construction written without weights: elect the
    candidate approved by the most still-uncovered voters (lowest index on
    ties), drop every ballot approving it, and once no uncovered voter
    approves an unelected candidate fill with the lowest-index ones."""
    m = profile.num_candidates
    active = [(ballot.approved, ballot.multiplicity) for ballot in profile.ballots]
    chosen = []
    while len(chosen) < k:
        support = [0] * m
        for approved, mult in active:
            for c in approved:
                support[c] += mult
        best, best_support = -1, 0
        for c in range(m):
            if c not in chosen and support[c] > best_support:
                best, best_support = c, support[c]
        if best < 0:
            break
        chosen.append(best)
        active = [(approved, mult) for approved, mult in active if best not in approved]
    chosen += [c for c in range(m) if c not in chosen][: k - len(chosen)]
    return Committee.of(chosen)


def naive_sequential_trace(profile, k, weights):
    """k rounds of the sequential rule, straight from its definition in
    fractions: every round recomputes each unelected candidate's weight as
    the sum over the ballot groups g approving it of mult_g * w_{|A_g & W| + 1}
    and elects the first maximal one.  Returns (candidate, weight, weights of
    all unelected candidates) per round."""
    elected = set()
    rounds = []
    for _ in range(k):
        table = {
            c: sum(
                (
                    ballot.multiplicity * weights.weight(len(ballot.approved & elected) + 1)
                    for ballot in profile.ballots
                    if c in ballot.approved
                ),
                Fraction(0),
            )
            for c in range(profile.num_candidates)
            if c not in elected
        }
        best = max(table, key=table.get)
        elected.add(best)
        rounds.append((best, table[best], table))
    return rounds


def naive_first_cohesive_set(profile, k, ell, wmask, skip=0):
    """Scan every l-subset of the candidates outside ``skip`` in
    lexicographic order and return the first whose common approvers among
    the ballots holding fewer than l members of ``wmask`` meet the level-l
    quota k * size >= l * n, as (candidates, ballot indices, voters); None
    if no l-subset does."""
    active = [
        (i, mask, mult)
        for i, (mask, mult) in enumerate(profile.masks)
        if (mask & wmask).bit_count() < ell
    ]
    outside = [c for c in range(profile.num_candidates) if not skip >> c & 1]
    for combo in itertools.combinations(outside, ell):
        cmask = sum(1 << c for c in combo)
        group = [(i, mult) for i, mask, mult in active if mask & cmask == cmask]
        size = sum(mult for _, mult in group)
        if k * size >= ell * profile.n:
            return combo, tuple(i for i, _ in group), size
    return None


def random_instances(seed, count, max_n=10, max_m=8, min_m=2, max_k=None, cultures=None):
    """Deterministic stream of (profile, k) pairs for property tests."""
    rng = random.Random(f"tests|{seed}")
    cultures = cultures or ["uniform", "urn"]
    for trial in range(count):
        n = rng.randint(1, max_n)
        m = rng.randint(min_m, max_m)
        k = rng.randint(1, min(m, max_k) if max_k else m)
        kind = cultures[trial % len(cultures)]
        if kind == "uniform":
            culture = UniformSubsets(rng.choice([0.2, 0.35, 0.5, 0.7]))
        elif kind == "fixed":
            culture = FixedSize(rng.randint(0, m))
        else:
            culture = UrnLike(rng.randint(1, 3), rng.choice([0.5, 0.8]))
        yield random_profile(seed=seed * 7919 + trial, n=n, m=m, k=k, culture=culture), k


def weighted_instances(seed, count):
    """Deterministic stream of (profile, k) pairs for the demand searches:
    m 4-9, up to 12 ballot groups with multiplicities from 1 to a billion,
    and now and then an empty ballot."""
    rng = random.Random(f"weighted|{seed}")
    for raw, k in random_instances(seed=seed, count=count, max_n=12, min_m=4, max_m=9,
                                   cultures=["uniform", "urn", "fixed"]):
        groups = [(b.approved, rng.choice((1, 1, 2, 3, 64, 10**9)))
                  for b in normalize_profile(raw).ballots]
        if rng.random() < 0.3:
            groups.append(((), rng.choice((1, 2, 10**9))))
        yield BallotProfile.from_groups(raw.m, groups), k


def group_maximin(profile, committee):
    """Fewest approved winners of any ballot group, so of any voter."""
    wmask = committee.mask
    return min((mask & wmask).bit_count() for mask, _mult in profile.masks)


def group_jr(profile, k, committee):
    """JR from its definition, per ballot group: no candidate is approved by
    n / k or more voters none of whose approved candidates is a winner."""
    wmask = committee.mask
    left = [(mask, mult) for mask, mult in profile.masks if not mask & wmask]
    return all(k * sum(mult for mask, mult in left if mask >> c & 1) < profile.n
               for c in range(profile.m))


def random_committee(rng, m, k):
    return Committee.of(rng.sample(range(m), k))
