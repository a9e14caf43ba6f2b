"""Seeded job mixes for the benchmark.

Inputs come from this file's own `random.Random`, never from
`jrvoting.corpus.random_profile`, so a library change cannot silently change
what is measured.  Each workload is a fixed grid of job shapes (rule or
axiom, m, k, n, culture); the seed only draws the ballots and the committees
handed to `check`.  Keeping the grid fixed keeps a pass's total work close
to the same for every seed.

Profile documents list one voter per line with multiplicity 1, the way a
user would export raw ballots, so repeated ballots stay visible to the
library (a ballot-merging change acts on them).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

COMMANDS = ("compute", "check", "find", "verify")
# independent profiles per job shape in exhaustive-distinct: a pass's total
# work then varies less from seed to seed than any single search does
REPLICAS = 3


@dataclass(frozen=True)
class Profile:
    """Benchmark-side copy of a generated profile: one bitmask per voter."""

    m: int
    k: int
    masks: tuple[int, ...]
    culture: str

    @property
    def n(self) -> int:
        return len(self.masks)

    def document(self) -> str:
        lines = [f"# bench culture={self.culture}", f"m {self.m}", f"k {self.k}"]
        for mask in self.masks:
            members = [str(c) for c in range(self.m) if mask >> c & 1]
            lines.append("1:" + "".join(" " + c for c in members))
        return "\n".join(lines) + "\n"


@dataclass
class Job:
    """One CLI invocation; `argv` holds a `{profile}` placeholder for the file."""

    command: str
    argv: list[str]
    profile: Optional[Profile] = None
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: list


# ---------------------------------------------------------------------------
# Cultures
# ---------------------------------------------------------------------------


def _half(rng: random.Random, m: int) -> int:
    return sum(1 << c for c in range(m) if rng.random() < 0.5)


def urn(rng: random.Random, n: int, m: int, k: int, bases: int = 4, cohesion: float = 0.6) -> Profile:
    """Voters copy one of `bases` shared ballots with probability `cohesion`,
    otherwise approve each candidate with probability 1/2."""
    shared = [_half(rng, m) for _ in range(bases)]
    masks = tuple(
        shared[rng.randrange(bases)] if rng.random() < cohesion else _half(rng, m)
        for _ in range(n)
    )
    return Profile(m, k, masks, f"urn:{bases}:{cohesion}")


def uniform(rng: random.Random, n: int, m: int, k: int, p: float) -> Profile:
    masks = tuple(
        sum(1 << c for c in range(m) if rng.random() < p) for _ in range(n)
    )
    return Profile(m, k, masks, f"uniform:{p}")


def fixed(rng: random.Random, n: int, m: int, k: int, size: int) -> Profile:
    masks = tuple(sum(1 << c for c in rng.sample(range(m), size)) for _ in range(n))
    return Profile(m, k, masks, f"fixed:{size}")


def with_consensus(rng: random.Random, profile: Profile) -> tuple[Profile, int]:
    """The same profile with one random candidate added to every ballot."""
    common = rng.randrange(profile.m)
    masks = tuple(mask | 1 << common for mask in profile.masks)
    return Profile(profile.m, profile.k, masks, profile.culture + "+consensus"), common


# ---------------------------------------------------------------------------
# Committees handed to `check`
# ---------------------------------------------------------------------------


def approval_top(profile: Profile) -> list[int]:
    """The k most-approved candidates, lowest index first on ties."""
    scores = [sum(1 for mask in profile.masks if mask >> c & 1) for c in range(profile.m)]
    order = sorted(range(profile.m), key=lambda c: (-scores[c], c))
    return sorted(order[: profile.k])


def avoid_common(profile: Profile) -> list[int]:
    """The k most-approved candidates outside the most frequent ballot, whose
    voters are then left without a representative."""
    common = Counter(profile.masks).most_common(1)[0][0]
    scores = [sum(1 for mask in profile.masks if mask >> c & 1) for c in range(profile.m)]
    order = sorted(range(profile.m), key=lambda c: (common >> c & 1, -scores[c], c))
    return sorted(order[: profile.k])


def _committee_arg(members: list[int]) -> str:
    return ",".join(str(c) for c in members)


# ---------------------------------------------------------------------------
# Job builders
# ---------------------------------------------------------------------------


def _compute(profile: Profile, rule: str, tiebreak: str = "lex", weights: Optional[str] = None) -> Job:
    argv = ["compute", "--rule", rule, "--format", "machine"]
    if tiebreak != "lex":
        argv += ["--tiebreak", tiebreak]
    if weights is not None:
        argv += ["--weights", weights]
    return Job("compute", argv + ["{profile}"], profile, {"rule": rule, "tiebreak": tiebreak, "weights": weights})


def _check(profile: Profile, axiom: str, members: list[int]) -> Job:
    argv = ["check", "--axiom", axiom, "--committee", _committee_arg(members), "--format", "machine", "{profile}"]
    return Job("check", argv, profile, {"axiom": axiom, "committee": members})


def _find(profile: Profile, axiom: str) -> Job:
    return Job("find", ["find", "--axiom", axiom, "--format", "machine", "{profile}"], profile, {"axiom": axiom})


def _verify(name: str, **params) -> Job:
    argv = ["corpus", "--name", name, "--verify"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    return Job("verify", argv, None, {"fixture": name, "params": params})


def stepped_weights(m: int) -> str:
    """(1, 1/2, 1/2, 1/4, 1/4, ...): a non-harmonic Thiele vector."""
    return ",".join(str(Fraction(1, 2 ** ((j + 1) // 2))) for j in range(m))


def _audit_tail(profiles: list[Profile]) -> list[Job]:
    """A user's follow-up after computing: check each profile's most-approved
    committee for justified representation, construct a committee that has
    it for every third profile, and replay the paper's small fixtures.  These
    jobs are many but light, so the median job is an audit job while the
    searches dominate the total time; they also keep every CLI command
    present in every workload."""
    jobs = [_check(p, "jr", approval_top(p)) for p in profiles]
    jobs += [_find(p, "jr") for p in profiles[1::3]]
    jobs += [_verify(name) for name in FIXTURES if name != "thm8"]
    return jobs


def thiele_urn(seed: int) -> Workload:
    rng = random.Random(f"thiele-urn|{seed}")
    # (rule, m, k, n, tiebreak, copies).  Every search is kept short, so the
    # reference loop timed around it tracks the host's speed during it.
    grid = [
        # coverage searches explore nearly the same tree whatever the
        # ballots; as the largest jobs they set the tail
        ("cc", 17, 6, 100, "lex", 12),
        ("cc", 22, 5, 100, "lex", 5),
        # searches whose pruning depends on the ballots, each drawn five times
        ("pav", 16, 5, 100, "lex", 5),
        ("pav", 20, 5, 100, "lex", 5),
        ("pav", 16, 6, 100, "prefer-jr", 5),
        ("cc", 16, 5, 100, "lex", 5),
        ("cc", 16, 5, 100, "prefer-jr", 5),
        ("sav", 18, 7, 100, "lex", 5),
        ("sav", 18, 6, 120, "lex", 5),
        ("wpav", 16, 5, 200, "lex", 5),
        ("wpav", 17, 5, 150, "prefer-jr", 5),
    ]
    jobs, profiles = [], []
    for rule, m, k, n, tiebreak, copies in grid:
        for _ in range(copies):
            profile = urn(rng, n, m, k)
            weights = stepped_weights(m) if rule == "wpav" else None
            jobs.append(_compute(profile, rule, tiebreak, weights))
            profiles.append(profile)
    jobs += _audit_tail(profiles)
    return Workload("thiele-urn", WHY["thiele-urn"], jobs)


def exhaustive_distinct(seed: int) -> Workload:
    rng = random.Random(f"exhaustive-distinct|{seed}")
    grid = [
        # (rule, m, k, n, culture)
        ("pav", 14, 4, 100, "uniform"),
        ("pav", 16, 5, 150, "fixed"),
        ("pav", 18, 6, 200, "uniform"),
        ("pav", 16, 4, 120, "fixed"),
        ("mav", 14, 4, 100, "fixed"),
        ("mav", 16, 5, 150, "uniform"),
        ("mav", 18, 5, 200, "fixed"),
        ("mav", 15, 5, 120, "uniform"),
        ("ujrav", 14, 4, 100, "uniform"),
        ("ujrav", 16, 5, 150, "fixed"),
        ("ejrav", 14, 4, 100, "fixed"),
        ("ejrav", 16, 5, 150, "uniform"),
    ]
    # the two largest enumerations cost the same whatever the ballots
    grid = grid * REPLICAS + [("ujrav", 18, 6, 200, "uniform"), ("ejrav", 18, 6, 200, "fixed")]
    jobs, profiles = [], []
    for rule, m, k, n, culture in grid:
        if culture == "uniform":
            profile = uniform(rng, n, m, k, 0.3)
        else:
            profile = fixed(rng, n, m, k, 5 if m < 16 else 6)
        jobs.append(_compute(profile, rule))
        profiles.append(profile)
    jobs += _audit_tail(profiles)
    return Workload("exhaustive-distinct", WHY["exhaustive-distinct"], jobs)


def paper_audit(seed: int) -> Workload:
    rng = random.Random(f"paper-audit|{seed}")

    def draw(culture: str, n: int, m: int, k: int) -> Profile:
        if culture == "uniform":
            return uniform(rng, n, m, k, 0.15)
        if culture == "fixed":
            return fixed(rng, n, m, k, 6)
        if culture == "sparse":
            # ballots too small for any candidate to reach a quota
            return fixed(rng, n, m, k, 2)
        return urn(rng, n, m, k)

    jobs = []
    for rule, culture, n, m, k in [
        ("rav", "uniform", 2000, 40, 12),
        ("rav", "urn", 1500, 40, 12),
        ("gav", "fixed", 1000, 30, 10),
        ("gav", "uniform", 5000, 60, 15),
        ("geometric-rav", "urn", 1500, 40, 12),
        ("geometric-rav", "fixed", 1500, 36, 10),
        ("wrav", "uniform", 1000, 30, 10),
        ("wrav", "urn", 2000, 50, 14),
    ]:
        profile = draw(culture, n, m, k)
        weights = stepped_weights(m) if rule == "wrav" else None
        jobs.append(_compute(profile, rule, weights=weights))

    # each axiom gets one committee built to fail and one built to pass
    for axiom, culture, n, m, k, choose in [
        ("jr", "urn", 2000, 40, 12, avoid_common),
        ("jr", "uniform", 5000, 60, 15, approval_top),
        ("ell-jr:2", "urn", 1000, 40, 15, avoid_common),
        ("ell-jr:2", "fixed", 3000, 50, 12, approval_top),
        ("ejr", "urn", 2000, 60, 15, avoid_common),
        ("ejr", "fixed", 1500, 40, 12, approval_top),
        ("sjr", "uniform", 3000, 50, 14, approval_top),
        ("sjr", "sparse", 1000, 30, 10, approval_top),
    ]:
        profile = draw(culture, n, m, k)
        jobs.append(_check(profile, axiom, choose(profile)))
    for n, m, k in [(1000, 30, 10), (4000, 50, 14)]:
        profile, common = with_consensus(rng, draw("uniform", n, m, k))
        others = rng.sample([c for c in range(m) if c != common], k)
        jobs.append(_check(profile, "unanimity", sorted(others)))
        jobs.append(_check(profile, "unanimity", sorted(others[1:] + [common])))

    for axiom, culture, n, m, k in [
        ("jr", "uniform", 5000, 60, 15),
        ("jr", "urn", 2000, 40, 12),
        ("jr", "fixed", 2000, 40, 12),
        ("ell-jr:2", "fixed", 1000, 30, 10),
        ("ell-jr:2", "urn", 3000, 40, 12),
        ("ell-jr:2", "uniform", 2000, 36, 12),
    ]:
        jobs.append(_find(draw(culture, n, m, k), axiom))

    for name in FIXTURES:
        if name not in SOLVER_FIXTURES:
            jobs.append(_verify(name))
    for s in range(8, 13):
        jobs.append(_verify("thm8", s=s))
    for k in (11, 14, 17, 20, 23):
        jobs.append(_verify("thm7_extended", k=k))
    return Workload("paper-audit", WHY["paper-audit"], jobs)


FIXTURES = (
    "example1", "example2", "example5", "example6", "lemma1", "lemma2",
    "sec4_intro", "thm4", "thm5_mav", "thm5_sav", "thm6_family", "thm7",
    "thm7_extended", "thm8",
)

# fixtures whose replay runs a score rule through the solver: replayed by
# the audit tail of the two solver workloads, kept out of paper-audit
SOLVER_FIXTURES = ("lemma1", "lemma2", "sec4_intro", "thm4", "thm5_mav", "thm5_sav", "thm6_family")

WHY = {
    "thiele-urn": "urn profiles with repeated ballots; the Thiele-rule solver takes nearly all job time",
    "exhaustive-distinct": "nearly all ballots distinct; MAV bound and ujrav/ejrav C(m,k) enumeration with check_jr as inner predicate",
    "paper-audit": "solver never called; time splits over parsing, sequential rounds, axiom checks, finds and corpus replay",
}

BUILDERS = {
    "thiele-urn": thiele_urn,
    "exhaustive-distinct": exhaustive_distinct,
    "paper-audit": paper_audit,
}


def record(workload: Workload) -> dict:
    """Measured input properties of a workload (independent of the library)."""
    profiles = {id(job.profile): job.profile for job in workload.jobs if job.profile is not None}
    distinct = sum(len(set(p.masks)) for p in profiles.values())
    voters = sum(p.n for p in profiles.values())
    per_command = {c: sum(1 for j in workload.jobs if j.command == c) for c in COMMANDS}
    filtered = sum(
        comb(j.profile.m, j.profile.k)
        for j in workload.jobs
        if j.command == "compute" and j.info["rule"] in ("ujrav", "ejrav")
    )

    def span(attr: str) -> list[int]:
        values = [getattr(p, attr) for p in profiles.values()]
        return [min(values), max(values)]

    return {
        "why": workload.why,
        "jobs": len(workload.jobs),
        "jobs_per_command": per_command,
        "groups_per_voter": round(distinct / voters, 4),
        "m": span("m"),
        "k": span("k"),
        "n": span("n"),
        "filtered_committees": filtered,
    }
