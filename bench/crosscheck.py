"""Checks of CLI output that do not rely on the code being measured.

Used when a seed has no recorded outputs, and when outputs are first
recorded.  Score-rule and filtered-rule jobs are re-solved by exhaustive
enumeration in NumPy; sequential rules are re-run from their round-by-round
definition; failing axiom checks are replayed with `replay_witness`; passing
checks and constructed committees are re-checked with the voter-set searches
below; corpus replays must end in ``verdict=pass``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Optional

import numpy as np

from workloads import Job, Profile

ENUMERATION_LIMIT = 250_000
CHUNK = 16_384


def parse_machine(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        fields[key] = value
    return fields


def _members(mask: int) -> list[int]:
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def _committee_mask(text: str) -> tuple[list[int], int]:
    members = [int(c) for c in text.split(",")]
    return members, sum(1 << c for c in members)


# ---------------------------------------------------------------------------
# Axioms from their definitions, over voter sets
# ---------------------------------------------------------------------------


def has_ell_violation(profile: Profile, wmask: int, ell: int) -> bool:
    """Is there a group of >= ell*n/k voters, each with fewer than ell winners,
    that commonly approves ell candidates?  Depth-first over candidate sets,
    keeping the set of such voters approving every candidate chosen so far."""
    n, k, m = profile.n, profile.k, profile.m
    approvers = [0] * m
    for bit, mask in enumerate(x for x in profile.masks if (x & wmask).bit_count() < ell):
        for c in _members(mask):
            approvers[c] |= 1 << bit

    def grow(start: int, voters: int, depth: int) -> bool:
        if depth == ell:
            return True
        for c in range(start, m):
            shared = voters & approvers[c]
            if k * shared.bit_count() >= ell * n and grow(c + 1, shared, depth + 1):
                return True
        return False

    return grow(0, -1, 0)


def has_sjr_violation(profile: Profile, wmask: int) -> bool:
    n, k = profile.n, profile.k
    for c in range(profile.m):
        if wmask >> c & 1:
            continue
        group = [x for x in profile.masks if x >> c & 1]
        common = -1
        for x in group:
            common &= x
        if group and k * len(group) >= n and common & wmask == 0:
            return True
    return False


def has_unanimity_violation(profile: Profile, wmask: int) -> bool:
    common = -1
    for x in profile.masks:
        common &= x
    return common != 0 and common & wmask == 0


def violates(profile: Profile, axiom: str, wmask: int) -> bool:
    name, _, level = axiom.partition(":")
    if name == "jr":
        return has_ell_violation(profile, wmask, 1)
    if name == "ell-jr":
        return has_ell_violation(profile, wmask, int(level))
    if name == "ejr":
        return any(has_ell_violation(profile, wmask, ell) for ell in range(1, profile.k + 1))
    if name == "sjr":
        return has_sjr_violation(profile, wmask)
    return has_unanimity_violation(profile, wmask)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of score rules
# ---------------------------------------------------------------------------


def _weights(rule: str, profile: Profile, spec: Optional[str]) -> list[Fraction]:
    m = profile.m
    if rule in ("pav", "rav"):
        return [Fraction(1, j) for j in range(1, m + 1)]
    if rule in ("cc", "gav"):
        return [Fraction(1)] + [Fraction(0)] * (m - 1)
    if rule == "geometric-rav":
        return [Fraction(1, profile.n) ** j for j in range(m)]
    return [Fraction(w) for w in spec.split(",")]


def _scaled(values: list[Fraction]) -> tuple[list[int], int]:
    denominator = math.lcm(1, *(v.denominator for v in values))
    return [int(v * denominator) for v in values], denominator


def enumerate_rule(profile: Profile, rule: str, tiebreak: str, weights: Optional[str]) -> tuple[list[int], Fraction]:
    """Lexicographically first optimal committee and its reported score."""
    m, k, n = profile.m, profile.k, profile.n
    grouped = Counter(profile.masks)
    masks = list(grouped)
    mult = np.array([grouped[x] for x in masks], dtype=np.int64)
    ballots = np.array([[x >> c & 1 for c in range(m)] for x in masks], dtype=np.float32)
    sizes = ballots.sum(axis=1).astype(np.int64)
    combos = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)

    denominator = 1
    if rule in ("pav", "cc", "wpav"):
        partial = [sum(_weights(rule, profile, weights)[:p], Fraction(0)) for p in range(k + 1)]
        table, denominator = _scaled(partial)
        table = np.array(table, dtype=np.int64)
    elif rule == "sav":
        denominator = math.lcm(1, *(int(s) for s in sizes if s))
        per_approval = np.array([denominator // s if s else 0 for s in sizes], dtype=np.int64) * mult

    values, jr_ok = [], []
    for lo in range(0, len(combos), CHUNK):
        chunk = combos[lo : lo + CHUNK]
        indicator = np.zeros((len(chunk), m), dtype=np.float32)
        indicator[np.arange(len(chunk))[:, None], chunk] = 1
        counts = (indicator @ ballots.T).astype(np.int64)
        if rule in ("pav", "cc", "wpav"):
            values.append((table[counts] * mult).sum(axis=1))
        elif rule == "sav":
            values.append(counts @ per_approval)
        elif rule == "mav":
            values.append(-(k + sizes - 2 * counts).max(axis=1))
        elif rule == "ujrav":
            values.append(counts @ mult)
        else:  # ejrav
            values.append(counts.min(axis=1))
        uncovered = (counts == 0) * mult.astype(np.float32)
        jr_ok.append(~(k * (uncovered @ ballots) >= n).any(axis=1))
    values = np.concatenate(values)
    jr_ok = np.concatenate(jr_ok)

    if rule in ("ujrav", "ejrav"):
        values = np.where(jr_ok, values, values.min() - 1)
    best = values.max()
    optimal = np.flatnonzero(values == best)
    choice = optimal[0]
    if tiebreak == "prefer-jr" and jr_ok[optimal].any():
        choice = optimal[jr_ok[optimal]][0]
    score = Fraction(int(-best if rule == "mav" else best), denominator)
    return [int(c) for c in combos[choice]], score


def sequential(profile: Profile, rule: str, weights: Optional[str]) -> tuple[list[int], Fraction]:
    """Committee of a sequential rule, recomputing every candidate's weight
    from scratch each round; ties go to the lowest index."""
    w, denominator = _scaled(_weights(rule, profile, weights))
    w += [0] * (profile.k + 1)
    grouped = Counter(profile.masks)
    groups = [(x, grouped[x], _members(x)) for x in grouped]
    counts = {x: 0 for x in grouped}
    elected: list[int] = []
    for _ in range(profile.k):
        weight = [0] * profile.m
        for x, mult, members in groups:
            value = mult * w[counts[x]]
            for c in members:
                weight[c] += value
        best = max((c for c in range(profile.m) if c not in elected), key=lambda c: (weight[c], -c))
        elected.append(best)
        for x, _, _ in groups:
            counts[x] += x >> best & 1
    total = sum(mult * sum(w[: counts[x]]) for x, mult, _ in groups)
    return sorted(elected), Fraction(total, denominator)


# ---------------------------------------------------------------------------
# Per-job verdict
# ---------------------------------------------------------------------------


def library_profile(profile: Profile):
    from jrvoting.core import BallotProfile

    return BallotProfile.from_groups(profile.m, [(_members(x), 1) for x in profile.masks])


def _check_compute(job: Job, fields: dict[str, str]) -> Optional[str]:
    from jrvoting.core import MAV, SAV, Committee, WeightVector, score_committee, wpav_objective

    profile, rule = job.profile, job.info["rule"]
    members, _ = _committee_mask(fields["committee"])
    if fields["rule"] != rule or int(fields["k"]) != profile.k or len(members) != profile.k:
        return "rule, k or committee size differs from the request"
    if rule in ("rav", "gav", "geometric-rav", "wrav"):
        expected = sequential(profile, rule, job.info["weights"])
    elif math.comb(profile.m, profile.k) <= ENUMERATION_LIMIT:
        expected = enumerate_rule(profile, rule, job.info["tiebreak"], job.info["weights"])
    else:
        expected = None
    if expected is not None and (members, str(expected[1])) != (expected[0], fields["score"]):
        return f"expected committee {expected[0]} score {expected[1]}"
    if rule in ("sav", "mav", "pav", "cc", "wpav"):
        objective = {"sav": SAV, "mav": MAV}.get(rule)
        if objective is None:
            weights = _weights(rule, profile, job.info["weights"])
            objective = wpav_objective(WeightVector(tuple(weights)))
        actual = score_committee(library_profile(profile), Committee(tuple(members)), objective)
        if str(actual) != fields["score"]:
            return f"score_committee gives {actual}"
    return None


def _check_check(job: Job, exit_code: int, fields: dict[str, str]) -> Optional[str]:
    from jrvoting.axioms import AxiomReport, Witness, replay_witness
    from jrvoting.core import Committee

    profile, axiom = job.profile, job.info["axiom"]
    members, wmask = _committee_mask(fields["committee"])
    if members != job.info["committee"] or fields["axiom"] != axiom:
        return "axiom or committee differs from the request"
    verdict = fields["verdict"]
    if exit_code != (0 if verdict == "pass" else 1):
        return f"exit code {exit_code} does not match verdict {verdict}"
    if verdict == "pass":
        return "a violation exists" if violates(profile, axiom, wmask) else None
    witness = Witness(
        int(fields["witness.level"]),
        tuple(int(c) for c in fields["witness.candidates"].split(",")),
        tuple(int(i) for i in fields["witness.voters"].split(",")),
        int(fields["witness.size"]),
    )
    report = AxiomReport(axiom.partition(":")[0], passed=False, witness=witness)
    if not replay_witness(library_profile(profile), profile.k, Committee(tuple(members)), report):
        return "witness does not replay"
    return None


def _check_find(job: Job, fields: dict[str, str]) -> Optional[str]:
    members, wmask = _committee_mask(fields["committee"])
    if len(set(members)) != job.profile.k or max(members) >= job.profile.m:
        return "committee is not k distinct candidates"
    if violates(job.profile, job.info["axiom"], wmask):
        return "constructed committee violates the axiom"
    return None


def check_output(job: Job, exit_code: int, stdout: str) -> Optional[str]:
    """None if the output is right, else the reason it is wrong."""
    if job.command == "verify":
        lines = stdout.splitlines()
        ok = exit_code == 0 and lines and lines[-1].endswith(" verdict=pass")
        ok = ok and not any(line.startswith("FAIL") for line in lines)
        return None if ok else "fixture replay did not pass"
    if job.command != "check" and exit_code != 0:
        return f"exit code {exit_code}"
    try:
        fields = parse_machine(stdout)
        if fields.get("command") != job.command:
            return "wrong command echoed"
        if job.command == "compute":
            return _check_compute(job, fields)
        if job.command == "check":
            return _check_check(job, exit_code, fields)
        return _check_find(job, fields)
    except (KeyError, ValueError) as exc:
        return f"malformed output: {exc}"
