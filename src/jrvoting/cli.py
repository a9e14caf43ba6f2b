"""Command-line surface: profile file format, subcommands, exit codes.

Profile documents are plain text: ``#`` comment lines, a required ``m <int>``
header, an optional ``k <int>`` header, then one ballot group per line as
``<multiplicity>: <candidate indices>`` (no indices for an empty ballot).

Exit codes: 0 success / axiom passes, 1 axiom fails (or cross-check
disagreement), 2 usage error, 3 input parse error, 4 search budget exhausted,
5 internal error (any other exception, reported on one stderr line).
Machine output (``--format machine``) is line-oriented ``key=value`` with
exact rationals rendered as ``num/den`` and committees as sorted
comma-separated indices; it contains no timing, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import axioms, corpus, rules
from .core import (
    BallotProfile,
    BudgetExhausted,
    Committee,
    ProfileError,
    TieBreak,
    WeightVector,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


class ProfileParseError(ValueError):
    """Bad profile or graph document; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Document formats
# ---------------------------------------------------------------------------


def parse_profile(text: str) -> tuple[BallotProfile, Optional[int]]:
    """Parse a profile document; returns the profile and the optional k header."""
    m: Optional[int] = None
    k: Optional[int] = None
    groups: list[tuple[set[int], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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


def serialize_profile(
    profile: BallotProfile, k: Optional[int] = None, comments: Sequence[str] = ()
) -> str:
    """Render a profile document; parsing it back recovers the profile."""
    lines = [f"# {comment}" for comment in comments]
    lines.append(f"m {profile.num_candidates}")
    if k is not None:
        lines.append(f"k {k}")
    for ballot in profile.ballots:
        indices = " ".join(str(c) for c in sorted(ballot.approved))
        lines.append(f"{ballot.multiplicity}:{' ' + indices if indices else ''}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> corpus.BipartiteGraph:
    """Parse a bipartite graph document: `L <int> R <int>`, then `edge <l> <r>` lines."""
    sizes: Optional[tuple[int, int]] = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "L":
            if len(tokens) != 4 or tokens[2] != "R":
                raise ProfileParseError(f"bad header {line!r}", lineno)
            try:
                sizes = (int(tokens[1]), int(tokens[3]))
            except ValueError:
                raise ProfileParseError(f"bad header {line!r}", lineno) from None
            continue
        if tokens[0] == "edge":
            if sizes is None:
                raise ProfileParseError("edge line before header", lineno)
            if len(tokens) != 3:
                raise ProfileParseError(f"bad edge line {line!r}", lineno)
            try:
                edge = (int(tokens[1]), int(tokens[2]))
            except ValueError:
                raise ProfileParseError(f"bad edge line {line!r}", lineno) from None
            if edge in edges:
                raise ProfileParseError(f"duplicate edge {edge}", lineno)
            edges.add(edge)
            continue
        raise ProfileParseError(f"unrecognized line {line!r}", lineno)
    if sizes is None:
        raise ProfileParseError("missing L/R header")
    try:
        return corpus.BipartiteGraph(sizes[0], sizes[1], frozenset(edges))
    except ValueError as exc:
        raise ProfileParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _parse_committee(spec: str) -> Committee:
    try:
        members = [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"bad committee spec {spec!r}") from None
    if not members or len(set(members)) != len(members):
        raise ValueError(f"committee spec must list distinct indices, got {spec!r}")
    return Committee.of(members)


def _parse_axiom(spec: str) -> tuple[str, Optional[int]]:
    name, sep, level = spec.partition(":")
    if name not in axioms.AXIOM_NAMES:
        raise ValueError(f"unknown axiom {name!r}")
    if axioms.AXIOMS[name].leveled:
        if not sep:
            raise ValueError(f"axiom {name} needs a level, e.g. {name}:2")
        return name, int(level)
    if sep:
        raise ValueError(f"axiom {name!r} takes no level")
    return name, None


def _parse_weights(spec: str) -> WeightVector:
    return WeightVector.from_values(Fraction(tok) for tok in spec.split(","))


def _parse_culture(spec: str) -> corpus.Culture:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "uniform":
            return corpus.UniformSubsets(float(rest))
        if kind == "fixed":
            return corpus.FixedSize(int(rest))
        if kind == "urn":
            groups, _, cohesion = rest.partition(":")
            return corpus.UrnLike(int(groups), float(cohesion))
    except ValueError as exc:
        raise ValueError(f"bad culture spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown culture {kind!r} (use uniform:P, fixed:S, urn:G:C)")


def _parse_params(pairs: Sequence[str]) -> dict[str, object]:
    params: dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"bad --param {pair!r}, expected key=value")
        if value.lstrip("-").isdigit():
            params[key] = int(value)
        elif "/" in value:
            params[key] = Fraction(value)
        else:
            params[key] = value
    return params


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _resolve_k(args_k: Optional[int], file_k: Optional[int], fallback: Optional[int] = None) -> int:
    if args_k is not None:
        return args_k
    if file_k is not None:
        return file_k
    if fallback is not None:
        return fallback
    raise ValueError("committee size required: pass --k or add a k header to the file")


def _fmt(value) -> str:
    if isinstance(value, Committee):
        return ",".join(str(c) for c in value.members)
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class RunResult:
    """Structured command output: ordered key/value fields plus wall time.

    Renders as human-readable `key: value` lines (with timing) or as the
    machine format `key=value` (timing omitted so that identical inputs give
    byte-identical output).  Rationals are always rendered as `num/den`,
    committees as sorted comma-separated indices.
    """

    fields: tuple[tuple[str, str], ...]
    elapsed_seconds: float

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            return "".join(f"{key}={value}\n" for key, value in self.fields)
        lines = [f"{key}: {value}" for key, value in self.fields]
        lines.append(f"time: {self.elapsed_seconds * 1000:.1f} ms")
        return "\n".join(lines) + "\n"


def _emit(fields: list[tuple[str, str]], fmt: str, started: float) -> None:
    result = RunResult(tuple(fields), time.perf_counter() - started)
    sys.stdout.write(result.render(fmt))


def _witness_fields(report: axioms.AxiomReport) -> list[tuple[str, str]]:
    fields = [("verdict", "pass" if report.passed else "fail")]
    if report.witness is not None:
        w = report.witness
        fields += [
            ("witness.level", str(w.level)),
            ("witness.candidates", _fmt(w.candidates)),
            ("witness.voters", _fmt(w.ballot_indices)),
            ("witness.size", str(w.group_size)),
        ]
    return fields


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_compute(args) -> int:
    started = time.perf_counter()
    profile, file_k = parse_profile(_read_text(args.file))
    k = _resolve_k(args.k, file_k)
    weights = _parse_weights(args.weights) if args.weights else None
    spec = rules.RuleSpec(args.rule, weights=weights, tiebreak=TieBreak(args.tiebreak))
    committee = rules.compute_rule(profile, k, spec, budget=args.budget)
    score = rules.report_score(profile, k, spec, committee)
    _emit(
        [
            ("command", "compute"),
            ("rule", args.rule),
            ("k", str(k)),
            ("tiebreak", args.tiebreak),
            ("committee", _fmt(committee)),
            ("score", str(score)),
        ],
        args.format,
        started,
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    started = time.perf_counter()
    profile, file_k = parse_profile(_read_text(args.file))
    committee = _parse_committee(args.committee)
    k = _resolve_k(args.k, file_k, fallback=committee.k)
    axiom, ell = _parse_axiom(args.axiom)
    report = axioms.AXIOMS[axiom].check(profile, k, committee, ell)
    fields = [
        ("command", "check"),
        ("axiom", args.axiom),
        ("k", str(k)),
        ("committee", _fmt(committee)),
    ] + _witness_fields(report)
    _emit(fields, args.format, started)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_find(args) -> int:
    started = time.perf_counter()
    profile, file_k = parse_profile(_read_text(args.file))
    k = _resolve_k(args.k, file_k)
    axiom, ell = _parse_axiom(args.axiom)
    find = axioms.AXIOMS[axiom].find
    if find is None:
        raise ValueError("find supports axioms jr and ell-jr:<level> only")
    committee = find(profile, k, ell)
    _emit(
        [
            ("command", "find"),
            ("axiom", args.axiom),
            ("k", str(k)),
            ("committee", _fmt(committee)),
        ],
        args.format,
        started,
    )
    return EXIT_OK


def _cmd_corpus(args) -> int:
    fixture = corpus.build_fixture(args.name, **_parse_params(args.param))
    if args.verify:
        all_ok = True
        for result in corpus.verify_fixture(fixture):
            status = "ok" if result.ok else "FAIL"
            print(f"{status} {result.description} ({result.detail})")
            all_ok = all_ok and result.ok
        print(f"fixture={fixture.name} verdict={'pass' if all_ok else 'fail'}")
        return EXIT_OK if all_ok else EXIT_FAIL
    comments = [f"fixture {fixture.name}", f"params {dict(fixture.params)}"]
    if fixture.candidate_names:
        mapping = " ".join(
            f"{name}={idx}" for idx, name in sorted(fixture.candidate_names.items())
        )
        comments.append(f"candidates {mapping}")
    if fixture.weights is not None:
        comments.append(
            "weights " + ",".join(str(w) for w in fixture.weights.weights)
        )
    sys.stdout.write(serialize_profile(fixture.profile, fixture.k, comments))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    started = time.perf_counter()
    graph = parse_graph(_read_text(args.graph))
    instance = corpus.reduce_biclique(graph, args.ell)
    if args.format == "machine":
        _emit(
            [
                ("command", "reduce"),
                ("m", str(instance.profile.num_candidates)),
                ("n", str(instance.profile.n)),
                ("k", str(instance.k)),
                ("committee", _fmt(instance.committee)),
            ],
            args.format,
            started,
        )
    else:
        comments = [
            f"reduced from bipartite graph L={graph.left_size} R={graph.right_size} ell={args.ell}",
            f"committee {_fmt(instance.committee)}",
        ]
        sys.stdout.write(serialize_profile(instance.profile, instance.k, comments))
    return EXIT_OK


def _cmd_random(args) -> int:
    profile = corpus.random_profile(
        seed=args.seed, n=args.n, m=args.m, k=args.k, culture=_parse_culture(args.culture)
    )
    comments = [f"random seed={args.seed} culture={args.culture}"]
    sys.stdout.write(serialize_profile(profile, args.k, comments))
    return EXIT_OK


def _oracle_instances(seed: int, trials: int, max_n: int, max_m: int):
    """Deterministic stream of (profile, k, committee) cross-check instances."""
    import random as _random

    rng = _random.Random(f"oracle|{seed}")
    for trial in range(trials):
        n = rng.randint(1, max_n)
        m = rng.randint(2, max_m)
        k = rng.randint(1, min(m, 4))
        p = rng.choice([0.25, 0.4, 0.6])
        profile = corpus.random_profile(
            seed=seed * 100003 + trial, n=n, m=m, k=k, culture=corpus.UniformSubsets(p)
        )
        committee = Committee.of(rng.sample(range(m), k))
        yield profile, k, committee


_ORACLE_AXIOMS = tuple(name for name, axiom in axioms.AXIOMS.items() if axiom.oracle)


def _cmd_oracle(args) -> int:
    started = time.perf_counter()
    if args.rav_jr_search:
        # exploratory only: no verdict is asserted either way
        k = args.k if args.k is not None else 3
        found = 0
        for profile, _, _ in _oracle_instances(
            args.seed, args.trials, args.max_n, max(args.max_m, k)
        ):
            if profile.num_candidates < k:
                continue
            committee = rules.compute_rule(profile, k, rules.RuleSpec("rav"))
            report = axioms.check_jr(profile, k, committee)
            if report.failed:
                found += 1
                sys.stderr.write(
                    serialize_profile(profile, k, ["sequential rule misses representation here"])
                )
        _emit(
            [
                ("command", "oracle"),
                ("mode", "rav-jr-search"),
                ("k", str(k)),
                ("trials", str(args.trials)),
                ("violations", str(found)),
            ],
            args.format,
            started,
        )
        return EXIT_OK

    names = _ORACLE_AXIOMS if args.axiom == "all" else (args.axiom,)
    disagreements = 0
    for profile, k, committee in _oracle_instances(
        args.seed, args.trials, args.max_n, args.max_m
    ):
        for axiom in names:
            entry = axioms.AXIOMS[axiom]
            for ell in range(1, k + 1) if entry.leveled else (None,):
                fast = entry.check(profile, k, committee, ell).passed
                naive = entry.oracle(profile, k, committee, ell)
                if fast != naive:
                    disagreements += 1
                    sys.stderr.write(
                        f"disagreement axiom={axiom} ell={ell} committee={_fmt(committee)}\n"
                    )
                    sys.stderr.write(serialize_profile(profile, k))
    _emit(
        [
            ("command", "oracle"),
            ("axiom", args.axiom),
            ("trials", str(args.trials)),
            ("disagreements", str(disagreements)),
            ("verdict", "pass" if disagreements == 0 else "fail"),
        ],
        args.format,
        started,
    )
    return EXIT_OK if disagreements == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jrvoting",
        description="Approval committee rules and representation axiom checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("human", "machine"), default="human",
            help="output style (machine = byte-stable key=value lines)",
        )

    p = sub.add_parser("compute", help="run a voting rule on a profile file")
    p.add_argument("--rule", required=True, choices=rules.RULE_NAMES)
    p.add_argument("--k", type=int)
    p.add_argument("--weights", help="comma-separated rationals for wpav/wrav")
    p.add_argument("--tiebreak", choices=("lex", "prefer-jr"), default="lex")
    p.add_argument("--budget", type=int, help="search node limit")
    add_format(p)
    p.add_argument("file", help="profile document path, or - for stdin")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("check", help="check an axiom for a given committee")
    p.add_argument("--axiom", required=True, help="jr | ell-jr:<level> | ejr | sjr | unanimity")
    p.add_argument("--committee", required=True, help="comma-separated candidate indices")
    p.add_argument("--k", type=int)
    add_format(p)
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("find", help="construct a committee satisfying an axiom")
    p.add_argument("--axiom", required=True, help="jr | ell-jr:<level>")
    p.add_argument("--k", type=int)
    add_format(p)
    p.add_argument("file")
    p.set_defaults(handler=_cmd_find)

    p = sub.add_parser("corpus", help="emit or verify a named fixture")
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append", default=[], help="key=value, repeatable")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--emit", action="store_true", help="print the fixture profile (default)")
    group.add_argument("--verify", action="store_true", help="replay the fixture expectations")
    p.set_defaults(handler=_cmd_corpus)

    p = sub.add_parser("reduce", help="build the committee instance for a bipartite graph")
    p.add_argument("--graph", required=True, help="graph document path, or - for stdin")
    p.add_argument("--ell", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("random", help="emit a random profile")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--culture", required=True, help="uniform:P | fixed:S | urn:G:C")
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("oracle", help="cross-check fast axiom checkers against brute force")
    p.add_argument("--axiom", choices=_ORACLE_AXIOMS + ("all",), default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--max-m", type=int, default=7, dest="max_m")
    p.add_argument(
        "--rav-jr-search",
        action="store_true",
        help="instead search random profiles for sequential-rule representation failures",
    )
    p.add_argument("--k", type=int, help="committee size for --rav-jr-search")
    add_format(p)
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except ProfileParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ProfileError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExhausted as exc:
        best = exc.best_committee
        print(
            f"budget exhausted after {exc.nodes_explored} nodes"
            + (f"; best so far {_fmt(best)}" if best else ""),
            file=sys.stderr,
        )
        return EXIT_BUDGET
    except corpus.FixtureParameterError as exc:
        print(f"fixture parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault of the program, not of the input; exit 1 means "axiom fails"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
