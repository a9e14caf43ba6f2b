"""The grouped ballot index: parsed profiles against constructed ones, and
parsing that builds no `Ballot` until the ballots are read."""

import random

import pytest

from jrvoting import axioms, cli, rules
from jrvoting.axioms import check_jr
from jrvoting.cli import main, parse_profile
from jrvoting.core import Ballot, BallotProfile, Committee

from conftest import naive_parse_profile

# approval sets that the documents respell, so that one group spans lines
# written in different ways and with different multiplicities
_BASES = [(), (0,), (0, 2), (1, 2, 0), (3, 1), (0, 1, 2, 3, 4)]


def _documents(seed, count):
    """Documents whose ballot lines respell a few approval sets: indices in
    any order, ``02`` for 2 and ``-0`` for 0, mixed multiplicities, exact
    repeats of earlier lines, empty ballots, comments and blank lines."""
    rng = random.Random(f"grouped|{seed}")

    def spell(c):
        return rng.choice([str(c), str(c), f"0{c}", "-0" if c == 0 else str(c)])

    for _ in range(count):
        m = rng.randint(2, 5)
        bases = [tuple(c for c in base if c < m) for base in _BASES]
        written, body = [], []
        for _ in range(rng.randint(1, 14)):
            if written and rng.random() < 0.3:
                body.append(rng.choice(written))
            else:
                approved = list(rng.choice(bases))
                rng.shuffle(approved)
                line = f"{rng.randint(1, 4)}:" + "".join(
                    rng.choice([" ", "  ", "\t"]) + spell(c) for c in approved
                )
                written.append(line)
                body.append(line)
            if rng.random() < 0.2:
                body.append(rng.choice(["", "# between ballots", "   "]))
        yield "\n".join(["# grouped", f"m {m}", f"k {rng.randint(1, m)}"] + body) + "\n"


def _constructed(profile):
    return BallotProfile.from_groups(
        profile.num_candidates, [(b.approved, b.multiplicity) for b in profile.ballots]
    )


class TestParsedAgreesWithConstructed:
    def test_every_view_matches_the_naive_parser(self):
        shared = 0
        for text in _documents(seed=1, count=300):
            parsed, k = parse_profile(text)
            naive, naive_k = naive_parse_profile(text)
            assert k == naive_k
            assert parsed == naive and naive == parsed, text
            assert hash(parsed) == hash(naive)
            assert repr(parsed) == repr(naive)
            assert parsed.n == naive.n
            assert parsed.masks == naive.masks
            assert parsed.approval_scores == naive.approval_scores
            assert parsed.ballots == naive.ballots
            index = parsed.index
            shared += len(index.order) - len(index.members)
            assert sorted(zip(map(sorted, index.members), index.mults)) == sorted(
                zip(map(sorted, naive.index.members), naive.index.mults)
            )
            assert index.masks == tuple(sum(1 << c for c in group) for group in index.members)
        assert shared > 500  # lines that share a group with an earlier line

    def test_respelled_lines_share_a_group_but_not_a_ballot(self):
        profile, _ = parse_profile("m 3\n1: 2 0\n2: 0 2\n1: 02 -0\n1: 2 0\n1:\n")
        index = profile.index
        assert [set(group) for group in index.members] == [{0, 2}, set()]
        assert index.masks == (0b101, 0)
        assert index.mults == (5, 1)
        assert index.order == (0, 1, 2, 0, 3)
        first, swapped, padded, again, empty = profile.ballots
        assert again is first and padded == first and padded is not first
        assert swapped == Ballot(frozenset({0, 2}), 2)
        assert empty.approved == frozenset()

    def test_members_keep_the_order_of_the_first_line(self):
        # a group's members are read in the order of the first line casting
        # it; only a line read token by token comes out in ascending order
        profile, _ = parse_profile("m 4\n1: 3 1\n2: 1 3\n1: 2 00\n1: 0 2\n")
        index = profile.index
        assert index.members == ((3, 1), (0, 2))
        assert index.mults == (3, 2)
        assert profile.columns == (0b10, 0b01, 0b10, 0b01)

    def test_profiles_stay_immutable_values(self):
        parsed, _ = parse_profile("m 3\n1: 0 1\n2: 2\n")
        constructed = BallotProfile.from_groups(3, [({0, 1}, 1), ({2}, 2)])
        assert parsed == constructed and {parsed, constructed} == {parsed}
        assert parsed != BallotProfile.from_groups(3, [({2}, 2), ({0, 1}, 1)])
        assert parsed != "m 3"
        for profile in (parsed, constructed):
            with pytest.raises(AttributeError):
                profile.num_candidates = 4
            with pytest.raises(AttributeError):
                del profile.ballots

    def test_indices_past_the_tables_group_by_their_set(self):
        # a short document's tables stop below its large indices: those lines
        # are read token by token and their bitmasks built on first use
        text = "m 1000\n1: 999 0\n2: 0 999\n1: 5\n1: 999 00\n"
        profile, _ = parse_profile(text)
        index = profile.index
        assert "masks" not in vars(index)
        assert [set(group) for group in index.members] == [{0, 999}, {5}]
        assert index.mults == (4, 1)
        assert index.masks == (1 | 1 << 999, 1 << 5)
        assert profile == naive_parse_profile(text)[0]

    @pytest.fixture()
    def outputs(self, tmp_path, capsys, monkeypatch):
        """``--format machine`` output of a command on a document, read by
        `parse_profile` or, with ``constructed``, handed to the command as the
        `BallotProfile.from_groups` profile of the same ballots."""

        def run(text, argv, constructed=False):
            path = tmp_path / "profile.txt"
            path.write_text(text)
            with monkeypatch.context() as patch:
                if constructed:
                    naive, k = naive_parse_profile(text)
                    patch.setattr(cli, "parse_profile", lambda _: (_constructed(naive), k))
                code = main([*argv, "--format", "machine", str(path)])
            return code, capsys.readouterr().out

        return run

    def test_rules_and_axioms_print_the_same(self, outputs):
        rng = random.Random(2)
        compared = 0
        for text in _documents(seed=3, count=25):
            profile, k = parse_profile(text)
            m = profile.num_candidates
            weights = ",".join(["1"] + [f"1/{j}" for j in range(2, m + 1)])
            commands = [
                ["compute", "--rule", rule] + (["--weights", weights] if rule in ("wpav", "wrav") else [])
                for rule in rules.RULE_NAMES
            ]
            commands.append(["compute", "--rule", "pav", "--tiebreak", "prefer-jr"])
            committee = ",".join(map(str, sorted(rng.sample(range(m), k))))
            for name, axiom in axioms.AXIOMS.items():
                specs = [f"{name}:{ell}" for ell in range(1, k + 1)] if axiom.leveled else [name]
                for spec in specs:
                    commands.append(["check", "--axiom", spec, "--committee", committee])
                    if axiom.find is not None:
                        commands.append(["find", "--axiom", spec])
            for argv in commands:
                parsed = outputs(text, argv)
                assert parsed[0] in (0, 1) and parsed[1], (argv, text)
                assert parsed == outputs(text, argv, constructed=True), (argv, text)
                compared += 1
        assert compared > 500


class TestParsingBuildsNoBallot:
    @pytest.fixture()
    def document(self):
        """5,000 unit lines over 30 candidates, 60% of them copies of four
        shared ballots."""
        rng = random.Random(4)
        shared = [sorted(rng.sample(range(30), 12)) for _ in range(4)]
        lines = ["m 30", "k 8"]
        for _ in range(5000):
            approved = rng.choice(shared) if rng.random() < 0.6 else [
                c for c in range(30) if rng.random() < 0.5
            ]
            lines.append("1:" + "".join(f" {c}" for c in approved))
        return "\n".join(lines) + "\n"

    @pytest.fixture()
    def built(self, monkeypatch):
        """Every `Ballot` constructed from here on."""
        built = []
        post_init = Ballot.__post_init__

        def counting(ballot):
            built.append(ballot)
            post_init(ballot)

        monkeypatch.setattr(Ballot, "__post_init__", counting)
        return built

    def test_commands_build_no_ballot(self, document, built, tmp_path, capsys):
        path = tmp_path / "profile.txt"
        path.write_text(document)
        assert main(["compute", "--rule", "rav", "--format", "machine", str(path)]) == 0
        code = main(["check", "--axiom", "jr", "--committee", "0,1,2,3,4,5,6,7",
                     "--format", "machine", str(path)])
        out = capsys.readouterr().out
        assert code in (0, 1) and "score=" in out and "verdict=" in out
        assert built == []

    def test_parse_check_compute_and_score_build_no_ballot(self, document, built):
        profile, k = parse_profile(document)
        committee = Committee(tuple(range(k)))
        check_jr(profile, k, committee)
        spec = rules.RuleSpec("rav")
        winners = rules.compute_rule(profile, k, spec)
        rules.report_score(profile, k, spec, winners)
        assert built == []
        ballots = profile.ballots
        assert 0 < len(built) < 5000  # one per distinct line
        assert profile.n == len(ballots) == 5000
        assert ballots == naive_parse_profile(document)[0].ballots
