"""The package's public surface: the lazily re-exported names, and the
layers each entry point loads in a fresh interpreter."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jrvoting
from jrvoting.cli import serialize_profile
from jrvoting.corpus import build_fixture

SRC = Path(__file__).resolve().parents[1] / "src"

EXPORTS = {
    "core": (
        "AV", "Ballot", "BallotProfile", "BudgetExhausted", "Committee", "GroupIndex",
        "MAV", "ProfileError", "SAV", "ScoringObjective", "TieBreak", "WeightVector",
        "normalize_profile", "score_committee", "wpav_objective",
    ),
    "solver": ("OptimizationRequest", "OptimizationResult", "optimize_committee"),
    "rules": (
        "RoundRecord", "RuleSpec", "compute_ejrav", "compute_rule", "compute_score_rule",
        "compute_sequential_rule", "compute_ujrav", "sequential_trace",
    ),
    "axioms": (
        "AxiomReport", "Witness", "check_ejr", "check_ell_jr", "check_jr", "check_sjr",
        "check_unanimity", "exists_sjr_committee", "find_ell_jr_committee",
        "find_jr_committee", "replay_witness",
    ),
    "corpus": (
        "BipartiteGraph", "Fixture", "FixedSize", "FixtureParameterError", "UniformSubsets",
        "UrnLike", "build_fixture", "complete_bipartite", "fixture_names",
        "has_balanced_biclique", "random_profile", "reduce_biclique", "verify_fixture",
    ),
}


class TestExports:
    def test_all_holds_every_layer_name_once(self):
        names = [name for names in EXPORTS.values() for name in names]
        assert len(names) == 50
        assert sorted(jrvoting.__all__) == sorted(names)

    @pytest.mark.parametrize("layer", sorted(EXPORTS))
    def test_each_name_is_its_layer_object(self, layer):
        module = importlib.import_module(f"jrvoting.{layer}")
        for name in EXPORTS[layer]:
            assert getattr(jrvoting, name) is getattr(module, name), name

    def test_a_name_follows_its_layer(self, monkeypatch):
        axioms = importlib.import_module("jrvoting.axioms")
        original = jrvoting.check_jr

        def replacement(*args):
            return original(*args)

        monkeypatch.setattr(axioms, "check_jr", replacement)
        assert jrvoting.check_jr is replacement
        monkeypatch.undo()
        assert jrvoting.check_jr is original

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from jrvoting import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(jrvoting.__all__)
        assert all(namespace[name] is getattr(jrvoting, name) for name in namespace)

    def test_dir_lists_every_export_and_layer(self):
        assert set(jrvoting.__all__) | set(EXPORTS) <= set(dir(jrvoting))
        assert "__version__" in dir(jrvoting)

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            jrvoting.no_such_export  # noqa: B018
        with pytest.raises(ImportError, match="no_such_export"):
            exec("from jrvoting import no_such_export", {})

    def test_readme_snippet(self):
        namespace: dict = {}
        exec(
            "from jrvoting import (BallotProfile, RuleSpec, WeightVector,\n"
            "                      check_ejr, compute_rule)\n"
            "profile = BallotProfile.from_groups(4, [({0, 1}, 98), ({2}, 1), ({3}, 1)])\n"
            "committee = compute_rule(profile, 3, RuleSpec('pav'))\n"
            "report = check_ejr(profile, 3, committee)\n",
            namespace,
        )
        assert namespace["committee"].members == (0, 1, 2)
        assert namespace["report"].passed


_PROBE = """
import contextlib, io, json, sys
status = None
before = set(sys.modules)
{statement}
layers = sorted(m for m in sys.modules if m.partition(".")[0] == "jrvoting")
added = sorted(set(sys.modules) - before)
print(json.dumps({{"status": status, "layers": layers, "added": added}}))
"""

_MAIN = """
from jrvoting import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
"""


def _probe(statement, *argv) -> dict:
    """What a fresh interpreter reports after it runs ``statement`` with
    ``argv``: the exit status, its `jrvoting` modules and every module the
    statement added."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(statement=statement), *argv],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(done.stdout)


def _fresh(statement, *argv):
    """The exit status and the `jrvoting` modules of a fresh interpreter after
    it runs ``statement`` with ``argv``."""
    result = _probe(statement, *argv)
    return result["status"], set(result["layers"])


# `dataclasses` imports `inspect`, which imports the other three
_INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


class TestWhatEachEntryPointLoads:
    @pytest.fixture(scope="class")
    def intro_file(self, tmp_path_factory):
        fixture = build_fixture("sec4_intro")
        path = tmp_path_factory.mktemp("profiles") / "intro.profile"
        path.write_text(serialize_profile(fixture.profile, fixture.k))
        return str(path)

    def test_package_loads_no_layer(self):
        assert _fresh("import jrvoting") == (None, {"jrvoting"})

    def test_a_layer_loads_on_first_access(self):
        status, layers = _fresh("import jrvoting\nstatus = len(jrvoting.rules.RULE_NAMES)")
        assert status > 0 and "jrvoting.rules" in layers and "jrvoting.corpus" not in layers

    def test_cli_loads_only_core(self):
        assert _fresh("import jrvoting.cli") == (None, {"jrvoting", "jrvoting.core", "jrvoting.cli"})

    def test_a_name_loads_its_layer_and_what_that_imports(self):
        assert _fresh("from jrvoting import check_jr") == (
            None, {"jrvoting", "jrvoting.core", "jrvoting.axioms"},
        )

    @pytest.mark.parametrize(
        "argv, status",
        [
            (("compute", "--rule", "pav"), 0),
            (("check", "--axiom", "ejr", "--committee", "0,1,2"), 0),
            (("find", "--axiom", "jr"), 0),
        ],
    )
    def test_profile_commands_never_load_the_corpus(self, intro_file, argv, status):
        code, layers = _fresh(_MAIN, *argv, intro_file)
        assert code == status
        assert "jrvoting.corpus" not in layers and "jrvoting.rules" in layers

    @pytest.mark.parametrize(
        "argv, searches",
        [
            (("compute", "--rule", "pav"), True),
            (("compute", "--rule", "ujrav"), True),
            (("compute", "--rule", "rav"), False),
            (("check", "--axiom", "jr", "--committee", "0,1,2"), False),
            (("check", "--axiom", "ejr", "--committee", "0,1,2"), False),
            (("check", "--axiom", "sjr", "--committee", "0,1,2"), False),
            (("find", "--axiom", "jr"), False),
            (("find", "--axiom", "ell-jr:2"), False),
        ],
    )
    def test_only_a_command_that_searches_loads_the_solver(self, intro_file, argv, searches):
        code, layers = _fresh(_MAIN, *argv, intro_file)
        assert code in (0, 1)
        assert ("jrvoting.solver" in layers) == searches

    def test_corpus_command_loads_the_corpus(self):
        code, layers = _fresh(_MAIN, "corpus", "--name", "example1", "--verify")
        assert code == 0 and "jrvoting.corpus" in layers

    @pytest.mark.parametrize(
        "statement, argv",
        [
            ("import jrvoting.cli", ()),
            (_MAIN, ("compute", "--rule", "pav", "PROFILE")),
            (_MAIN, ("check", "--axiom", "ejr", "--committee", "0,1,2", "PROFILE")),
            (_MAIN, ("find", "--axiom", "jr", "PROFILE")),
            (_MAIN, ("corpus", "--name", "example1", "--verify")),
        ],
        ids=["import", "compute", "check", "find", "corpus"],
    )
    def test_no_command_loads_dataclasses_or_inspect(self, intro_file, statement, argv):
        result = _probe(statement, *[intro_file if arg == "PROFILE" else arg for arg in argv])
        assert result["status"] in (None, 0)
        assert "jrvoting.cli" in result["added"]
        assert not _INTROSPECTION & set(result["added"])
