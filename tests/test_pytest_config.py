"""The test configuration reports a failing property instead of crashing."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]])
def test_a_failing_property_prints_its_falsifying_example(tmp_path, flags):
    # with every warning an error, the deprecation warning raised while
    # hypothesis builds its report must not end the run in an INTERNALERROR
    # before the example is printed and the remaining tests have run
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
        "\n"
        "\n"
        "def test_runs_after():\n"
        "    pass\n"
    )
    result = subprocess.run(
        [sys.executable, *flags, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
