"""Self-tests of the pytest settings in pyproject.toml, run on an inner suite."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_is_reported_by_name(pytester):
    # hypothesis's report hook emits a DeprecationWarning on a failure, which
    # filterwarnings = error would raise inside the hook as an INTERNALERROR,
    # ending the run with no failure named
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    tests = pytester.mkdir("tests")
    (tests / "test_inner.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n")
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    result.stdout.fnmatch_lines(["FAILED tests/test_inner.py::test_small - *"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
