"""Self-tests of the settings in pyproject.toml: the pytest settings, run on
an inner suite, and the Python floor."""

import tomllib
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


def test_python_floor_has_int_max_str_digits():
    # cli reads sys.get_int_max_str_digits(), new in 3.11 (backported only to
    # 3.10.7), in the messages of report, table and cohomology
    floor = tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"]
    assert floor == ">=3.11"
