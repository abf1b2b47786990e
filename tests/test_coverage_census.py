import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "coverage_census.py"

MODULE = '''\
def covered(x):
    if x:
        return 1
    return 2
'''


def _load():
    spec = importlib.util.spec_from_file_location("coverage_census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub_package(tmp_path, monkeypatch):
    """The census, pointed at a one-module package, and that module."""
    census = _load()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)
    monkeypatch.setattr(census, "ROOT", tmp_path)
    monkeypatch.setattr(census, "PACKAGE", package)
    spec = importlib.util.spec_from_file_location("census_pkg_mod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return census, mod


@pytest.mark.parametrize("calls, unrun, code", [((True,), 1, 1), ((True, False), 0, 0)])
def test_census_fails_when_a_statement_is_unrun(tmp_path, monkeypatch, capsys, calls, unrun, code):
    """A one-module package stands in for the library and a stub for the
    test run: the census exits 1 while a statement is never run, 0 once
    every one is, and prints pytest's status."""
    census, mod = _stub_package(tmp_path, monkeypatch)

    def fake_main(argv, plugins=()):
        for x in calls:
            mod.covered(x)
        return 1  # a failing suite with no failure outside the pinned ones does not decide the census

    monkeypatch.setattr(pytest, "main", fake_main)
    previous = sys.gettrace()
    assert census.main([]) == code
    assert sys.gettrace() is previous
    out = capsys.readouterr().out
    assert f"{unrun} of 4 statements in src/nfacomp never run" in out and "(pytest exit 1)" in out
    assert ("pkg/mod.py: 1 not run: 4" in out) == bool(unrun)
    assert "4 lines in src/nfacomp/*.py and src/nfacomp/_kernels/*.py: 4 code, 0 docstring, 0 comment, 0 blank" in out


SPLIT_MODULE = '''\
"""A module docstring

over three lines."""

# a comment
X = 1  # code, with a comment after it


def f():
    """One line."""
    # another comment
    return """a string

that is no docstring"""
'''


def test_census_splits_lines_into_code_docstring_comment_and_blank(tmp_path):
    """Every line a docstring spans is a docstring line, its blank one too; a
    blank line inside another string is code."""
    path = tmp_path / "split.py"
    path.write_text(SPLIT_MODULE)
    assert _load().line_split(path) == {"code": 5, "docstring": 4, "comment": 2, "blank": 3}


PINNED = [f"tests/test_acceptance.py::test_criterion_0{n}_some_family" for n in (3, 4, 8)]


@pytest.mark.parametrize("failed, collection_failed, status, code", [
    ([], [], 0, 0),
    (PINNED, [], 1, 0),
    (PINNED + ["tests/test_core.py::test_trim"], [], 1, 1),
    (["tests/test_acceptance.py::test_criterion_05_basic"], [], 1, 1),
    ([], ["tests/test_broken.py"], 1, 1),
    ([], [], 2, 1),
])
def test_census_fails_when_a_test_fails_that_is_not_pinned(tmp_path, monkeypatch, capsys, failed,
                                                           collection_failed, status, code):
    """With every statement run, the census exits 1 on a failed test or
    collection other than acceptance criteria 3, 4 and 8, naming it, and
    when pytest stops short of running the tests."""
    census, mod = _stub_package(tmp_path, monkeypatch)

    def fake_main(argv, plugins=()):
        mod.covered(True)
        mod.covered(False)
        for plugin in plugins:
            for nodeid in failed + ["tests/test_ok.py::test_passes"]:
                plugin.pytest_runtest_logreport(SimpleNamespace(nodeid=nodeid, failed=nodeid in failed))
            for nodeid in collection_failed:
                plugin.pytest_collectreport(SimpleNamespace(nodeid=nodeid, failed=True))
        return status

    monkeypatch.setattr(pytest, "main", fake_main)
    assert census.main([]) == code
    out = capsys.readouterr().out
    assert "0 of 4 statements in src/nfacomp never run" in out and f"(pytest exit {status})" in out
    named = [line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("failed, not pinned: ")]
    assert named == [i for i in failed + collection_failed if i not in PINNED]
