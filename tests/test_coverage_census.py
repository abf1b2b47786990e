import importlib.util
import sys
from pathlib import Path

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


@pytest.mark.parametrize("calls, unrun, code", [((True,), 1, 1), ((True, False), 0, 0)])
def test_census_fails_when_a_statement_is_unrun(tmp_path, monkeypatch, capsys, calls, unrun, code):
    """A one-module package stands in for the library and a stub for the
    test run: the census exits 1 while a statement is never run, 0 once
    every one is, and prints pytest's status without judging it."""
    census = _load()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(MODULE)
    monkeypatch.setattr(census, "ROOT", tmp_path)
    monkeypatch.setattr(census, "PACKAGE", package)
    spec = importlib.util.spec_from_file_location("census_pkg_mod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    def fake_main(argv):
        for x in calls:
            mod.covered(x)
        return 1  # a failing suite does not decide the census

    monkeypatch.setattr(pytest, "main", fake_main)
    previous = sys.gettrace()
    assert census.main([]) == code
    assert sys.gettrace() is previous
    out = capsys.readouterr().out
    assert f"{unrun} of 4 statements in src/nfacomp never run" in out and "(pytest exit 1)" in out
    assert ("pkg/mod.py: 1 not run: 4" in out) == bool(unrun)
    assert "4 lines in src/nfacomp/*.py" in out
