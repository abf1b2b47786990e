import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_out_dir_that_is_not_a_directory_is_a_usage_error(tmp_path, monkeypatch, capsys):
    bench_pairs = _load()

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run started before the arguments were checked")

    monkeypatch.setattr(subprocess, "run", no_run)
    argv = [str(tmp_path), str(tmp_path), "--label", "x", "--workload", "powerset",
            "--seed", "1", "--seconds", "1"]
    for out_dir in (tmp_path / "x.json", tmp_path / "missing" / "dir"):
        for trace in ([], ["--trace"]):
            with pytest.raises(SystemExit) as exit_info:
                bench_pairs.main(argv + ["--out-dir", str(out_dir)] + trace)
            assert exit_info.value.code == 2
            assert "not an existing directory" in capsys.readouterr().err
    for pairs in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(argv + ["--out-dir", str(tmp_path), "--pairs", pairs])
        assert exit_info.value.code == 2
        assert f"argument --pairs: must be at least 1, got {pairs}" in capsys.readouterr().err
    (tmp_path / "x.json").write_text("{}")
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv + ["--out-dir", str(tmp_path / "x.json")])
    assert exit_info.value.code == 2
