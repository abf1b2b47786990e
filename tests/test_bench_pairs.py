import importlib.util
import json
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


def test_every_pairs_raw_round_s_is_kept_and_summarized(tmp_path, monkeypatch):
    # A stubbed run prints a header with its uncalibrated times and a result
    # line.  The calibrated and raw figures disagree on purpose: the change
    # reads higher calibrated in every pair but lower raw in two of three.
    bench_pairs = _load()
    calls = []
    calibrated = {"parent": [0.20, 0.21, 0.22], "change": [0.23, 0.24, 0.25]}
    raw = {"parent": [0.30, 0.31, 0.32], "change": [0.29, 0.33, 0.28]}

    def fake_run(argv, cwd, capture_output, text):
        side = Path(cwd).name
        k = sum(c == side for c in calls)
        calls.append(side)
        result = {"correct": True, "failed": 0,
                  "metrics": {"round_s": {"value": calibrated[side][k], "unit": "s"}}}
        header = ["# workload=powerset seed=1 backend=pure", f"# rounds={k + 5}",
                  "# raw " + json.dumps({"setup_s": 0.05, "round_s": raw[side][k]})]
        return subprocess.CompletedProcess(argv, 0, "\n".join(header + [json.dumps(result)]) + "\n", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--label", "x",
                             "--workload", "powerset", "--seed", "1", "--seconds", "1",
                             "--pairs", "3", "--out-dir", str(tmp_path)]) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    entry = json.loads((tmp_path / "BENCH_x.json").read_text())["workloads"]["powerset"]
    assert [p["raw_round_s"] for p in entry["pairs"]] == [
        {"parent": r_p, "change": r_c} for r_p, r_c in zip(raw["parent"], raw["change"])]
    summary = entry["summary"]
    assert summary["round_s"]["change_lower_in"] == "0/3"
    assert summary["raw_round_s"] == {
        "parent_median_q1_q3": [0.31, 0.305, 0.315],
        "change_median_q1_q3": [0.29, 0.285, 0.31],
        "change_lower_in": "2/3",
    }
    assert entry["header"]["change"][-1].startswith("# raw ")
