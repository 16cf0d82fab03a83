import json
import os
import shutil
import subprocess
import sys

from perfbench import metrics, run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for key, names in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        got = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert got == names
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_result_needs_every_metric():
    values = {n: 1.0 for n in metrics.END_TO_END}
    out = metrics.result(values, metrics.END_TO_END, 3, 0)
    assert out["correct"] and set(out["metrics"]) == set(metrics.END_TO_END)
    assert not metrics.result(values, metrics.END_TO_END, 3, 1)["correct"]
    del values["setup_s"]
    try:
        metrics.result(values, metrics.END_TO_END, 3, 0)
    except KeyError:
        pass
    else:
        raise AssertionError("a missing metric must raise")


def test_without_raystorm_the_run_fails_cleanly(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_tail", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "raystorm" in proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]


def test_oracle_reads_the_corpus_parquet():
    sys.path.insert(0, ROOT)
    from perfbench import prepare

    sql = prepare.oracle_sql("/data/corpus", ["aaab aaac"])
    assert "read_parquet('/data/corpus/*.parquet')" in sql
    assert "FROM documents" not in sql
