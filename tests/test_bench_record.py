import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_records_load_and_name_only_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
        assert entries, path
        for entry in entries:
            assert set(entry["workloads"]) <= workloads
            for workload in entry["workloads"].values():
                assert set(workload["end_to_end"]) <= end_to_end
                for traced in workload["traced"].values():
                    assert set(traced["per_layer"]) <= per_layer


def _bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _untraced_results(side, run_s):
    """One untraced ``perfbench/run.py`` result of ``bow_build`` per seed,
    holding ``run_s[seed]`` for every end-to-end metric."""
    return [{"environment": {"commit": side}, "workload": "bow_build",
             "seed": seed, "job_s": {"traced": False}, "failures": [],
             "attempted": 3,
             "end_to_end": {name: value for name in
                            ("setup_s", "run_s", "work_per_s",
                             "peak_rss_mib")}}
            for seed, value in run_s.items()]


def test_record_summarises_two_seeds_a_side():
    record = _bench_record().record
    entry = record({"parent": _untraced_results("p", {1: 2.0, 2: 4.0}),
                    "change": _untraced_results("c", {1: 1.0, 2: 5.0})})
    workload = entry["workloads"]["bow_build"]
    assert workload["seeds"] == [1, 2]
    assert workload["attempted"] == {"parent": 6, "change": 6}
    run_s = workload["end_to_end"]["run_s"]
    assert run_s["parent"]["median"] == run_s["change"]["median"] == 3.0
    assert run_s["change"]["runs"] == [1.0, 5.0]
    # lower is better for run_s, higher for work_per_s: seed 1 is a win
    # for the change on one, seed 2 on the other
    assert run_s["change_wins"] == 1
    assert workload["end_to_end"]["work_per_s"]["change_wins"] == 1


def test_record_refuses_a_single_seed():
    record = _bench_record().record
    with pytest.raises(SystemExit, match="bow_build: .* two untraced seeds"):
        record({"parent": _untraced_results("p", {1: 2.0}),
                "change": _untraced_results("c", {1: 1.0})})


@pytest.mark.parametrize("parent, change, message", [
    ({1: "p", 2: "p"}, {1: "p", 2: "p"},
     "parent and change results name one commit, p"),
    ({1: "p", 2: "q"}, {1: "c", 2: "c"},
     "parent results name more than one commit: p, q"),
    ({1: "p", 2: "p"}, {1: "c", 2: "p"},
     "change results name more than one commit: c, p"),
], ids=["one-commit", "mixed-parent", "mixed-change"])
def test_record_refuses_mixed_commits(parent, change, message):
    record = _bench_record().record
    results = {}
    for side, commits in (("parent", parent), ("change", change)):
        results[side] = _untraced_results(side, {1: 2.0, 2: 4.0})
        for result in results[side]:
            result["environment"]["commit"] = commits[result["seed"]]
    with pytest.raises(SystemExit, match=f"^{message}$"):
        record(results)
