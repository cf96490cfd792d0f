import json
from pathlib import Path

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
