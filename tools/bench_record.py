"""Append one parent-against-change entry to a ``BENCH_*.json`` record.

    python3 tools/bench_record.py --out BENCH_1.json --description "..." \
        --parent p/*.json --change c/*.json \
        --tier1-parent p/tier1.txt --tier1-change c/tier1.txt

Each ``--parent`` / ``--change`` file is a ``perfbench/run.py`` result,
``perfbench/.work/result-<workload>-trace<n>.json``, copied aside after
its run (the next run of that workload overwrites it). The results of
one side must name one commit, and the two sides different ones; a run
of uncommitted code is filed under its parent's commit, so set the
change side's ``environment.commit`` to the change's commit before
recording. Untraced results
give, per workload and side, the median and quartiles of every end-to-end
metric declared in ``BENCHMARK.json`` over the seeds run (at least
two), and how many seeds the change won; one traced result per workload
and side gives the declared per-layer metrics and the ``# inputs``
block. ``--tier1-*`` is the output of the tier-1 command run with
``--durations=15``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def declared() -> tuple[dict, dict]:
    """End-to-end and per-layer metrics of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def change_wins(metric: dict, parent: dict, change: dict) -> int:
    """Seeds on which the change reads better than the parent."""
    sign = 1 if metric["better"] == "lower" else -1
    return sum(sign * (parent[s] - change[s]) > 0 for s in parent)


def tier1(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    passed, wall = re.search(r"(\d+) passed.* in ([\d.]+)s", text).groups()
    slowest = [{"test": test, "s": float(s)} for s, test in
               re.findall(r"^([\d.]+)s call\s+(\S+)$", text, re.M)]
    return {"passed": int(passed), "wall_s": float(wall), "slowest": slowest}


def record(results: dict[str, list[dict]]) -> dict:
    end_to_end, per_layer = declared()
    out = {"sides": {}, "workloads": {}}
    for side in SIDES:
        commits = sorted({r["environment"]["commit"] for r in results[side]})
        if len(commits) > 1:
            raise SystemExit(f"{side} results name more than one commit: "
                             f"{', '.join(commits)}")
        env = results[side][0]["environment"]
        out["sides"][side] = {"commit": env["commit"], "environment": env}
    if out["sides"]["parent"]["commit"] == out["sides"]["change"]["commit"]:
        raise SystemExit("parent and change results name one commit, "
                         f"{out['sides']['parent']['commit']}")
    names = sorted({r["workload"] for side in SIDES for r in results[side]})
    for name in names:
        untraced = {side: {r["seed"]: r for r in results[side]
                           if r["workload"] == name and not r["job_s"]["traced"]}
                    for side in SIDES}
        seeds = sorted(untraced["parent"])
        if seeds != sorted(untraced["change"]):
            raise SystemExit(f"{name}: parent and change ran different seeds")
        if len(seeds) < 2:
            raise SystemExit(f"{name}: quartiles need at least two untraced "
                             "seeds a side")
        entry = {"seeds": seeds, "end_to_end": {}, "failed": {},
                 "attempted": {}, "traced": {}}
        for metric, spec in end_to_end.items():
            by_side = {side: {s: untraced[side][s]["end_to_end"][metric]
                              for s in seeds} for side in SIDES}
            entry["end_to_end"][metric] = dict(
                unit=spec["unit"], better=spec["better"],
                **{side: summary([by_side[side][s] for s in seeds])
                   for side in SIDES},
                change_wins=change_wins(spec, *by_side.values()))
        for side in SIDES:
            runs = untraced[side].values()
            entry["failed"][side] = sum(len(r["failures"]) for r in runs)
            entry["attempted"][side] = sum(r["attempted"] for r in runs)
            traced = [r for r in results[side]
                      if r["workload"] == name and r["job_s"]["traced"]]
            if traced:
                entry["traced"][side] = {
                    "seed": traced[0]["seed"],
                    "inputs": traced[0]["inputs"],
                    "per_layer": {m: traced[0]["per_layer"][m]
                                  for m in per_layer},
                }
        out["workloads"][name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--description", default="")
    for side in SIDES:
        parser.add_argument(f"--{side}", nargs="+", required=True)
        parser.add_argument(f"--tier1-{side}")
    args = parser.parse_args(argv)
    results = {side: [json.loads(Path(p).read_text(encoding="utf-8"))
                      for p in getattr(args, side)] for side in SIDES}
    entry = {"description": args.description, **record(results)}
    entry["tier1"] = {side: tier1(path) for side in SIDES
                      if (path := getattr(args, f"tier1_{side}"))}
    out = Path(args.out)
    bench = (json.loads(out.read_text(encoding="utf-8")) if out.exists()
             else {"entries": []})
    bench["entries"].append(entry)
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
