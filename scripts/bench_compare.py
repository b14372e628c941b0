#!/usr/bin/env python3
"""Summarise an alternating parent/change benchmark series as BENCH_<n>.json.

    python scripts/bench_compare.py PARENT_DIR CHANGE_DIR --out BENCH_10.json

PARENT_DIR and CHANGE_DIR are two checkouts, each holding the
`.bench_out/<workload>-seed<n>-trace<t>.json` records that
`benchmark/run.py` wrote there. Runs are paired by workload, seed and trace
setting; pairs are meant to be run one after the other, alternating which
side goes first, each pair on its own seed. For each workload and each
metric that `BENCHMARK.json` declares, the output gives both sides' median
and quartiles, the change's win count over the pairs (by the metric's
better direction, ties counting for neither side), and whether the series
shows a gain by the rule: wins in at least nine tenths of the pairs, and
medians apart by more than the parent's interquartile range. End-to-end
metrics also get their relative move against the benchmark's bound. The
file records each side's commit, whether its tree differed from it, a digest
of its `src/liftervc` sources, the seeds and run order, and the machine
record of the runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "blas", "blas_threads",
                "thread_env")


def load_records(checkout: Path) -> dict:
    """(workload, seed, trace) -> (record, file mtime) for one checkout.
    The trace setting comes from the file name: a traced run's record holds
    its spans under "trace"."""
    records = {}
    for path in sorted((checkout / ".bench_out").glob("*.json")):
        doc = json.loads(path.read_text())
        key = (doc["workload"], doc["seed"], int(path.stem.rsplit("trace", 1)[1]))
        records[key] = (doc, path.stat().st_mtime)
    if not records:
        raise SystemExit(f"error: no benchmark records under {checkout}/.bench_out")
    return records


def source_state(checkout: Path) -> dict:
    """The checkout's commit, whether its tree differs from that commit, and
    a sha256 over its src/liftervc/*.py files, name and content."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "liftervc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def spread(values: list) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list, change: list, better: str, bound=None) -> dict:
    """One metric over paired runs (parent[i], change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = spread(parent), spread(change)
    gain = sign * (c["median"] - p["median"])
    out = {"better": better, "pairs": len(parent), "change_wins": wins,
           "parent_wins": losses, "parent": p, "change": c,
           "median_ratio": c["median"] / p["median"] if p["median"] else None,
           "gain_shown": (wins >= 0.9 * len(parent)
                          and gain > p["q3"] - p["q1"])}
    if bound is not None:
        worse = -gain / abs(p["median"]) if p["median"] else 0.0
        out.update(bound=bound, worse_fraction=worse, within_bound=worse <= bound)
    return out


def summarise(parent_dir: Path, change_dir: Path, spec: dict) -> dict:
    parent, change = load_records(parent_dir), load_records(change_dir)
    directions = {m["name"]: (m["better"], m.get("bound"))
                  for m in spec["end_to_end"] + spec["per_layer"]}
    machines = {json.dumps({k: doc.get(k) for k in MACHINE_KEYS}, sort_keys=True)
                for doc, _ in list(parent.values()) + list(change.values())}
    workloads = {}
    for key in sorted(set(parent) & set(change)):
        workload, seed, trace = key
        (p_doc, p_time), (c_doc, c_time) = parent[key], change[key]
        group = workloads.setdefault(f"{workload} trace{trace}", {
            "workload": workload, "trace": trace, "seeds": [], "first": [],
            "seconds": p_doc["seconds"], "attempted": {"parent": 0, "change": 0},
            "failed": {"parent": 0, "change": 0}, "pairs": []})
        group["seeds"].append(seed)
        group["first"].append("parent" if p_time < c_time else "change")
        for side, doc in (("parent", p_doc), ("change", c_doc)):
            group["attempted"][side] += doc["attempted"]
            group["failed"][side] += doc["failed"]
        group["pairs"].append((p_doc["metrics"], c_doc["metrics"]))
    for group in workloads.values():
        pairs = group.pop("pairs")
        group["metrics"] = {
            name: compare([p[name] for p, _ in pairs], [c[name] for _, c in pairs],
                          *directions[name])
            for name in pairs[0][0] if name in directions}
    return {"parent": source_state(parent_dir), "change": source_state(change_dir),
            "benchmark": {k: spec[k] for k in ("command", "run_seconds")},
            "machine": [json.loads(m) for m in sorted(machines)],
            "unpaired_runs": sorted(f"{w}-seed{s}-trace{t}"
                                    for w, s, t in set(parent) ^ set(change)),
            "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = summarise(args.parent_dir, args.change_dir, spec)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, group in doc["workloads"].items():
        for metric, m in group["metrics"].items():
            if "bound" in m:
                print(f"{name:32s} {metric:28s} {m['parent']['median']:10.4g} -> "
                      f"{m['change']['median']:10.4g}  wins {m['change_wins']}/"
                      f"{m['pairs']}  gain shown: {m['gain_shown']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
