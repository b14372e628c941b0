"""scripts/bench_compare.py on made-up records, and the layout of the
committed BENCH_*.json files. No timing is checked here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "scripts" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

WORKLOADS = ("convert-16k", "convert-48k-subband", "train-16k-l32")
METRIC_KEYS = {"better", "pairs", "change_wins", "parent_wins", "parent",
               "change", "median_ratio", "gain_shown"}


def write_records(checkout: Path, rows) -> None:
    """One trace-0 convert-16k record per (rate, rss) row, seeds 1, 2, ..."""
    out = checkout / ".bench_out"
    out.mkdir(parents=True)
    for seed, (rate, rss) in enumerate(rows, start=1):
        doc = {"workload": "convert-16k", "seed": seed, "trace": 0,
               "seconds": 30.0, "attempted": 12, "failed": 0, "nproc": 2,
               "cpu": "test cpu", "python": "3", "numpy": "2", "blas": "b",
               "blas_threads": 1, "thread_env": {},
               "metrics": {"convert_l32_audio_s_per_s": rate,
                           "peak_rss_mb": rss, "not_declared": 1.0}}
        (out / f"convert-16k-seed{seed}-trace0.json").write_text(json.dumps(doc))


def test_compare_counts_wins_by_the_metrics_direction(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_records(parent, [(100.0 + i, 200.0) for i in range(10)])
    write_records(change, [(110.0 + i, 200.0 - (i < 3) + (i == 9) * 60.0)
                           for i in range(10)])
    out = tmp_path / "BENCH.json"
    assert bench_compare.main([str(parent), str(change), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["parent"]["commit"] is None  # not a git checkout
    assert doc["machine"][0]["cpu"] == "test cpu"
    group = doc["workloads"]["convert-16k trace0"]
    assert group["seeds"] == list(range(1, 11))
    assert set(group["metrics"]) == {"convert_l32_audio_s_per_s", "peak_rss_mb"}

    rate = group["metrics"]["convert_l32_audio_s_per_s"]
    assert (rate["change_wins"], rate["parent_wins"]) == (10, 0)
    assert rate["parent"]["median"] == pytest.approx(104.5)
    assert rate["parent"]["q3"] - rate["parent"]["q1"] == pytest.approx(4.5)
    assert rate["gain_shown"] and rate["within_bound"]

    # lower is better: 3 wins, 1 loss by 30 %, 6 ties
    rss = group["metrics"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["parent_wins"]) == (3, 1)
    assert not rss["gain_shown"]
    assert rss["worse_fraction"] == 0.0 and rss["within_bound"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_committed_bench_file_layout(path):
    doc = json.loads(path.read_text())
    for side in ("parent", "change"):
        assert set(doc[side]) == {"commit", "dirty", "src_sha256"}
    assert doc["parent"]["src_sha256"] != doc["change"]["src_sha256"]
    assert doc["machine"] and all("cpu" in m for m in doc["machine"])
    e2e = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload in WORKLOADS:
        group = doc["workloads"][f"{workload} trace0"]
        n = len(group["seeds"])
        assert n >= 10 and len(group["first"]) == n
        assert set(group["first"]) == {"parent", "change"}
        assert set(group["metrics"]) == e2e
        for m in group["metrics"].values():
            assert METRIC_KEYS <= set(m) and m["pairs"] == n
            assert len(m["parent"]["runs"]) == len(m["change"]["runs"]) == n
