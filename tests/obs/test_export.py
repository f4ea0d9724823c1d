"""Export: merged obs logs -> Chrome trace-event JSON + summaries."""

import json

from repro.obs import trace as obs_trace
from repro.obs.export import (
    export_chrome,
    merge_logs,
    split_records,
    summarize,
    to_chrome,
)


def _write_log(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def test_merge_logs_orders_across_processes(tmp_path):
    _write_log(tmp_path / "a-1.jsonl",
               [{"ph": "X", "name": "late", "ts": 200, "dur": 1, "pid": 1},
                {"ph": "X", "name": "early", "ts": 50, "dur": 1, "pid": 1}])
    _write_log(tmp_path / "b-2.jsonl",
               [{"ph": "X", "name": "mid", "ts": 100, "dur": 1, "pid": 2}])
    names = [r["name"] for r in merge_logs(str(tmp_path))]
    assert names == ["early", "mid", "late"]


def test_split_keeps_only_last_metrics_snapshot_per_pid():
    # A long-lived process emits a cumulative snapshot per campaign;
    # merging all of them would multiply its counts.
    records = [
        {"ph": "metrics", "ts": 1, "pid": 7,
         "metrics": {"counters": {"c": 1}}},
        {"ph": "metrics", "ts": 2, "pid": 7,
         "metrics": {"counters": {"c": 5}}},
        {"ph": "metrics", "ts": 3, "pid": 8,
         "metrics": {"counters": {"c": 2}}},
    ]
    _spans, _meta, snapshots = split_records(records)
    assert len(snapshots) == 2
    counts = sorted(s["counters"]["c"] for s in snapshots)
    assert counts == [2, 5]  # pid 7's first snapshot dropped


def test_to_chrome_normalises_and_annotates():
    records = [
        {"ph": "M", "name": "process_name", "pid": 3,
         "args": {"name": "worker-w0-3"}},
        {"ph": "X", "name": "job", "ts": 1_000_100, "dur": 40,
         "pid": 3, "tid": 9, "args": {"fp": "ab"}},
        {"ph": "i", "name": "cell.done", "ts": 1_000_150, "pid": 3,
         "tid": 9, "args": {}},
        {"ph": "metrics", "ts": 1_000_200, "pid": 3,
         "metrics": {"counters": {"n": 2}}},
    ]
    doc = to_chrome(records)
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert meta[0]["args"] == {"name": "worker-w0-3"}
    span = next(e for e in events if e["ph"] == "X")
    assert span["ts"] == 0  # normalised to the earliest event
    assert span["dur"] == 40
    assert span["cat"] == "repro"
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["ts"] == 50
    assert instant["s"] == "t"
    assert doc["displayTimeUnit"] == "ms"
    assert doc["repro"]["metrics"]["counters"] == {"n": 2}
    assert doc["repro"]["records"] == len(records)


def test_export_chrome_round_trip(tmp_path):
    obs_dir = tmp_path / "obs"
    obs_dir.mkdir()
    tracer = obs_trace.activate(str(obs_dir), label="t")
    with obs_trace.span("campaign", jobs=1):
        with obs_trace.span("attempt", fp="ff", attempt=1):
            pass
    obs_trace.event("cell.done", fp="ff")
    tracer.emit_metrics({"counters": {"campaign.computed": 1},
                         "gauges": {}, "histograms": {}})
    obs_trace.deactivate()

    out = str(tmp_path / "trace.json")
    info = export_chrome(str(obs_dir), out)
    assert info["events"] == 3  # two spans + one instant
    assert info["tracks"] == 1
    assert info["metrics"] == 1
    with open(out, encoding="utf-8") as handle:
        doc = json.load(handle)  # valid JSON end-to-end
    assert {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"} \
        == {"campaign", "attempt"}
    assert doc["repro"]["metrics"]["counters"]["campaign.computed"] == 1


def test_summarize_histograms_span_names():
    records = [
        {"ph": "X", "name": "job", "ts": 0, "dur": 10},
        {"ph": "X", "name": "job", "ts": 5, "dur": 30},
        {"ph": "X", "name": "campaign", "ts": 0, "dur": 100},
    ]
    summary = summarize(records)
    assert summary["spans"]["job"] == {"count": 2, "total_us": 40}
    assert summary["spans"]["campaign"]["count"] == 1
