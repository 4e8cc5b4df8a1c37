"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import END_TO_END, PER_LAYER, Blocks, _git_tree_sha  # noqa: E402
from reference import chronicle_seq_count, filtered_count, or_count, \
    recent_and_count  # noqa: E402
from run import WORKLOADS  # noqa: E402
from spans import Span, Tracer, layer_times  # noqa: E402


def test_self_time_subtracts_the_union_of_direct_children():
    # root [0, 100) has children [10, 30) and [20, 50) (overlapping, as
    # spans from two threads may be) and [60, 70); grandchild [12, 18)
    # belongs to the first child only.
    spans = [
        Span(1, 0, "root", 0, 100),
        Span(2, 1, "child", 10, 30),
        Span(3, 1, "child", 20, 50),
        Span(4, 1, "other", 60, 70),
        Span(5, 2, "leaf", 12, 18),
    ]
    times = layer_times(spans)
    assert times.self_ns["root"] == 100 - (40 + 10)
    assert times.self_ns["child"] == (20 - 6) + 30
    assert times.self_ns["leaf"] == 6
    assert times.total_ns["child"] == 50
    assert times.count == {"root": 1, "child": 2, "other": 1, "leaf": 1}


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    with tracer.span("outer"):
        inner()
        inner()
    outer = [s for s in tracer.spans if s.name == "outer"][0]
    assert [s.parent_id for s in tracer.spans if s.name == "inner"] == \
        [outer.span_id, outer.span_id]
    assert outer.parent_id == 0


def test_figures_come_from_the_fastest_blocks():
    # 20 blocks of 10 events and 2 latency samples each; block k takes
    # (k + 1) / 10 s of wall and CPU. The 1st percentile of 20 costs is
    # the fastest block's.
    cpu = iter([0.0] + [sum(range(1, k + 2)) / 10 for k in range(20)])
    blocks = Blocks(cpu=lambda: next(cpu))
    blocks.mark(0.0, 0, 0)
    latencies = []
    for k in range(20):
        latencies += [0.001 * (k + 1), 0.003 * (k + 1)]
        blocks.mark(sum(range(1, k + 2)) / 10, 10 * (k + 1), 2 * (k + 1))
    figures = blocks.figures(latencies)
    assert figures["events_per_s"] == pytest.approx(100.0)
    assert figures["cpu_us_per_event"] == pytest.approx(1e4)
    assert figures["latency_p50_ms"] == pytest.approx(1.0)


def test_reference_counters_on_a_hand_written_stream():
    names = ["b", "a", "a", "c", "b", "c", "c", "a", "b"]
    assert or_count(names, ("a", "b")) == 6
    # a a c -> pairs (a1,c1); c -> pairs (a2,c2); c -> nothing left
    assert chronicle_seq_count(names, "a", "c") == 2
    # b seen first: the first c fires, and so do the later b, c, c, b
    assert recent_and_count(names, "b", "c") == 5
    stream = [("p", {"v": 5}), ("p", {"v": 700}), ("q", {"v": 900})]
    assert filtered_count(stream, "p", lambda p: p["v"] >= 700) == 1


def test_wrong_expected_count_fails_the_check():
    import wl_reactive

    templates = wl_reactive.make_templates(7)[:4]
    system, ledgers, fired = wl_reactive.build()
    try:
        honest = wl_reactive.run_pass(system, ledgers, fired, templates, 0.0,
                                      {}, min_txns=len(templates))
        assert honest.mismatches == 0 and honest.failed == 0
        wrong = templates[2]
        wrong.expected = (wrong.expected[0] + 1,) + wrong.expected[1:]
        checked = wl_reactive.run_pass(system, ledgers, fired, templates,
                                       0.0, {}, min_txns=len(templates))
    finally:
        system.close()
    assert checked.mismatches == 1


def test_wire_detections_must_equal_the_reference():
    import wl_wire

    batches = [mine[:2] for mine in wl_wire.make_batches(3)]
    sent = [2] * wl_wire.CALLERS
    result = wl_wire.Pass(expected=wl_wire.expected_detections(batches, sent))
    result.fired.update(result.expected)
    assert wl_wire.mismatch(result) == ""
    result.fired["W0_a_then_c"] += 1
    assert wl_wire.mismatch(result) != ""


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_tree_sha_matches_git(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text("print('a')\n")
    (tmp_path / "pkg" / "sub" / "b.txt").write_text("b\n")
    (tmp_path / "pkg" / "run.sh").write_text("#!/bin/sh\n")
    (tmp_path / "pkg" / "run.sh").chmod(0o755)
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    git = ["git", "-C", str(tmp_path)]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "pkg/a.py", "pkg/sub", "pkg/run.sh"],
                   check=True)
    tree = subprocess.run([*git, "write-tree", "--prefix=pkg/"],
                          check=True, capture_output=True, text=True)
    assert _git_tree_sha(tmp_path / "pkg") == tree.stdout.strip()


def test_run_refuses_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reactive_txn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
