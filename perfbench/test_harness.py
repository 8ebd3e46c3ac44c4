"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracing import TARGETS, Span, Tracer, installed, self_seconds, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def spans(*rows):
    return [Span(id=i, name=name, parent=parent, start=start, end=end)
            for i, (name, parent, start, end) in enumerate(rows)]


def test_self_time_nested_and_siblings():
    sp = spans(
        ("root", None, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("leaf", 1, 2.0, 3.0),
        ("b", 0, 5.0, 7.0),
        ("a", 0, 8.0, 9.5),
    )
    assert self_seconds(sp) == pytest.approx({0: 10.0 - 3.0 - 2.0 - 1.5, 1: 2.0, 2: 1.0,
                                              3: 2.0, 4: 1.5})
    st = summarize(sp)
    assert st["a"].calls == 2
    assert st["a"].s == pytest.approx(4.5)
    assert st["a"].self_s == pytest.approx(3.5)
    assert sum(v.self_s for v in st.values()) == pytest.approx(10.0)


def test_tracer_records_parent_links():
    tracer = Tracer("t")
    with tracer.span("outer"):
        tracer.wrap(lambda: None, "inner")()
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert outer.start <= inner.start <= inner.end <= outer.end


def _sites():
    return {(module, attr): getattr(importlib.import_module(f"cobranch.{module}"), attr)
            for module, attr, _, _ in TARGETS}


def test_wrappers_removed_even_when_the_block_raises():
    before = _sites()
    fake = (*TARGETS, ("cli", "no_such_function", "cli.no_such_function", None))
    with pytest.raises(KeyError):
        with installed(Tracer("t"), fake) as missing:
            assert missing == ["cobranch.cli.no_such_function"]
            assert all(hasattr(f, "__traced__") for f in _sites().values())
            raise KeyError("boom")
    assert _sites() == before


def test_wrappers_removed_after_traced_run(capsys):
    before = _sites()
    rc = run.main(["--workload", "bench-soft", "--seed", "3", "--seconds", "1",
                   "--trace", "1", "--smoke"])
    assert rc == 0
    assert _sites() == before
    assert not any(hasattr(f, "__traced__") for f in before.values())
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_rerun_check_counts_a_byte_difference_as_failed():
    runner = run.Runner(run.WORKLOADS["bench-soft"], "unused")
    a = run.OpResult(ok=True, report_bytes=b"{}", checkpoint_bytes=b"x")
    runner.same_output(a, run.OpResult(ok=True, report_bytes=b"{}", checkpoint_bytes=b"x"), "same")
    assert runner.failed == 0
    runner.same_output(a, run.OpResult(ok=True, report_bytes=b"{ }", checkpoint_bytes=b"x"), "differ")
    assert runner.failed == 1


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "bench-soft", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
