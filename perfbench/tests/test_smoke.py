"""Smoke test of the benchmark at tiny sizes: every command, check and metric
runs, and the result line keeps its contract. No timing is asserted.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(BENCH), str(ROOT / "src")]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "si-train", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_names_where_they_are_looked_up():
    import propspan
    from propspan import pipeline, tokens
    from tracer import Tracer

    original = tokens.spans_to_tags
    tracer = Tracer()
    modules = [propspan] + [m for n, m in sorted(sys.modules.items())
                            if n.startswith("propspan.")]
    assert tracer.install(modules) > 0
    try:
        assert pipeline.spans_to_tags is tokens.spans_to_tags is not original
        tracer.active = True
        tt = tokens.tokenize("a b c")
        pipeline.spans_to_tags(tt, [tokens.Span("x", 2, 3)])
        tracer.active = False
    finally:
        tracer.uninstall()
    assert pipeline.spans_to_tags is tokens.spans_to_tags is original
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["tokens.tokenize", "tokens.spans_to_tags", "tokens.merge_spans"]
    assert tracer.spans[2][3] == 1  # merge_spans is a child of spans_to_tags
