"""Smoke test of the benchmark harness at tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
from workloads import WORKLOADS, generic_seed, pinned_seed, smoke_ops  # noqa: E402


def _walk(ref: oracles.Ref, hi: int) -> dict:
    """First row base..hi by the step-by-step endpoint solve."""
    xs = {ref.base + m: v for m, v in enumerate(ref.seed)}
    top = ref.base + ref.n + 2
    while top < hi:
        window = [xs[m] for m in range(top - ref.n, top + 1)]
        top += 1
        xs[top] = -ref.c * oracles.cont(ref.c, window[:-1]) / oracles.cont(ref.c, window)
    return xs


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_closed_form_first_row_matches_the_walk(n):
    rng = random.Random(n)
    for c in (Fraction(-1), Fraction(4), Fraction(5, 2)):
        ref = generic_seed(rng, c, n)
        walked = _walk(ref, ref.base + 4 * (n + 3))
        assert all(ref.x(i) == v for i, v in walked.items())


def test_pinned_seeds_hit_their_routes():
    rng = random.Random(1)
    assert "repetitive" in pinned_seed(rng, -4, 5, 2).routes()
    assert "odd-rows-antiperiodic" in pinned_seed(rng, 4, 6, 2).routes()


def _cli():
    from cfrieze import cli

    return cli


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_ops_of_each_deck_pass_their_checks(name, tmp_path):
    deck = WORKLOADS[name].make_deck(random.Random(7), tmp_path)
    runner = run.Pass(deck if name == "cli-session" else deck[:2])
    runner.play_all(_cli())
    assert runner.failed == {}
    runner.play_all(run.reload_program())
    assert runner.failed == {}


def test_every_workload_has_100_ops_for_its_p90(tmp_path):
    for name, workload in WORKLOADS.items():
        deck = workload.make_deck(random.Random(0), tmp_path)
        assert len(deck) * workload.decks >= 100, name


def test_checks_reject_a_wrong_output(tmp_path):
    for op in smoke_ops(tmp_path):
        code, stdout, stderr, out_text, _ = run.play(_cli(), op)
        if out_text is not None:
            out_text = out_text.replace("1", "2", 1)
        elif stdout.startswith("ok "):
            stdout = stdout.replace("ok ", "FAIL ", 1)
        else:
            stdout = stdout.replace("1", "2", 1)
        assert run.judge(op, code, stdout, stderr, out_text) is not None, op.kind


def test_tracer_records_nested_spans_and_restores_the_program(tmp_path):
    from cfrieze import cli, continuant, frieze

    originals = (cli.main, frieze.continuant_eval, continuant.continuant_eval,
                 frieze.Frieze.value)
    runner = run.Pass(smoke_ops(tmp_path))
    tracer = spans.Tracer()
    with tracer:
        assert frieze.continuant_eval is continuant.continuant_eval
        assert frieze.continuant_eval is not originals[1]
        runner.play_all(cli)
    assert runner.failed == {}
    assert (cli.main, frieze.continuant_eval, continuant.continuant_eval,
            frieze.Frieze.value) == originals
    metrics = spans.layer_metrics(tracer, analyze_ops=1, stdout_bytes=1)
    assert set(metrics) | {"trace.overhead_ratio"} == set(spans.PER_LAYER)
    calls, self_s = tracer.layer_totals()
    assert calls["cli.main"] == len(runner.ops)
    assert min(self_s.values()) >= 0
    roots = [i for i, p in enumerate(tracer.span_parent) if p < 0]
    assert all(tracer.names[tracer.span_name[i]] == "cli.main" for i in roots)


def test_benchmark_json_lists_what_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == spans.PER_LAYER


def test_percentile_leaves_ten_samples_beyond_p90():
    values = list(range(100))
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    assert run.percentile([5], 90) == 5


def test_steadiness_verdicts():
    bench = {"end_to_end": [
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}
    flat = [{"metrics": {"op_ms_p50": {"value": v}}} for v in (10, 10.1, 9.9, 10, 10.2)]
    slow = [{"metrics": {"op_ms_p50": {"value": v * 1.2}}} for v in (10, 10.1, 9.9, 10, 10.2)]
    wide = [{"metrics": {"op_ms_p50": {"value": v}}} for v in (5, 10, 15, 20, 8)]
    [row] = steady.judge(bench, {"w": [flat, flat]})
    assert row["steady"] and row["agree"]
    [row] = steady.judge(bench, {"w": [flat, slow]})
    assert row["steady"] and not row["agree"]
    [row] = steady.judge(bench, {"w": [slow, flat]})
    assert row["steady"] and not row["agree"]
    [row] = steady.judge(bench, {"w": [wide, wide]})
    assert not row["steady"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "far-row", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
