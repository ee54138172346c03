"""Tests of the benchmark itself: ``python -m pytest bench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cliquesep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from child import unit_count  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import ChainExact4, ChainHub200, CheckN6, Checks, CountN7  # noqa: E402

#: Small sizes for each workload, with the units to run: check at n=4,
#: count at n=5 and 200-step chains.
TINY = {
    "check-n6": (CheckN6, {"n": 4}, 1),
    "count-n7": (CountN7, {"n": 5}, 1),
    "chain-hub200": (ChainHub200, {}, 2),
    "chain-exact4": (ChainExact4, {"block": 100}, 2),
}


def run_tiny(workload, workdir, seed=3, **size):
    cls, tiny, units = TINY[workload]
    wl = cls(seed, workdir, **{**tiny, **size})
    for index in range(units):
        wl.unit(index, time.perf_counter)
    checks = Checks()
    wl.check(checks)
    return wl, {c["name"]: c for c in checks.items}


def test_tiny_covers_every_workload():
    assert list(TINY) == list(WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_each_workload(workload, tmp_path):
    _, checks = run_tiny(workload, tmp_path)
    assert checks
    # 200 steps are far too few for the TV bound, which needs 1M; the
    # distance is still computed.
    tv = checks.pop("tv_to_exact", None)
    assert tv is None or 0.0 <= tv["tv"] <= 1.0
    assert all(c["ok"] for c in checks.values()), checks


def test_unit_counts_follow_seconds_not_speed():
    assert unit_count(CheckN6, 15) == 1 and unit_count(CheckN6, 60) == 1
    assert unit_count(CountN7, 0.1) == 1
    assert unit_count(ChainHub200, 15) == 14
    assert unit_count(ChainExact4, 0.1) == 10 and unit_count(ChainExact4, 15) == 19


def test_undoubled_perturbation_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PERTURB_FACTOR", 1.0)
    _, checks = run_tiny("check-n6", tmp_path)
    assert [name for name, c in checks.items() if not c["ok"]] == ["check_fail_ln2"]


def test_wrong_count_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED_COUNTS, 5, 821)
    _, checks = run_tiny("count-n7", tmp_path)
    assert [name for name, c in checks.items() if not c["ok"]] == ["count[0]"]


def copy_checkout(dest: Path, with_source: bool = True) -> None:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def bench(root: Path, workload: str):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=root,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, lines


def test_wrong_expected_count_makes_the_benchmark_exit_nonzero(tmp_path):
    """A full ``count-n7`` run in a copy whose expected count is off by one."""
    copy_checkout(tmp_path)
    path = tmp_path / "bench" / "workloads.py"
    text = path.read_text()
    assert "7: 617675" in text
    path.write_text(text.replace("7: 617675", "7: 617674"))
    code, result, lines = bench(tmp_path, "count-n7")
    assert code == 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] == 1
    assert list(result["metrics"]) == [name for name, _, _ in END_TO_END]
    for name, unit, _ in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    report = json.loads(lines[-2])
    assert [c["name"] for r in report["results"] for c in r["checks"] if not c["ok"]] == ["count[0]"]


def test_checkout_without_source_fails_without_result(tmp_path):
    copy_checkout(tmp_path, with_source=False)
    code, result, _ = bench(tmp_path, "count-n7")
    assert code != 0 and result is None


def test_chain_digest_is_deterministic(tmp_path):
    def digest(seed):
        wl, _ = run_tiny("chain-hub200", tmp_path, seed)
        return wl.digest()

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def traced(workload, tmp_path, untraced, targets=tracing.TARGETS, **size):
    tracer = Tracer(time.perf_counter, targets)
    tracer.calibrate()
    tracer.install()
    try:
        wl, checks = run_tiny(workload, tmp_path, **size)
    finally:
        tracer.remove()
    return tracer, tracer.layer_metrics(wl.n, untraced), checks


#: Figures of an untraced run, as ``run.py`` passes them to a traced one.
UNTRACED = {"s_per_item": 1e-3, "check_property_s": [3.0, 1.0], "command_s": {"fit": 2.0}}


def test_untraced_run_times_check_property_alone(tmp_path):
    # The decomposition index is cached per process and n; no other test
    # checks at n=3, so the first check here is cold.
    tracer, _, _ = traced("check-n6", tmp_path, UNTRACED, tracing.UNTRACED_TARGETS, n=3)
    assert list(tracer.stats) == ["markov.check_property"]
    assert len(tracer.check_property_s()) == 2 and min(tracer.check_property_s()) > 0


def test_traced_check_reports_every_layer_metric(tmp_path):
    # As above, at n=5.
    tracer, metrics, checks = traced("check-n6", tmp_path, UNTRACED, n=5)
    assert all(c["ok"] for c in checks.values())
    assert set(metrics) | {"trace_overhead_ratio"} == {name for name, _, _ in LAYER_METRICS}
    assert metrics["trace.absent"] == 0
    assert metrics["markov.check_property.cold_s"] == 3.0 and metrics["markov.check_property.warm_s"] == 1.0
    assert metrics["markov.index_rows_per_s"] == 0.0  # rows are known at n=6 only
    assert metrics["cli.run_command.fit.s"] == 2.0 and metrics["cli.run_command.count.s"] == 0.0
    assert metrics["graphs.is_decomposition.calls"] > metrics["graphs.is_decomposition.true"] > 0
    assert metrics["laws.normalize_by_enumeration.s"] > 0 and metrics["posterior.log_marginal.calls"] > 0
    assert all(cost > 0 for cost in tracer.cost.values()) and tracer.overhead > 0


def test_traced_chain_reports_sampler_metrics(tmp_path):
    _, metrics, _ = traced("chain-exact4", tmp_path, UNTRACED)
    assert metrics["graphs.is_decomposable.calls"] >= 200
    assert 0 < metrics["sampler.decomposable_ratio"] <= 1 and 0 < metrics["sampler.accept_ratio"] <= 1
    assert 0 < metrics["sampler.memo_miss_ratio"] <= 1
    assert metrics["sampler.loop_self_us_per_step"] > 0


def test_nested_wrapper_cost_is_taken_off_the_enclosing_time():
    stats = {"outer": tracing.Stat(), "inner": tracing.Stat()}
    tracer = Tracer(time.perf_counter)
    tracer.calibrate()
    inner = tracing._wrap(lambda: 1, stats["inner"], tracer, False, False)

    def work():
        for _ in range(20_000):
            inner()

    outer = tracing._wrap(work, stats["outer"], tracer, True, False)
    t0 = time.perf_counter()
    outer()
    elapsed = time.perf_counter() - t0
    nested = 20_000 * tracer.cost["counted"]
    assert stats["inner"].calls == stats["inner"].truthy == 20_000
    assert tracer.overhead == pytest.approx(nested + tracer.cost["timed"])
    assert elapsed - stats["outer"].seconds == pytest.approx(nested, rel=0.05)


def test_index_rows_recounted_by_brute_force():
    """Every (covering pair, graph) decomposition at n=6, counted directly:
    ``a & b`` complete and no edge between ``a - b`` and ``b - a``."""
    n = 6
    full = (1 << n) - 1

    def edge_mask(pairs):
        return cliquesep.Graph(n, pairs).edge_mask

    tests = []
    for a in range(full):
        for b in range(a + 1, full):
            if a | b == full:
                s = cliquesep.members(a & b)
                complete = edge_mask([(i, j) for i in s for j in s if i < j])
                cross = edge_mask([(i, j) for i in cliquesep.members(a & ~b) for j in cliquesep.members(b & ~a)])
                tests.append((complete, cross))
    rows = 0
    for g in cliquesep.enumerate_decomposable(n):
        em = g.edge_mask
        rows += sum(1 for complete, cross in tests if em & complete == complete and not em & cross)
    assert len(tests) == 301
    assert rows == tracing.INDEX_ROWS[n] == 277_942


def test_removed_target_is_reported_absent():
    import cliquesep.graphs as graphs

    original = graphs.is_decomposable
    tracer = Tracer(time.perf_counter, tracing.TARGETS + (("graphs", "no_such_function", True),))
    tracer.install()
    try:
        assert graphs.is_decomposable is not original
        assert cliquesep.sampler.is_decomposable is graphs.is_decomposable
    finally:
        tracer.remove()
    assert graphs.is_decomposable is original and cliquesep.sampler.is_decomposable is original
    assert tracer.absent == ["graphs.no_such_function"]
    metrics = tracer.layer_metrics(6, UNTRACED)
    assert metrics["trace.absent"] == 1
    assert metrics["markov.index_rows_per_s"] == 277_942 / 2.0
    assert set(metrics) | {"trace_overhead_ratio"} == {name for name, _, _ in LAYER_METRICS}


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
