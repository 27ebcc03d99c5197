"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _last_line(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "param", "--seed", "3",
         "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()[-1:]


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, kind):
    code, last = _last_line(HERE.parent, "--trace", trace)
    assert code == 0
    result = json.loads(last[0])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, last = _last_line(tmp_path, "--trace", "0")
    assert code != 0
    assert last == []


def _param_round(goldens, seed=1):
    wl = workloads.Param(bench.import_program(), goldens)
    records = []
    bench.run_jobs(wl.round(workloads.make_rng("param", seed)), records)
    return records


def test_one_corrupted_golden_byte_makes_fail_frac_positive():
    goldens = bench.load_goldens()
    assert bench.end_to_end(_param_round(goldens), [0.0])[0][
        "fail_frac"][0] == 0
    name, argv, text = next(g for g in goldens if g[1][0] == "git")
    i = len(text) // 2
    bad = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
    records = _param_round([(n, a, bad if n == name else t)
                            for n, a, t in goldens])
    assert bench.end_to_end(records, [0.0])[0]["fail_frac"][0] > 0
    assert [r.label for r in records if r.problem] == ["golden:" + name]


def test_traced_counts_repeat_and_wrappers_come_off():
    mc = bench.import_program()
    original = mc.cli.main
    counts = []
    for _ in range(2):
        wl = workloads.Param(mc, bench.load_goldens())
        jobs = wl.round(workloads.make_rng("param", 5))
        trace = tracer.Tracer()
        trace.install()
        try:
            assert mc.cli.main is not original
            bench.run_jobs(jobs, [], trace)
        finally:
            trace.uninstall()
        metrics = tracer.layer_metrics(trace.spans)
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit == "count"})
    assert mc.cli.main is original
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(jobs)
    assert counts[0]["quadric.quadric_point.calls"] > 0


def test_flip_edges_are_chosen_after_the_json_round_trip():
    mc = bench.import_program()
    f5 = mc.fixture("flower:5")
    flipped = mc.flip(f5, 2)
    reloaded = mc.load(json.dumps(flipped.to_json_dict()))
    assert reloaded.edges != flipped.edges
    target = mc.triangulation.canonical_form(f5)
    back = workloads.edges_to(mc, reloaded, target)
    assert back and all(
        mc.is_isomorphic(mc.flip(reloaded, e), f5) for e in back)
    copy = mc.load(workloads.relabel(flipped, workloads.make_rng("x", 1)))
    assert mc.is_isomorphic(copy, flipped)


@pytest.mark.parametrize("n", [1, 10, 11, 22, 29, 72, 1000])
def test_tail_is_the_highest_percentile_with_ten_jobs_beyond(n):
    times = [float(i) for i in range(n)]
    pct, value = bench.tail(times)
    beyond = sum(1 for t in times if t > value)
    if n <= bench.TAIL_BEYOND:
        assert (pct, value) == (100, times[-1])
        return
    assert beyond >= bench.TAIL_BEYOND
    next_rank = -(-(pct + 1) * n // 100)
    assert n - next_rank < bench.TAIL_BEYOND
