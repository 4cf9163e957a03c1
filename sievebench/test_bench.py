"""Tests of the benchmark itself: python3 -m pytest sievebench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
TINY = 64


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    result = run.run(workload, seed=1, seconds=0, trace=trace, n=TINY, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    spans = (tmp_path / ("%s-seed1-trace%d.jsonl" % (workload, trace))).read_text().splitlines()
    assert len([s for s in map(json.loads, spans) if s["kind"] == "op"]) == result["attempted"]
    if trace:
        # the fold runs only in the stream folds, the heap only in the queues;
        # the Euler forms generate each composite exactly once
        assert (values["streams.fold.resumes_per_prime"] > 0) == (workload in ("bird", "euler"))
        assert (values["pq.heap.calls_per_prime"] > 0) == (workload == "queue")
        ratio = values["counters.generated_per_composite"]
        assert ratio == 1.0 if workload in ("euler", "hamming") else ratio > 1.0


FAKES = '''
def wrong(counters=None):
    yield 2
    yield from range(3, 10**9, 2)


def broken(counters=None):
    raise RuntimeError("deliberately broken variant")
'''


def test_wrong_and_broken_variants_count_as_failed(tmp_path, monkeypatch):
    (tmp_path / "fake_variants.py").write_text(FAKES)
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    variants = ["bs4", "fake_variants:wrong", "fake_variants:broken"]
    result = run.run("bird", seed=3, seconds=0, trace=0, variants=variants, n=TINY, out_dir=tmp_path)
    assert result["attempted"] == 3 and result["failed"] == 2 and not result["correct"]
    assert result["metrics"]["primes_per_s"]["value"] > 0


def test_unknown_variant_fails_loudly(tmp_path):
    with pytest.raises(SystemExit, match="unknown variants nope"):
        run.run("bird", seed=1, seconds=0, trace=0, variants=["nope"], n=TINY, out_dir=tmp_path)


@pytest.mark.parametrize("variant", run.VARIANTS)
def test_counters_repeat_exactly(variant):
    def counted():
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "counters", variant, "512"],
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    assert counted() == counted()


def test_self_times_add_up_to_the_untraced_wall():
    t = tracer.Tracer()

    def inner():
        yield from range(100)

    def outer():
        for v in t.iterator("streams.roll", inner()):
            yield v * 2

    add = t.function("pq.heap", lambda a, b: a + b)
    start = tracer._clock()
    for v in t.iterator("streams.fold", outer()):
        add(v, 1)
    wall = tracer._clock() - start

    zero = dict.fromkeys(("resume_in", "resume_out", "call_in", "call_out"), 0)
    report, _ = t.report(zero, wall, wall)
    assert (report["streams.fold"]["resumes"], report["streams.roll"]["resumes"],
            report["pq.heap"]["resumes"]) == (101, 101, 100)
    assert sum(part["self_ns"] for part in report.values()) == wall
    assert all(part["self_ns"] >= 0 for part in report.values())

    unit = dict.fromkeys(zero, 1.0)
    report, calibrated = t.report(unit, wall, wall // 3)
    # each wrapped resume or call is charged once to itself, once to its parent
    assert calibrated == 2 * (101 + 101 + 100)
    assert sum(part["self_ns"] for part in report.values()) == pytest.approx(wall // 3)


def test_calibration_is_positive():
    cost = tracer.calibrate(k=20_000, repeats=3)
    assert cost["resume_in"] + cost["resume_out"] > 0
    assert cost["call_in"] + cost["call_out"] > 0


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "%s/run.py" % HERE.name, "--workload", "bird", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()

