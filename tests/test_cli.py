import itertools
import json
import platform
import subprocess
import sys
import time

import pytest

from conftest import fresh_env, run_python
from primegen import ALL_VARIANTS, cli, oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fresh_import_loads_only_the_sieve_modules():
    # the benchmark child imports `primegen`: keep `cli` and `oracle` out
    result = run_python("-c", "import sys, primegen; print(' '.join(sorted("
                        "m for m in sys.modules if m.split('.')[0] == 'primegen')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "primegen", "primegen.hamming", "primegen.pq", "primegen.sieves",
        "primegen.streams", "primegen.wheels",
    ]


def test_nth_first_prime(capsys):
    code, out, _ = run(capsys, "nth", "--algo", "es", "--n", "1")
    assert code == 0 and out.strip() == "2"


def test_nth_capped_variant_exceeds(capsys):
    code, _, err = run(capsys, "nth", "--algo", "naive-euler", "--n", "1000000")
    assert code == 2 and "capped" in err


def test_unknown_variant_is_usage_error(capsys):
    code, _, err = run(capsys, "nth", "--algo", "nope", "--n", "3")
    assert code == 1 and "unknown variant" in err


def test_missing_n_is_usage_error(capsys):
    code, _, _ = run(capsys, "nth", "--algo", "es")
    assert code == 1


def test_bad_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "nth", "--bogus", "1")
    assert code == 1


def test_list_first_five(capsys):
    code, out, _ = run(capsys, "list", "--algo", "h", "--n", "5")
    assert code == 0 and out.split() == ["2", "3", "5", "7", "11"]


def test_list_bound(capsys):
    code, out, _ = run(capsys, "list", "--algo", "on", "--bound", "30")
    assert code == 0
    assert [int(v) for v in out.split()] == oracle.primes_up_to(30)


def test_list_n_and_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "list", "--algo", "on", "--n", "5",
                         "--bound", "30")
    assert code == 1 and out == "" and "not both" in err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--algo", "epq", "--bound", "100")
    assert code == 0 and out.strip() == "25"


def test_stats_small_wheel_sieve(capsys):
    code, out, _ = run(capsys, "stats", "--algo", "w", "--bound", "10")
    assert code == 0
    record = json.loads(out)
    assert record["variant"] == "W"
    assert record["composites"] == 5  # {4, 6, 8, 9, 10}
    assert record["distinct_composites"] == 5
    assert record["n"] == 4 and record["nth_prime"] == 7


def test_stats_bird_sum_of_multiplicities(capsys):
    code, out, _ = run(capsys, "stats", "--algo", "bs", "--bound", "300")
    record = json.loads(out)
    want = sum(oracle.bird_multiplicity(c) for c in oracle.composites_up_to(300))
    assert code == 0 and record["composites"] == want


def test_stats_deterministic_apart_from_timing(capsys):
    code1, out1, _ = run(capsys, "stats", "--algo", "es", "--bound", "500")
    code2, out2, _ = run(capsys, "stats", "--algo", "es", "--bound", "500")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("wall_ns"), b.pop("wall_ns")
    assert a == b


# composites, distinct_composites, comparisons and peak_buffer at
# `stats --bound 20000`; every uncapped variant reads n = 2262 there
STATS_AT_20000 = {
    "td": (0, 0, 0, 0),
    "bs": (35485, 17737, 154118, 0),
    "bs4": (2748, 2313, 19983, 0),
    "h": (17737, 17737, 98701, 20011),
    "h4": (2313, 2313, 20294, 4579),
    "w": (17737, 17737, 80920, 1962),
    "w4": (2313, 2313, 17949, 1950),
    "es": (17737, 17737, 97391, 0),
    "es4": (2313, 2313, 20051, 0),
    "on": (35485, 17737, 0, 0),
    "on4": (2748, 2313, 0, 0),
    "epq": (17737, 17737, 16469, 0),
    "epq4": (2313, 2313, 2100, 0),
    "wpq": (17737, 17737, 0, 1962),
    "wpq4": (2313, 2313, 0, 1950),
}


@pytest.mark.parametrize("name", list(ALL_VARIANTS))
def test_stats_record_is_pinned(capsys, name):
    code, out, err = run(capsys, "stats", "--algo", name, "--bound", "20000")
    if ALL_VARIANTS[name].cap is not None:
        # a capped variant stops short of the bound's 2262 primes
        assert ALL_VARIANTS[name].cap < 2262 and name not in STATS_AT_20000
        assert code == 2 and out == "" and "capped" in err
        return
    record = json.loads(out)
    record.pop("wall_ns")
    composites, distinct, comparisons, peak = STATS_AT_20000[name]
    assert code == 0
    assert record == {
        "variant": ALL_VARIANTS[name].label, "bound": 20000, "n": 2262,
        "nth_prime": 19997, "composites": composites,
        "distinct_composites": distinct, "comparisons": comparisons,
        "peak_buffer": peak,
    }


def test_verify_single_variant(capsys):
    code, out, _ = run(capsys, "verify", "--algo", "td", "--n", "500",
                       "--bound", "500")
    assert code == 0
    assert "PASS td/oracle" in out
    assert "PASS wheels" in out
    assert "PASS euler-sets" in out


def test_verify_bound_below_the_tenth_prime(capsys):
    # 10 holds four primes, so the set induction runs four rounds
    code, out, _ = run(capsys, "verify", "--algo", "es", "--n", "10",
                       "--bound", "10")
    assert code == 0
    assert "PASS euler-sets" in out and "4 rounds" in out


def test_verify_euler_variant_gets_tally_check(capsys):
    code, out, _ = run(capsys, "verify", "--algo", "es", "--n", "300",
                       "--bound", "300")
    assert code == 0 and "PASS es/exactly-once" in out


def test_verify_pq_variant_gets_queue_check(capsys):
    code, out, _ = run(capsys, "verify", "--algo", "wpq", "--n", "2000",
                       "--bound", "500")
    assert code == 0 and "PASS wpq/queue" in out


def test_queue_shape_is_exact_at_small_n():
    # below 11**2 on the wheel and 2**2 bare, the queue is empty
    for variant in ALL_VARIANTS.values():
        if variant.family == "pq":
            for n in range(1, 41):
                cli._check_pq_shape(variant, n)


def test_verify_queue_check_before_the_first_wheel_square(capsys):
    code, out, _ = run(capsys, "verify", "--algo", "on4", "--n", "5",
                       "--bound", "100")
    assert code == 0 and "PASS on4/queue" in out


def test_verify_exactly_once_reports_the_composites_it_checked(capsys):
    # the wheel leaves no composite up to 100: 11**2 is the first
    code, out, _ = run(capsys, "verify", "--algo", "es,es4", "--n", "5",
                       "--bound", "100")
    lines = {line.split()[1]: line.split(None, 2)[2]
             for line in out.splitlines()}
    assert code == 0
    assert lines["es/exactly-once"] == (
        "74 composites up to 100, each generated exactly once")
    assert lines["es4/exactly-once"] == (
        "0 210-coprime composites up to 100, each generated exactly once")


def test_verify_queue_variants_without_asserts():
    # under -O the subset assert of `s_minus` that EPQ's levels run through
    # is gone; the checks must still pass on the code that remains
    proc = run_python(
        "-O", "-m", "primegen", "verify", "--algo", "on,on4,wpq,wpq4,epq,epq4",
        "--n", "2000", "--bound", "2000", timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize("argv", [
    ("list", "--algo", "on", "--n", "100000"),
    ("verify", "--algo", "on", "--n", "3000", "--bound", "3000"),
])
def test_closed_stdout_ends_quietly(argv):
    # a reader that stops early, as `| head -1` does: no traceback, and
    # one of the documented exit codes
    proc = subprocess.Popen([sys.executable, "-m", "primegen", *argv],
                            env=fresh_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) in {0, 1, 2, 3}
    assert err == b""


@pytest.mark.parametrize("argv, message", [
    (("bench", "--algo", "td", "--repeats", "0"), "--repeats must be >= 1"),
    (("bench", "--algo", "td", "--repeats", "-2"), "--repeats must be >= 1"),
    (("bench", "--algo", "td", "--exponents", "-1"), "bad exponent spec '-1'"),
    (("bench", "--algo", "td", "--exponents", "x..5"), "bad exponent spec 'x..5'"),
    (("list", "--algo", "td", "--n", "-3"), "--n must be >= 0"),
    (("nth", "--algo", "es", "--n", "10", "--bound", "3"),
     "unrecognized arguments"),
    (("count", "--algo", "es", "--bound", "100", "--n", "5"),
     "unrecognized arguments"),
    (("stats", "--algo", "es", "--bound", "100", "--n", "3"),
     "unrecognized arguments"),
    (("bench", "--algo", "td", "--bound", "7"), "unrecognized arguments"),
    (("bench", "--algo", "td", "--n", "64"), "unrecognized arguments"),
    (("nth", "--algo", "w", "--wheel", "4", "--n", "100"),
     "unrecognized arguments"),
    (("verify", "--algo", "on", "--n", "0"), "--n must be >= 1"),
    (("verify", "--algo", "on", "--n", "-3"), "--n must be >= 1"),
    (("verify", "--algo", "on", "--n", "100", "--bound", "0"),
     "--bound must be >= 2"),
    (("verify", "--algo", "on", "--n", "100", "--bound", "-7"),
     "--bound must be >= 2"),
    (("bench", "--algo", "td", "--timeout", "nan"),
     "--timeout must be positive and finite"),
    (("bench", "--algo", "td", "--timeout", "inf"),
     "--timeout must be positive and finite"),
    (("bench", "--algo", "td", "--timeout", "0"),
     "--timeout must be positive and finite"),
    (("bench", "--algo", "td", "--timeout", "-1"),
     "--timeout must be positive and finite"),
    (("bench", "--algo", "td", "--exponents", ""), "bad exponent spec ''"),
    (("bench", "--algo", "td", "--exponents", ","), "bad exponent spec ','"),
    (("layers", "--algo", "w"), "unrecognized arguments"),
    (("layers", "--exponents", "5"), "unrecognized arguments"),
    (("layers", "--timeout", "1"), "unrecognized arguments"),
    (("layers", "--paper-format"), "unrecognized arguments"),
    (("bench", "--layers"), "unrecognized arguments"),
    (("nth", "--algo", "es", "--n", "x"), "invalid int value: 'x'"),
    (("bench", "--algo", "td", "--timeout", "x"), "invalid float value: 'x'"),
    (("bench", "--algo", "td", "--repeats", "x"), "invalid int value: 'x'"),
    (("bench", "--algo", "td", "--paper-format"), "unrecognized arguments"),
], ids=["zero-repeats", "negative-repeats", "negative-exponent",
        "garbled-exponents", "negative-list-n", "nth-bound", "count-n",
        "stats-n", "bench-bound", "bench-n", "nth-wheel", "verify-zero-n",
        "verify-negative-n", "verify-zero-bound", "verify-negative-bound",
        "nan-timeout", "infinite-timeout", "zero-timeout",
        "negative-timeout", "empty-exponents", "comma-exponents",
        "layers-algo", "layers-exponents", "layers-timeout", "layers-paper",
        "bench-layers", "text-n", "text-timeout", "text-repeats",
        "bench-paper-format"])
def test_bad_input_is_usage_error(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1 and message in err


def test_verify_empty_variant_list_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--algo", ",")
    assert code == 1 and "empty variant list" in err


def test_verify_runs_every_check_by_default(capsys):
    code, out, _ = run(capsys, "verify", "--n", "300", "--bound", "300")
    checks = {line.split()[1] for line in out.splitlines()
              if line.startswith("PASS ")}
    assert code == 0 and checks == {
        *("%s/oracle" % name for name in ALL_VARIANTS), "wheels",
        "euler-sets", *("%s/exactly-once" % name for name in cli.EULER_VARIANTS),
        *("%s/queue" % name for name, variant in ALL_VARIANTS.items()
          if variant.family == "pq")}
    assert len(checks) == len(out.splitlines()) == 34


def test_verify_failure_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "first_primes", lambda n: list(range(n)))
    code, out, _ = run(capsys, "verify", "--algo", "td", "--n", "50",
                       "--bound", "100")
    assert code == 3 and "FAIL td/oracle" in out


def test_verify_crashing_check_is_reported(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "first_primes", lambda n: list(range(n)))
    code, out, _ = run(capsys, "verify", "--algo", "td", "--n", "50",
                       "--bound", "100")
    lines = {line.split()[1]: line for line in out.splitlines()}
    assert code == 3
    assert lines["wheels"].startswith("FAIL")
    assert "crashed: StreamError: cannot merge an empty wheel" in lines["wheels"]
    assert lines["euler-sets"].startswith("FAIL")
    assert "crashed: ZeroDivisionError" in lines["euler-sets"]


def test_verify_wheel_variant_exactly_once(capsys):
    code, out, _ = run(capsys, "verify", "--algo", "es4", "--n", "300",
                       "--bound", "300")
    assert code == 0 and "PASS es4/exactly-once" in out


def test_bench_markdown_header_in_table_order(capsys):
    code, out, _ = run(capsys, "bench", "--algo", "td,bs,bs4,h,w,es,h4,w4,es4",
                       "--exponents", "6", "--repeats", "1", "--format", "md")
    assert code == 0
    header = next(line for line in out.splitlines() if line.startswith("| n"))
    assert header == "| n | TD | BS | BS4 | H | W | ES | H4 | W4 | ES4 |"


def test_bench_csv_columns(capsys):
    code, out, _ = run(capsys, "bench", "--algo", "es", "--exponents", "5,6",
                       "--repeats", "1", "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "variant,n,p_n,wall_ns"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "ES" and row[1] == "32"
    assert int(row[2]) == oracle.first_primes(32)[-1]


def test_bench_timeout_marks_dash(capsys):
    code, out, _ = run(capsys, "bench", "--algo", "bs", "--exponents", "14",
                       "--repeats", "1", "--timeout", "0.0000001",
                       "--format", "md")
    assert code == 0
    row = [line for line in out.splitlines() if line.startswith("| 16384")][0]
    assert "-" in row.replace("16384", "")


def test_bench_json(capsys):
    code, out, _ = run(capsys, "bench", "--algo", "wpq4", "--exponents", "6",
                       "--repeats", "2", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["rows"][0]["variant"] == "WPQ4"
    assert payload["rows"][0]["p_n"] == oracle.first_primes(64)[-1]
    assert payload["environment"]


def test_paper_time_format():
    assert cli.paper_time(91_300_000_000) == "1'31^3"
    assert cli.paper_time(2_500_000_000) == "2^5"
    assert cli.paper_time(47_700_000_000) == "47^7"
    assert cli.paper_time(334_100_000_000) == "5'34^1"


def test_bench_paper_format(capsys):
    code, out, _ = run(capsys, "bench", "--algo", "td", "--exponents", "5",
                       "--repeats", "1", "--format", "paper")
    assert code == 0 and "^" in out


def test_bench_runs_a_repeated_exponent_once(capsys):
    code, out, _ = run(capsys, "bench", "--algo", "td", "--exponents", "5,5",
                       "--repeats", "1", "--format", "csv")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "variant,n,p_n,wall_ns"
    assert [line.split(",")[:3] for line in lines[1:]] == [["TD", "32", "131"]]


def test_bench_layers_csv(capsys):
    code, out, _ = run(capsys, "layers", "--repeats", "1",
                       "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "layer,elements,ns_per_element"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["merge", "difference", "fold", "heap"]
    # each input element of the merge and the difference is pulled once;
    # a fold element is pulled once per node it crosses
    n = cli._LAYER_N
    assert [int(row[1]) for row in rows[:2]] == [2 * n, 3 * n]
    assert int(rows[2][1]) > n - cli._FOLD_LEVELS
    assert all(float(row[2]) > 0 for row in rows)


def test_bench_layers_json(capsys):
    code, out, _ = run(capsys, "layers", "--repeats", "1",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["environment"]
    assert [row["layer"] for row in payload["layers"]] == [
        "merge", "difference", "fold", "heap"]


# `bench` and `layers` output under a clock that reads one second
# later at each call: each n = 32 run reads 2 s (its start, its deadline
# check, its end), each n = 4096 run passes the 1.5 s deadline at its
# second check, and each layer drain reads 1 s
PINNED_BENCH = ("bench", "--algo", "naive-euler,es,td", "--exponents", "5,12",
                "--repeats", "2", "--timeout", "1.5")
PINNED_LAYERS = ("layers", "--repeats", "2")
PINNED_ENV = "Linux-test / Python 3.x"
PINNED_ROWS = [("TD", 32, 131, 2_000_000_000),
               ("ES", 32, 131, 2_000_000_000),
               ("NAIVE_EULER", 32, 131, 2_000_000_000)]
PINNED_LAYER_ROWS = [("merge", 131072, 7629.4), ("difference", 196608, 5086.3),
                     ("fold", 605616, 1651.2), ("heap", 1086309, 920.5)]
PINNED_OUTPUT = {
    "md": (
        "<!-- Linux-test / Python 3.x; median of 2 runs, ms -->\n"
        "| n | TD | ES | NAIVE_EULER |\n"
        "|---|---|---|---|\n"
        "| 32 | 2000.0 | 2000.0 | 2000.0 |\n"
        "| 4096 | - | - | - |\n",
        "<!-- Linux-test / Python 3.x -->\n"
        "| layer | elements | ns/element |\n"
        "|---|---|---|\n"
        "| merge | 131072 | 7629.4 |\n"
        "| difference | 196608 | 5086.3 |\n"
        "| fold | 605616 | 1651.2 |\n"
        "| heap | 1086309 | 920.5 |\n"),
    "csv": (
        "variant,n,p_n,wall_ns\n"
        "TD,32,131,2000000000\n"
        "ES,32,131,2000000000\n"
        "NAIVE_EULER,32,131,2000000000\n"
        "TD,4096,,-\n"
        "ES,4096,,-\n"
        "NAIVE_EULER,4096,,-\n",
        "layer,elements,ns_per_element\n"
        "merge,131072,7629.4\n"
        "difference,196608,5086.3\n"
        "fold,605616,1651.2\n"
        "heap,1086309,920.5\n"),
    "json": (
        json.dumps({
            "environment": PINNED_ENV, "repeats": 2,
            "rows": [dict(zip(("variant", "n", "p_n", "wall_ns"), row))
                     for row in PINNED_ROWS],
            "timeouts": [["TD", 4096], ["ES", 4096], ["NAIVE_EULER", 4096]],
        }, indent=2) + "\n",
        json.dumps({"environment": PINNED_ENV, "layers": [
            dict(zip(("layer", "elements", "ns_per_element"), row))
            for row in PINNED_LAYER_ROWS]}, indent=2) + "\n"),
}


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_bench_output_is_pinned(capsys, monkeypatch, fmt):
    ticks = itertools.count(0, 10**9)
    monkeypatch.setattr(time, "perf_counter_ns", lambda: next(ticks))
    monkeypatch.setattr(platform, "platform", lambda: "Linux-test")
    monkeypatch.setattr(platform, "python_version", lambda: "3.x")
    for argv, want in zip((PINNED_BENCH, PINNED_LAYERS), PINNED_OUTPUT[fmt]):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0 and out == want


def test_verify_runs_a_repeated_variant_once(capsys):
    code, out, _ = run(capsys, "verify", "--algo", "es,es", "--n", "100",
                       "--bound", "100")
    checks = [line.split()[1] for line in out.splitlines()]
    assert code == 0 and "es/exactly-once" in checks
    assert len(checks) == len(set(checks))
