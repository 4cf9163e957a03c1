import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from primegen import ALL_VARIANTS, cli, oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nth_first_prime(capsys):
    code, out, _ = run(capsys, "nth", "--algo", "es", "--n", "1")
    assert code == 0 and out.strip() == "2"


def test_nth_capped_variant_exceeds(capsys):
    code, _, err = run(capsys, "nth", "--algo", "turner", "--n", "1000000")
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


def test_stats_pulls_count_primes_delivered(capsys):
    code, out, _ = run(capsys, "stats", "--algo", "es", "--bound", "100")
    record = json.loads(out)
    assert code == 0 and record["n"] == 25
    assert record["pulls"] == record["n"]


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
# `stats --bound 20000`; every variant reads n = pulls = 2262 there
STATS_AT_20000 = {
    "td": (0, 0, 0, 0),
    "turner": (0, 0, 0, 0),
    "naive-euler": (0, 0, 2628480, 0),
    "bs": (35485, 17737, 154118, 0),
    "bs4": (2748, 2313, 19983, 0),
    "h": (17737, 17737, 98701, 20011),
    "h4": (2313, 2313, 20294, 4579),
    "naive-w": (17737, 17737, 80920, 0),
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
    code, out, _ = run(capsys, "stats", "--algo", name, "--bound", "20000")
    record = json.loads(out)
    record.pop("wall_ns")
    composites, distinct, comparisons, peak = STATS_AT_20000[name]
    assert code == 0
    assert record == {
        "variant": ALL_VARIANTS[name].label, "bound": 20000, "n": 2262,
        "nth_prime": 19997, "composites": composites,
        "distinct_composites": distinct, "comparisons": comparisons,
        "pulls": 2262, "peak_buffer": peak,
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


def test_verify_queue_variants_without_asserts():
    # under -O the subset assert of `s_minus` that EPQ's levels run through
    # is gone; the checks must still pass on the code that remains
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "primegen", "verify",
         "--algo", "on,on4,wpq,wpq4,epq,epq4", "--n", "2000", "--bound", "2000"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize("argv", [
    ("list", "--algo", "on", "--n", "100000"),
    ("verify", "--algo", "on", "--n", "3000", "--bound", "3000"),
])
def test_closed_stdout_ends_quietly(argv):
    # a reader that stops early, as `| head -1` does: no traceback, and
    # one of the documented exit codes
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-m", "primegen", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
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
], ids=["zero-repeats", "negative-repeats", "negative-exponent",
        "garbled-exponents", "negative-list-n", "nth-bound", "count-n",
        "stats-n", "bench-bound", "bench-n", "nth-wheel"])
def test_bad_input_is_usage_error(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1 and message in err


def test_verify_empty_variant_list_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--algo", ",")
    assert code == 1 and "empty variant list" in err


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
    assert int(row[2]) == oracle.nth_prime(32)


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
    assert payload["rows"][0]["p_n"] == oracle.nth_prime(64)
    assert payload["environment"]


def test_paper_time_format():
    assert cli.paper_time(91_300_000_000) == "1'31^3"
    assert cli.paper_time(2_500_000_000) == "2^5"
    assert cli.paper_time(47_700_000_000) == "47^7"
    assert cli.paper_time(334_100_000_000) == "5'34^1"


def test_bench_paper_format(capsys):
    code, out, _ = run(capsys, "bench", "--algo", "td", "--exponents", "5",
                       "--repeats", "1", "--format", "md", "--paper-format")
    assert code == 0 and "^" in out
