import os
import subprocess
import sys
import tracemalloc
from collections import deque
from functools import cache
from itertools import islice
from pathlib import Path

import pytest

from primegen import ALL_VARIANTS, oracle

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_env():
    """The environment with this checkout's `src` first on PYTHONPATH, so a
    fresh interpreter imports the `primegen` under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def run_python(*args, timeout=120):
    """`python *args` run to its end in a fresh interpreter, output as text."""
    return subprocess.run([sys.executable, *args], env=fresh_env(),
                          capture_output=True, text=True, timeout=timeout)


@cache
def traced_peak(name, n):
    """tracemalloc's peak, in bytes, while variant `name` yields its first n
    primes; each (name, n) runs once per session."""
    tracemalloc.start()
    try:
        deque(islice(ALL_VARIANTS[name].factory(), n), maxlen=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def primes100k():
    return oracle.first_primes(100_000)


@pytest.fixture(scope="session")
def primes10k(primes100k):
    return primes100k[:10_000]


@pytest.fixture(scope="session")
def composites100k():
    return oracle.composites_up_to(100_000)
