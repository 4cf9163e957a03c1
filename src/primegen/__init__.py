"""primegen: lazy stream-based prime sieves.

A family of Euler's Sieve and Sieve of Eratosthenes variants built on one
shared lazy ordered-stream kernel, plus brute-force oracles and a CLI
(`primegen`) that checks cross-algorithm equivalence, verifies that the
Euler variants generate each composite exactly once, and benchmarks all
variants at desk scale.

>>> from primegen import es_euler, take
>>> take(es_euler(), 10)
[2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
"""

__version__ = "0.1.0"

from .hamming import composites_of_primes, hamming_stream
from .pq import CompositePQ, PQ_VARIANTS, epq_sieve, oneill_sieve, wpq_sieve
from .sieves import (
    STREAM_VARIANTS,
    VariantCapExceeded,
    bird_sieve,
    bird_sieve_w4,
    es_euler,
    es_euler_w4,
    naive_euler,
    primes_h,
    primes_h4,
    trial_division,
    wheel_euler,
    wheel_euler_w4,
)
from .streams import (
    NonProductiveStream,
    RunCounters,
    StreamError,
    StreamFixpoint,
    StreamOverflow,
    U64_MAX,
    d_union,
    fix_stream,
    fold_union_p,
    minus,
    replay,
    s_minus,
    scaled,
    take,
    union,
)
from .wheels import (
    Wheel,
    next_wheel,
    next_wheel1,
    s4_stream,
    wheel_from_primes,
    wheel4,
)

ALL_VARIANTS = {**STREAM_VARIANTS, **PQ_VARIANTS}
