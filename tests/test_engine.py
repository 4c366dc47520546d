"""Event engine: dispatch order, clock discipline, PRNG streams."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hcccsim
from hcccsim.engine import (Engine, RandomStream, SchedulingError, keyed_draw,
                            keyed_random, keyed_seed_mix)


def test_schedule_at_current_time_dispatches():
    eng = Engine()
    seen = []
    eng.schedule(0, seen.append, "a")
    eng.run_until(0)
    assert seen == ["a"]
    assert eng.now == 0


def test_ties_dispatch_in_scheduling_order():
    eng = Engine()
    seen = []
    for tag in ("first", "second", "third"):
        eng.schedule(50, seen.append, tag)
    eng.run_until(100)
    assert seen == ["first", "second", "third"]


def test_ties_left_past_the_limit_dispatch_in_scheduling_order():
    eng = Engine()
    seen = []
    for tag in ("a", "b", "c"):
        eng.schedule(200, seen.append, tag)
    eng.schedule(50, seen.append, "early")
    eng.schedule(200, seen.append, "d")
    assert eng.run_until(100) == 1
    assert eng.run_until(150) == 0
    eng.schedule(200, seen.append, "e")
    assert eng.run_until(200) == 5
    assert seen == ["early", "a", "b", "c", "d", "e"]
    assert eng.processed == 6


def test_schedule_into_past_is_fatal():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run_until(10)
    with pytest.raises(SchedulingError):
        eng.schedule(5, lambda: None)


def test_run_until_empty_queue_advances_clock():
    eng = Engine()
    assert eng.run_until(100_000_000) == 0
    assert eng.now == 100_000_000


def test_run_until_processes_events_up_to_limit():
    eng = Engine()
    seen = []
    eng.schedule(50_000_000, seen.append, 1)
    eng.schedule(150_000_000, seen.append, 2)
    assert eng.run_until(100_000_000) == 1
    assert seen == [1]
    assert eng.now == 100_000_000
    assert eng.pending() == 1
    eng.clear()
    assert eng.pending() == 0
    assert eng.run_until(200_000_000) == 0
    assert seen == [1]


def test_clock_never_decreases_and_order_is_total():
    eng = Engine()
    times = []

    def record():
        times.append(eng.now)
        # chain a few more events from inside handlers
        if len(times) < 50:
            eng.schedule(eng.now + (len(times) * 7) % 13, record)

    eng.schedule(3, record)
    eng.schedule(3, record)
    eng.schedule(1, record)
    eng.run_until(10_000)
    assert times == sorted(times)


def test_same_stream_reproduces_sequence():
    a = RandomStream(42, 7)
    b = RandomStream(42, 7)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_stream_ids_differ():
    a = RandomStream(42, 0)
    b = RandomStream(42, 1)
    assert [a.next_u64() for _ in range(100)] != [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    a = RandomStream(1, 0)
    b = RandomStream(2, 0)
    assert [a.next_u64() for _ in range(100)] != [b.next_u64() for _ in range(100)]


def test_uniform_int_degenerate_range():
    s = RandomStream(9)
    assert s.uniform_int(3, 3) == 3


def test_uniform_int_invalid_range_fatal():
    s = RandomStream(9)
    with pytest.raises(SchedulingError):
        s.uniform_int(5, 4)


def test_uniform_int_full_64_bit_range():
    # 2**64 values: every draw is kept, so the result is the raw draw.
    assert RandomStream(9).uniform_int(0, 2**64 - 1) == RandomStream(9).next_u64()


def test_uniform_int_range_past_64_bits_fatal():
    # No multiple of such a range lies below 2**64, so a rejection loop would
    # never end; the draw runs in a child process, where a hang fails.
    code = ("from hcccsim.engine import RandomStream, SchedulingError\n"
            "try:\n"
            "    RandomStream(1).uniform_int(0, 2**64)\n"
            "except SchedulingError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('uniform_int(0, 2**64) returned')\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(hcccsim.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=30,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_uniform_int_bounds():
    s = RandomStream(123)
    draws = [s.uniform_int(0, 62) for _ in range(10_000)]
    assert min(draws) >= 0
    assert max(draws) <= 62


def test_uniform_int_frequencies_within_5_sigma():
    # 1e5 draws over [0, 62]: each bucket within 5 binomial sigmas of n/63.
    s = RandomStream(2024)
    n = 100_000
    counts = [0] * 63
    for _ in range(n):
        counts[s.uniform_int(0, 62)] += 1
    expected = n / 63.0
    sigma = math.sqrt(n * (1.0 / 63.0) * (62.0 / 63.0))
    for v, c in enumerate(counts):
        assert abs(c - expected) < 5 * sigma, "bucket %d count %d" % (v, c)


def test_random_unit_interval():
    s = RandomStream(5)
    vals = [s.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6


def test_keyed_random_is_a_pure_function_of_its_key():
    assert keyed_random(3, 5, 7) == keyed_random(3, 5, 7)
    assert 0.0 <= keyed_random(3, 5, 7) < 1.0
    assert len({keyed_random(3, 5, 7), keyed_random(4, 5, 7),
                keyed_random(3, 7, 5), keyed_random(3, 5, 8),
                keyed_random(3, 6, 7)}) == 5


def test_keyed_draw_from_a_seed_mix_equals_keyed_random():
    # Seeds at and past 2**64 and below 0 check that the mix masks the seed
    # to 64 bits as keyed_random does.
    for seed in (0, 1, 7, 2**63, 2**64 - 1, 2**64, 2**64 + 5, 3 * 2**64 + 11,
                 -1, -12345):
        mix = keyed_seed_mix(seed)
        for receiver in (0, 1, 2, 99, 1599):
            for frame in (0, 1, 2, 1000, 2**31, 2**40):
                assert (keyed_draw(mix, receiver, frame)
                        == keyed_random(seed, receiver, frame))


def test_keyed_random_hits_and_neighbouring_keys_within_5_sigma():
    # 200 k keys (100 receivers x 2000 frames) at p = 0.2.  The hit fraction
    # must lie within 5 binomial sigmas of p (+-0.0045), and the pairs
    # (r, k), (r, k + 1) and (r, k), (r + 1, k) must both hit with frequency
    # p^2 within 5 sigmas, so neighbouring keys are not correlated.
    p = 0.2
    hit = [[keyed_random(11, r, k) < p for k in range(1, 2001)]
           for r in range(100)]

    def within_5_sigma(events, q):
        n = len(events)
        assert abs(sum(events) / n - q) <= 5 * math.sqrt(q * (1 - q) / n)

    within_5_sigma([h for row in hit for h in row], p)
    within_5_sigma([a and b for row in hit for a, b in zip(row, row[1:])],
                   p * p)
    within_5_sigma([a and b for r0, r1 in zip(hit, hit[1:])
                    for a, b in zip(r0, r1)], p * p)
