"""Event engine: dispatch order, clock discipline, PRNG streams."""

import heapq
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hcccsim
from hcccsim.engine import (SLOT_BITS, Engine, RandomStream, SchedulingError,
                            keyed_draw, keyed_random, keyed_seed_mix)


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


def test_run_until_before_the_clock_is_fatal():
    # The clock never goes back: an event scheduled after such a call would
    # be dispatched before a time the clock had already passed.
    eng = Engine()
    eng.run_until(20)
    with pytest.raises(SchedulingError):
        eng.run_until(5)
    assert eng.now == 20
    eng.schedule(20, lambda: None)
    assert eng.run_until(20) == 1


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


class HeapEngine:
    """The reference queue: every pending event in one heap of
    (time, seq, fn, args) tuples."""

    def __init__(self):
        self.now = 0
        self.processed = 0
        self.seq = 0
        self.queue = []

    def schedule(self, time, fn, *args):
        assert time >= self.now
        self.seq += 1
        heapq.heappush(self.queue, (time, self.seq, fn, args))

    def run_until(self, limit):
        count = 0
        while self.queue and self.queue[0][0] <= limit:
            time, _, fn, args = heapq.heappop(self.queue)
            self.now = time
            fn(*args)
            count += 1
        self.now = limit
        self.processed += count
        return count

    def pending(self):
        return len(self.queue)

    def clear(self):
        self.queue.clear()


SLOT = 1 << SLOT_BITS


def offset(rng):
    """A time offset: the same instant, inside one slot, a slot boundary or
    many slots ahead."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randrange(1, SLOT)
    if kind == 2:
        return rng.randrange(1, 4) * SLOT - rng.randrange(2)
    return rng.randrange(SLOT, 60 * SLOT)


def run_program(seed, eng, seen):
    """One seeded program of schedule / run_until / clear calls; yields the
    name of each call after it returns.  seen collects a handler's tag, the
    clock and pending() each time one runs."""
    rng = random.Random(seed)
    tags = iter(range(10 ** 9))

    def handler(tag, follow_ups):
        seen.append((tag, eng.now, eng.pending()))
        # A handler schedules from a stream of its own, so both queues
        # see the same calls as long as they dispatch in the same order.
        child = random.Random(tag)
        for _ in range(follow_ups):
            eng.schedule(eng.now + offset(child), handler, next(tags),
                         child.randrange(3) // 2)

    for _ in range(200):
        step = rng.random()
        if step < 0.6:
            eng.schedule(eng.now + offset(rng), handler, next(tags),
                         rng.randrange(4))
            yield "schedule"
        elif step < 0.97:
            yield "run_until", eng.run_until(eng.now + offset(rng))
        else:
            eng.clear()
            yield "clear"


@pytest.mark.parametrize("seed", range(40))
def test_dispatch_order_matches_one_heap(seed):
    seen, ref_seen = [], []
    eng, ref = Engine(), HeapEngine()
    calls = run_program(seed, eng, seen)
    ref_calls = run_program(seed, ref, ref_seen)
    for step, ref_step in zip(calls, ref_calls):
        assert (step, seen) == (ref_step, ref_seen)
        assert (eng.now, eng.processed, eng.pending()) == (
            ref.now, ref.processed, ref.pending())
    assert eng.processed > 0


class CoveredEngine(Engine):
    """An Engine that counts the calendar's edge cases as they happen."""

    __slots__ = ("cover", "times", "running")

    def __init__(self):
        super().__init__()
        self.cover = dict.fromkeys(("tie", "handler into open", "far ahead",
                                    "limit inside", "after a stop, first"), 0)
        self.times = set()
        self.running = False

    def schedule(self, time, fn, *args):
        slot, cover = time >> SLOT_BITS, self.cover
        cover["tie"] += time in self.times
        cover["handler into open"] += self.running and slot == self._open_slot
        cover["far ahead"] += slot >= (self.now >> SLOT_BITS) + 8
        # Due before every pending event, after run_until stopped in a bucket.
        head = len(self._open) - self._walk.__length_hint__()
        cover["after a stop, first"] += (not self.running
                                         and head < len(self._open)
                                         and time < self._open[head][0])
        self.times.add(time)
        super().schedule(time, fn, *args)

    def run_until(self, limit):
        self.running = True
        count = super().run_until(limit)
        self.running = False
        self.cover["limit inside"] += self._walk.__length_hint__() > 0
        return count


def test_programs_cover_the_calendar_edges():
    # The programs above hold same-instant ties, handlers that schedule into
    # the open bucket, times many slots ahead, run_until limits inside a
    # bucket, and schedules after such a stop due before the bucket's head.
    total = {}
    for seed in range(40):
        eng = CoveredEngine()
        for _ in run_program(seed, eng, []):
            pass
        for key, n in eng.cover.items():
            total[key] = total.get(key, 0) + n
    assert all(total.values()), total


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason=(
    "only CPython 3.11 specialises a frame after it warms up: 3.10 does "
    "not specialise, and 3.12+ quickens code when it is created"))
def test_one_run_until_call_runs_specialised_bytecode():
    # A run enters run_until once, so its loop must warm up on its own
    # back-edge.  The call runs in a fresh interpreter: in this one, earlier
    # tests have already warmed run_until up through their calls.
    code = ("import dis\n"
            "from hcccsim.engine import Engine\n"
            "eng = Engine()\n"
            "def tick(n):\n"
            "    if n:\n"
            "        eng.schedule(eng.now + 1, tick, n - 1)\n"
            "for _ in range(3):\n"
            "    eng.schedule(0, tick, 100)\n"
            "assert eng.run_until(10**6) == 303\n"
            "print(' '.join(i.opname for i in\n"
            "               dis.get_instructions(Engine.run_until, adaptive=True)))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(hcccsim.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=30,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    opnames = set(proc.stdout.split())
    assert {"UNPACK_SEQUENCE_TUPLE", "STORE_ATTR_SLOT"} <= opnames, sorted(opnames)


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


def test_random_stays_below_one_at_the_top_draws(monkeypatch):
    # The top 1024 values of next_u64 divide to exactly 1.0; they give the
    # largest float below 1 instead, and every lower value keeps its float.
    s = RandomStream(5)
    monkeypatch.setattr(RandomStream, "next_u64", lambda self: 2 ** 64 - 1)
    assert s.random() == math.nextafter(1.0, 0.0)
    assert math.isfinite(-math.log(1.0 - s.random()))
    monkeypatch.setattr(RandomStream, "next_u64", lambda self: 2 ** 64 - 1025)
    assert s.random() == (2 ** 64 - 1025) / 18446744073709551616.0


def test_redraw_keeps_a_tail_draw_below_the_last_multiple(monkeypatch):
    # 2**64 % 1000 == 616: of the draws within 1000 of 2**64, those from
    # 2**64 - 616 up are redrawn, the ones below are kept.
    s = RandomStream(5)
    assert s.redraw(2 ** 64 - 617, 1000) == 2 ** 64 - 617
    following = RandomStream(5).next_u64()
    assert s.redraw(2 ** 64 - 616, 1000) == following
    monkeypatch.setattr(RandomStream, "next_u64", lambda self: 2 ** 64 - 700)
    assert s.uniform_int(0, 999) == (2 ** 64 - 700) % 1000


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
