"""Deterministic discrete-event engine: virtual clock, event queue, seeded PRNG streams.

Time is an integer count of microseconds since simulation start.  Events are
dispatched in (time, seq) order where seq is the scheduling order, so ties are
broken deterministically.  They wait in a calendar queue of 4,096 us buckets
(``Engine``), which dispatches in the order one binary heap of every event
would: the buckets only save the heap's push and pop per event.  The PRNG is
an explicit xorshift64* generator seeded through a splitmix64 mix of
(seed, stream_id); it does not depend on the standard library generator, so
sequences are identical across platforms.
"""

from bisect import insort
from heapq import heappush, heappop

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# An event at t us waits in bucket t >> SLOT_BITS: 4,096 us, about one
# RTS/CTS/DATA/ACK exchange plus DIFS at 1 Mbps (3.7 ms).
SLOT_BITS = 12


class SchedulingError(Exception):
    """Raised when an event is scheduled into the past or a draw range is invalid."""


def _splitmix64(z):
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def keyed_random(seed, receiver, frame):
    """Uniform float in [0, 1), a pure function of (seed, receiver, frame):
    counter-based, after Salmon et al. (SC 2011).  Frame and receiver enter in
    separate mixing rounds, so neither can stand in for the other."""
    z = _splitmix64(_splitmix64(_splitmix64(seed & _MASK64) ^ frame) ^ receiver)
    return z / 18446744073709551616.0


def keyed_seed_mix(seed):
    """The first mixing round of keyed_random, the same for a whole run."""
    return _splitmix64(seed & _MASK64)


def keyed_draw(seed_mix, receiver, frame):
    """keyed_random(seed, receiver, frame) with seed_mix = keyed_seed_mix(seed)."""
    # The two _splitmix64 rounds, written out: this runs once per clean receiver.
    z = ((seed_mix ^ frame) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = ((z ^ (z >> 31) ^ receiver) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) / 18446744073709551616.0


class RandomStream:
    """One independent deterministic random sequence per (seed, stream_id)."""

    __slots__ = ("stream_id", "_state")

    def __init__(self, seed, stream_id=0):
        self.stream_id = stream_id
        state = _splitmix64(_splitmix64(seed & _MASK64) ^ _splitmix64((stream_id + 1) * _GOLDEN))
        if state == 0:
            state = _GOLDEN
        self._state = state

    def next_u64(self):
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF

    def uniform_int(self, lo, hi):
        """Uniform integer in [lo, hi], unbiased via bounded rejection."""
        n = hi - lo + 1
        if n <= 1:
            if n == 1:
                return lo
            raise SchedulingError("uniform_int: lo=%r > hi=%r" % (lo, hi))
        u = self.next_u64()
        if u > 0xFFFFFFFFFFFFFFFF - n:
            u = self.redraw(u, n)
        return lo + (u % n)

    def redraw(self, u, n):
        """u, or the first later draw, below the last multiple of n under 2**64:
        the rejection tail of a draw for n values, needed only if u > 2**64 - 1 - n."""
        if n > 1 << 64:
            raise SchedulingError("uniform_int: more than 2**64 values (%d)" % n)
        limit = (1 << 64) - ((1 << 64) % n)
        while u >= limit:
            u = self.next_u64()
        return u

    def random(self):
        """Uniform float in [0, 1)."""
        u = self.next_u64() / 18446744073709551616.0
        # The top 1024 values of next_u64 round to 1.0: take the float below.
        return u if u < 1.0 else 1.0 - 2.0 ** -53


class Engine:
    """Single-threaded event loop.  A run owns all mutable state.

    Pending events wait in buckets, one per slot of 2**SLOT_BITS us, after
    Brown's calendar queue (CACM 31(10), 1988): a dict from slot number to
    an unsorted list, and a heap of the occupied slot numbers.  run_until
    opens the earliest bucket due by its limit, sorts it once and walks it;
    an event due in the open bucket's slot is inserted into it in order.
    The open slot is never past the clock's, so every other bucket is later.
    Dispatch order is exactly (time, seq), as from one heap of every event.
    """

    __slots__ = ("now", "processed", "_seq", "_taken", "_open", "_open_slot",
                 "_walk", "_buckets", "_slots")

    def __init__(self):
        self.now = 0
        self.processed = 0
        self._seq = 0
        self._taken = 0         # events dispatched or dropped, not in _open
        self._open = []         # the open bucket, sorted, dispatched up to _walk
        self._open_slot = -1
        self._walk = iter(self._open)
        self._buckets = {}
        self._slots = []

    def schedule(self, time, fn, *args):
        if time < self.now:
            raise SchedulingError(
                "event scheduled at t=%d before current clock t=%d" % (time, self.now)
            )
        self._seq = seq = self._seq + 1
        slot = time >> SLOT_BITS
        if slot == self._open_slot:
            insort(self._open, (time, seq, fn, args))
        elif slot in self._buckets:
            self._buckets[slot].append((time, seq, fn, args))
        else:
            self._buckets[slot] = [(time, seq, fn, args)]
            heappush(self._slots, slot)

    def run_until(self, limit):
        """Process every event with time <= limit, then set the clock to limit
        (never back); returns the number processed."""
        if limit < self.now:
            raise SchedulingError("run_until(%d) before clock t=%d" % (limit, self.now))
        # An event pending now or scheduled during the call ends dispatched or pending.
        uncounted = self._seq - self.pending()
        last = limit >> SLOT_BITS
        buckets, slots = self._buckets, self._slots
        bucket, walk = self._open, self._walk
        # Not `while slots:`: CPython 3.11 specialises this frame only after it
        # warms up on unconditional back-edges, and such a loop closes on a
        # conditional one.
        while True:
            for time, _, fn, args in walk:
                if time > limit:
                    # Left at the bucket's head, so its order is kept.
                    done = len(bucket) - walk.__length_hint__() - 1
                    break
                self.now = time
                fn(*args)
            else:
                done = len(bucket)
                if slots and slots[0] <= last:
                    self._taken += done
                    self._open_slot = slot = heappop(slots)
                    bucket = self._open = buckets.pop(slot)
                    bucket.sort()
                    walk = self._walk = iter(bucket)
                    continue
            break
        # An exhausted iterator sees no later insertion: start a new one.
        del bucket[:done]
        self._taken += done
        self._walk = iter(bucket)
        count = self._seq - self.pending() - uncounted
        self.now = limit
        self.processed += count
        return count

    def pending(self):
        return self._seq - self._taken - len(self._open) + self._walk.__length_hint__()

    def clear(self):
        """Drop every pending event."""
        self._taken = self._seq
        self._buckets.clear()
        self._slots.clear()
        self._open.clear()
        self._walk = iter(self._open)
