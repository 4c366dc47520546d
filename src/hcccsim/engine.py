"""Deterministic discrete-event engine: virtual clock, event queue, seeded PRNG streams.

Time is an integer count of microseconds since simulation start.  Events are
dispatched in (time, seq) order where seq is the scheduling order, so ties are
broken deterministically.  The PRNG is an explicit xorshift64* generator seeded
through a splitmix64 mix of (seed, stream_id); it does not depend on the
standard library generator, so sequences are identical across platforms.
"""

from heapq import heappush, heappop

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
    """Single-threaded event loop.  A run owns all mutable state."""

    __slots__ = ("now", "_queue", "_seq", "processed")

    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0
        self.processed = 0

    def schedule(self, time, fn, *args):
        if time < self.now:
            raise SchedulingError(
                "event scheduled at t=%d before current clock t=%d" % (time, self.now)
            )
        self._seq = seq = self._seq + 1
        heappush(self._queue, (time, seq, fn, args))

    def run_until(self, limit):
        """Process every event with time <= limit, then set the clock to limit
        (never back); returns the number processed."""
        if limit < self.now:
            raise SchedulingError("run_until(%d) before clock t=%d" % (limit, self.now))
        q = self._queue
        # An event pending now or scheduled during the call ends dispatched or pending.
        uncounted = self._seq - len(q)
        # Not `while q:`: CPython 3.11 specialises this frame only after it warms
        # up on an unconditional back-edge, and `while q:` closes on a conditional one.
        while True:
            if not q:
                break
            time, seq, fn, args = heappop(q)
            if time > limit:
                # Back in the heap with its seq, so its order is kept.
                heappush(q, (time, seq, fn, args))
                break
            self.now = time
            fn(*args)
        count = self._seq - len(q) - uncounted
        self.now = limit
        self.processed += count
        return count

    def pending(self):
        return len(self._queue)

    def clear(self):
        """Drop every pending event."""
        self._queue.clear()
