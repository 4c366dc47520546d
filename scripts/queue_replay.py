"""Replay one benchmark run's event-queue traffic through the engine and a heap.

    python3 scripts/queue_replay.py --workload hccc_default
    python3 scripts/queue_replay.py --workload aimd_lossy_large --repeats 7

The script runs a workload once as ``bench/pipeline.py`` builds it (its
config, its fixed field, seed 1 unless ``--seed`` says otherwise) and
records the run's queue traffic: the time of every ``Engine.schedule``
call, which event's handler made it, the ``run_until`` limit, and the order
the events were dispatched in.  It then replays that traffic with handlers
that make only the recorded schedule calls, through three queues:

* ``hcccsim.engine.Engine``, the calendar queue;
* ``HeapQueue``, one binary heap of every event, written as ``Engine`` was
  before its buckets;
* ``EmptyLoop``, no queue: its ``run_until`` walks the recorded dispatch
  order and its ``schedule`` keeps nothing, so it costs the replay's own
  calls and no queue work.

It exits with an error unless the engine and the heap both dispatch in the
recorded order and leave as many events pending.  Each replay runs
``--repeats`` times, the three queues alternating, and the script prints
the median cost per dispatched event of each queue and, for the two real
queues, that cost above the empty loop.  The script writes no file.
"""

import argparse
import os
import statistics
import sys
import time
from array import array
from heapq import heappop, heappush

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from pipeline import WORKLOADS, build_simulation, workload_config  # noqa: E402
from hcccsim.engine import Engine, SchedulingError  # noqa: E402


class HeapQueue:
    """The reference queue: every pending event in one heap of
    (time, seq, fn, args) tuples."""

    __slots__ = ("now", "_queue", "_seq")

    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0

    def schedule(self, time, fn, *args):
        if time < self.now:
            raise SchedulingError("t=%d before t=%d" % (time, self.now))
        self._seq = seq = self._seq + 1
        heappush(self._queue, (time, seq, fn, args))

    def run_until(self, limit):
        q = self._queue
        while True:
            if not q:
                break
            time, seq, fn, args = heappop(q)
            if time > limit:
                heappush(q, (time, seq, fn, args))
                break
            self.now = time
            fn(*args)
        self.now = limit

    def pending(self):
        return len(self._queue)


class EmptyLoop:
    """No queue: run_until calls handler(k) for each recorded event k in
    dispatch order, at its recorded time; schedule checks the clock and
    keeps nothing."""

    __slots__ = ("now", "_handler", "_times", "_order")

    def __init__(self, handler, times, order):
        self.now = 0
        self._handler, self._times, self._order = handler, times, order

    def schedule(self, time, fn, *args):
        if time < self.now:
            raise SchedulingError("t=%d before t=%d" % (time, self.now))

    def run_until(self, limit):
        handler, times = self._handler, self._times
        for k in self._order:
            self.now = times[k]
            handler(k)
        self.now = limit


def record(workload, seed):
    """Run the workload once; returns (times, lo, hi, order, limit).  Event
    k >= 1 is the k-th schedule call, at times[k]; its handler made the
    calls lo[k] to hi[k] - 1, and calls lo[0] to hi[0] - 1 came before the
    run.  order lists the events in dispatch order."""
    sim = build_simulation(workload_config(WORKLOADS[workload], seed, False))
    times, lo, hi = array("q", [0]), array("i", [1]), array("i", [1])
    order, limits = array("i"), []
    orig_schedule, orig_run_until = Engine.schedule, Engine.run_until

    def dispatch(k, fn, args):
        order.append(k)
        lo[k] = len(times)
        fn(*args)
        hi[k] = len(times)

    def schedule(engine, t, fn, *args):
        k = len(times)
        times.append(t)
        lo.append(0)
        hi.append(0)
        orig_schedule(engine, t, dispatch, k, fn, args)

    def run_until(engine, limit):
        hi[0] = len(times)
        limits.append(limit)
        return orig_run_until(engine, limit)

    Engine.schedule, Engine.run_until = schedule, run_until
    try:
        sim.run()
    finally:
        Engine.schedule, Engine.run_until = orig_schedule, orig_run_until
    if len(limits) != 1:
        raise SystemExit("expected one run_until call, saw %d" % len(limits))
    return times, lo, hi, order, limits[0]


def replay(make_queue, times, lo, hi, limit):
    """Replay the recorded calls through make_queue(handler); returns (the
    queue, the events in dispatch order, the replay's seconds)."""
    seen = array("i")
    append = seen.append

    def handler(k):
        append(k)
        for c in range(lo[k], hi[k]):
            schedule(times[c], handler, c)

    queue = make_queue(handler)
    schedule = queue.schedule
    start = time.perf_counter()
    for c in range(lo[0], hi[0]):
        schedule(times[c], handler, c)
    queue.run_until(limit)
    return queue, seen, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    times, lo, hi, order, limit = record(args.workload, args.seed)
    left = len(times) - 1 - len(order)
    queues = {
        "calendar": lambda handler: Engine(),
        "heap": lambda handler: HeapQueue(),
        "empty loop": lambda handler: EmptyLoop(handler, times, order),
    }
    seconds = {name: [] for name in queues}
    for rep in range(args.repeats):
        names = list(queues)
        for name in names[rep % 3:] + names[:rep % 3]:
            queue, seen, s = replay(queues[name], times, lo, hi, limit)
            if seen != order:
                raise SystemExit("%s: dispatch order differs from the run's" % name)
            if name != "empty loop" and queue.pending() != left:
                raise SystemExit("%s: %d pending, the run left %d"
                                 % (name, queue.pending(), left))
            seconds[name].append(s)
    ns = {name: statistics.median(s) / len(order) * 1e9 for name, s in seconds.items()}
    print("%s seed %d: %d events dispatched, %d left pending; calendar and heap "
          "dispatch in the run's order" % (args.workload, args.seed, len(order), left))
    for name in queues:
        above = ("" if name == "empty loop"
                 else ", %.0f above the empty loop" % (ns[name] - ns["empty loop"]))
        print("  %-10s %5.0f ns/event%s (median of %d)"
              % (name, ns[name], above, args.repeats))


if __name__ == "__main__":
    main()
