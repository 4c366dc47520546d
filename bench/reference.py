"""Reference kernel that measures how fast the host runs at the moment.

Each untraced repetition times ``kernel()`` twice before and twice after its
pipeline. The end-to-end times are then rescaled to a host on which one
call takes ``REFERENCE_S``. On a VM shared with other tenants the speed of
the same code drifts by up to 30% over minutes. Dividing by a kernel timed
in the same process around the same repetition removes most of that drift.

The kernel is a miniature of the simulator's hot path and does not import
it: an event heap, ``__slots__`` nodes with neighbour lists, a per-frame
reception list scanned for overlaps, and xorshift draws. Changing it, or
``REFERENCE_S``, rescales every end-to-end time, so it stays frozen.
"""

from heapq import heappop, heappush

REFERENCE_S = 0.1

_MASK64 = (1 << 64) - 1


class _Node:
    __slots__ = ("state", "neighbors", "rx", "busy_until", "received")

    def __init__(self, i):
        self.state = (i + 1) * 0x9E3779B97F4A7C15 & _MASK64
        self.neighbors = []
        self.rx = []
        self.busy_until = 0
        self.received = 0

    def draw(self, n):
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D & _MASK64) % n


class _Frame:
    __slots__ = ("src", "start", "end")

    def __init__(self, src, start, end):
        self.src = src
        self.start = start
        self.end = end


def _start(node, t):
    frame = _Frame(node, t, t + 100 + node.draw(900))
    for m in node.neighbors:
        entry = [frame, t, frame.end, True]
        for other in m.rx:
            if other[2] > t:
                other[3] = False
                entry[3] = False
        m.rx.append(entry)
        if frame.end > m.busy_until:
            m.busy_until = frame.end
    return frame


def _end(node, frame):
    for m in node.neighbors:
        lst = m.rx
        for i, entry in enumerate(lst):
            if entry[0] is frame:
                del lst[i]
                if entry[3]:
                    m.received += 1
                break


def kernel(events=8000, n=400, degree=24):
    """Run a fixed event sequence; returns the number of clean receptions."""
    nodes = [_Node(i) for i in range(n)]
    for node in nodes:
        node.neighbors = [nodes[node.draw(n)] for _ in range(degree)]
    queue = []
    seq = 0
    for node in nodes:
        seq += 1
        heappush(queue, (node.draw(10000), seq, node, None))
    for _ in range(events):
        t, _seq, node, frame = heappop(queue)
        seq += 1
        if frame is None:
            frame = _start(node, t)
            heappush(queue, (frame.end, seq, node, frame))
        else:
            _end(node, frame)
            heappush(queue, (t + 500 + node.draw(20000), seq, node, None))
    return sum(node.received for node in nodes)
