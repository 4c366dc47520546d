"""Traffic bookkeeping and the end-to-end AIMD baseline.

Every generated packet is one row of a ``PacketLog``: a fixed-width column
per field, 17 bytes a packet.  The row number is the packet: node buffers
hold it as a 4-byte machine int, in an ``array("i")`` like the seq column,
DATA frames carry it, and no other packet object exists.
"""

from array import array
from collections import namedtuple

# Outcomes of a generated data packet.  The PacketLog stores the index, and
# a row holds 0 (IN_FLIGHT) until the packet ends.
IN_FLIGHT = "in_flight"
DELIVERED = "delivered"
BUFFER_OVERFLOW = "buffer_overflow"
MAC_RETRY_EXHAUSTED = "mac_retry_exhausted"
OUTCOMES = (IN_FLIGHT, DELIVERED, BUFFER_OVERFLOW, MAC_RETRY_EXHAUSTED)
OUTCOME_CODE = {name: code for code, name in enumerate(OUTCOMES)}

# end_us of a packet still in flight.
NO_END = -1


def joules_to_nj(j):
    return int(round(j * 1e9))


PacketRow = namedtuple(
    "PacketRow", "id origin seq created_us outcome end_us hops")


class PacketLog:
    """Outcome accounting for every generated packet, one column per field.

    The packet id is the row number.  ``outcome`` holds indices into
    OUTCOMES and ``end_us`` holds NO_END while the packet is in flight.
    Times are signed 32-bit microseconds and origin and hops unsigned
    16-bit: ``config.validate`` bounds the duration and the node count so
    that every value fits, and a hop count stays below the node count
    because routes form a tree.
    Indexing and iteration build PacketRow tuples on demand, with end_us
    None for a packet in flight.
    """

    __slots__ = ("origin", "seq", "created_us", "outcome", "end_us", "hops")

    def __init__(self):
        self.origin = array("H")
        self.seq = array("i")
        self.created_us = array("i")
        self.outcome = bytearray()
        self.end_us = array("i")
        self.hops = array("H")

    def add(self, origin, seq, created_us):
        """Append an in-flight packet; returns its id."""
        self.origin.append(origin)
        self.seq.append(seq)
        self.created_us.append(created_us)
        self.outcome.append(0)
        self.end_us.append(NO_END)
        self.hops.append(0)
        return len(self.outcome) - 1

    def finish(self, pkt_id, outcome, end_us):
        """Set the terminal outcome and end time, not the hop count;
        returns False if an outcome was already set."""
        if self.outcome[pkt_id]:
            return False
        self.outcome[pkt_id] = OUTCOME_CODE[outcome]
        self.end_us[pkt_id] = end_us
        return True

    def __len__(self):
        return len(self.outcome)

    def __getitem__(self, pkt_id):
        i = range(len(self.outcome))[pkt_id]     # negative ids, IndexError
        end = self.end_us[i]
        return PacketRow(i, self.origin[i], self.seq[i], self.created_us[i],
                         OUTCOMES[self.outcome[i]],
                         None if end == NO_END else end, self.hops[i])

    def __iter__(self):
        return map(self.__getitem__, range(len(self.outcome)))


# The AIMD baseline's additive increase, in packets/second per quiet second.
AIMD_ALPHA = 0.25


class AimdSource:
    """Source-only additive-increase / multiplicative-decrease rate controller.

    The sink notifies the origin source out of band when it observes a gap in
    that source's sequence numbers; the source halves its rate.  In every
    quiet second the rate grows by alpha.
    """

    __slots__ = ("rate", "alpha", "r_min", "r_cap", "last_halve_us")

    def __init__(self, rate, alpha, r_min, r_cap):
        self.rate = rate
        self.alpha = alpha
        self.r_min = r_min
        self.r_cap = r_cap
        self.last_halve_us = None

    def on_loss_signal(self, now_us):
        self.rate = max(self.r_min, 0.5 * self.rate)
        self.last_halve_us = now_us

    def on_second_tick(self, now_us):
        if self.last_halve_us is not None and now_us - self.last_halve_us < 1_000_000:
            return
        self.rate = min(self.r_cap, self.rate + self.alpha)
