"""MAC-layer data types: frames, timing, backoff draws and error probabilities.

The contention MAC itself (carrier sense, RTS/CTS/DATA/ACK exchange,
collisions) is driven by the event handlers in :mod:`hcccsim.simulation`;
this module holds the frame/timing plumbing shared with tests.
"""

RTS = "RTS"
CTS = "CTS"
DATA = "DATA"
ACK = "ACK"

# The one MAC timing and pair of frame sizes every run uses.
SLOT_US = 1000
SIFS_US = 200
DIFS_US = 1000
PACKET_SIZE = 200    # bytes, DATA payload
CONTROL_SIZE = 20    # bytes, RTS/CTS/ACK


class Frame:
    """One transmission.  Its airtime follows from ``kind``; ``data_id`` is
    the packet the exchange is about, its PacketLog row number."""

    __slots__ = ("kind", "src", "dst", "feedback", "data_id", "serial")

    def __init__(self, kind, src, dst, feedback=None, data_id=None):
        self.kind = kind
        self.src = src
        self.dst = dst
        # An HCCC RTS carries a buffer occupancy ratio, congested above b_max.
        self.feedback = feedback
        self.data_id = data_id
        self.serial = 0  # the run's attempt number, set when it starts


def airtime_us(size_bytes, bit_rate):
    return int(round(size_bytes * 8 * 1_000_000 / bit_rate))


def frame_error_probability(flat_rate, bit_error_rate, size_bytes):
    """Per-frame corruption probability combining a flat rate with a bit error rate."""
    ber_part = 1.0 - (1.0 - bit_error_rate) ** (8 * size_bytes)
    return 1.0 - (1.0 - flat_rate) * (1.0 - ber_part)


class MacTiming:
    """All MAC timing quantities, precomputed in integer microseconds."""

    __slots__ = ("slot", "sifs", "difs", "retry_limit", "jitter_max",
                 "ctrl_air", "data_air", "cts_timeout", "ack_timeout",
                 "response_us",
                 "ctrl_fer", "data_fer")

    def __init__(self, cfg):
        self.slot = SLOT_US
        self.sifs = SIFS_US
        self.difs = DIFS_US
        self.retry_limit = cfg.retry_limit
        self.jitter_max = cfg.access_jitter_us
        self.ctrl_air = airtime_us(CONTROL_SIZE, cfg.bit_rate)
        self.data_air = airtime_us(PACKET_SIZE, cfg.bit_rate)
        # Timeouts cover the expected response plus one slot of guard time.
        self.cts_timeout = self.ctrl_air + self.sifs + self.ctrl_air + self.slot
        self.ack_timeout = self.data_air + self.sifs + self.ctrl_air + self.slot
        # A node that answers an RTS holds off its own access this long:
        # CTS, DATA and ACK, each after one SIFS.
        self.response_us = 3 * self.sifs + 2 * self.ctrl_air + self.data_air
        self.ctrl_fer = frame_error_probability(cfg.frame_error_rate,
                                                cfg.bit_error_rate, CONTROL_SIZE)
        self.data_fer = frame_error_probability(cfg.frame_error_rate,
                                                cfg.bit_error_rate, PACKET_SIZE)


def effective_window(w):
    """Integer window used for a draw: round half up, never below 1."""
    eff = int(w + 0.5)
    return 1 if eff < 1 else eff


def draw_backoff(w, stream):
    """Uniform backoff slot count in [0, round(w) - 1]."""
    eff = effective_window(w)
    if eff == 1:
        return 0
    return stream.uniform_int(0, eff - 1)
