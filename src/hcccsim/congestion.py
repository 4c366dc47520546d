"""Per-node hop-by-hop congestion control state and transition rules.

The building blocks are inter-arrival / service-time averaging, congestion
classification, the four-case window/rate adjustment applied when downstream
buffer feedback arrives, and feedback construction with relay suppression.
The feedback signal an RTS carries is one number, a buffer occupancy ratio
in [0, 1]; it is congested when above ``b_max``.  ``CongestionState.buffer``
is the node's packet buffer, but only the simulation puts packets in and
takes them out; the rules here read its occupancy.
``feedback_update``, ``process_feedback`` and ``should_relay`` are pure and
tested against table-driven fixtures.  ``on_packet_arrival``,
``on_packet_departure``, ``apply_detect``, ``apply_feedback`` and
``generate_feedback`` update the ``CongestionState`` they are given, one
function per event of the node.  Every function reads its parameters
(p, b_max, w_min, w_max, r_min, r_cap, legacy_ewma) from the same-named
fields of a ``ScenarioConfig``.

The averaging formulas are implemented in two modes.  ``legacy_ewma=True``
(default) keeps them exactly as the scheme defines them: the inter-arrival
average T_a mixes the current service average T_s with the latest arrival gap,
and the service average T_s mixes the latest inter-departure gap with the frame
airtime.  ``legacy_ewma=False`` switches both to conventional self-referential
exponential averages.
"""

import math


class CongestionLogicError(Exception):
    """Contract violation in congestion bookkeeping (e.g. departure from an empty buffer)."""


# Classification outcomes.
DECLARE_CONGESTION = "declare_congestion"
DAMP_LOCAL_RATE = "damp_local_rate"
CLEAR_CONGESTION = "clear_congestion"
NO_CHANGE = "no_change"


class CongestionState:
    """Congestion variables of one node.

    T_a and T_s are seeded with the nominal service time of a single data
    frame so the congestion degree is well defined before traffic has been
    observed; the first classification is deferred until both averages have
    been updated at least once.  ``relay`` holds a downstream occupancy ratio
    waiting to be relayed on the node's next RTS; ``sent_own`` is True from
    the node's own congested signal (b_r > b_max) until its next relay.
    """

    __slots__ = (
        "T_a", "T_s", "last_arrival", "last_departure", "C_d",
        "buffer", "capacity", "R", "R_max", "sent_own", "relay",
        "arrivals_updated", "departures_updated",
    )

    def __init__(self, capacity, nominal_service_us, r_init):
        self.T_a = float(nominal_service_us)
        self.T_s = float(nominal_service_us)
        self.last_arrival = None
        self.last_departure = None
        self.C_d = None
        self.buffer = []
        self.capacity = capacity
        self.R = r_init
        self.R_max = r_init
        self.sent_own = False
        self.relay = None
        self.arrivals_updated = False
        self.departures_updated = False

    @property
    def b_r(self):
        return len(self.buffer) / self.capacity


def on_packet_arrival(state, t, cfg):
    """Register a packet arrival at time t in the inter-arrival average.

    The caller observes every arrival before its drop-tail test, so a packet
    dropped for a full buffer counts too: the arrival itself happened on the
    medium.
    """
    if state.last_arrival is None:
        state.last_arrival = t
    else:
        if t < state.last_arrival:
            raise CongestionLogicError("arrival time moved backwards")
        gap = t - state.last_arrival
        base = state.T_s if cfg.legacy_ewma else state.T_a
        state.T_a = (1.0 - cfg.p) * base + cfg.p * gap
        state.last_arrival = t
        state.arrivals_updated = True


def on_packet_departure(state, t, t_s, cfg):
    """Register a successful transmission at time t with airtime t_s in the
    service average; the caller pops the head packet right after, so the
    buffer must not be empty."""
    if not state.buffer:
        raise CongestionLogicError("departure with empty buffer")
    if state.last_departure is None:
        state.last_departure = t
    else:
        if t < state.last_departure:
            raise CongestionLogicError("departure time moved backwards")
        gap = t - state.last_departure
        base = gap if cfg.legacy_ewma else state.T_s
        state.T_s = (1.0 - cfg.p) * base + cfg.p * t_s
        state.last_departure = t
        state.departures_updated = True


def apply_detect(state, cfg):
    """Classify the node's congestion condition on a channel access.

    Stores the congestion degree C_d = T_s / T_a in ``state.C_d``; it stays
    None, and the outcome NO_CHANGE, until both averages have been updated
    once.  Strict inequalities throughout; equality falls to the less
    aggressive branch.  A draining buffer (C_d <= 1 with occupancy still above
    threshold) yields NO_CHANGE.  Only DAMP_LOCAL_RATE changes the state; the
    other outcomes are returned for the trace.
    """
    if not (state.arrivals_updated and state.departures_updated):
        return NO_CHANGE
    c_d = state.C_d = state.T_s / state.T_a
    if c_d > 1.0:
        if state.b_r > cfg.b_max:
            return DECLARE_CONGESTION
        # Restores the arrival/departure balance implied by the degree definition.
        state.R = max(cfg.r_min, state.R / c_d)
        state.R_max = state.R
        return DAMP_LOCAL_RATE
    if state.b_r <= cfg.b_max:
        return CLEAR_CONGESTION
    return NO_CHANGE


def feedback_update(b_local, b_down, r, w, r_max, cfg):
    """Four-case window/rate adjustment, unclamped.

    b_local is this node's buffer occupancy ratio, b_down the downstream one
    from the feedback signal.  The boundary b_local == b_max with
    b_down <= b_max falls into the additive-increase case so exactly one case
    applies for every occupancy pair.
    """
    b_max = cfg.b_max
    inv_down = math.inf if b_down == 0.0 else 1.0 / b_down
    if b_down > b_max:
        if b_local > b_max:
            return 0.25 * r, 0.5 * (5.0 * w * b_local + 0.1 * w * inv_down)
        return 0.5 * r, 5.0 * w * b_down
    delta_r = 0.5 * (r_max - r)
    if b_local > b_max:
        return min(0.5 * r, r + delta_r), min(10.0 * w * b_down, 0.1 * w * inv_down)
    return r + delta_r, 10.0 * w * b_down


def process_feedback(state, w, b_r_down, cfg):
    """Compute the clamped (R', W') response to downstream feedback.  Pure.

    w is the node's current (real-valued) contention window, which lives in
    the MAC state.  Raises ValueError for an occupancy ratio outside [0, 1].
    """
    if not 0.0 <= b_r_down <= 1.0:
        raise ValueError("malformed feedback occupancy ratio %r" % (b_r_down,))
    r_new, w_new = feedback_update(state.b_r, b_r_down, state.R, w, state.R_max, cfg)
    return (min(max(r_new, cfg.r_min), cfg.r_cap),
            float(min(max(w_new, cfg.w_min), cfg.w_max)))


def apply_feedback(state, w, b_r_down, cfg):
    """Act on a downstream occupancy ratio heard on the next hop's RTS; returns
    the new window.

    A congestion-triggered decrease (either side above threshold) resets the
    rate high-water mark to the new rate.  Otherwise the mark stays: R <= R_max
    always holds, and an additive increase moves R halfway to R_max, never past.
    The ratio is then held in ``relay`` if ``should_relay`` says so.  Raises
    ValueError for a ratio outside [0, 1], leaving the state unchanged.
    """
    r_new, w_new = process_feedback(state, w, b_r_down, cfg)
    state.R = r_new
    if b_r_down > cfg.b_max or state.b_r > cfg.b_max:
        state.R_max = r_new
    if should_relay(state, b_r_down, cfg):
        state.relay = b_r_down
    return w_new


def should_relay(state, incoming, cfg):
    """Whether to relay a downstream occupancy ratio upstream.

    Local congestion takes precedence: a congested node always sends its own
    signal.  A non-congested node relays a congested downstream ratio
    (incoming > b_max) only if ``sent_own`` is set, i.e. its own congested
    signal went out after its last relay.  A node that has never sent a
    congested signal of its own therefore never relays, and after one relay
    it relays again only once it has sent one in between.
    """
    if state.b_r > cfg.b_max:
        return False
    return cfg.b_max < incoming and state.sent_own


def generate_feedback(state, cfg):
    """The occupancy ratio attached to an outgoing RTS, with sent_own bookkeeping.

    A congested node (b_r > b_max) sends its own ratio and sets ``sent_own``.
    Otherwise a ratio held for relaying goes out once and clears it.  Failing
    both, the node sends its own uncongested ratio and leaves it as it was.
    """
    b_r = state.b_r
    if b_r > cfg.b_max:
        state.sent_own = True
        return b_r
    if state.relay is not None:
        relayed = state.relay
        state.relay = None
        state.sent_own = False
        return relayed
    return b_r
