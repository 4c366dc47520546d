"""Event-driven multi-hop network simulation.

One Simulation owns one run: the event engine, per-node MAC and congestion
state, the unit-disk channel and the traffic/energy lifecycle.  The channel
model is physical-overlap based: a reception fails iff a second in-range
transmission overlaps it in time, or the receiver is itself transmitting.
A transmission that starts at the current instant is not carrier-sensed
(detection takes nonzero time), which is what makes simultaneous
equal-backoff transmissions collide.

Each receiver keeps its reception state in O(1) fields rather than a list
of receptions: ``busy_until`` (end of the latest reception), ``busy_since``
(start of the current busy period, so a reception starting this instant is
not sensed), ``rx_frame`` (the one reception still clean, if any) and
``rx_prev`` (a clean reception that ended at the instant the current busy
period began, whose end event may still be queued).  A reception that starts
while ``busy_until`` lies ahead overlaps one in progress, and both are lost.
When a frame ends only its destination acts on it, plus, for an RTS carrying
HCCC feedback, the sender's children.  On a lossy channel each of them takes
a frame-error draw keyed by (run seed, receiver, attempt number), so no
node's random stream depends on who a frame is for or what it overhears.

Only carriers keep these fields current.  A carrier is a reachable source
or a hop of a source's route (``carrier``), and only carriers contend, are
addressed or decode feedback: a frame goes to its sender's next hop or to
the sender it answers, and a node on no source's route never holds a
packet.  ``listeners[j]`` holds the live carriers among j's neighbours, in
id order.  It is made at j's first frame, and a frame from j updates only
the nodes on it, so each of them has seen every frame of j and keeps the
fields a full history would give.  A node that dies leaves every list made
so far, and a list made later leaves it out: a dead node on a list would
have its countdown frozen, which schedules a wake-up.  Kept in id order,
the lists freeze countdowns in the order a walk over all neighbours would.
``children`` maps a node to the carriers, in id order, whose next hop it
is: the nodes that decode the HCCC feedback on its RTS.

Channel access works without per-slot polling.  A countdown is
(``remaining``, ``wake_time``): ``remaining`` slots are counted down in one
scheduled wake-up at ``wake_time``, which is 0 while no countdown runs.  A
frame the node hears freezes the countdown, keeping the partly counted slot
in ``remaining``.  Every deferral is one DIFS plus a small desynchronisation
jitter after a base: the end of the busy period, the end of the node's own
response exchange, or the end of a frame that started at that same instant.
The DIFS-after-busy rule is also what protects SIFS-separated frames of an
ongoing exchange from being trampled by waiting contenders.

Two fields hold a node's MAC state.  ``phase`` says what the node is doing:
IDLE → PENDING (an ``_access_begin`` is queued) → BACKOFF → AWAIT_CTS (its
RTS is out) → SENDING (its DATA is due one SIFS after the CTS) → AWAIT_ACK,
then IDLE, or BACKOFF again for a retry.  ``epoch`` says which of its queued
wake-ups and timeouts are live: each carries the epoch it was queued with
and is stale once the epoch has moved.  Every exit from BACKOFF, AWAIT_CTS
and AWAIT_ACK bumps the epoch in the handler that makes it, so a live event
finds its node in the phase it was queued for; PENDING and SENDING each
have exactly one event queued, and only that event leaves them.

A death changes neither field, so the handlers that start a node's own work
test ``alive``: ``_start_access``, ``_access_begin``, ``_backoff_wake``,
``_retry``, ``_on_generate`` and ``_on_aimd_tick``.  A PENDING node answers
RTS frames, so when control frames cost energy it can die on a CTS or ACK
before its access begins.  The response handlers (``_tx_cts``, ``_tx_data``,
``_tx_ack``) test neither ``alive`` nor whether the node is on the air, and
CTS and ACK receipt do not match the packet, because the exchange timing
rules each case out:

* a node answers an RTS only in IDLE, PENDING or BACKOFF and outside its
  response window, which lasts until its ACK ends, and it sends no RTS
  inside that window; so between a frame it receives and its CTS or ACK one
  SIFS later it starts no frame, and only starting a frame can kill a node;
* a SENDING node has started nothing since its RTS ended;
* a CTS or ACK arrives one slot before its sender's timeout, and the head
  packet changes only when an exchange ends; so a CTS or ACK that finds its
  node in the matching AWAIT phase is for the packet at the head.

A node's random stream, ``RandomStream(seed, id + 1)``, is made at its first
draw: a source's in ``run()``, any other node's when it first enters
backoff.  Its values depend only on the seed and the id, so when it is made
changes no draw, and a node that never contends never pays for one.

A packet is its row number in the run's ``PacketLog``: node buffers,
``last_accepted`` and ``Frame.data_id`` hold that number, and the log's
columns (origin, seq, hop count) are all the state a packet has.

The links between nodes live on the Simulation: ``listeners[j]``, the dict
``children`` (both above) and the dict ``last_accepted``, which maps a sender
to the last packet its next hop accepted from it; routes are static and DATA
goes only to the sender's next hop, so the sender alone names the link.  A
node keeps only ``next_hop``, and the routes form a tree toward the sink, so
no reference cycle joins the nodes: dropping a run's Simulation and
RunResult frees it by reference counting alone.

A carrier's buffer (``Node.cc.buffer``) is a FIFO ``array("i")`` of log rows,
each a 4-byte machine int and no int object, that only this module changes:
``_admit`` is the one way in (a drop-tail test against the capacity) and
``_dequeue`` the one way out (the head packet, sent or given up on).  Under
HCCC the congestion layer observes each arrival before the drop-tail test
and each sent packet just before its dequeue; it never moves a packet.  All
other nodes share the run's one inert ``CongestionState``: its buffer is the
empty tuple, its R and R_max are r_cap, and no rule reads or writes it in a
run.  So an unreachable source's R reads r_cap, as a relay's does; no output
shows it.

Energy is kept in integer nanojoules (``Node.energy_nj``), converted from
the ``[energy]`` keys once, so the energy consumed is exactly each cost times
its attempts.  ``_start_tx`` charges each frame as it starts and is the one
place a node dies: a frame that costs energy and leaves its sender below one
DATA charge is the sender's last, and it still goes out.  So a node that
starts below one DATA charge lives through free control frames and dies at
its first DATA frame.  A dead node stops generating, forwarding and responding.
"""

import math
from dataclasses import dataclass, field

from . import congestion
from .config import ScenarioConfig
from .congestion import CongestionState
from .engine import Engine, RandomStream, keyed_draw, keyed_seed_mix
from .mac import RTS, CTS, DATA, ACK, Frame, MacTiming, draw_backoff
from .topology import build_topology
from .traffic import (AIMD_ALPHA, AimdSource, PacketLog, OUTCOME_CODE, joules_to_nj,
                      DELIVERED, BUFFER_OVERFLOW, MAC_RETRY_EXHAUSTED)


def _clean(node, frame):
    """node heard frame with no overlap, whether or not it has ended."""
    return node.rx_frame is frame or node.rx_prev is frame


# MAC phases, in the order an exchange passes through them
IDLE = 0
PENDING = 1     # an _access_begin is queued
BACKOFF = 2
AWAIT_CTS = 3
SENDING = 4
AWAIT_ACK = 5


class Node:
    __slots__ = (
        "id", "role", "next_hop",
        "stream", "energy_nj", "alive", "death_time", "death_serial",
        "cc", "w", "aimd",
        "phase", "remaining", "wake_time",     # wake_time 0: no countdown
        "epoch", "retries", "access_started_at",
        "next_access_time",
        "tx_end",
        "busy_until", "busy_since", "rx_frame", "rx_prev",
        "responding_until",
        "pending_feedback", "gen_seq",
        "access_delay_sum",
        "access_delay_n",       # also the number of packets forwarded
        "admitted", "removed",
    )

    def __init__(self, spec, energy_nj, cc, w):
        self.id = spec.id
        self.role = spec.role
        self.next_hop = None
        self.stream = None      # made at the node's first draw
        self.energy_nj = energy_nj
        self.alive = True
        self.death_time = None
        self.death_serial = 0   # the attempt number of the frame it died on
        self.cc = cc
        self.w = w
        self.aimd = None
        self.phase = IDLE
        self.remaining = 0
        self.wake_time = 0
        self.epoch = 0
        self.retries = 0
        self.access_started_at = 0
        self.next_access_time = 0
        self.tx_end = 0
        self.busy_until = 0
        self.busy_since = 0
        self.rx_frame = None
        self.rx_prev = None
        self.responding_until = 0
        self.pending_feedback = None
        self.gen_seq = 0
        self.access_delay_sum = 0
        self.access_delay_n = 0
        self.admitted = 0
        self.removed = 0


@dataclass
class RunResult:
    """What one run leaves behind.  ``records`` is the run's PacketLog: one
    row per generated packet, the packet id being the row number.
    ``delivered``, ``overflow_drops`` and ``mac_drops`` are the log's
    outcome counts at the end of the run."""

    config: ScenarioConfig
    topology: object
    records: PacketLog
    generated: int
    delivered: int
    overflow_drops: int
    mac_drops: int
    data_attempts: int
    ctrl_attempts: int
    energy_initial_nj: int
    energy_remaining_nj: int
    source_ids: list
    rate_samples: list          # (t_us, tuple of per-source rates)
    nodes: list
    events_processed: int
    mac_trace: list = field(default_factory=list)
    hccc_trace: list = field(default_factory=list)

    @property
    def in_flight(self):
        return self.generated - self.delivered - self.overflow_drops - self.mac_drops


class Simulation:
    """One deterministic run of a scenario.

    topology may be supplied explicitly (tests build hand-crafted fixtures).
    Every node starts with the window w_max; a test may set ``nodes[i].w``
    before ``run()``, and the baseline schemes never change it.

    A Simulation keeps at most 29 instance attributes.  CPython 3.11-3.13
    share the keys of an instance dict only up to 29 attributes; with a
    30th, every ``self`` attribute load in the event handlers is slower
    (about 4% of the run time of ``none_saturated`` on Python 3.11.7).
    """

    def __init__(self, cfg, topology=None):
        self.cfg = cfg
        self.engine = Engine()
        self.timing = MacTiming(cfg)
        self.is_hccc = cfg.scheme == "hccc"
        self.is_aimd = cfg.scheme == "aimd_e2e"
        self.seed_mix = keyed_seed_mix(cfg.seed)
        self.trace_mac = cfg.trace_mac
        self.topology = topology if topology is not None else build_topology(
            cfg, RandomStream(cfg.seed, 0))

        initial_nj = joules_to_nj(cfg.energy_initial)
        self.data_nj = joules_to_nj(cfg.energy_per_packet)
        self.ctrl_nj = joules_to_nj(cfg.energy_control)

        t = self.timing
        self.slot, self.difs, self.jitter_max = t.slot, t.difs, t.jitter_max
        self.data_air, self.ctrl_air = t.data_air, t.ctrl_air

        # Only carriers (see the module docstring) buffer, listen or are children.
        specs, next_hop = self.topology.nodes, self.topology.next_hop
        source_ids = [s.id for s in specs
                      if s.role == "source" and self.topology.reachable(s.id)]
        carrier = self.carrier = [False] * len(specs)
        for i in source_ids:
            while i is not None and not carrier[i]:
                carrier[i] = True
                i = next_hop[i]
        nominal_service, w_max = float(self.data_air + self.slot), float(cfg.w_max)
        inert = CongestionState(cfg.buffer_capacity, nominal_service, cfg.r_cap,
                                 carrier=False)
        r_source = min(max(cfg.offered_load, cfg.r_min), cfg.r_cap)
        nodes = []
        for spec in specs:
            if carrier[spec.id]:
                cc = CongestionState(cfg.buffer_capacity, nominal_service,
                                     r_source if spec.role == "source" else cfg.r_cap)
            else:
                cc = inert
            nodes.append(Node(spec, initial_nj, cc, w_max))
        self.nodes = nodes
        self.sources = [nodes[i] for i in source_ids]
        self.listeners = [None] * len(nodes)   # made at each sender's first frame
        self.children = {}
        for node in nodes:
            nh = next_hop[node.id]
            if nh is not None:
                node.next_hop = nodes[nh]
                if carrier[node.id]:
                    self.children.setdefault(nh, []).append(node)
        self.last_accepted = {}
        if self.is_aimd:
            for src in self.sources:
                src.aimd = AimdSource(src.cc.R, AIMD_ALPHA, cfg.r_min, cfg.r_cap)
        self.sink_expected = {}

        self.log = PacketLog()
        self.data_attempts = 0
        self.ctrl_attempts = 0
        self.rate_samples = []
        self.mac_trace = []
        self.hccc_trace = []
        self.limit_us = 0

    # ---- rates ----------------------------------------------------------

    def _source_rate(self, node):
        if self.is_hccc:
            return node.cc.R
        if self.is_aimd:
            return node.aimd.rate
        return self.cfg.offered_load

    def _pacing_rate(self, node):
        if self.is_hccc:
            return node.cc.R
        if node.role == "source":
            return max(self._source_rate(node), self.cfg.r_min)
        return self.cfg.r_cap

    def _gen_interval(self, node, rate):
        mean_us = 1_000_000.0 / rate
        if self.cfg.traffic == "poisson":
            u = node.stream.random()
            return max(1, int(-math.log(1.0 - u) * mean_us))
        return max(1, int(mean_us))

    # ---- channel --------------------------------------------------------

    def _start_tx(self, node, frame):
        now = self.engine.now
        if frame.kind == DATA:
            end = now + self.data_air
            cost = self.data_nj
            self.data_attempts += 1
        else:
            end = now + self.ctrl_air
            cost = self.ctrl_nj
            self.ctrl_attempts += 1
        if cost:
            node.energy_nj -= cost
            if node.energy_nj < self.data_nj:
                node.alive = False
                node.death_time = now
                node.death_serial = self.data_attempts + self.ctrl_attempts
                for j in self.topology.adjacency[node.id]:
                    if self.listeners[j] is not None:
                        self.listeners[j].remove(node)
        listeners = self.listeners[node.id]
        if listeners is None:
            nodes, carrier = self.nodes, self.carrier
            listeners = self.listeners[node.id] = [
                nodes[i] for i in self.topology.adjacency[node.id]
                if carrier[i] and nodes[i].alive]
        node.tx_end = end
        frame.serial = self.data_attempts + self.ctrl_attempts
        if node.wake_time > now:
            self._freeze(node, now)
        for n in listeners:
            if n.busy_until > now:
                # Overlaps a reception in progress: both are lost.
                n.rx_frame = None
                if end > n.busy_until:
                    n.busy_until = end
            else:
                # A new busy period.  A frame that ended at this instant
                # may still await its _tx_end; it stays clean as rx_prev.
                n.busy_since = now
                n.busy_until = end
                n.rx_prev = n.rx_frame
                n.rx_frame = frame if n.tx_end <= now else None
            if n.wake_time > now:
                self._freeze(n, now)
        if self.trace_mac:
            self.mac_trace.append((now, node.id, frame.kind, frame.dst, "tx_start"))
        self.engine.schedule(end, self._tx_end, node, frame)

    def _tx_end(self, node, frame):
        dst = self.nodes[frame.dst]
        fer = self.timing.data_fer if frame.kind == DATA else self.timing.ctrl_fer
        # _decoded(dst, frame, fer), written out: one call fewer per frame.
        received = (dst.alive and (dst.rx_frame is frame or dst.rx_prev is frame)
                    and not (fer and keyed_draw(self.seed_mix, dst.id, frame.serial) < fer))
        if frame.feedback is not None:
            for n in self.children.get(node.id, ()):
                if self._decoded(n, frame, fer):
                    n.pending_feedback = frame.feedback
        if received:
            self._on_frame(dst, frame)
        if self.trace_mac:
            if received:
                outcome = "ok"
            elif not dst.alive:
                # Dead before the frame started, or while it was on the air.
                outcome = ("no_receiver" if dst.death_serial < frame.serial
                           else "dead_receiver")
            elif _clean(dst, frame):
                outcome = "corrupted"
            else:
                outcome = "collided"
            self.mac_trace.append((self.engine.now, node.id, frame.kind,
                                   frame.dst, outcome))

    def _decoded(self, n, frame, fer):
        """n is alive, heard the frame clean and its keyed error draw spares it."""
        return (n.alive and _clean(n, frame)
                and not (fer and keyed_draw(self.seed_mix, n.id, frame.serial) < fer))

    # ---- backoff --------------------------------------------------------

    def _defer(self, node, base):
        """Wake one DIFS plus the access jitter after base."""
        jmax = self.jitter_max
        if jmax > 1:
            # uniform_int(0, jmax - 1), written out; jmax 1 draws nothing.
            u = node.stream.next_u64()
            if u > 0xFFFFFFFFFFFFFFFF - jmax:
                u = node.stream.redraw(u, jmax)
            base += u % jmax
        node.epoch += 1
        self.engine.schedule(base + self.difs, self._backoff_wake, node, node.epoch)

    def _freeze(self, node, now):
        # Keep the slot in progress: count only whole slots as done.
        node.remaining = -((now - node.wake_time) // self.slot)
        node.wake_time = 0
        busy_until, tx_end = node.busy_until, node.tx_end
        self._defer(node, busy_until if busy_until > tx_end else tx_end)

    def _backoff_wake(self, node, epoch):
        if epoch != node.epoch or not node.alive:
            return
        now = self.engine.now
        if node.wake_time:
            # The countdown ran out.
            node.wake_time = node.remaining = 0
        busy_until, tx_end = node.busy_until, node.tx_end
        # Carrier sense: on air, or a reception that began before now.
        if tx_end > now or (busy_until > now and node.busy_since < now):
            base = busy_until if busy_until > tx_end else tx_end
        elif now < node.responding_until:
            base = node.responding_until
        elif node.remaining <= 0:
            self._tx_rts(node)
            return
        elif busy_until > now:
            # A frame starting at this exact instant is not sensed, but it
            # occupies the medium for the rest of the countdown.
            base = busy_until
        else:
            node.wake_time = at = now + node.remaining * self.slot
            node.epoch += 1
            self.engine.schedule(at, self._backoff_wake, node, node.epoch)
            return
        self._defer(node, base)

    # ---- channel access / exchange --------------------------------------

    def _start_access(self, node):
        if node.phase != IDLE or not node.alive or not node.cc.buffer:
            return
        node.phase = PENDING
        at = max(self.engine.now, node.next_access_time)
        self.engine.schedule(at, self._access_begin, node)

    def _access_begin(self, node):
        if not node.alive:
            return
        now = self.engine.now
        if self.is_hccc:
            cc = node.cc
            fb = node.pending_feedback
            if fb is not None:
                node.pending_feedback = None
                node.w = congestion.apply_feedback(cc, node.w, fb, self.cfg)
                if self.cfg.trace_hccc:
                    self.hccc_trace.append((now, node.id, cc.b_r, cc.C_d, cc.R,
                                            node.w, "feedback"))
            action = congestion.apply_detect(cc, self.cfg)
            if self.cfg.trace_hccc:
                self.hccc_trace.append((now, node.id, cc.b_r, cc.C_d, cc.R,
                                        node.w, "detect:%s" % action))
        rate = self._pacing_rate(node)
        node.next_access_time = now + max(1, int(1_000_000.0 / rate))
        node.retries = 0
        node.access_started_at = now
        self._begin_backoff(node)

    def _begin_backoff(self, node):
        if node.stream is None:
            node.stream = RandomStream(self.cfg.seed, node.id + 1)
        node.phase = BACKOFF
        node.remaining = draw_backoff(node.w, node.stream)
        self._defer(node, self.engine.now)

    def _tx_rts(self, node):
        now = self.engine.now
        feedback = (congestion.generate_feedback(node.cc, self.cfg)
                    if self.is_hccc else None)
        frame = Frame(RTS, node.id, node.next_hop.id, feedback,
                      node.cc.buffer[0])
        node.phase = AWAIT_CTS
        self._start_tx(node, frame)
        node.epoch += 1
        self.engine.schedule(now + self.timing.cts_timeout,
                             self._cts_timeout, node, node.epoch)

    def _tx_cts(self, node, rts_frame):
        self._start_tx(node, Frame(CTS, node.id, rts_frame.src, None,
                                   rts_frame.data_id))

    def _tx_data(self, node):
        now = self.engine.now
        frame = Frame(DATA, node.id, node.next_hop.id, None, node.cc.buffer[0])
        node.phase = AWAIT_ACK
        self._start_tx(node, frame)
        node.epoch += 1
        self.engine.schedule(now + self.timing.ack_timeout,
                             self._ack_timeout, node, node.epoch)

    def _tx_ack(self, node, data_frame):
        self._start_tx(node, Frame(ACK, node.id, data_frame.src, None,
                                   data_frame.data_id))

    def _cts_timeout(self, node, epoch):
        if epoch == node.epoch:
            self._retry(node)

    def _ack_timeout(self, node, epoch):
        if epoch == node.epoch:
            self._retry(node)

    def _retry(self, node):
        node.epoch += 1
        if not node.alive:
            node.phase = IDLE
            return
        node.retries += 1
        if node.retries > self.timing.retry_limit:
            pkt = self._dequeue(node)
            # If the next hop accepted the DATA frame, only its ACKs were
            # lost: the packet travels on from there.
            if self.last_accepted.get(node.id) != pkt:
                self.log.finish(pkt, MAC_RETRY_EXHAUSTED, self.engine.now)
            node.phase = IDLE
            self._start_access(node)
            return
        self._begin_backoff(node)

    def _complete_send(self, node):
        now = self.engine.now
        if self.is_hccc:
            congestion.on_packet_departure(node.cc, now, self.data_air, self.cfg)
        self._dequeue(node)
        node.access_delay_sum += now - node.access_started_at
        node.access_delay_n += 1
        node.phase = IDLE
        self._start_access(node)

    # ---- reception ------------------------------------------------------

    def _on_frame(self, node, frame):
        """Act on a frame that reached its live destination intact."""
        now = self.engine.now
        kind = frame.kind
        if kind == RTS:
            # IDLE, PENDING or BACKOFF: the node is in no exchange of its own.
            if now >= node.responding_until and node.phase <= BACKOFF:
                node.responding_until = now + self.timing.response_us
                self.engine.schedule(now + self.timing.sifs, self._tx_cts,
                                     node, frame)
        elif kind == CTS:
            if node.phase == AWAIT_CTS:
                node.epoch += 1
                node.phase = SENDING
                self.engine.schedule(now + self.timing.sifs, self._tx_data, node)
        elif kind == DATA:
            self.engine.schedule(now + self.timing.sifs, self._tx_ack,
                                 node, frame)
            pkt = frame.data_id
            if self.last_accepted.get(frame.src) == pkt:
                return
            self.last_accepted[frame.src] = pkt
            self.log.hops[pkt] += 1
            if node.id == 0:
                self._deliver_at_sink(pkt, now)
            else:
                self._admit(node, pkt)
        elif kind == ACK:
            if node.phase == AWAIT_ACK:
                node.epoch += 1
                self._complete_send(node)

    def _deliver_at_sink(self, pkt, now):
        self.log.finish(pkt, DELIVERED, now)
        if self.is_aimd:
            origin, seq = self.log.origin[pkt], self.log.seq[pkt]
            expected = self.sink_expected.get(origin, 0)
            if seq > expected:
                src = self.nodes[origin]
                if src.alive:
                    src.aimd.on_loss_signal(now)
            if seq >= expected:
                self.sink_expected[origin] = seq + 1

    def _admit(self, node, pkt):
        """Drop-tail admission, the one way into a buffer."""
        now = self.engine.now
        cc = node.cc
        if self.is_hccc:
            congestion.on_packet_arrival(cc, now, self.cfg)
        if len(cc.buffer) >= cc.capacity:
            self.log.finish(pkt, BUFFER_OVERFLOW, now)
            return
        cc.buffer.append(pkt)
        node.admitted += 1
        self._start_access(node)

    def _dequeue(self, node):
        """Take the head packet out of the node's buffer, the one way out."""
        node.removed += 1
        return node.cc.buffer.pop(0)

    # ---- traffic --------------------------------------------------------

    def _new_packet(self, node):
        """Generate the node's next packet now; returns its in-flight log row."""
        seq = node.gen_seq
        node.gen_seq += 1
        return self.log.add(node.id, seq, self.engine.now)

    def _on_generate(self, node):
        if not node.alive:
            return
        now = self.engine.now
        self._admit(node, self._new_packet(node))
        rate = self._source_rate(node)
        self.engine.schedule(now + self._gen_interval(node, rate),
                             self._on_generate, node)

    def _on_sample(self):
        now = self.engine.now
        self.rate_samples.append((now, tuple(self._source_rate(s)
                                             for s in self.sources)))
        if now + 1_000_000 <= self.limit_us:
            self.engine.schedule(now + 1_000_000, self._on_sample)

    def _on_aimd_tick(self, node):
        if not node.alive:
            return
        now = self.engine.now
        node.aimd.on_second_tick(now)
        if now + 1_000_000 <= self.limit_us:
            self.engine.schedule(now + 1_000_000, self._on_aimd_tick, node)

    # ---- public ---------------------------------------------------------

    def run(self):
        cfg = self.cfg
        self.limit_us = int(round(cfg.duration * 1_000_000))
        if cfg.offered_load > 0:
            for src in self.sources:
                src.stream = RandomStream(cfg.seed, src.id + 1)
                interval = self._gen_interval(src, self._source_rate(src))
                offset = 1 + src.stream.uniform_int(0, max(0, interval - 1))
                self.engine.schedule(offset, self._on_generate, src)
        self.engine.schedule(0, self._on_sample)
        if self.is_aimd:
            for src in self.sources:
                if 1_000_000 <= self.limit_us:
                    self.engine.schedule(1_000_000, self._on_aimd_tick, src)
        self.engine.run_until(self.limit_us)
        # The events queued past the horizon hold bound methods of this
        # Simulation; dropping them lets reference counting free the run.
        self.engine.clear()

        count = self.log.outcome.count
        initial_nj = joules_to_nj(cfg.energy_initial)
        return RunResult(
            config=cfg,
            topology=self.topology,
            records=self.log,
            generated=len(self.log),
            delivered=count(OUTCOME_CODE[DELIVERED]),
            overflow_drops=count(OUTCOME_CODE[BUFFER_OVERFLOW]),
            mac_drops=count(OUTCOME_CODE[MAC_RETRY_EXHAUSTED]),
            data_attempts=self.data_attempts,
            ctrl_attempts=self.ctrl_attempts,
            energy_initial_nj=len(self.nodes) * initial_nj,
            energy_remaining_nj=sum(n.energy_nj for n in self.nodes),
            source_ids=[s.id for s in self.sources],
            rate_samples=self.rate_samples,
            nodes=self.nodes,
            events_processed=self.engine.processed,
            mac_trace=self.mac_trace,
            hccc_trace=self.hccc_trace,
        )


def run_scenario(cfg, topology=None):
    return Simulation(cfg, topology=topology).run()
