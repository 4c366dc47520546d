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

Channel access works without per-slot polling.  A countdown is
(``remaining``, ``wake_time``): ``remaining`` slots are counted down in one
scheduled wake-up at ``wake_time``, which is 0 while no countdown runs.  A
frame the node hears freezes the countdown, keeping the partly counted slot
in ``remaining``.  Every deferral is one DIFS plus a small desynchronisation
jitter after a base: the end of the busy period, the end of the node's own
response exchange, or the end of a frame that started at that same instant.
The DIFS-after-busy rule is also what protects SIFS-separated frames of an
ongoing exchange from being trampled by waiting contenders.

A packet is its row number in the run's ``PacketLog``: node buffers,
``Node.last_accepted`` and ``Frame.data_id`` hold that int, and the log's
columns (origin, seq, hop count) are all the state a packet has.

The links between nodes live on the Simulation, indexed by node id:
``neighbors[i]`` (in ascending id order) and ``children[i]`` (the nodes
routing through i).  A node keeps only ``next_hop``, and the routes form a
tree toward the sink, so no reference cycle joins the nodes: dropping a run's
Simulation and RunResult frees it by reference counting alone.

A node buffer (``Node.cc.buffer``) is a FIFO list that only this module changes:
``_admit`` is the one way in (a drop-tail test against the capacity) and
``_dequeue`` the one way out (the head packet, sent or given up on).  Under
HCCC the congestion layer observes each arrival before the drop-tail test
and each sent packet just before its dequeue; it never moves a packet.
"""

import math
from dataclasses import dataclass, field

from . import congestion
from .config import ScenarioConfig
from .congestion import CongestionState
from .engine import Engine, RandomStream, keyed_draw, keyed_seed_mix
from .mac import RTS, CTS, DATA, ACK, Frame, MacTiming, draw_backoff
from .topology import build_topology
from .traffic import (AimdSource, EnergyBook, PacketLog, OUTCOME_CODE,
                      DELIVERED, BUFFER_OVERFLOW, MAC_RETRY_EXHAUSTED)

# MAC phases
IDLE = 0
BACKOFF = 1
AWAIT_CTS = 2
SENDING = 3
AWAIT_ACK = 4


class Node:
    __slots__ = (
        "id", "role", "next_hop",
        "stream", "energy", "alive", "death_time",
        "cc", "w", "aimd",
        "phase", "remaining", "wake_time",     # wake_time 0: no countdown
        "epoch", "retries", "access_pending", "access_started_at",
        "next_access_time",
        "tx_end", "busy_until", "busy_since", "rx_frame", "rx_prev",
        "responding_until",
        "pending_feedback", "last_accepted", "gen_seq",
        "access_delay_sum",
        "access_delay_n",       # also the number of packets forwarded
        "admitted", "removed",
    )

    def __init__(self, spec, stream, energy, cc, w):
        self.id = spec.id
        self.role = spec.role
        self.next_hop = None
        self.stream = stream
        self.energy = energy
        self.alive = True
        self.death_time = None
        self.cc = cc
        self.w = w
        self.aimd = None
        self.phase = IDLE
        self.remaining = 0
        self.wake_time = 0
        self.epoch = 0
        self.retries = 0
        self.access_pending = False
        self.access_started_at = 0
        self.next_access_time = 0
        self.tx_end = 0
        self.busy_until = 0
        self.busy_since = 0
        self.rx_frame = None
        self.rx_prev = None
        self.responding_until = 0
        self.pending_feedback = None
        self.last_accepted = {}
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

        nominal_service = self.timing.data_air + self.timing.slot
        nodes = []
        for spec in self.topology.nodes:
            stream = RandomStream(cfg.seed, spec.id + 1)
            energy = EnergyBook(cfg.energy_initial, cfg.energy_per_packet,
                                cfg.energy_control)
            if spec.role == "source":
                r_init = min(max(cfg.offered_load, cfg.r_min), cfg.r_cap)
            else:
                r_init = cfg.r_cap
            cc = CongestionState(cfg.buffer_capacity, nominal_service, r_init)
            nodes.append(Node(spec, stream, energy, cc, float(cfg.w_max)))
        self.neighbors = [[nodes[j] for j in adj]
                          for adj in self.topology.adjacency]
        self.children = [[] for _ in nodes]
        for node in nodes:
            nh = self.topology.next_hop[node.id]
            if nh is not None:
                node.next_hop = nodes[nh]
                self.children[nh].append(node)
        self.nodes = nodes

        self.sources = [n for n in nodes if n.role == "source"
                        and self.topology.reachable(n.id)]
        if self.is_aimd:
            for src in self.sources:
                src.aimd = AimdSource(max(cfg.offered_load, cfg.r_min),
                                      cfg.aimd_alpha, cfg.r_min, cfg.r_cap)
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

    def _sensed_busy(self, node, now):
        return node.tx_end > now or (node.busy_until > now
                                     and node.busy_since < now)

    def _start_tx(self, node, frame):
        now = self.engine.now
        end = now + self.timing.airtime(frame.kind)
        if frame.kind == DATA:
            node.energy.charge_data()
            self.data_attempts += 1
        else:
            self.ctrl_attempts += 1
            node.energy.charge_control()
        if (node.alive and node.energy.exhausted
                and (frame.kind == DATA or node.energy.control_nj)):
            node.alive = False
            node.death_time = now
        node.tx_end = end
        frame.heard = self.nodes[frame.dst].alive
        frame.serial = self.data_attempts + self.ctrl_attempts
        if node.wake_time > now:
            self._freeze(node, now)
        for n in self.neighbors[node.id]:
            if not n.alive:
                continue
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
        # Only the destination acts on a frame, and the sender's children on
        # the feedback an RTS carries.
        dst = self.nodes[frame.dst]
        fer = self.timing.error_rate(frame.kind)
        received = self._decoded(dst, frame, fer)
        if frame.feedback is not None:
            for n in self.children[node.id]:
                if self._decoded(n, frame, fer):
                    n.pending_feedback = frame.feedback
        if received:
            self._on_frame(dst, frame)
        if self.trace_mac:
            if received:
                outcome = "ok"
            elif not frame.heard:
                outcome = "no_receiver"
            elif not dst.alive:
                outcome = "dead_receiver"
            elif dst.rx_frame is frame or dst.rx_prev is frame:
                outcome = "corrupted"
            else:
                outcome = "collided"
            self.mac_trace.append((self.engine.now, node.id, frame.kind,
                                   frame.dst, outcome))

    def _decoded(self, n, frame, fer):
        """n is alive, heard the frame clean and its keyed error draw spares it."""
        return (n.alive and (n.rx_frame is frame or n.rx_prev is frame)
                and not (fer and keyed_draw(self.seed_mix, n.id, frame.serial) < fer))

    # ---- backoff --------------------------------------------------------

    def _defer(self, node, base):
        """Wake one DIFS plus the access jitter after base."""
        jmax = self.timing.jitter_max
        if jmax > 0:
            base += node.stream.uniform_int(0, jmax - 1)
        node.epoch += 1
        self.engine.schedule(base + self.timing.difs, self._backoff_wake, node, node.epoch)

    def _freeze(self, node, now):
        # Keep the slot in progress: count only whole slots as done.
        node.remaining = -((now - node.wake_time) // self.timing.slot)
        node.wake_time = 0
        busy_until, tx_end = node.busy_until, node.tx_end
        self._defer(node, busy_until if busy_until > tx_end else tx_end)

    def _backoff_wake(self, node, epoch):
        if epoch != node.epoch or not node.alive or node.phase != BACKOFF:
            return
        now = self.engine.now
        if node.wake_time:
            # The countdown ran out.
            node.wake_time = node.remaining = 0
        if self._sensed_busy(node, now):
            busy_until, tx_end = node.busy_until, node.tx_end
            self._defer(node, busy_until if busy_until > tx_end else tx_end)
        elif now < node.responding_until:
            self._defer(node, node.responding_until)
        elif node.remaining <= 0:
            self._tx_rts(node)
        elif node.busy_until > now:
            # A frame starting at this exact instant is not sensed, but it
            # occupies the medium for the rest of the countdown.
            self._defer(node, node.busy_until)
        else:
            node.wake_time = at = now + node.remaining * self.timing.slot
            node.epoch += 1
            self.engine.schedule(at, self._backoff_wake, node, node.epoch)

    # ---- channel access / exchange --------------------------------------

    def _start_access(self, node):
        if (node.access_pending or not node.alive or node.phase != IDLE
                or not node.cc.buffer or node.next_hop is None):
            return
        node.access_pending = True
        at = max(self.engine.now, node.next_access_time)
        self.engine.schedule(at, self._access_begin, node)

    def _access_begin(self, node):
        node.access_pending = False
        if not node.alive or node.phase != IDLE or not node.cc.buffer \
                or node.next_hop is None:
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
        if not node.alive or node.tx_end > self.engine.now:
            return
        self._start_tx(node, Frame(CTS, node.id, rts_frame.src, None,
                                   rts_frame.data_id))

    def _tx_data(self, node):
        if node.phase != SENDING or not node.alive:
            return
        now = self.engine.now
        if node.tx_end > now:
            self._retry(node)
            return
        frame = Frame(DATA, node.id, node.next_hop.id, None, node.cc.buffer[0])
        node.phase = AWAIT_ACK
        self._start_tx(node, frame)
        node.epoch += 1
        self.engine.schedule(now + self.timing.ack_timeout,
                             self._ack_timeout, node, node.epoch)

    def _tx_ack(self, node, data_frame):
        if not node.alive or node.tx_end > self.engine.now:
            return
        self._start_tx(node, Frame(ACK, node.id, data_frame.src, None,
                                   data_frame.data_id))

    def _cts_timeout(self, node, epoch):
        if epoch != node.epoch or node.phase != AWAIT_CTS:
            return
        self._retry(node)

    def _ack_timeout(self, node, epoch):
        if epoch != node.epoch or node.phase != AWAIT_ACK:
            return
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
            if node.next_hop.last_accepted.get(node.id) != pkt:
                self.log.finish(pkt, MAC_RETRY_EXHAUSTED, self.engine.now)
            node.phase = IDLE
            self._start_access(node)
            return
        self._begin_backoff(node)

    def _complete_send(self, node):
        now = self.engine.now
        if self.is_hccc:
            congestion.on_packet_departure(node.cc, now, self.timing.data_air,
                                           self.cfg)
        self._dequeue(node)
        node.access_delay_sum += now - node.access_started_at
        node.access_delay_n += 1
        node.phase = IDLE
        if node.alive:
            self._start_access(node)

    # ---- reception ------------------------------------------------------

    def _on_frame(self, node, frame):
        """Act on a frame that reached its live destination intact."""
        now = self.engine.now
        kind = frame.kind
        if kind == RTS:
            if (node.tx_end <= now and now >= node.responding_until
                    and node.phase in (IDLE, BACKOFF)):
                t = self.timing
                node.responding_until = (now + 3 * t.sifs + 2 * t.ctrl_air
                                         + t.data_air)
                self.engine.schedule(now + t.sifs, self._tx_cts, node, frame)
        elif kind == CTS:
            if (node.phase == AWAIT_CTS and node.cc.buffer
                    and frame.data_id == node.cc.buffer[0]):
                node.epoch += 1
                node.phase = SENDING
                self.engine.schedule(now + self.timing.sifs, self._tx_data, node)
        elif kind == DATA:
            self.engine.schedule(now + self.timing.sifs, self._tx_ack,
                                 node, frame)
            pkt = frame.data_id
            if node.last_accepted.get(frame.src) == pkt:
                return
            node.last_accepted[frame.src] = pkt
            self.log.hops[pkt] += 1
            if node.id == 0:
                self._deliver_at_sink(pkt, now)
            else:
                self._admit(node, pkt)
        elif kind == ACK:
            if (node.phase == AWAIT_ACK and node.cc.buffer
                    and frame.data_id == node.cc.buffer[0]):
                node.epoch += 1
                self._complete_send(node)

    def _deliver_at_sink(self, pkt, now):
        self.log.finish(pkt, DELIVERED, now)
        if self.is_aimd:
            origin, seq = self.log.origin[pkt], self.log.seq[pkt]
            expected = self.sink_expected.get(origin, 0)
            if seq > expected:
                src = self.nodes[origin]
                if src.aimd is not None and src.alive:
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

        total_initial = sum(n.energy.initial_nj for n in self.nodes)
        total_remaining = sum(n.energy.remaining_nj for n in self.nodes)
        count = self.log.outcome.count
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
            energy_initial_nj=total_initial,
            energy_remaining_nj=total_remaining,
            source_ids=[s.id for s in self.sources],
            rate_samples=self.rate_samples,
            nodes=self.nodes,
            events_processed=self.engine.processed,
            mac_trace=self.mac_trace,
            hccc_trace=self.hccc_trace,
        )


def run_scenario(cfg, topology=None):
    return Simulation(cfg, topology=topology).run()
