"""The MAC facts that let ``simulation.py`` do without a guard, checked
where each guard would stand.

A node's MAC state is two fields: ``phase`` says what the node is doing and
``epoch`` which of its queued events are still live.  The handlers test no
condition that these two fields, or the order of the handlers, rule out.
``GuardedSimulation`` asserts the rule that makes most of them false, and,
at each place such a test would go, that its condition is false:

* every exit from BACKOFF, AWAIT_CTS and AWAIT_ACK bumps the epoch in the
  handler that makes it (``_tx_rts`` in a wake-up, CTS or ACK receipt,
  ``_retry`` in a timeout);
* so a live ``_backoff_wake`` finds its node in BACKOFF, a live
  ``_cts_timeout`` in AWAIT_CTS and a live ``_ack_timeout`` in AWAIT_ACK;
* ``_tx_data`` finds its node SENDING: one ``_tx_data`` is queued per entry
  into SENDING, and only ``_tx_data`` leaves it;
* ``_access_begin`` finds its node PENDING, with a packet and a next hop:
  only the AWAIT phases and SENDING dequeue, and a node that holds a packet
  is never the sink;
* ``_start_access`` is called only for a node with a next hop, and leaves a
  dead node's phase as it was, so ``_complete_send`` need not test
  ``alive``;
* ``_tx_cts``, ``_tx_data`` and ``_tx_ack`` find their node alive and off
  the air, and so does an RTS the node answers: a node answers only outside
  its response window and sends no RTS inside it, and a SENDING node has
  started nothing since its RTS ended;
* a CTS or ACK that finds its node in the matching AWAIT phase is for the
  packet at the head of its buffer: it arrives one slot before its
  sender's timeout, and the head changes only when an exchange ends;
* under ``aimd_e2e`` each packet delivered at the sink comes from a source
  with an AIMD controller;
* ``_start_tx`` is called only for a live sender.

The generated scenarios run on a subclass of it
(``test_generated_scenarios.CountingSimulation``); here it runs the channel
audit's two short runs, and must flag three doctored runs: one whose ACK
receipt leaves the epoch as it was, one with a stray CTS timeout and one
that queues an ACK while the node is on the air.
"""

import pytest

from hcccsim.config import ScenarioConfig, validate
from hcccsim.mac import ACK, CTS, DATA, RTS
from hcccsim.simulation import (AWAIT_ACK, AWAIT_CTS, BACKOFF, PENDING,
                                SENDING, Simulation)

from conftest import inject_packet, small_cfg, two_node_topology
from test_channel_audit import RUNS

# The phases whose every exit bumps the epoch.
BUMPED_EXITS = (BACKOFF, AWAIT_CTS, AWAIT_ACK)


def check_exit(name, node, phase, epoch):
    assert phase not in BUMPED_EXITS or node.phase == phase or \
        node.epoch != epoch, (
            "%s: node %d left phase %d with its epoch unchanged"
            % (name, node.id, phase))


def check_can_respond(name, node, now):
    assert node.alive, "%s: node %d is dead" % (name, node.id)
    assert node.tx_end <= now, "%s: node %d is on the air" % (name, node.id)


class GuardedSimulation(Simulation):
    """A Simulation that asserts the facts of the module docstring."""

    def _start_tx(self, node, frame):
        assert node.alive, "_start_tx: node %d is dead" % node.id
        super()._start_tx(node, frame)

    def _backoff_wake(self, node, epoch):
        phase, live = node.phase, node.epoch
        assert epoch != live or phase == BACKOFF, (
            "_backoff_wake: live epoch at node %d in phase %d"
            % (node.id, phase))
        super()._backoff_wake(node, epoch)
        check_exit("_backoff_wake", node, phase, live)

    def _cts_timeout(self, node, epoch):
        phase, live = node.phase, node.epoch
        assert epoch != live or phase == AWAIT_CTS, (
            "_cts_timeout: live epoch at node %d in phase %d"
            % (node.id, phase))
        super()._cts_timeout(node, epoch)
        check_exit("_cts_timeout", node, phase, live)

    def _ack_timeout(self, node, epoch):
        phase, live = node.phase, node.epoch
        assert epoch != live or phase == AWAIT_ACK, (
            "_ack_timeout: live epoch at node %d in phase %d"
            % (node.id, phase))
        super()._ack_timeout(node, epoch)
        check_exit("_ack_timeout", node, phase, live)

    def _tx_cts(self, node, rts_frame):
        check_can_respond("_tx_cts", node, self.engine.now)
        super()._tx_cts(node, rts_frame)

    def _tx_data(self, node):
        assert node.phase == SENDING, (
            "_tx_data: node %d in phase %d" % (node.id, node.phase))
        check_can_respond("_tx_data", node, self.engine.now)
        super()._tx_data(node)

    def _tx_ack(self, node, data_frame):
        check_can_respond("_tx_ack", node, self.engine.now)
        super()._tx_ack(node, data_frame)

    def _start_access(self, node):
        assert node.next_hop is not None, (
            "_start_access: node %d has no next hop" % node.id)
        phase = node.phase
        super()._start_access(node)
        assert node.alive or node.phase == phase, (
            "_start_access: dead node %d left phase %d" % (node.id, phase))

    def _access_begin(self, node):
        assert (node.phase == PENDING and node.cc.buffer
                and node.next_hop is not None), (
            "_access_begin: node %d in phase %d with %d packets"
            % (node.id, node.phase, len(node.cc.buffer)))
        super()._access_begin(node)

    def _on_frame(self, node, frame):
        phase, epoch, now = node.phase, node.epoch, self.engine.now
        if (frame.kind == RTS and now >= node.responding_until
                and phase <= BACKOFF):
            assert node.tx_end <= now, (
                "_on_frame: RTS answered by node %d on the air" % node.id)
        if (frame.kind == CTS and phase == AWAIT_CTS
                or frame.kind == ACK and phase == AWAIT_ACK):
            assert node.cc.buffer and frame.data_id == node.cc.buffer[0], (
                "_on_frame: %s to node %d is not for its head packet"
                % (frame.kind, node.id))
        super()._on_frame(node, frame)
        check_exit("_on_frame", node, phase, epoch)

    def _deliver_at_sink(self, pkt, now):
        origin = self.log.origin[pkt]
        assert not self.is_aimd or self.nodes[origin].aimd is not None, (
            "_deliver_at_sink: source %d has no AIMD controller" % origin)
        super()._deliver_at_sink(pkt, now)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_short_runs_keep_the_guard_facts(name):
    cfg = validate(ScenarioConfig(warmup=2.0, trace_mac=True, **RUNS[name]))
    GuardedSimulation(cfg).run()


class ForgetfulAckSimulation(GuardedSimulation):
    """ACK receipt that leaves the epoch as it was, so the ACK timeout of
    the exchange it ends stays live."""

    def _complete_send(self, node):
        node.epoch -= 1
        super()._complete_send(node)


def one_packet(cls):
    """A cls run of one packet over one hop, its source queued to send."""
    sim = cls(small_cfg(node_count=2, source_count=1),
              topology=two_node_topology())
    inject_packet(sim, sim.nodes[1])
    return sim


def test_one_packet_keeps_the_guard_facts():
    assert one_packet(GuardedSimulation).run().delivered == 1


def test_an_exit_that_keeps_the_epoch_is_flagged():
    with pytest.raises(AssertionError, match="_on_frame: node 1 left phase "
                       "%d with its epoch unchanged" % AWAIT_ACK):
        one_packet(ForgetfulAckSimulation).run()


class DoubleAckSimulation(GuardedSimulation):
    """DATA receipt that queues a second ACK one microsecond after the
    first, while the first is on the air."""

    def _on_frame(self, node, frame):
        super()._on_frame(node, frame)
        if frame.kind == DATA:
            self.engine.schedule(self.engine.now + self.timing.sifs + 1,
                                 self._tx_ack, node, frame)


def test_an_ack_queued_on_the_air_is_flagged():
    with pytest.raises(AssertionError, match="_tx_ack: node 0 is on the air"):
        one_packet(DoubleAckSimulation).run()


def test_a_live_timeout_outside_its_phase_is_flagged():
    # A CTS timeout queued with the source's epoch while its access is
    # still pending; it runs before the access begins.
    sim = GuardedSimulation(small_cfg(node_count=2, source_count=1),
                            topology=two_node_topology())
    source = sim.nodes[1]
    sim.engine.schedule(0, sim._cts_timeout, source, source.epoch)
    inject_packet(sim, source)
    with pytest.raises(AssertionError, match="_cts_timeout: live epoch at "
                       "node 1 in phase %d" % PENDING):
        sim.run()
