"""Congestion state transitions: averaging, detection, feedback adjustment, relaying."""

import pytest

from hcccsim import congestion
from hcccsim.congestion import (CongestionLogicError, CongestionState,
                                DECLARE_CONGESTION, DAMP_LOCAL_RATE,
                                CLEAR_CONGESTION, NO_CHANGE)
from hcccsim.config import ScenarioConfig
from hcccsim.engine import RandomStream
from hcccsim.mac import MacTiming
from hcccsim.simulation import Simulation
from hcccsim.traffic import BUFFER_OVERFLOW, DELIVERED, OUTCOME_CODE

from conftest import inject_packet, make_topology, small_cfg, two_node_topology

P = ScenarioConfig()
P_CONV = ScenarioConfig(legacy_ewma=False)


def fresh_state(capacity=500, nominal=2600, r=100.0):
    return CongestionState(capacity, nominal, r)


def fill(state, k):
    for i in range(k):
        state.buffer.append(object())


# ---- inter-arrival / service averaging ----------------------------------

def test_arrival_average_legacy_fixture():
    # second arrival 20 ms after the first, service average at 10 ms
    st = fresh_state()
    st.T_s = 10_000.0
    congestion.on_packet_arrival(st, 0, P)
    congestion.on_packet_arrival(st, 20_000, P)
    assert st.T_a == 13_000.0


def test_arrival_average_conventional_fixture():
    st = fresh_state()
    st.T_a = 10_000.0
    congestion.on_packet_arrival(st, 0, P_CONV)
    congestion.on_packet_arrival(st, 20_000, P_CONV)
    assert st.T_a == 13_000.0


def test_departure_average_legacy_fixture():
    # consecutive departures 15 ms apart, airtime 1.6 ms
    st = fresh_state()
    fill(st, 3)
    congestion.on_packet_departure(st, 0, 1600, P)
    congestion.on_packet_departure(st, 15_000, 1600, P)
    assert st.T_s == 10_980.0


def test_departure_average_conventional_fixture():
    st = fresh_state()
    st.T_s = 15_000.0
    fill(st, 3)
    congestion.on_packet_departure(st, 0, 1600, P_CONV)
    congestion.on_packet_departure(st, 40_000, 1600, P_CONV)
    assert st.T_s == 10_980.0


def test_first_arrival_initializes_without_ewma_step():
    st = fresh_state()
    before = st.T_a
    congestion.on_packet_arrival(st, 12_345, P)
    assert st.T_a == before
    assert st.last_arrival == 12_345
    assert not st.arrivals_updated


def test_full_buffer_drop_still_updates_average():
    # The simulation observes an arrival before its drop-tail test, so a
    # packet dropped at a full buffer still advances T_a.
    sim = Simulation(small_cfg(node_count=2, source_count=1, scheme="hccc",
                               buffer_capacity=1),
                     topology=two_node_topology())
    source = sim.nodes[1]
    inject_packet(sim, source)
    sim.engine.run_until(1000)          # long before the exchange ends
    dropped = inject_packet(sim, source)
    st = source.cc
    assert sim.log.outcome[dropped] == OUTCOME_CODE[BUFFER_OVERFLOW]
    assert (source.admitted, st.b_r) == (1, 1.0)
    assert st.arrivals_updated and st.last_arrival == 1000
    assert st.T_a == (1.0 - P.p) * st.T_s + P.p * 1000


def test_arrival_time_backwards_is_fatal():
    st = fresh_state()
    congestion.on_packet_arrival(st, 1000, P)
    with pytest.raises(CongestionLogicError):
        congestion.on_packet_arrival(st, 999, P)


def test_departure_with_empty_buffer_is_fatal():
    st = fresh_state()
    with pytest.raises(CongestionLogicError):
        congestion.on_packet_departure(st, 0, 1600, P)


def test_departure_pops_fifo_head():
    # A sent packet is observed in T_s and then leaves the buffer at its
    # head.  A relay paces at r_cap, so both go out within the second.
    sim = Simulation(small_cfg(node_count=2, source_count=1, scheme="hccc"),
                     topology=make_topology([(0.0, 0.0), (10.0, 0.0)],
                                            ["sink", "relay"]))
    relay = sim.nodes[1]
    first, second = inject_packet(sim, relay), inject_packet(sim, relay)
    sim.engine.run_until(1_000_000)
    delivered = OUTCOME_CODE[DELIVERED]
    assert sim.log.outcome[first] == sim.log.outcome[second] == delivered
    assert sim.log.end_us[first] < sim.log.end_us[second]
    assert (relay.removed, len(relay.cc.buffer)) == (2, 0)
    assert relay.cc.departures_updated


def test_degree_deferred_until_both_updated():
    st = fresh_state()
    congestion.apply_detect(st, P)
    assert st.C_d is None
    congestion.on_packet_arrival(st, 0, P)
    congestion.on_packet_arrival(st, 1000, P)
    congestion.apply_detect(st, P)
    assert st.C_d is None  # no departure sample yet
    fill(st, 2)
    congestion.on_packet_departure(st, 2000, 1600, P)
    congestion.on_packet_departure(st, 3000, 1600, P)
    congestion.apply_detect(st, P)
    assert st.C_d == st.T_s / st.T_a


# ROADMAP item 11 pins what C_d = T_s / T_a compares in each averaging mode.
# These tests describe today's behaviour; they do not endorse it.
GAPS = (0, 1, 400, 1000, 1599, 1600, 1601, 2600, 4000, 12_345, 100_000)


def test_legacy_degree_compares_the_last_arrival_gap_with_T_s():
    # T_a = (1-p) T_s + p g_a keeps no history, so with no departure after
    # the last arrival C_d > 1 exactly when the last arrival gap g_a < T_s.
    data_air = MacTiming(P).data_air
    for g_d in GAPS:
        for g_a in GAPS:
            st = fresh_state()
            fill(st, 2)
            congestion.on_packet_arrival(st, 0, P)
            congestion.on_packet_arrival(st, 100_000 - g_a, P)
            congestion.on_packet_departure(st, 100_000, data_air, P)
            congestion.on_packet_departure(st, 100_000 + g_d, data_air, P)
            congestion.on_packet_arrival(st, 100_000 + g_d, P)
            congestion.on_packet_arrival(st, 100_000 + g_d + g_a, P)
            congestion.apply_detect(st, P)
            assert (st.C_d > 1.0) == (g_a < st.T_s), (g_d, g_a, st.T_s)


def test_conventional_service_average_tends_to_the_data_airtime():
    # legacy_ewma = false averages the airtime it is handed, never a gap:
    # T_s falls from its seed (airtime plus a slot) to the airtime,
    # the same for every sequence of departure gaps.
    data_air = MacTiming(P_CONV).data_air
    stream = RandomStream(11)
    ends = set()
    for run in range(5):
        st = fresh_state(nominal=data_air + MacTiming(P_CONV).slot)
        fill(st, 100)
        t, trail = 0, []
        for _ in range(100):
            t += 0 if run == 0 else stream.uniform_int(0, 10 ** run)
            congestion.on_packet_departure(st, t, data_air, P_CONV)
            trail.append(st.T_s)
        assert trail == sorted(trail, reverse=True)
        ends.add(st.T_s)
    assert len(ends) == 1
    assert abs(ends.pop() - data_air) < 1e-9


# ---- detection ----------------------------------------------------------

def ready_state(t_s, t_a, occupancy, capacity=10):
    st = fresh_state(capacity=capacity)
    st.T_s = t_s
    st.T_a = t_a
    st.arrivals_updated = True
    st.departures_updated = True
    fill(st, occupancy)
    return st


def test_detect_rule_table():
    # (T_s, T_a, buffered/10, expected)
    cases = [
        (1300.0, 1000.0, 6, DECLARE_CONGESTION),   # C_d>1, B_r>B_max
        (1300.0, 1000.0, 2, DAMP_LOCAL_RATE),      # C_d>1, B_r<=B_max
        (900.0, 1000.0, 2, CLEAR_CONGESTION),      # C_d<=1, B_r<=B_max
        (900.0, 1000.0, 6, NO_CHANGE),             # draining but still loaded
        (1000.0, 1000.0, 0, CLEAR_CONGESTION),     # balanced node, C_d=1 exactly
        (1300.0, 1000.0, 4, DAMP_LOCAL_RATE),      # B_r=B_max exactly, strict >
        (1000.0, 1000.0, 6, NO_CHANGE),            # C_d=1 exactly, loaded
    ]
    for t_s, t_a, occ, expected in cases:
        st = ready_state(t_s, t_a, occ)
        assert congestion.apply_detect(st, P) == expected, (t_s, t_a, occ)


def test_detect_before_ready_is_no_change():
    st = fresh_state()
    fill(st, 400)
    assert congestion.apply_detect(st, P) == NO_CHANGE
    assert st.C_d is None


def test_apply_detect_sets_and_clears_flag():
    # Declaring and clearing congestion are trace labels: R and R_max stay.
    st = ready_state(1300.0, 1000.0, 6)
    st.R, st.R_max = 80.0, 120.0
    assert congestion.apply_detect(st, P) == DECLARE_CONGESTION
    assert (st.R, st.R_max) == (80.0, 120.0)
    st.T_s = 900.0
    st.buffer.clear()
    assert congestion.apply_detect(st, P) == CLEAR_CONGESTION
    assert (st.R, st.R_max) == (80.0, 120.0)


def test_apply_detect_damping_divides_rate_by_degree():
    st = ready_state(1300.0, 1000.0, 2)
    st.R = 100.0
    st.R_max = 150.0
    congestion.apply_detect(st, P)
    assert st.R == 100.0 / 1.3
    assert st.R_max == st.R  # decrease resets the high-water mark


def test_apply_detect_damping_respects_rate_floor():
    st = ready_state(2600.0, 1000.0, 2)
    st.R = 0.15
    congestion.apply_detect(st, P)
    assert st.R == P.r_min


# ---- four-case feedback adjustment --------------------------------------

def feedback_state(occupancy, r, r_max, capacity=10):
    st = fresh_state(capacity=capacity)
    fill(st, occupancy)
    st.R = r
    st.R_max = r_max
    return st


def test_feedback_case1_both_congested():
    st = feedback_state(5, 100.0, 100.0)   # B_r = 0.5
    r, w = congestion.process_feedback(st, 16.0, 0.5, P)
    assert r == 25.0
    assert w == 21.6


def test_feedback_case2_downstream_congested():
    st = feedback_state(3, 100.0, 100.0)   # B_r = 0.3
    r, w = congestion.process_feedback(st, 16.0, 0.6, P)
    assert r == 50.0
    assert w == 48.0


def test_feedback_case3_local_congested():
    st = feedback_state(6, 100.0, 120.0)   # B_r = 0.6
    r, w = congestion.process_feedback(st, 16.0, 0.2, P)
    assert r == 50.0
    assert w == 8.0


def test_feedback_case4_neither_congested():
    st = feedback_state(1, 50.0, 100.0)    # B_r = 0.1
    r, w = congestion.process_feedback(st, 16.0, 0.2, P)
    assert r == 75.0
    assert w == 32.0


def test_feedback_window_clamps():
    # raw W' = 5*107*0.6 = 321 -> 63
    st = feedback_state(3, 100.0, 100.0)
    _, w = congestion.process_feedback(st, 107.0, 0.6, P)
    assert w == 63.0
    # raw W' = 10*1*0.04 = 0.4 -> 1
    st = feedback_state(1, 50.0, 100.0)
    _, w = congestion.process_feedback(st, 1.0, 0.04, P)
    assert w == 1.0


def test_feedback_rate_clamps():
    st = feedback_state(5, 0.2, 0.2)       # 0.25*0.2 < floor
    r, _ = congestion.process_feedback(st, 16.0, 0.5, P)
    assert r == P.r_min
    st = feedback_state(1, 150.0, 300.0)
    st.R_max = 300.0                       # increase shoots past the ceiling
    r, _ = congestion.process_feedback(st, 16.0, 0.2, P)
    assert r == P.r_cap


def test_feedback_boundary_b_r_equal_b_max_is_increase_case():
    st = feedback_state(4, 50.0, 100.0)    # B_r = B_max = 0.4 exactly
    r, w = congestion.process_feedback(st, 16.0, 0.2, P)
    assert r == 75.0                       # case-4 additive increase
    assert w == 32.0


def test_feedback_zero_downstream_occupancy():
    # 1/B'_r guard: case 3 window term min(0, inf) = 0, clamped to W_min
    st = feedback_state(6, 100.0, 120.0)
    r, w = congestion.process_feedback(st, 16.0, 0.0, P)
    assert r == 50.0
    assert w == 1.0


def test_feedback_malformed_occupancy_rejected():
    st = feedback_state(3, 100.0, 100.0)
    for bad in (-0.1, 1.5, 2.0):
        with pytest.raises(ValueError):
            congestion.process_feedback(st, 16.0, bad, P)


def test_feedback_case_totality_on_dense_grid():
    # exactly one case predicate fires for every occupancy pair
    b_max = P.b_max
    grid = [i / 40.0 for i in range(41)]
    for b_local in grid:
        for b_down in grid:
            cases = [b_down > b_max and b_local > b_max,
                     b_down > b_max and not b_local > b_max,
                     not b_down > b_max and b_local > b_max,
                     not b_down > b_max and not b_local > b_max]
            assert sum(cases) == 1
            r, w = congestion.feedback_update(b_local, b_down, 100.0, 16.0,
                                              120.0, P)
            assert r >= 0.0
            assert w >= 0.0


def test_feedback_aimd_invariants_random_tuples():
    stream = RandomStream(77)
    for _ in range(2000):
        b_local = stream.random()
        b_down = stream.random()
        r = P.r_min + stream.random() * (P.r_cap - P.r_min)
        r_max = r + stream.random() * (P.r_cap - r)
        w = 1.0 + stream.random() * 62.0
        r_new, w_new = congestion.feedback_update(b_local, b_down, r, w, r_max, P)
        if b_down > P.b_max:
            # multiplicative decrease, pre-clamp
            assert r_new <= 0.5 * r + 1e-12
        elif b_local <= P.b_max:
            # additive increase, equality only when R is at the mark
            assert r_new >= r - 1e-12
            if r_max > r:
                assert r_new > r


def test_apply_feedback_r_max_bookkeeping():
    # congestion-triggered decrease resets the mark to the new rate
    st = feedback_state(3, 100.0, 150.0)
    congestion.apply_feedback(st, 16.0, 0.6, P)
    assert st.R == 50.0
    assert st.R_max == 50.0
    # additive increase leaves the mark, which R never passes
    st = feedback_state(1, 50.0, 100.0)
    w = congestion.apply_feedback(st, 16.0, 0.2, P)
    assert st.R == 75.0
    assert st.R_max == 100.0
    assert w == 32.0


def test_apply_feedback_relay_hold():
    # a congested ratio is held only when sent_own is set and the node itself
    # is not congested
    st = feedback_state(2, 100.0, 100.0)
    st.sent_own = True
    congestion.apply_feedback(st, 16.0, 0.7, P)
    assert st.relay == 0.7
    st = feedback_state(2, 100.0, 100.0)
    congestion.apply_feedback(st, 16.0, 0.7, P)
    assert st.relay is None
    st = feedback_state(6, 100.0, 100.0)
    st.sent_own = True
    congestion.apply_feedback(st, 16.0, 0.7, P)
    assert st.relay is None
    st = feedback_state(2, 100.0, 100.0)
    st.sent_own = True
    congestion.apply_feedback(st, 16.0, 0.1, P)
    assert st.relay is None
    # a malformed ratio raises before anything changes
    for bad in (-0.1, 1.5):
        st = feedback_state(2, 80.0, 120.0)
        st.sent_own = True
        with pytest.raises(ValueError):
            congestion.apply_feedback(st, 16.0, bad, P)
        assert (st.R, st.R_max, st.relay) == (80.0, 120.0, None)


def test_r_max_never_below_r():
    stream = RandomStream(88)
    st = feedback_state(0, 50.0, 50.0, capacity=20)
    for i in range(500):
        occ = stream.uniform_int(0, 20)
        st.buffer.clear()
        fill(st, occ)
        congestion.apply_feedback(st, 16.0, stream.random(), P)
        assert st.R_max >= st.R - 1e-12
        assert P.r_min <= st.R <= P.r_cap


# ---- feedback generation / relaying -------------------------------------

def test_generate_feedback_threshold_strict():
    st = feedback_state(5, 100.0, 100.0)
    assert congestion.generate_feedback(st, P) == 0.5
    assert st.sent_own
    st = feedback_state(4, 100.0, 100.0)   # exactly B_max: not congested
    assert congestion.generate_feedback(st, P) == 0.4
    assert not st.sent_own
    st = feedback_state(0, 100.0, 100.0)
    assert congestion.generate_feedback(st, P) == 0.0
    assert not st.sent_own


def test_should_relay_rule_table():
    congested_in, quiet_in = 0.7, 0.1
    # locally congested: never relay, own signal takes precedence
    st = feedback_state(6, 100.0, 100.0)
    st.sent_own = True
    assert not congestion.should_relay(st, congested_in, P)
    # not congested, incoming congested, last signal was our own: relay
    st = feedback_state(2, 100.0, 100.0)
    st.sent_own = True
    assert congestion.should_relay(st, congested_in, P)
    # same but no own congested signal since the last relay (or ever): suppress
    st.sent_own = False
    assert not congestion.should_relay(st, congested_in, P)
    # incoming exactly at B_max is not congested
    st.sent_own = True
    assert not congestion.should_relay(st, P.b_max, P)
    # nothing congested anywhere: nothing to relay
    assert not congestion.should_relay(st, quiet_in, P)
