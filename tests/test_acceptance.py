"""End-to-end acceptance checks.

Each test prints a one-line verdict so the suite output doubles as an
acceptance report.  The comparative checks use paired seeds: every scheme
sees the identical seed list, so differences are attributable to the scheme.
"""

import math
import time

from scipy.stats import spearmanr

from hcccsim import cli, congestion, metrics
from hcccsim.config import ScenarioConfig, validate
from hcccsim.congestion import CongestionState
from hcccsim.engine import RandomStream
from hcccsim.simulation import Simulation, run_scenario
from hcccsim.traffic import DELIVERED, BUFFER_OVERFLOW, MAC_RETRY_EXHAUSTED, IN_FLIGHT

from conftest import contention_topology, map_runs

P = ScenarioConfig()


# ---- 1. four-case adjustment vs. independent transcription ---------------

def adjustment_reference(b_local, b_down, r, w, r_max, params):
    """Independent table transcription of the four-case rule; shares no code
    with the implementation."""
    b_max = params.b_max
    delta_r = 0.5 * (r_max - r)
    if b_down > b_max:
        if b_local > b_max:
            return 0.25 * r, 0.5 * (5.0 * w * b_local + 0.1 * w * (1.0 / b_down))
        else:
            return 0.5 * r, 5.0 * w * b_down
    else:
        if b_local > b_max:
            term = math.inf if b_down == 0.0 else 0.1 * w * (1.0 / b_down)
            return min(0.5 * r, r + delta_r), min(10.0 * w * b_down, term)
        else:
            return r + delta_r, 10.0 * w * b_down


def test_acceptance_1_adjustment_oracle():
    start = time.time()
    stream = RandomStream(31337)
    for i in range(10_000):
        b_local = stream.random()
        b_down = stream.random()
        r = 0.1 + stream.random() * 199.9
        r_max = r + stream.random() * (200.0 - r)
        w = 1.0 + stream.random() * 62.0
        got = congestion.feedback_update(b_local, b_down, r, w, r_max, P)
        want = adjustment_reference(b_local, b_down, r, w, r_max, P)
        for g, e in zip(got, want):
            assert abs(g - e) <= 1e-12 * max(1.0, abs(e)), \
                (i, b_local, b_down, r, w, r_max, got, want)

    # worked examples, post-clamp
    def with_occupancy(occ, r, r_max):
        st = CongestionState(10, 2600, r)
        st.R_max = r_max
        st.buffer.extend(range(occ))
        return st

    assert congestion.process_feedback(with_occupancy(5, 100.0, 100.0),
                                       16.0, 0.5, P) == (25.0, 21.6)
    assert congestion.process_feedback(with_occupancy(3, 100.0, 100.0),
                                       16.0, 0.6, P) == (50.0, 48.0)
    assert congestion.process_feedback(with_occupancy(6, 100.0, 120.0),
                                       16.0, 0.2, P) == (50.0, 8.0)
    assert congestion.process_feedback(with_occupancy(1, 50.0, 100.0),
                                       16.0, 0.2, P) == (75.0, 32.0)
    elapsed = time.time() - start
    assert elapsed < 1.0, elapsed
    print("acceptance 1: adjustment oracle, 10^4 tuples + 4 examples "
          "in %.2fs PASS" % elapsed)


# ---- 2. averaging fixtures ----------------------------------------------

def test_acceptance_2_averaging_fixtures():
    params = ScenarioConfig()
    st = CongestionState(500, 2600, 100.0)
    st.T_s = 10_000.0
    congestion.on_packet_arrival(st, 0, params)
    congestion.on_packet_arrival(st, 20_000, params)
    assert st.T_a == 13_000.0

    st = CongestionState(500, 2600, 100.0)
    st.buffer.extend(range(3))
    congestion.on_packet_departure(st, 0, 1600, params)
    congestion.on_packet_departure(st, 15_000, 1600, params)
    assert st.T_s == 10_980.0
    print("acceptance 2: averaging fixtures 13000us / 10980us exact PASS")


# ---- 3 & 4. contention-window monotonicity on a saturated 2-sender fixture

WINDOWS = (1, 7, 15, 31, 63)
SEEDS = tuple(range(1, 11))


def saturated_cfg(seed):
    return validate(ScenarioConfig(node_count=3, source_count=2, duration=5.0,
                                   warmup=0.0, scheme="none", offered_load=200.0,
                                   energy_per_packet=0.0, seed=seed))


def test_acceptance_3_delay_grows_with_window():
    start = time.time()
    mean_delay = []
    for w in WINDOWS:
        per_seed = []
        for seed in SEEDS:
            sim = Simulation(saturated_cfg(seed), topology=contention_topology())
            sim.nodes[1].w = sim.nodes[2].w = float(w)
            result = sim.run()
            total = sum(n.access_delay_sum for n in result.nodes[1:])
            count = sum(n.access_delay_n for n in result.nodes[1:])
            assert count > 0
            per_seed.append(total / count)
        mean_delay.append(sum(per_seed) / len(per_seed))
    rho = spearmanr(WINDOWS, mean_delay).statistic
    elapsed = time.time() - start
    assert rho >= 0.9, (rho, mean_delay)
    assert elapsed < 30.0, elapsed
    print("acceptance 3: mean access delay vs W rho=%.3f over %d seeds "
          "in %.1fs PASS" % (rho, len(SEEDS), elapsed))


def test_acceptance_4_forwarding_rate_falls_with_own_window():
    mean_rate = []
    for w in WINDOWS:
        per_seed = []
        for seed in SEEDS:
            sim = Simulation(saturated_cfg(seed), topology=contention_topology())
            sim.nodes[1].w, sim.nodes[2].w = float(w), 15.0
            result = sim.run()
            per_seed.append(result.nodes[1].access_delay_n / 5.0)
        mean_rate.append(sum(per_seed) / len(per_seed))
    rho = spearmanr(WINDOWS, mean_rate).statistic
    assert rho <= -0.9, (rho, mean_rate)
    print("acceptance 4: forwarding rate vs own W rho=%.3f PASS" % rho)


# ---- 5. comparative overload --------------------------------------------

def run_report(cfg):
    """The metrics report of one run: the worker the pooled checks map."""
    return metrics.build_report(run_scenario(cfg))


def test_acceptance_5_overload_comparison():
    start = time.time()
    loss_wins = 0
    eff_wins = 0
    schemes = ("hccc", "none")
    configs = [validate(ScenarioConfig(scheme=scheme, seed=seed,
                                       offered_load=15.0, duration=300.0))
               for seed in SEEDS for scheme in schemes]
    runs = iter(map_runs(run_report, configs))
    for _ in SEEDS:
        reports = {scheme: next(runs) for scheme in schemes}
        if reports["hccc"].packet_loss_ratio < reports["none"].packet_loss_ratio:
            loss_wins += 1
        if reports["hccc"].energy_efficiency >= reports["none"].energy_efficiency:
            eff_wins += 1
    elapsed = time.time() - start
    assert loss_wins >= 9, loss_wins
    assert eff_wins >= 9, eff_wins
    assert elapsed < 300.0, elapsed
    print("acceptance 5: overload loss wins %d/10, efficiency wins %d/10 "
          "in %.0fs PASS" % (loss_wins, eff_wins, elapsed))


# ---- 6. source-rate stability -------------------------------------------

def test_acceptance_6_rate_stability():
    # The rate transient at the reference parameters takes 150-300 simulated
    # seconds; stability is judged on the settled interval, so the run is
    # extended to 400 s with the variation window starting at 300 s.
    wins = 0
    covs = []
    schemes = ("hccc", "aimd_e2e")
    configs = [validate(ScenarioConfig(scheme=scheme, seed=seed,
                                       duration=400.0, warmup=300.0))
               for seed in SEEDS for scheme in schemes]
    runs = iter(map_runs(run_report, configs))
    for _ in SEEDS:
        cov = {scheme: next(runs).source_rate_cov for scheme in schemes}
        covs.append(cov)
        if cov["hccc"] <= cov["aimd_e2e"]:
            wins += 1
    assert wins >= 8, (wins, covs)
    print("acceptance 6: rate CoV wins %d/10 PASS" % wins)


# ---- 7. fairness function ------------------------------------------------

def test_acceptance_7_fairness():
    assert metrics.fairness([2.5] * 8) == 1.0
    for n in (2, 5, 20):
        phi = metrics.fairness([7.0] + [0.0] * (n - 1))
        assert abs(phi - 1.0 / n) < 1e-12
    assert abs(metrics.fairness([1.0, 2.0, 3.0]) - 6.0 / 7.0) < 1e-9
    print("acceptance 7: fairness 1 / 1/N / 6/7 PASS")


# ---- 8. conservation audits ---------------------------------------------

def test_acceptance_8_conservation_audits():
    for scheme in ("hccc", "none", "aimd_e2e"):
        cfg = validate(ScenarioConfig(scheme=scheme, duration=30.0, seed=2))
        result = run_scenario(cfg)
        tally = {DELIVERED: 0, BUFFER_OVERFLOW: 0, MAC_RETRY_EXHAUSTED: 0,
                 IN_FLIGHT: 0}
        for r in result.records:
            tally[r.outcome] += 1
        assert sum(tally.values()) == result.generated
        assert tally[DELIVERED] == result.delivered
        assert tally[BUFFER_OVERFLOW] == result.overflow_drops
        assert tally[MAC_RETRY_EXHAUSTED] == result.mac_drops
        consumed = result.energy_initial_nj - result.energy_remaining_nj
        assert consumed == 100_000 * result.data_attempts   # 1e-4 J in nJ
    print("acceptance 8: outcome partition and energy identity exact PASS")


# ---- 9. byte-identical reruns -------------------------------------------

def test_acceptance_9_determinism(tmp_path):
    cfg = validate(ScenarioConfig(duration=15.0, seed=6, trace_packets=True))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        cli.run_one(cfg, str(out))
        blobs = {}
        for path in sorted(out.iterdir()):
            blobs[path.name] = path.read_bytes()
        outputs.append(blobs)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    print("acceptance 9: re-run output byte-identical PASS")
