"""Golden output digests: the CSV bytes of short scenarios, pinned across versions.

Each scenario runs through ``cli.run_one`` with every trace on (packets, MAC,
HCCC).  The SHA-256 of every CSV it writes must equal the digest in
``golden/digests.json``, and the number of events the run dispatched the
count in ``golden/events.json``; the channel and MAC audits read the same
runs.  A change that alters output or the event schedule on purpose declares
it in CHANGES.md and regenerates both files, which prints every scenario CSV
whose digest moved and every scenario whose event count moved:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace

import pytest

from hcccsim import cli
from hcccsim.config import ScenarioConfig, validate
from hcccsim.simulation import Simulation

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DIGESTS = os.path.join(GOLDEN, "digests.json")
EVENTS = os.path.join(GOLDEN, "events.json")

# Together the scenarios reach every scheme, Poisson traffic, frame and bit
# errors (keyed draws at the destination and at the children decoding an
# RTS's feedback), energy deaths (no_receiver outcomes, control-frame energy)
# and HCCC under node deaths.
SCENARIOS = {
    "hccc": dict(scheme="hccc", duration=40.0, warmup=10.0),
    "none_saturated": dict(scheme="none", offered_load=15.0, duration=10.0,
                           warmup=2.0),
    "aimd_e2e_poisson": dict(scheme="aimd_e2e", traffic="poisson",
                             duration=20.0, warmup=5.0),
    "hccc_lossy": dict(scheme="hccc", frame_error_rate=0.05,
                       bit_error_rate=1e-5, duration=30.0, warmup=5.0),
    "none_energy_death": dict(scheme="none", offered_load=10.0,
                              energy_initial=0.01, energy_control=2e-5,
                              duration=30.0, warmup=5.0),
    "hccc_energy_death": dict(scheme="hccc", offered_load=10.0,
                              energy_initial=0.01, duration=30.0, warmup=5.0),
}


def scenario_digests(name, out_dir):
    """Run one scenario into out_dir; returns ({csv file name: sha256}, the
    finished Simulation)."""
    cfg = validate(replace(ScenarioConfig(), trace_mac=True, trace_hccc=True,
                           trace_packets=True, **SCENARIOS[name]))
    sims = []

    def kept(cfg):
        sims.append(Simulation(cfg))
        return sims[-1]

    original, cli.Simulation = cli.Simulation, kept
    try:
        cli.run_one(cfg, out_dir)
    finally:
        cli.Simulation = original
    digests = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as f:
            digests[fname] = hashlib.sha256(f.read()).hexdigest()
    return digests, sims[0]


@functools.lru_cache(maxsize=None)
def golden_run(name):
    """scenario_digests of one scenario, run once per test session; the
    channel and MAC audits read the same runs."""
    with tempfile.TemporaryDirectory() as out_dir:
        return scenario_digests(name, out_dir)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def test_golden_covers_every_scenario():
    assert sorted(load_json(DIGESTS)) == sorted(SCENARIOS)
    assert sorted(load_json(EVENTS)) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digests(name):
    expected = load_json(DIGESTS)[name]
    got = golden_run(name)[0]
    assert sorted(got) == sorted(expected)
    for fname, digest in expected.items():
        assert got[fname] == digest, "%s: %s changed" % (name, fname)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_event_counts(name):
    # A change meant to make the run cheaper keeps every event.
    assert golden_run(name)[1].engine.processed == load_json(EVENTS)[name]


def test_regenerate_names_each_moved_digest(tmp_path, monkeypatch):
    expected = load_json(DIGESTS)
    stale = json.loads(json.dumps(expected))
    name = sorted(SCENARIOS)[0]
    fname = sorted(stale[name])[0]
    stale[name][fname] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(stale))
    events = load_json(EVENTS)
    stale_events = dict(events, **{name: events[name] + 1})
    events_path = tmp_path / "events.json"
    events_path.write_text(json.dumps(stale_events))
    monkeypatch.setitem(globals(), "DIGESTS", str(path))
    monkeypatch.setitem(globals(), "EVENTS", str(events_path))
    assert regenerate() == [
        "%s %s: %s -> %s" % (name, fname, "0" * 12, expected[name][fname][:12]),
        "%s events: %d -> %d" % (name, events[name] + 1, events[name])]
    assert load_json(DIGESTS) == expected
    assert load_json(EVENTS) == events


def write_json(path, table):
    with open(path, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


def regenerate():
    """Rewrite golden/digests.json and golden/events.json; returns one line
    per scenario CSV whose digest changed, with the old and new digest
    prefixes, then one per scenario whose event count changed."""
    old, old_events = load_json(DIGESTS), load_json(EVENTS)
    table = {name: golden_run(name)[0] for name in sorted(SCENARIOS)}
    events = {name: golden_run(name)[1].engine.processed
              for name in sorted(SCENARIOS)}
    write_json(DIGESTS, table)
    write_json(EVENTS, events)
    return ["%s %s: %s -> %s" % (name, fname,
                                 old.get(name, {}).get(fname, "-")[:12],
                                 digest[:12])
            for name, digests in table.items()
            for fname, digest in digests.items()
            if old.get(name, {}).get(fname) != digest] + [
        "%s events: %s -> %d" % (name, old_events.get(name, "-"), count)
        for name, count in events.items() if old_events.get(name) != count]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    changed = regenerate()
    print("\n".join(changed) if changed else "no digest or event count changed")
