"""Golden output digests: the CSV bytes of short scenarios, pinned across versions.

Each scenario runs through ``cli.run_one`` with every trace on (packets, MAC,
HCCC).  The SHA-256 of every CSV it writes must equal the digest in
``golden/digests.json``; the channel and MAC audits read the same runs.  A
change that alters output on purpose declares it in CHANGES.md and
regenerates the file, which prints every scenario CSV whose digest moved:

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

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden", "digests.json")

# Together the scenarios reach every scheme, Poisson traffic, frame and bit
# errors (keyed draws at the destination and at the children decoding an
# RTS's feedback), energy deaths (no_receiver outcomes, control-frame energy)
# and both averaging variants.
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
    "hccc_ewma_energy_death": dict(scheme="hccc", legacy_ewma=False,
                                   offered_load=10.0, energy_initial=0.01,
                                   duration=30.0, warmup=5.0),
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


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def test_golden_covers_every_scenario():
    assert sorted(load_digests()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digests(name):
    expected = load_digests()[name]
    got = golden_run(name)[0]
    assert sorted(got) == sorted(expected)
    for fname, digest in expected.items():
        assert got[fname] == digest, "%s: %s changed" % (name, fname)


def test_regenerate_names_each_moved_digest(tmp_path, monkeypatch):
    expected = load_digests()
    stale = json.loads(json.dumps(expected))
    name = sorted(SCENARIOS)[0]
    fname = sorted(stale[name])[0]
    stale[name][fname] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(stale))
    monkeypatch.setitem(globals(), "DIGESTS", str(path))
    assert regenerate() == ["%s %s: %s -> %s" % (name, fname, "0" * 12,
                                                 expected[name][fname][:12])]
    assert load_digests() == expected


def regenerate():
    """Rewrite golden/digests.json; returns one line per scenario CSV whose
    digest changed, with the old and new digest prefixes."""
    old = load_digests()
    table = {name: golden_run(name)[0] for name in sorted(SCENARIOS)}
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")
    return ["%s %s: %s -> %s" % (name, fname,
                                 old.get(name, {}).get(fname, "-")[:12],
                                 digest[:12])
            for name, digests in table.items()
            for fname, digest in digests.items()
            if old.get(name, {}).get(fname) != digest]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    changed = regenerate()
    print("\n".join(changed) if changed else "no digest changed")
