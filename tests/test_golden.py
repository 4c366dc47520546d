"""Golden output digests: the CSV bytes of short scenarios, pinned across versions.

Each scenario runs through ``cli.run_one`` with every trace on (packets, MAC,
HCCC) and with the carrier-sense assertion enabled.  The SHA-256 of every CSV
it writes must equal the digest in ``golden/digests.json``.  A change that
alters output on purpose declares it in CHANGES.md and regenerates the file:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import functools
import hashlib
import json
import os
import sys
from dataclasses import replace

import pytest

from hcccsim import cli
from hcccsim.config import ScenarioConfig, validate
from hcccsim.simulation import Simulation

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden", "digests.json")

# Together the scenarios reach every scheme, Poisson traffic, frame and bit
# errors (per-receiver draws, feedback decoded after a draw), energy deaths
# (no_receiver outcomes, control-frame energy) and both averaging variants.
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
    """Run one scenario into out_dir; returns {csv file name: sha256}."""
    cfg = validate(replace(ScenarioConfig(), trace_mac=True, trace_hccc=True,
                           trace_packets=True, **SCENARIOS[name]))
    checked = functools.partial(Simulation, check_carrier=True)
    original, cli.Simulation = cli.Simulation, checked
    try:
        cli.run_one(cfg, out_dir)
    finally:
        cli.Simulation = original
    digests = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as f:
            digests[fname] = hashlib.sha256(f.read()).hexdigest()
    return digests


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def test_golden_covers_every_scenario():
    assert sorted(load_digests()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digests(name, tmp_path):
    expected = load_digests()[name]
    got = scenario_digests(name, str(tmp_path))
    assert sorted(got) == sorted(expected)
    for fname, digest in expected.items():
        assert got[fname] == digest, "%s: %s changed" % (name, fname)


def regenerate():
    import tempfile
    table = {}
    for name in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as out_dir:
            table[name] = scenario_digests(name, out_dir)
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    regenerate()
