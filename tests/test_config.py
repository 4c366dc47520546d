"""Config parsing/validation round-trips and the command-line front end."""

import math
import os
from dataclasses import asdict, fields, replace

import pytest

from hcccsim import cli, metrics
from hcccsim.config import (_SECTIONS, MIN_RATE, ConfigError, ScenarioConfig,
                            dump_config, parse_config, parse_config_text, validate)
from hcccsim.engine import RandomStream
from hcccsim.mac import CONTROL_SIZE, DIFS_US, PACKET_SIZE, SIFS_US, SLOT_US
from hcccsim.simulation import Simulation
from hcccsim.traffic import AIMD_ALPHA


def test_empty_file_yields_defaults():
    cfg = parse_config_text("")
    assert asdict(cfg) == asdict(ScenarioConfig())


def test_defaults_match_reference_scenario():
    cfg = ScenarioConfig()
    assert cfg.node_count == 100
    assert cfg.area_side == 100.0
    assert cfg.radius == 30.0
    assert cfg.offered_load == 5.0
    assert PACKET_SIZE == 200
    assert CONTROL_SIZE == 20
    assert (SLOT_US, SIFS_US, DIFS_US) == (1000, 200, 1000)
    assert AIMD_ALPHA == 0.25
    assert cfg.buffer_capacity == 500
    assert cfg.b_max == 0.4
    assert cfg.p == 0.3
    assert (cfg.w_min, cfg.w_max) == (1, 63)
    assert cfg.bit_rate == 1_000_000.0
    assert cfg.energy_initial == 0.1
    assert cfg.energy_per_packet == 1e-4
    assert cfg.scheme == "hccc"


def test_round_trip():
    cfg = validate(ScenarioConfig(node_count=37, offered_load=7.5, seed=99,
                                  scheme="aimd_e2e", trace_hccc=True))
    again = parse_config_text(dump_config(cfg))
    assert asdict(again) == asdict(cfg)
    # Floats that ten significant digits do not tell from a neighbour.
    for key, value in (("offered_load", 1 / 3), ("area_side", 100.00000000001),
                       ("p", 0.1 + 0.2)):
        cfg = validate(ScenarioConfig(**{key: value}))
        again = parse_config_text(dump_config(cfg))
        assert getattr(again, key) == value, key
        assert asdict(again) == asdict(cfg)


# A valid value other than the default for every field.
NON_DEFAULT = dict(
    node_count=37, area_side=120.5, radius=100 / 3, source_count=7,
    offered_load=7.5, buffer_capacity=64, duration=12.25, warmup=2.5,
    seed=2 ** 64 - 1, scheme="aimd_e2e", traffic="poisson",
    bit_rate=2e6, retry_limit=0, frame_error_rate=0.05, bit_error_rate=1e-5,
    access_jitter_us=0, p=0.1 + 0.2, b_max=0.75, w_min=2, w_max=255, r_min=0.5,
    r_cap=50.0, energy_initial=2.0, energy_per_packet=3e-6, energy_control=1e-6,
    window=2.5, trace_mac=True, trace_hccc=True, trace_packets=True)


def test_every_field_has_one_section_and_round_trips():
    # A field missing from _SECTIONS would be left out by dump_config and
    # rejected as an unknown key when read back.
    names = [f.name for f in fields(ScenarioConfig)]
    assert [key for keys in _SECTIONS.values() for key in keys] == names
    assert sorted(NON_DEFAULT) == sorted(names)
    default = ScenarioConfig()
    for key, value in NON_DEFAULT.items():
        assert value != getattr(default, key), key
        cfg = validate(ScenarioConfig(**{key: value}))
        again = parse_config_text(dump_config(cfg))
        assert getattr(again, key) == value, key
        assert asdict(again) == asdict(cfg), key


def test_occupancy_threshold_range_error_names_field():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[control]\nb_max = 1.5\n")
    assert "b_max" in str(err.value)


def test_unknown_key_is_an_error_with_line_number():
    for key, value in (("bogus_key", "1"), ("printed_fairness", "true"),
                       ("legacy_ewma", "true"), ("disconnected", "fail")):
        with pytest.raises(ConfigError) as err:
            parse_config_text("node_count = 10\n%s = %s\n" % (key, value))
        assert "line 2" in str(err.value)
        assert key in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[radio]\n")


def test_key_in_wrong_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[mac]\nnode_count = 10\n")
    assert "node_count" in str(err.value)


def test_bad_value_diagnostics():
    with pytest.raises(ConfigError):
        parse_config_text("node_count = ten\n")
    with pytest.raises(ConfigError):
        parse_config_text("[trace]\ntrace_hccc = maybe\n")
    with pytest.raises(ConfigError):
        parse_config_text("node_count\n")


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.conf")


def test_validate_range_errors_name_fields():
    bad = [
        (dict(node_count=1), "node_count"),
        (dict(source_count=0), "source_count"),
        (dict(source_count=100), "source_count"),
        (dict(radius=-1.0), "radius"),
        (dict(scheme="coda"), "scheme"),
        (dict(p=1.0), "p"),
        (dict(w_max=0, w_min=1), "w_max"),
        (dict(r_cap=0.05, r_min=0.1), "r_cap"),
        (dict(frame_error_rate=1.0), "frame_error_rate"),
        (dict(buffer_capacity=0), "buffer_capacity"),
        (dict(energy_initial=0.0), "energy_initial"),
        (dict(bit_rate=400e6), "bit_rate"),
        (dict(duration=float("inf")), "duration"),
        (dict(window=float("inf")), "window"),
        (dict(energy_initial=float("inf")), "energy_initial"),
        (dict(area_side=float("inf")), "area_side"),
        (dict(offered_load=float("inf")), "offered_load"),
        (dict(offered_load=math.nextafter(MIN_RATE, 0.0)), "offered_load"),
        (dict(offered_load=-1.0), "offered_load"),
        (dict(scheme="none", offered_load=1e-310), "offered_load"),
        (dict(offered_load=1e-310, r_min=1e-310), "offered_load"),
        (dict(r_min=math.nextafter(MIN_RATE, 0.0)), "r_min"),
        (dict(r_min=1e-310), "r_min"),
        (dict(seed=2 ** 64), "seed"),
        (dict(window=4e-7), "window"),
        (dict(energy_per_packet=1e-10), "energy_per_packet"),
    ]
    for overrides, name in bad:
        with pytest.raises(ConfigError) as err:
            validate(ScenarioConfig(**overrides))
        assert name in str(err.value), overrides


@pytest.mark.parametrize("field, bound", [
    ("window", 1e-6), ("energy_initial", 1e-9), ("energy_per_packet", 1e-9),
    ("energy_control", 1e-9)])
def test_values_below_one_unit_are_rejected(field, bound):
    # A run keeps metrics windows in whole microseconds and energy in whole
    # nanojoules: a positive value below one unit would round to zero.  A
    # 1 us window needs a run of at most 0.1 s (100,000 windows).
    short = {"duration": 0.1} if field == "window" else {}
    assert getattr(validate(ScenarioConfig(**{field: bound}, **short)),
                   field) == bound
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(**{field: math.nextafter(bound, 0.0)}, **short))
    assert field in str(err.value)


def test_more_windows_than_the_series_may_hold_are_rejected():
    # One series row per window: at 1 us, a 0.5 s run would build 500,000.
    assert validate(ScenarioConfig(duration=0.1, window=1e-6)).window == 1e-6
    assert validate(ScenarioConfig(duration=1e6, window=10.0)).window == 10.0
    for overrides in (dict(duration=0.5, window=1e-6),
                      dict(duration=0.100001, window=1e-6),
                      dict(duration=1e6 + 10.0, window=10.0),
                      # 1.4 us rounds to the 1 us window the run would keep.
                      dict(duration=0.14, window=1.4e-6)):
        with pytest.raises(ConfigError) as err:
            validate(ScenarioConfig(**overrides))
        assert "window" in str(err.value) and "duration" in str(err.value)


@pytest.mark.parametrize("scheme", ["none", "hccc", "aimd_e2e"])
def test_run_at_the_rate_bound_with_the_longest_poisson_gap(scheme, monkeypatch):
    # Every source draws the largest -ln(1 - u) for its first interval, whose
    # start is then drawn uniformly within it.
    cfg = validate(ScenarioConfig(node_count=10, source_count=3, duration=2.0,
                                  warmup=0.0, scheme=scheme, traffic="poisson",
                                  offered_load=MIN_RATE, r_min=MIN_RATE))
    sim = Simulation(cfg)
    monkeypatch.setattr(RandomStream, "random",
                        lambda self: math.nextafter(1.0, 0.0))
    assert sim.run().generated == 0


# ---- CLI ----------------------------------------------------------------

def test_cli_dump_defaults_round_trips(capsys):
    assert cli.main(["dump-defaults"]) == 0
    text = capsys.readouterr().out
    assert asdict(parse_config_text(text)) == asdict(ScenarioConfig())


def test_cli_validate(tmp_path, capsys):
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 20\nsource_count = 4\n")
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_bad_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text("[control]\nb_max = 1.5\n")
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "b_max" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("mac", "packet_size"), ("mac", "control_size"), ("mac", "slot_us"),
    ("mac", "sifs_us"), ("mac", "difs_us"), ("control", "aimd_alpha")])
def test_cli_validate_fixed_parameter_exit_2(tmp_path, capsys, section, key):
    # The MAC timing, the frame sizes and the AIMD step are constants, not keys.
    path = tmp_path / "fixed.conf"
    path.write_text("[%s]\n%s = 1\n" % (section, key))
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "unknown key %r" % key in capsys.readouterr().err
    with pytest.raises(TypeError):
        ScenarioConfig(**{key: 1})


def test_cli_seed_past_64_bits_exit_2(tmp_path, capsys):
    # The random streams use the seed modulo 2**64, so seed 2**64 + 1 would
    # give the results of seed 1 under another file name.
    assert validate(ScenarioConfig(seed=2 ** 64 - 1)).seed == 2 ** 64 - 1
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 10\nsource_count = 2\nduration = 1\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out),
                     "--seed", str(2 ** 64 + 1)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_writes_reports(tmp_path, capsys):
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 20\nsource_count = 4\n"
                    "duration = 5\nwarmup = 1\nscheme = none\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out),
                     "--seed", "3", "--dump-topology"]) == 0
    assert (out / "none_n20_seed3_summary.csv").exists()
    assert (out / "none_n20_seed3_series.csv").exists()
    assert (out / "none_n20_seed3_topology.csv").exists()


def test_cli_run_zero_duration(tmp_path):
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 10\nsource_count = 2\nduration = 0\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "hccc_n10_seed1_summary.csv").read_text()
    row = text.strip().splitlines()[1].split(",")
    assert row[4] == "0"    # nothing generated
    # no post-warmup interval: the post-warmup means are unmeasured
    assert row[10:13] == ["na", "na", "na"]


def test_cli_trace_outputs(tmp_path):
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 10\nsource_count = 2\nduration = 2\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out),
                     "--trace", "mac", "--trace", "hccc",
                     "--trace", "packets"]) == 0
    assert (out / "hccc_n10_seed1_mac_trace.csv").exists()
    assert (out / "hccc_n10_seed1_hccc_trace.csv").exists()
    assert (out / "hccc_n10_seed1_packets.csv").exists()


def test_cli_sweep_paired_seeds(tmp_path, capsys):
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 15\nsource_count = 3\n"
                    "duration = 3\nwarmup = 1\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--axis", "scheme",
                     "--values", "hccc,none", "--seeds", "1,2",
                     "--out", str(out)]) == 0
    sweep = (out / "sweep_scheme.csv").read_text()
    assert "packet_loss_ratio" in sweep
    # the sweep names each metric by its summary column
    assert all(line.split(",")[2] in metrics.SUMMARY_COLUMNS
               for line in sweep.splitlines()[1:])
    # one summary per (value, seed), identical seed list across values
    for scheme in ("hccc", "none"):
        for seed in (1, 2):
            assert (out / ("%s_n15_seed%d_summary.csv" % (scheme, seed))).exists()


def test_cli_sweep_writes_unmeasured_metrics_as_na(tmp_path):
    # 1 s runs inside the 20 s default warmup measure no post-warmup mean;
    # each metric still gets its row per value, with na statistics.
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 10\nsource_count = 2\nduration = 1\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--axis", "scheme",
                     "--values", "hccc,none", "--seeds", "1,2",
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "sweep_scheme.csv").read_text().splitlines()[1:]]
    assert len(rows) == 12
    for scheme in ("hccc", "none"):
        by_metric = {row[2]: row[3:] for row in rows if row[1] == scheme}
        assert len(by_metric) == 6
        assert by_metric["throughput_mean_pps"] == ["na"] * 4
        assert "na" not in by_metric["packet_loss_ratio"]


def test_cli_sweep_over_seeds_prints_its_value_as_na(tmp_path, capsys):
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 10\nsource_count = 2\nduration = 1\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--axis", "seeds",
                     "--values", "1,2", "--out", str(out)]) == 0
    assert "sweep seeds=na: " in capsys.readouterr().out
    rows = (out / "sweep_seeds.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[1] == "na" for row in rows)
    for seed in (1, 2):
        assert (out / ("hccc_n10_seed%d_summary.csv" % seed)).exists()


def test_cli_sweep_over_offered_load_keeps_every_run(tmp_path):
    # The run tag does not name the load, so each load writes its own
    # directory; each run's summary holds that run's report.
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 10\nsource_count = 2\nduration = 1\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--axis", "offered_load",
                     "--values", "1,5", "--seeds", "1,2", "--out", str(out)]) == 0
    base = parse_config(str(path))
    for load in (1.0, 5.0):
        for seed in (1, 2):
            name = "hccc_n10_seed%d_summary.csv" % seed
            alone = tmp_path / ("alone_%r_%d" % (load, seed))
            cli.run_one(replace(base, offered_load=load, seed=seed), str(alone))
            assert ((out / ("offered_load_%r" % load) / name).read_bytes()
                    == (alone / name).read_bytes())
    assert not list(out.glob("*_summary.csv"))


@pytest.mark.parametrize("args", [
    ["--axis", "scheme", "--values", "hccc", "--seeds", "1,1"],
    ["--axis", "seeds", "--values", "1,1"],
    ["--axis", "node_count", "--values", "10,10", "--seeds", "1,2"],
    ["--axis", "offered_load", "--values", "5,5.0"],
    # a value validate rejects, after one that runs
    ["--axis", "scheme", "--values", "hccc,bogus"],
    ["--axis", "node_count", "--values", "10,1"],
    # the seeds axis takes its seeds from --values only
    ["--axis", "seeds", "--values", "1,2", "--seeds", "7,8"],
    # --seed would be overridden by the sweep's seed list
    ["--axis", "scheme", "--values", "hccc", "--seeds", "1,2", "--seed", "5"],
    ["--axis", "seeds", "--values", "1,2", "--seed", "5"],
], ids=["seeds", "seeds_axis", "node_count", "offered_load", "bad_scheme",
        "bad_node_count", "seeds_axis_with_seeds", "seed_with_seeds",
        "seeds_axis_with_seed"])
def test_cli_sweep_duplicates_rejected(tmp_path, capsys, args):
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 10\nsource_count = 2\nduration = 1\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]
                    + args) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--axis", "node_count", "--values", "10,abc"],
    ["--axis", "scheme", "--values", "none", "--seeds", "1,x"],
    ["--axis", "seeds", "--values", "1,x"],
])
def test_cli_sweep_malformed_number_exit_2(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out)] + args) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_cli_env_output_dir(tmp_path, monkeypatch):
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nnode_count = 10\nsource_count = 2\nduration = 1\n")
    env_out = tmp_path / "envout"
    monkeypatch.setenv("HCCCSIM_OUT", str(env_out))
    assert cli.main(["run", "--config", str(path)]) == 0
    assert (env_out / "hccc_n10_seed1_summary.csv").exists()
