"""Command-line front end: single runs, sweeps, config validation and defaults.

Output is CSV only; file names encode scheme, node count and seed so sweep
results can be collated by external plotting tools; a sweep over
offered_load writes each load's runs into a directory ``offered_load_<value>``.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import metrics
from .config import (_FIELD_TYPE, ConfigError, ScenarioConfig, dump_config,
                     parse_config, validate)
from .simulation import Simulation
from .topology import TopologyError

SWEEP_AXES = ("seeds", "node_count", "offered_load", "scheme")


def _out_dir(args):
    return args.out or os.environ.get("HCCCSIM_OUT") or "results"


def _load_config(args):
    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = validate(ScenarioConfig())
    if args.seed is not None:
        cfg = validate(replace(cfg, seed=args.seed))
    for flag in args.trace or []:
        cfg = replace(cfg, **{"trace_" + flag: True})
    return cfg


def _run_tag(cfg):
    return "%s_n%d_seed%d" % (cfg.scheme, cfg.node_count, cfg.seed)


def run_one(cfg, out_dir, dump_topology=False):
    """Execute one scenario and write its CSV reports into out_dir, made if
    missing; returns the report."""
    sim = Simulation(cfg)
    result = sim.run()
    report = metrics.build_report(result)
    os.makedirs(out_dir, exist_ok=True)
    tag = _run_tag(cfg)
    metrics.write_summary_csv(os.path.join(out_dir, tag + "_summary.csv"), [report])
    metrics.write_series_csv(os.path.join(out_dir, tag + "_series.csv"), report)
    if cfg.trace_packets:
        metrics.write_packets_csv(os.path.join(out_dir, tag + "_packets.csv"),
                                  result.records)
    if cfg.trace_mac:
        metrics.write_csv(os.path.join(out_dir, tag + "_mac_trace.csv"),
                          ("t_us", "node", "kind", "dst", "event"), result.mac_trace)
    if cfg.trace_hccc:
        metrics.write_csv(os.path.join(out_dir, tag + "_hccc_trace.csv"),
                          ("t_us", "node", "b_r", "c_d", "rate", "window", "event"),
                          result.hccc_trace)
    if dump_topology:
        result.topology.write_csv(os.path.join(out_dir, tag + "_topology.csv"))
    return report


def run_sweep(cfg, axis, values, seeds, out_dir):
    """One run per (value, seed) pair; returns {value: [reports]}.

    Every axis value is run against the identical seed list so comparisons
    are paired.  Every run's config is validated before the first run, so a
    rejected sweep writes nothing.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("unknown sweep axis %r" % axis)
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds in sweep")
    if len(set(values)) != len(values):
        raise ConfigError("duplicate %s values in sweep" % axis)
    run_cfgs = {}
    for value in values:
        fixed = {} if axis == "seeds" else {axis: value}
        run_cfgs[value] = [validate(replace(cfg, seed=seed, **fixed)) for seed in seeds]
    # The run tag names every axis but offered_load.
    return {value: [run_one(c, os.path.join(out_dir, "offered_load_%r" % value)
                            if axis == "offered_load" else out_dir) for c in cfgs]
            for value, cfgs in run_cfgs.items()}


def _parse_values(axis, raw):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("empty sweep value list")
    kind = int if axis == "seeds" else _FIELD_TYPE[axis]
    try:
        return [kind(p) for p in parts]
    except ValueError as exc:
        raise ConfigError("bad %s value: %s" % (axis, exc))


def cmd_run(args):
    cfg = _load_config(args)
    out_dir = _out_dir(args)
    report = run_one(cfg, out_dir, dump_topology=args.dump_topology)
    tput = report.throughput_mean_pps
    print("run %s: loss=%.4f throughput=%s efficiency=%.4f"
          % (_run_tag(cfg), report.packet_loss_ratio,
             "na" if tput is None else "%.3fpps" % tput, report.energy_efficiency))
    return 0


def cmd_sweep(args):
    if args.seed is not None and (args.seeds or args.axis == "seeds"):
        raise ConfigError("--seed does not combine with a sweep's seed list")
    cfg = _load_config(args)
    if args.axis == "seeds":
        if args.seeds:
            raise ConfigError("--axis seeds takes its seeds from --values, not --seeds")
        values = [None]
        seeds = _parse_values("seeds", args.values)
    else:
        values = _parse_values(args.axis, args.values)
        seeds = _parse_values("seeds", args.seeds) if args.seeds else [cfg.seed]
    out_dir = _out_dir(args)
    results = run_sweep(cfg, args.axis, values, seeds, out_dir)
    path = os.path.join(out_dir, "sweep_%s.csv" % args.axis)
    aggregates = {value: metrics.aggregate(reports)
                  for value, reports in results.items()}
    metrics.write_csv(path, ("axis", "value", "metric", "mean", "stddev", "min", "max"),
                      [(args.axis, value, name, stats["mean"], stats["stddev"],
                        stats["min"], stats["max"])
                       for value, agg in aggregates.items()
                       for name, stats in agg.items()])
    for value, reports in results.items():
        loss = aggregates[value]["packet_loss_ratio"]
        print("sweep %s=%s: loss mean=%.4f stddev=%.4f (%d runs)"
              % (args.axis, "na" if value is None else value, loss["mean"],
                 loss["stddev"], len(reports)))
    print("wrote %s" % path)
    return 0


def cmd_dump_defaults(args):
    text = dump_config(validate(ScenarioConfig()))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args):
    cfg = parse_config(args.config)
    print("ok: %s (scheme=%s nodes=%d seed=%d)"
          % (args.config, cfg.scheme, cfg.node_count, cfg.seed))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hcccsim",
        description="Hop-by-hop cross-layer congestion control simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by run and sweep.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="output directory (default $HCCCSIM_OUT or ./results)")
    common.add_argument("--trace", action="append", choices=("mac", "hccc", "packets"),
                        help="enable a trace output (repeatable)")

    p_run = sub.add_parser("run", parents=[common], help="execute one scenario")
    p_run.add_argument("--dump-topology", action="store_true",
                       help="write node positions, edges and routes as CSV")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a parameter sweep")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values; the seeds for --axis seeds")
    p_sweep.add_argument("--seeds",
                         help="comma-separated seeds applied to every axis value "
                              "(not with --axis seeds)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dump = sub.add_parser("dump-defaults", help="print the default config")
    p_dump.add_argument("--out", help="write to a file instead of stdout")
    p_dump.set_defaults(func=cmd_dump_defaults)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TopologyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
