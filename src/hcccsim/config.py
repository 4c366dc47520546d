"""Scenario configuration: line-oriented ``key = value`` files with bracketed sections.

An empty file yields the default scenario (100 nodes in a 100m square, 30m
radius, 20 sources at 5 pps, 1 Mbps, 500-packet buffers, B_max 0.4, window
range [1, 63], 0.1 J initial energy at 1e-4 J per packet).  The MAC timing and
frame sizes are constants in :mod:`hcccsim.mac`, the AIMD step one in
:mod:`hcccsim.traffic`.  Unknown keys are errors, not warnings, every field is
range checked and every float field must be finite.
"""

import math
from dataclasses import dataclass, fields

from .mac import CONTROL_SIZE, airtime_us


class ConfigError(Exception):
    pass


SCHEMES = ("hccc", "none", "aimd_e2e")


@dataclass
class ScenarioConfig:
    # [scenario]
    node_count: int = 100
    area_side: float = 100.0
    radius: float = 30.0
    source_count: int = 20
    offered_load: float = 5.0        # packets/second per source
    buffer_capacity: int = 500
    duration: float = 100.0          # simulated seconds
    warmup: float = 20.0             # seconds excluded from steady-state means
    seed: int = 1
    scheme: str = "hccc"
    traffic: str = "cbr"             # cbr | poisson
    # [mac]
    bit_rate: float = 1_000_000.0    # bits/second
    retry_limit: int = 5
    frame_error_rate: float = 0.0    # flat per-frame corruption probability
    bit_error_rate: float = 0.0      # mapped to per-frame probability by size
    access_jitter_us: int = 1000     # clock-desync jitter added to each DIFS wait
    # [control]
    p: float = 0.3
    b_max: float = 0.4
    w_min: int = 1
    w_max: int = 63
    r_min: float = 0.1
    r_cap: float = 200.0
    # [energy]
    energy_initial: float = 0.1      # joules
    energy_per_packet: float = 1e-4  # joules per DATA transmission attempt
    energy_control: float = 0.0      # joules per control frame
    # [metrics]
    window: float = 10.0             # seconds per metrics window
    # [trace]
    trace_mac: bool = False
    trace_hccc: bool = False
    trace_packets: bool = False


_SECTIONS = {
    "scenario": ["node_count", "area_side", "radius", "source_count", "offered_load",
                 "buffer_capacity", "duration", "warmup", "seed", "scheme", "traffic"],
    "mac": ["bit_rate", "retry_limit", "frame_error_rate", "bit_error_rate",
            "access_jitter_us"],
    "control": ["p", "b_max", "w_min", "w_max", "r_min", "r_cap"],
    "energy": ["energy_initial", "energy_per_packet", "energy_control"],
    "metrics": ["window"],
    "trace": ["trace_mac", "trace_hccc", "trace_packets"],
}

_KEY_SECTION = {k: s for s, keys in _SECTIONS.items() for k in keys}
_FIELD_TYPE = {f.name: f.type for f in fields(ScenarioConfig)}

# The lowest packet rate (pps) a source or pacer may run at.  A source's first
# packet is drawn uniformly within its first interval, which may last 1e6 /
# rate us times -ln(1 - u) for the largest u below 1, about 36.7; at this rate
# that is 3.7e18 us, inside the 2**64 values a uniform draw can take.
MIN_RATE = 1e-11

# The run keeps energy in whole nanojoules and metrics windows in whole
# microseconds; a positive value below one unit would round to zero.
MIN_ENERGY = 1e-9
MIN_WINDOW = 1e-6

# The metrics series holds one row per window of the run.
MAX_WINDOWS = 100_000


def _parse_value(key, raw, lineno):
    ftype = _FIELD_TYPE[key]
    raw = raw.strip()
    try:
        if ftype is bool:
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError("expected true/false")
        if ftype is int:
            return int(raw)
        if ftype is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError("line %d: bad value for %s: %s" % (lineno, key, exc))


def validate(cfg):
    """Range-check every field; raises ConfigError naming the offending field."""
    def check(cond, field, msg):
        if not cond:
            raise ConfigError("%s: %s (got %r)" % (field, msg, getattr(cfg, field)))

    for field, ftype in _FIELD_TYPE.items():
        if ftype is float:
            check(math.isfinite(getattr(cfg, field)), field, "must be finite")
    check(cfg.node_count >= 2, "node_count", "must be >= 2")
    check(cfg.area_side > 0, "area_side", "must be positive")
    check(cfg.radius > 0, "radius", "must be positive")
    check(1 <= cfg.source_count <= cfg.node_count - 1, "source_count",
          "must be in [1, node_count-1]")
    check(cfg.offered_load == 0 or cfg.offered_load >= MIN_RATE, "offered_load",
          "must be 0 or >= %g" % MIN_RATE)
    check(cfg.buffer_capacity >= 1, "buffer_capacity", "must be >= 1")
    check(cfg.duration >= 0, "duration", "must be non-negative")
    check(cfg.warmup >= 0, "warmup", "must be non-negative")
    # The random streams use the seed modulo 2**64.
    check(0 <= cfg.seed < 2 ** 64, "seed", "must be in [0, 2**64)")
    check(cfg.scheme in SCHEMES, "scheme", "must be one of %s" % (SCHEMES,))
    check(cfg.traffic in ("cbr", "poisson"), "traffic", "must be cbr or poisson")
    check(cfg.bit_rate > 0, "bit_rate", "must be positive")
    # The per-receiver channel state assumes every frame lasts at least 1 us;
    # a control frame is the shortest.
    check(airtime_us(CONTROL_SIZE, cfg.bit_rate) >= 1,
          "bit_rate", "must give every frame at least 1 us of airtime")
    check(cfg.retry_limit >= 0, "retry_limit", "must be >= 0")
    check(0 <= cfg.frame_error_rate < 1, "frame_error_rate", "must be in [0, 1)")
    check(0 <= cfg.bit_error_rate < 1, "bit_error_rate", "must be in [0, 1)")
    check(cfg.access_jitter_us >= 0, "access_jitter_us", "must be >= 0")
    check(0 < cfg.p < 1, "p", "must be in (0, 1)")
    check(0 < cfg.b_max < 1, "b_max", "must be in (0, 1)")
    check(cfg.w_min >= 1, "w_min", "must be >= 1")
    check(cfg.w_max >= cfg.w_min, "w_max", "must be >= w_min")
    check(cfg.r_min >= MIN_RATE, "r_min", "must be >= %g" % MIN_RATE)
    check(cfg.r_cap >= cfg.r_min, "r_cap", "must be >= r_min")
    check(cfg.energy_initial >= MIN_ENERGY, "energy_initial",
          "must be >= %g" % MIN_ENERGY)
    for field in ("energy_per_packet", "energy_control"):
        cost = getattr(cfg, field)
        check(cost == 0 or cost >= MIN_ENERGY, field,
              "must be 0 or >= %g" % MIN_ENERGY)
    check(cfg.window >= MIN_WINDOW, "window", "must be >= %g" % MIN_WINDOW)
    # Counted in the whole microseconds the run keeps, as the series is.
    windows = -(-round(cfg.duration * 1e6) // round(cfg.window * 1e6))
    check(windows <= MAX_WINDOWS, "window", "must split duration %r s into "
          "at most %d windows" % (cfg.duration, MAX_WINDOWS))
    return cfg


def parse_config_text(text, origin="<string>"):
    cfg = ScenarioConfig()
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError("%s line %d: unknown section [%s]" % (origin, lineno, section))
            continue
        if "=" not in stripped:
            raise ConfigError("%s line %d: expected key = value" % (origin, lineno))
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEY_SECTION:
            raise ConfigError("%s line %d: unknown key %r" % (origin, lineno, key))
        if section is not None and _KEY_SECTION[key] != section:
            raise ConfigError("%s line %d: key %r does not belong in section [%s]"
                              % (origin, lineno, key, section))
        setattr(cfg, key, _parse_value(key, raw, lineno))
    return validate(cfg)


def parse_config(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return parse_config_text(text, origin=str(path))


def dump_config(cfg):
    """Emit the config in the same format parse_config accepts (round-trips)."""
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append("[%s]" % section)
        for key in keys:
            value = getattr(cfg, key)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                # The shortest text that parses back to the same float.
                text = repr(value)
            else:
                text = str(value)
            lines.append("%s = %s" % (key, text))
        lines.append("")
    return "\n".join(lines)
