"""Command line front end: point, sweep, trace and compare subcommands.

Exit codes: 0 success, 2 invalid configuration, 3 numeric degeneracy
(flagged records present), 4 I/O error.
"""

import argparse
import sys

from .experiment import (DEFAULTS, ConfigError, collect_sweep, collect_trace,
                         compare_summary, config_from_mapping,
                         parse_config_file, render_records, render_trace,
                         run_point, seed_offset, sort_records, write_output)

# every configuration key has a --<key> flag; the output ones have their own
_OVERRIDE_KEYS = tuple(k for k in DEFAULTS
                       if k not in ("output_path", "output_format"))
_VALUE_FLAGS = frozenset(["--seed", "--snr-c-db"]
                         + ["--" + k.replace("_", "-") for k in _OVERRIDE_KEYS])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas",
        description="Transmit power allocation experiments for "
                    "communication-assisted sensing")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "point": "solve one (seed, snr) point for the configured schemes",
        "sweep": "solve the full seed x snr grid and write records",
        "trace": "record per-iteration objectives of both dual warm starts "
                 "at the first seed and every snr",
        "compare": "sweep both schemes and print per-snr mean distortions",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--output", help="output path (overrides output_path)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format (overrides output_format)")
        for key in _OVERRIDE_KEYS:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           metavar="V", help=argparse.SUPPRESS)
        if name in ("point", "trace"):
            p.add_argument("--seed", type=int,
                           help="channel seed (overrides seeds)")
            p.add_argument("--snr-c-db", type=float, dest="snr_c_db",
                           help="forward-link SNR in dB (overrides snr_c_db_list)")
    return parser


def _attach_values(argv: list) -> list:
    """Join each value flag with the argument after it as ``--flag=value``.

    argparse reads a separate argument such as ``-5,0`` as an unknown flag,
    so a value starting with '-' is only accepted in the joined form.
    """
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg in _VALUE_FLAGS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def _build_config(args):
    mapping = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    explicit_output = args.output is not None or "output_path" in mapping
    for key in _OVERRIDE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    if getattr(args, "seed", None) is not None:
        mapping["seeds"] = (args.seed,)
    if getattr(args, "snr_c_db", None) is not None:
        mapping["snr_c_db_list"] = (args.snr_c_db,)
    if args.output is not None:
        mapping["output_path"] = args.output
    if args.format is not None:
        mapping["output_format"] = args.format
    if args.command == "compare":
        mapping["scheme"] = "both"
    if args.command == "trace" and not explicit_output:
        mapping["output_path"] = "trace.csv"
    return config_from_mapping(mapping)


def _point_records(cfg):
    return sort_records(run_point(cfg, cfg.seeds[0] + seed_offset(),
                                  cfg.snr_c_db_list[0]))


def _flagged_exit(records) -> int:
    """0, or 3 after naming the flagged records (at most 20) and their count on stderr."""
    flagged = [r for r in records if r.flagged]
    for r in flagged[:20]:
        reason = ("dead link (all channel gains zero)" if r.converged
                  else "dual search stopped at the iteration cap")
        print(f"flagged: scheme {r.scheme}, seed {r.seed}, "
              f"snr_c_db {r.snr_c_db:.12g}: {reason}", file=sys.stderr)
    if flagged:
        print(f"flagged records: {len(flagged)}", file=sys.stderr)
    return 3 if flagged else 0


def _cmd_point(cfg, args) -> int:
    if args.output is not None:
        records = write_output(cfg, _point_records, render_records)
    else:
        records = _point_records(cfg)
        sys.stdout.write(render_records(records, cfg.output_format))
    return _flagged_exit(records)


def _cmd_sweep(cfg, command) -> int:
    records = write_output(cfg, collect_sweep, render_records)
    if command == "compare":
        print(compare_summary(records))
    print(f"wrote {cfg.output_path}")
    return _flagged_exit(records)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
        if args.command == "point":
            return _cmd_point(cfg, args)
        if args.command == "trace":
            write_output(cfg, collect_trace, render_trace)
            print(f"wrote {cfg.output_path}")
            return 0
        return _cmd_sweep(cfg, args.command)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
