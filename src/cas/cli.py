"""Command line front end: point, sweep, trace and compare subcommands.

Exit codes: 0 success, 2 invalid configuration, 3 numeric degeneracy
(flagged records present), 4 I/O error.
"""

import argparse
import sys
from dataclasses import replace

from .experiment import (DEFAULTS, ConfigError, collect_sweep, collect_trace,
                         compare_summary, config_from_mapping, fmt_float,
                         parse_config_file, render_records, render_trace,
                         write_output)

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
    cfg = config_from_mapping(mapping)
    if args.command == "point":
        # a one-point sweep: every configured SNR is checked above, and the
        # first seed is solved at the first SNR
        cfg = replace(cfg, seeds=cfg.seeds[:1], snr_c_db_list=cfg.snr_c_db_list[:1])
    return cfg


def _flagged_exit(records) -> int:
    """0, or 3 after naming the flagged records (at most 20) and their count on stderr."""
    flagged = [r for r in records if r.flagged]
    for r in flagged[:20]:
        print(f"flagged: scheme {r.scheme}, seed {r.seed}, "
              f"snr_c_db {fmt_float(r.snr_c_db)}: {r.flagged}", file=sys.stderr)
    if flagged:
        print(f"flagged records: {len(flagged)}", file=sys.stderr)
    return 3 if flagged else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
        if args.command == "trace":
            collect, render = collect_trace, render_trace
        else:
            collect, render = collect_sweep, render_records
        if args.command == "point" and args.output is None:
            collected = collect(cfg)
            sys.stdout.write(render(collected, cfg.output_format))
        else:
            collected = write_output(cfg, collect, render)
            if args.command == "compare":
                print(compare_summary(collected))
            print(f"wrote {cfg.output_path}")
        return 0 if args.command == "trace" else _flagged_exit(collected)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
