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

# flag -> configuration key.  Every key has one --<key> flag, except the two
# output keys, which are --output and --format; --seed and --snr-c-db are
# one-value spellings of --seeds and --snr-c-db-list.  The flags named after
# their key are left out of --help.
FLAGS = {"--output": "output_path", "--format": "output_format",
         "--seed": "seeds", "--snr-c-db": "snr_c_db_list",
         **{"--" + key.replace("_", "-"): key for key in DEFAULTS
            if not key.startswith("output_")}}

# command -> (help, settings under the user's, settings over the user's)
COMMANDS = {
    "point": ("solve one (seed, snr) point for the configured schemes", {}, {}),
    "sweep": ("solve the full seed x snr grid and write records", {}, {}),
    "trace": ("record per-iteration objectives of both dual warm starts "
              "at the first seed and every snr", {"output_path": "trace.csv"}, {}),
    "compare": ("sweep both schemes and print per-snr mean distortions",
                {}, {"scheme": "both"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas",
        description="Transmit power allocation experiments for "
                    "communication-assisted sensing")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        for flag, key in FLAGS.items():
            named = flag == "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key,
                           help=argparse.SUPPRESS if named else f"sets {key}")
    return parser


def _attach_values(argv: list) -> list:
    """Join each value flag with the argument after it as ``--flag=value``.

    argparse reads a separate argument such as ``-5,0`` as an unknown flag,
    so a value starting with '-' is only accepted in the joined form.
    """
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg in FLAGS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def _build_config(args):
    """Merge, lowest first: command defaults, config file, flags, command overrides."""
    _, under, over = COMMANDS[args.command]
    mapping = dict(under)
    if args.config:
        mapping.update(parse_config_file(args.config))
    mapping.update((key, value) for key, value in vars(args).items()
                   if key in DEFAULTS and value is not None)
    mapping.update(over)
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
        if args.command == "point" and args.output_path is None:
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
