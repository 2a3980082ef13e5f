"""Experiment configuration, sweep execution and record serialization.

A sweep solves both schemes over a grid of channel seeds and forward-link
SNRs, emitting one flat record per (scheme, seed, snr) with the optimized
split, distortions and allocation.  A trace records the dual search's
objective per iteration at every swept SNR.  Both are rendered by one
serializer, which formats floats to 12 significant digits, and written by
one writer; records are sorted, so reruns of the same configuration are
byte-identical.  The environment variable CAS_SEED_OFFSET is added to every
seed when the configuration is built, for batch farming.
"""

import csv
import io
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .channel import alphas_from_channel, generate_rayleigh
from .dual import (INIT_COMMUNICATION, INIT_SENSING, optimize_dual,
                   optimize_dual_best)
from .model import SystemConfig, live_gains, noise_var_from_snr
from .separated import compose_split, optimize_separated

SCHEMES = ("separated", "dual", "both")
DUAL_INITS = ("sensing", "communication", "best")
OUTPUT_FORMATS = ("csv", "json")
CSV_COLUMNS = ("scheme", "seed", "snr_c_db", "p_s", "d_s", "d_c", "d_sc",
               "capacity", "iterations", "converged", "alloc_summary")
TRACE_COLUMNS = ("snr_c_db", "init_kind", "iteration", "d_sc")

SEED_OFFSET_ENV = "CAS_SEED_OFFSET"

# accepted SNRs in dB; beyond them 10**(snr/10) overflows or underflows
SNR_DB_RANGE = (-1000.0, 1000.0)


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, value or combination)."""


@dataclass
class ExperimentConfig:
    """Full description of one experiment run; system_for builds each point's system."""

    n_tx: int = 10
    m_s: int = 5
    m_c: int = 5
    n_symbols: int = 100
    var_eta: float = 0.1
    p_total: float = 1.0
    snr_s_db: float = 20.0
    snr_c_db_list: tuple = (0.0, 5.0, 10.0, 15.0, 20.0)
    seeds: tuple = tuple(range(20))
    scheme: str = "both"
    dual_init: str = "best"
    output_path: str = "sweep.csv"
    output_format: str = "csv"
    jobs: int = 1
    curve_points: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.dual_init not in DUAL_INITS:
            raise ConfigError(f"dual_init must be one of {DUAL_INITS}, got {self.dual_init!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(f"output_format must be one of {OUTPUT_FORMATS}")
        if not self.snr_c_db_list:
            raise ConfigError("snr_c_db_list must be nonempty")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be nonnegative, got {min(self.seeds)}")
        if not (math.isfinite(self.p_total) and self.p_total > 0):
            raise ConfigError(f"p_total must be a positive finite number, got {self.p_total!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.curve_points < 0:
            raise ConfigError("curve_points must be nonnegative")


@dataclass(slots=True, eq=False)
class SweepRecord:
    """One solved point of a sweep; flagged is why it is suspect, "" when it is not.

    A record is flagged for a dead link or a search stopped by its cap.

    p_s and alloc_summary are the solver's powers times the configured p_total.
    alloc_summary is an eigenvalue array rather than a list of Python
    floats, so a sweep's records stay small.
    Records compare by identity: an array field has no single truth value.
    """

    scheme: str
    seed: int
    snr_c_db: float
    p_s: float
    d_s: float
    d_c: float
    d_sc: float
    capacity: float
    iterations: int
    converged: bool
    alloc_summary: np.ndarray
    flagged: str


DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _integer(value) -> int:
    """``value`` as an int; a number with a fractional part is refused, not truncated."""
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _coerce(key, value):
    """``value`` as the type of the key's default."""
    if key not in DEFAULTS:
        raise ConfigError(f"unknown configuration key {key!r}")
    default = DEFAULTS[key]
    try:
        kind = type(default[0] if isinstance(default, tuple) else default)
        convert = _integer if kind is int else kind
        if isinstance(default, tuple):
            items = value.split(",") if isinstance(value, str) else value
            return tuple(convert(v) for v in items)
        return convert(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid value for {key}: {value!r}") from exc


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from flat key/value settings over the defaults.

    The system of every swept SNR is built here by system_for, so a value
    no system can take fails before any point is solved.
    The seeds are shifted by seed_offset() here too, so cfg.seeds are the
    seeds that get solved.
    """
    merged = dict(DEFAULTS)
    for key, value in mapping.items():
        merged[key] = _coerce(key, value)
    offset = seed_offset()
    merged["seeds"] = tuple(seed + offset for seed in merged["seeds"])
    cfg = ExperimentConfig(**merged)
    lo, hi = SNR_DB_RANGE
    # at the sensing SNR var_c equals var_s, so a failure there is the
    # system keys' own and names no swept SNR
    for i, snr in enumerate((cfg.snr_s_db, *cfg.snr_c_db_list)):
        key = "snr_c_db" if i else "snr_s_db"
        if not lo <= snr <= hi:
            raise ConfigError(f"{key} must lie in [{lo:g}, {hi:g}] dB, got {snr!r}")
        try:
            system_for(cfg, snr)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"{key} {snr}: {exc}" if i else str(exc)) from exc
    return cfg


def parse_config_file(path: str) -> dict:
    """Read flat ``key = value`` settings; '#' starts a comment, lists use commas."""
    settings = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            settings[key.strip()] = value.strip()
    return settings


def seed_offset() -> int:
    raw = os.environ.get(SEED_OFFSET_ENV, "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_OFFSET_ENV} must be an integer, got {raw!r}") from exc


def system_for(cfg: ExperimentConfig, snr_c_db: float) -> SystemConfig:
    """System parameters at one swept forward-link SNR, with var_s from snr_s_db."""
    return SystemConfig(
        n_tx=cfg.n_tx, m_s=cfg.m_s, m_c=cfg.m_c, n_symbols=cfg.n_symbols,
        var_eta=cfg.var_eta, var_s=noise_var_from_snr(cfg.snr_s_db, cfg),
        var_c=noise_var_from_snr(snr_c_db, cfg))


def _point_gains(cfg: ExperimentConfig, seed: int, snr_c_db: float):
    """System parameters at ``snr_c_db`` and the channel gains of seed's draw."""
    sys_cfg = system_for(cfg, snr_c_db)
    gram_eigs = generate_rayleigh(seed, sys_cfg.m_c, sys_cfg.n_tx)
    return sys_cfg, alphas_from_channel(gram_eigs, sys_cfg)


def run_point(cfg: ExperimentConfig, seed: int, snr_c_db: float) -> list:
    """Solve the configured schemes for one (seed, snr) point."""
    try:
        sys_cfg, alphas = _point_gains(cfg, seed, snr_c_db)
        dead_link = not live_gains(alphas).any()

        def record(scheme, p_s, report, iterations, converged, lambdas):
            if dead_link:
                flagged = "dead link (all channel gains zero)"
            else:
                flagged = "" if converged else "dual search stopped at the iteration cap"
            return SweepRecord(
                scheme=scheme, seed=int(seed), snr_c_db=float(snr_c_db),
                p_s=cfg.p_total * p_s, d_s=report.d_s, d_c=report.d_c,
                d_sc=report.d_sc, capacity=report.capacity,
                iterations=iterations, converged=converged,
                alloc_summary=cfg.p_total * lambdas, flagged=flagged)

        records = []
        if cfg.scheme in ("separated", "both"):
            sol = optimize_separated(sys_cfg, alphas)
            records.append(record("separated", sol.p_s, sol.report,
                                  sol.evaluations, True, sol.comm_alloc.lambdas))
        if cfg.scheme in ("dual", "both"):
            if cfg.dual_init == "best":
                dsol = optimize_dual_best(sys_cfg, alphas)
            else:
                kind = INIT_SENSING if cfg.dual_init == "sensing" else INIT_COMMUNICATION
                dsol = optimize_dual(sys_cfg, alphas, init_kind=kind)
            records.append(record("dual", dsol.alloc.total, dsol.report,
                                  dsol.iterations, dsol.converged,
                                  dsol.alloc.lambdas))
        if cfg.curve_points > 0 and cfg.scheme in ("separated", "both"):
            for p in np.linspace(0.0, sys_cfg.p_total, cfg.curve_points):
                rep, wf = compose_split(p, sys_cfg, alphas)
                records.append(record("separated_grid", float(p), rep, 0, True,
                                      wf.alloc.lambdas))
        return records
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        raise RuntimeError(
            f"point failed (seed={seed}, snr_c_db={snr_c_db}): {exc}") from exc


def _point_task(args):
    cfg, seed, snr_c_db = args
    return run_point(cfg, seed, snr_c_db)


def fmt_float(value: float) -> str:
    return f"{float(value):.12g}"


def _cell(value, csv_text: bool):
    """One value as CSV text, or as a JSON value when csv_text is false."""
    if isinstance(value, (bool, np.bool_)):
        return ("true" if value else "false") if csv_text else bool(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value)) if csv_text else int(value)
    if isinstance(value, (float, np.floating)):
        return fmt_float(value) if csv_text else float(fmt_float(value))
    if isinstance(value, np.ndarray):
        cells = [_cell(v, csv_text) for v in value.tolist()]
        return ";".join(cells) if csv_text else cells
    return str(value) if csv_text else value


def _render_rows(columns: tuple, rows, output_format: str) -> str:
    """Serialize rows of values in ``columns`` order to CSV or JSON text.

    Floats carry 12 significant digits and booleans are true/false in both
    formats; an array is ';'-joined in CSV and a list in JSON.
    """
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v, True) for v in row] for row in rows)
        return buf.getvalue()
    if output_format == "json":
        objs = [{c: _cell(v, False) for c, v in zip(columns, row)} for row in rows]
        return json.dumps(objs, indent=2) + "\n"
    raise ConfigError(f"output_format must be one of {OUTPUT_FORMATS}")


def sort_records(records: list) -> list:
    return sorted(records, key=lambda r: (r.scheme, r.snr_c_db, r.seed, r.p_s))


def render_records(records: list, output_format: str) -> str:
    """Serialize sorted records to CSV or JSON text, floats at 12 significant digits."""
    rows = [tuple(getattr(r, column) for column in CSV_COLUMNS) for r in records]
    return _render_rows(CSV_COLUMNS, rows, output_format)


def collect_sweep(cfg: ExperimentConfig) -> list:
    """Solve every configured (seed, snr) point and return sorted records."""
    points = [(cfg, seed, snr) for snr in cfg.snr_c_db_list for seed in cfg.seeds]
    workers = min(cfg.jobs, len(points))
    if workers > 1:
        # imported here: loading the pool machinery costs every serial run
        from concurrent.futures import ProcessPoolExecutor
        # several points per message: their records then share one pickle
        # memo, so the scheme names and SNRs arrive once per message rather
        # than as a fresh copy in every record
        chunksize = max(1, len(points) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_point_task, points, chunksize=chunksize))
    else:
        chunks = [_point_task(p) for p in points]
    records = [rec for chunk in chunks for rec in chunk]
    return sort_records(records)


def collect_trace(cfg: ExperimentConfig) -> list:
    """Objective per iteration of both dual warm starts, at the first seed and every SNR.

    Rows hold (snr_c_db, init_kind, iteration, d_sc), in TRACE_COLUMNS order.
    """
    rows = []
    for snr in cfg.snr_c_db_list:
        sys_cfg, alphas = _point_gains(cfg, cfg.seeds[0], snr)
        for kind in (INIT_SENSING, INIT_COMMUNICATION):
            sol = optimize_dual(sys_cfg, alphas, init_kind=kind)
            rows.extend((float(snr), kind, i, value)
                        for i, value in enumerate(sol.objective_trace))
    return rows


def render_trace(rows: list, output_format: str) -> str:
    """Serialize collect_trace rows to CSV or JSON text."""
    return _render_rows(TRACE_COLUMNS, rows, output_format)


def write_output(cfg: ExperimentConfig, collect, render):
    """Write ``render(collect(cfg), cfg.output_format)`` to cfg.output_path.

    The file is opened before collect runs, so an unwritable path fails
    before anything is solved.  Returns what collect returned.
    """
    with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
        collected = collect(cfg)
        fh.write(render(collected, cfg.output_format))
    return collected


def compare_summary(records: list) -> str:
    """Per-SNR mean distortion of each scheme and the dual scheme's percent gain."""
    by_snr = {}
    for rec in records:
        if rec.scheme not in ("separated", "dual"):
            continue
        by_snr.setdefault(rec.snr_c_db, {"separated": [], "dual": []})
        by_snr[rec.snr_c_db][rec.scheme].append(rec.d_sc)
    lines = [f"{'snr_c_db':>9}  {'mean_d_sc_separated':>20}  "
             f"{'mean_d_sc_dual':>15}  {'gain_pct':>9}"]
    for snr in sorted(by_snr):
        sep = by_snr[snr]["separated"]
        du = by_snr[snr]["dual"]
        mean_sep = float(np.mean(sep)) if sep else float("nan")
        mean_dual = float(np.mean(du)) if du else float("nan")
        gain = 100.0 * (mean_sep - mean_dual) / mean_sep if sep and du else float("nan")
        lines.append(f"{fmt_float(snr):>9}  {mean_sep:>20.6f}  {mean_dual:>15.6f}  {gain:>9.2f}")
    return "\n".join(lines)
