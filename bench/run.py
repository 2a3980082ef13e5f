"""Benchmark of the cas sweep: throughput, latency, set-up, memory and quality.

Run one workload, as the benchmark's contract does:

    python3 bench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

Run every workload, untraced and traced, each in a fresh process, print
every metric by name with its unit and direction, check that the ``sweep``
output equals the bytes ``cas sweep`` writes for the same seeds, and write
the combined results:

    python3 bench/run.py --all --seed 0 --seconds 15 --out FILE

A single-workload run prints a table and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  Its full results,
with the environment record, go to ``bench/out/``.  Metric names, units and
directions come from BENCHMARK.json at the repository root.  The package is
imported from ``src/`` of the same checkout and driven only through
``cas.experiment``; the correctness gate (``gate.py``) runs after the timed
region.  With ``--trace 0`` no function is wrapped; with ``--trace 1`` the
span tracer (``spans.py``) gives the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Each workload is a flat cas configuration over the sweep defaults; the base
# seed picks the channel seeds.  Base 0 with "sweep" is the default `cas sweep`.
WORKLOADS = {
    "sweep": {"scheme": "both", "jobs": 1},
    "dual-highsnr": {"scheme": "dual", "snr_s_db": 60.0, "jobs": 1},
    "sweep-jobs2": {"scheme": "both", "jobs": 2},
}
N_SEEDS = 20
SETUP_REPEATS = 3
SETUP_CODE = ("import json, sys\n"
              "from cas.experiment import config_from_mapping\n"
              "config_from_mapping(json.loads(sys.argv[1]))\n")


def workload_mapping(name, seed, tiny=False):
    """Configuration of one workload at base seed ``seed``.

    ``tiny`` shrinks it to 2 seeds x 1 SNR for the self-test.
    """
    mapping = dict(WORKLOADS[name])
    mapping["seeds"] = list(range(seed, seed + (2 if tiny else N_SEEDS)))
    if tiny:
        mapping["snr_c_db_list"] = [10.0]
    return mapping


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_package():
    """Import cas from this checkout's src/, or exit without a result."""
    if not (SRC / "cas" / "__init__.py").is_file():
        sys.exit(f"bench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cas
    if Path(cas.__file__).resolve().parent != (SRC / "cas").resolve():
        sys.exit(f"bench: imported cas from {cas.__file__}, not from {SRC}")


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def env_record(seed):
    """Machine, toolchain and source revision the results were measured on."""
    import numpy
    import scipy
    commit = _git("rev-parse", "HEAD")
    # dirty: uncommitted changes to the measured program, not to the benchmark
    status = _git("status", "--porcelain", "--", "src", "pyproject.toml")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "base_seed": seed,
    }


def _package_env():
    from cas.experiment import SEED_OFFSET_ENV
    env = dict(os.environ)
    env.pop(SEED_OFFSET_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def measure_setup(mapping, repeats):
    """Median time for a fresh interpreter to import cas and build the config."""
    cmd = [sys.executable, "-c", SETUP_CODE, json.dumps(mapping)]
    env = _package_env()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- measured sweeps ---------------------------------------------------------

@dataclass
class Repeat:
    """One solved sweep: rendered text, records, wall time, point latencies."""

    text: str
    records: list
    wall: float
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def pass_halves(cfg):
    """The points of one latency pass, seed-major, split in two halves.

    Each half mixes every SNR, so a slow stretch of the host slows cheap and
    costly points alike rather than one SNR's block of points.
    """
    points = [(seed, snr) for seed in cfg.seeds for snr in cfg.snr_c_db_list]
    return points[:len(points) // 2], points[len(points) // 2:]


def point_pass(cfg, points):
    """Solve ``points`` with run_point as collect_sweep does at jobs 1, timing each.

    The timer sits at the run_point boundary.  This runs untimed, for the
    point latencies a pool would hide; a point that raises is kept as an error.
    """
    from cas import experiment
    rep = Repeat("", [], 0.0)
    for seed, snr in points:
        t = time.perf_counter()
        try:
            rep.records.extend(experiment.run_point(cfg, seed, snr))
        except Exception as exc:  # counted as a failed point by the gate
            rep.errors.append(f"seed={seed} snr_c_db={snr}: {exc!r}")
        rep.latencies.append(time.perf_counter() - t)
    rep.wall = sum(rep.latencies)
    return rep


def join_pass(cfg, parts):
    """One whole pass from its parts, sorted and rendered as collect_sweep's are."""
    from cas import experiment
    records = [r for p in parts for r in p.records]
    text = experiment.render_records(experiment.sort_records(records),
                                     cfg.output_format)
    return Repeat(text, records, sum(p.wall for p in parts),
                  [x for p in parts for x in p.latencies],
                  [e for p in parts for e in p.errors])


def collected_sweep(cfg, tracer=None):
    """Solve the sweep through collect_sweep (a pool when cfg.jobs > 1) and render."""
    from cas import experiment
    errors = []
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.start()
    try:
        records = experiment.collect_sweep(cfg)
    except Exception as exc:  # every point of this sweep fails the gate
        records = []
        errors.append(f"collect_sweep: {exc!r}")
    text = experiment.render_records(records, cfg.output_format)
    wall = tracer.stop() if tracer is not None else time.perf_counter() - t0
    return Repeat(text, records, wall, [], errors)


def _mean_d_sc(records, scheme):
    values = [r.d_sc for r in records if r.scheme == scheme]
    return statistics.fmean(values) if values else float("nan")


def _p90(samples):
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def untraced_run(cfg, mapping, args):
    """End-to-end metrics; returns (values, details, [(cfg, Repeat)])."""
    setup_s = measure_setup(mapping, 1 if args.tiny else SETUP_REPEATS)
    npoints = len(cfg.seeds) * len(cfg.snr_c_db_list)
    serial_cfg = replace(cfg, jobs=1)
    halves = pass_halves(cfg)
    timed, parts = [], []
    deadline = time.perf_counter() + args.seconds
    # Timed sweeps run at least twice, then while half of one fits before the
    # deadline.  Each is followed by half of an untimed latency pass, so that
    # latency and throughput sample the same stretches of the host's speed.
    while len(timed) < 2 or time.perf_counter() + 0.5 * timed[-1].wall <= deadline:
        timed.append(collected_sweep(cfg))
        parts.append(point_pass(serial_cfg, halves[len(parts) % 2]))
    if len(parts) % 2:
        parts.append(point_pass(serial_cfg, halves[1]))
    passes = [join_pass(serial_cfg, parts[i:i + 2]) for i in range(0, len(parts), 2)]
    latencies = [x for r in passes for x in r.latencies]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pairs = [(serial_cfg, r) for r in passes] + [(cfg, r) for r in timed]
    serial = passes[0]
    separated = serial.records
    if cfg.scheme == "dual":
        # untimed reference: the separated optimum on the same channels
        ref_cfg = replace(cfg, scheme="separated", jobs=1)
        ref = join_pass(ref_cfg, [point_pass(ref_cfg, halves[0] + halves[1])])
        pairs.append((ref_cfg, ref))
        separated = ref.records
    values = {
        "points_per_s": statistics.median(npoints / r.wall for r in timed),
        "point_ms_p50": 1e3 * statistics.median(latencies),
        "point_ms_p90": 1e3 * _p90(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "d_sc_mean_separated": _mean_d_sc(separated, "separated"),
        "d_sc_mean_dual": _mean_d_sc(serial.records, "dual"),
    }
    details = {
        "timed_repeats": len(timed),
        "sweep_walls_s": [r.wall for r in timed],
        "latency_passes": len(passes),
        "latency_samples": len(latencies),
        "setup_repeats": 1 if args.tiny else SETUP_REPEATS,
    }
    return values, details, pairs


def layer_metrics(tracer, points):
    """Per-span counts and self times, ratios read from returned values."""
    import spans
    total = tracer.total_s
    out = {}
    for layer, names in spans.LAYERS.items():
        for name in names:
            span = f"{layer}.{name}"
            calls, _, self_s = tracer.stats.get(span, (0, 0.0, 0.0))
            out[f"{span}.calls_per_point"] = calls / points
            out[f"{span}.self_us_per_call"] = 1e6 * self_s / calls if calls else 0.0
            out[f"{span}.self_share"] = self_s / total
    evals = tracer.stats.get("dual.evaluate_dual", (0,))[0]
    rwf = tracer.stats.get("waterfilling.reverse_waterfill", (0,))[0]
    accepted = tracer.obs.get("accepted_steps", 0.0)
    saturated = tracer.obs.get("saturated", 0.0)
    out["dual.accept_ratio"] = accepted / evals if evals else 0.0
    out["waterfilling.reverse_waterfill.saturated_share"] = saturated / rwf if rwf else 0.0
    out["waterfilling.waterfill_capacity.kkt_residual_max"] = tracer.obs.get(
        "kkt_residual_max", 0.0)
    out["trace.outside_share"] = tracer.outside_s / total
    # what collect_sweep costs beyond the solves of its busiest process: loop
    # and sort when serial; pool start-up, pickling and hand-offs with a pool
    sweep_s = tracer.stats.get("experiment.collect_sweep", (0, 0.0))[1]
    out["experiment.collect_sweep.overhead_us_per_point"] = (
        1e6 * (sweep_s - tracer.busiest_s) / points)
    bases = {
        "dual.accept_ratio": {"accepted_steps": accepted, "evaluate_dual_calls": evals},
        "waterfilling.reverse_waterfill.saturated_share": {
            "saturated_results": saturated, "reverse_waterfill_calls": rwf},
        "self_share": {"total_s": total, "traced_wall_s": tracer.wall_s,
                       "worker_span_s": tracer.worker_self_s},
        "experiment.collect_sweep.overhead_us_per_point": {
            "collect_sweep_s": sweep_s, "busiest_process_run_point_s": tracer.busiest_s},
    }
    return out, bases


def traced_run(cfg, args):
    """Per-layer metrics from traced sweeps, each paired with an untraced one.

    Untraced and traced sweeps alternate, so the tracing overhead compares
    neighbours in time rather than two ends of a drifting run.
    """
    import spans
    npoints = len(cfg.seeds) * len(cfg.snr_c_db_list)
    serial_cfg = replace(cfg, jobs=1)
    serial = collected_sweep(serial_cfg) if cfg.jobs > 1 else None
    OUT.mkdir(parents=True, exist_ok=True)
    spool = tempfile.mkdtemp(prefix="spool-", dir=OUT)
    tracer = spans.Tracer(spool)
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    try:
        while (len(traced) < 2 or time.perf_counter()
               + 0.5 * (untraced[-1].wall + traced[-1].wall) <= deadline):
            untraced.append(collected_sweep(cfg))
            tracer.install()
            try:
                traced.append(collected_sweep(cfg, tracer))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    values, bases = layer_metrics(tracer, npoints * len(traced))
    untraced_wall = statistics.median(r.wall for r in untraced)
    values["experiment.collect_sweep.jobs2_speedup"] = (
        serial.wall / untraced_wall if serial else 0.0)
    values["trace.overhead_share"] = (statistics.median(r.wall for r in traced)
                                      / untraced_wall - 1.0)
    main_self = sum(s[2] for s in tracer.stats.values()) - tracer.worker_self_s
    details = {
        "traced_repeats": len(traced),
        "traced_walls_s": [r.wall for r in traced],
        "untraced_walls_s": [r.wall for r in untraced],
        # spread of the overhead: traced over untraced wall of each pair, minus 1
        "overhead_pairs": [t.wall / u.wall - 1.0 for u, t in zip(untraced, traced)],
        "missing": sorted(tracer.missing),
        "not_applicable": [] if serial else ["experiment.collect_sweep.jobs2_speedup"],
        "ratio_bases": dict(bases, **{
            "experiment.collect_sweep.jobs2_speedup": {
                "serial_wall_s": serial.wall if serial else None,
                "pool_wall_s": untraced_wall},
            "trace.overhead_share": {"untraced_wall_s": untraced_wall}}),
        # self times of main-process spans plus time outside them = traced wall
        "self_time_identity_error": (main_self + tracer.outside_s - tracer.wall_s)
                                    / tracer.wall_s,
    }
    pairs = [(cfg, r) for r in untraced + traced]
    if serial:
        pairs.insert(0, (serial_cfg, serial))
    return values, details, pairs


def gate_outputs(pairs):
    """Gate every solved sweep; returns (attempted, failed, violations, sha256)."""
    import gate
    attempted = failed = 0
    violations = []
    first_text = {}
    for cfg, rep in pairs:
        npoints = len(cfg.seeds) * len(cfg.snr_c_db_list)
        attempted += npoints
        violations.extend(rep.errors)
        key = (cfg.scheme, cfg.snr_s_db)
        if rep.text != first_text.setdefault(key, rep.text):
            failed += npoints
            violations.append(f"{cfg.scheme} output differs between repeats")
            continue
        bad = gate.point_violations(cfg, rep.records)
        failed += len(bad)
        violations.extend(f"{cfg.scheme} seed={s} snr_c_db={snr}: {'; '.join(m)}"
                          for (s, snr), m in bad.items())
    text = first_text[(pairs[0][0].scheme, pairs[0][0].snr_s_db)]
    return attempted, failed, violations, hashlib.sha256(text.encode()).hexdigest()


def results_path(workload, seed, trace, tiny):
    tag = "-tiny" if tiny else ""
    return OUT / f"{workload}-seed{seed}-trace{trace}{tag}.json"


def run_workload(args):
    import_package()
    from cas import experiment
    os.environ.pop(experiment.SEED_OFFSET_ENV, None)
    spec = load_spec()
    mapping = workload_mapping(args.workload, args.seed, args.tiny)
    cfg = experiment.config_from_mapping(mapping)
    # warm-up: first-call costs that a user pays once per process
    experiment.run_point(cfg, cfg.seeds[0], cfg.snr_c_db_list[0])
    if args.trace:
        values, details, pairs = traced_run(cfg, args)
        defs = spec["per_layer"]
    else:
        values, details, pairs = untraced_run(cfg, mapping, args)
        defs = spec["end_to_end"]
    if set(values) != {d["name"] for d in defs}:
        raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ {d['name'] for d in defs})}")
    attempted, failed, violations, sha = gate_outputs(pairs)
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs}
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "config": mapping,
        "env": env_record(args.seed),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "violations": violations[:50],
        "output_sha256": sha,
        "metrics": {d["name"]: dict(metrics[d["name"]], better=d["better"]) for d in defs},
        "details": details,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    results_path(args.workload, args.seed, args.trace, args.tiny).write_text(
        json.dumps(results, indent=1) + "\n", encoding="utf-8")
    for line in violations[:20]:
        print(f"violation: {line}", file=sys.stderr)
    print_table(args.workload, results["metrics"])
    print(f"{args.workload}: attempted {attempted}, failed {failed} "
          f"(failed_share {failed / attempted:.4g}), output sha256 {sha}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def print_table(title, metrics):
    print(f"== {title}")
    for name, m in metrics.items():
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']:<12} {m['better']} is better")


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    import_package()
    combined = {"seed": args.seed, "seconds": args.seconds,
                "env": env_record(args.seed), "workloads": {}}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                ok = False
                print(f"{name} trace {trace}: exit {proc.returncode}")
                continue
            res = json.loads(results_path(name, args.seed, trace, args.tiny).read_text())
            combined["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = res
            print_table(f"{name} ({'traced' if trace else 'untraced'})", res["metrics"])
            print(f"  attempted {res['attempted']}, failed {res['failed']}, "
                  f"failed_share {res['failed_share']:.4g}")
    if ok:
        ok = check_cli(args, combined)
    out = Path(args.out) if args.out else OUT / f"all-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
    print(f"results written to {out}")
    return 0 if ok else 1


def check_cli(args, combined):
    """Compare the sweep output with the bytes `cas sweep` writes for its seeds."""
    sweep = combined["workloads"]["sweep"]["untraced"]
    path = OUT / "cas-sweep.csv"
    cmd = [sys.executable, "-m", "cas", "sweep", "--output", str(path),
           "--seeds", ",".join(str(s) for s in sweep["config"]["seeds"])]
    if args.tiny:
        cmd += ["--snr-c-db-list", "10"]
    subprocess.run(cmd, cwd=ROOT, env=_package_env(), check=True, timeout=900)
    cli_sha = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    match = cli_sha == sweep["output_sha256"]
    combined["cas_sweep_sha256"] = cli_sha
    combined["cas_sweep_matches"] = match
    print(f"cas sweep sha256 {cli_sha}: {'matches' if match else 'DIFFERS from'} "
          "the sweep workload output")
    return match


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0, help="base channel seed")
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="2 seeds x 1 SNR, for the self-test")
    parser.add_argument("--out", help="with --all: combined results file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
