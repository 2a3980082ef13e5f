"""Self-test of the benchmark on a tiny configuration (a few seconds).

    python3 -m pytest -q bench/test_bench.py

Runs all three workload paths at 2 seeds x 1 SNR, untraced and traced, and
checks that every metric of BENCHMARK.json is emitted with its unit and
direction, that the gate catches a corrupted record, that the tracer
survives a missing function, and that the benchmark refuses to run without
the package source.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from cas import experiment  # noqa: E402


@pytest.fixture(scope="module")
def workdir():
    path = run.OUT / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def combined(workdir):
    out = workdir / "all.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--all", "--tiny", "--seconds", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_every_metric_is_emitted_with_unit_and_direction(combined):
    spec = run.load_spec()
    assert list(combined["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, res in combined["workloads"].items():
        for mode, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
            r = res[mode]
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, (name, mode)
            assert set(r["env"]) >= {"nproc", "python", "numpy", "scipy",
                                     "git_commit", "git_dirty", "base_seed"}
            assert [m for m in r["metrics"]] == [d["name"] for d in spec[key]]
            for d in spec[key]:
                m = r["metrics"][d["name"]]
                assert (m["unit"], m["better"]) == (d["unit"], d["better"])
                assert isinstance(m["value"], float) and math.isfinite(m["value"])
        for d in spec["end_to_end"]:
            assert res["untraced"]["metrics"][d["name"]]["value"] > 0, (name, d["name"])


def test_sweep_output_matches_cas_sweep(combined):
    assert combined["cas_sweep_matches"]
    sweep = combined["workloads"]["sweep"]
    assert sweep["untraced"]["output_sha256"] == sweep["traced"]["output_sha256"]
    jobs2 = combined["workloads"]["sweep-jobs2"]
    assert jobs2["untraced"]["output_sha256"] == sweep["untraced"]["output_sha256"]


def test_trace_accounts_for_wall_time_and_bypass(combined):
    for res in combined["workloads"].values():
        assert abs(res["traced"]["details"]["self_time_identity_error"]) < 1e-9
        assert res["traced"]["details"]["missing"] == []
    dual = combined["workloads"]["dual-highsnr"]["traced"]["metrics"]
    assert dual["separated.evaluate_split.calls_per_point"]["value"] == 0
    assert dual["waterfilling.waterfill_capacity.calls_per_point"]["value"] == 1
    jobs2 = combined["workloads"]["sweep-jobs2"]["traced"]["metrics"]
    # solver spans ran in the pool workers and were merged into the parent
    assert jobs2["separated.optimize_separated.calls_per_point"]["value"] == 1
    assert jobs2["experiment.collect_sweep.jobs2_speedup"]["value"] > 0
    # the pool costs the parent time beyond the busiest worker's solves
    assert jobs2["experiment.collect_sweep.overhead_us_per_point"]["value"] > 0


def _tiny_config():
    return experiment.config_from_mapping(run.workload_mapping("sweep", 0, tiny=True))


def test_gate_reports_corrupted_record():
    cfg = _tiny_config()
    records = [r for snr in cfg.snr_c_db_list for s in cfg.seeds
               for r in experiment.run_point(cfg, s, snr)]
    assert gate.point_violations(cfg, records) == {}
    bad = replace(records[0], d_sc=math.nextafter(records[0].d_sc, math.inf))
    found = gate.point_violations(cfg, [bad] + records[1:])
    assert list(found) == [(records[0].seed, records[0].snr_c_db)]
    assert "d_sc" in found[(records[0].seed, records[0].snr_c_db)][0]
    dual = next(r for r in records if r.scheme == "dual")
    worse = replace(dual, d_s=dual.d_s + 1.0, d_sc=dual.d_sc + 1.0)
    found = gate.point_violations(cfg, [worse if r is dual else r for r in records])
    assert any("warm start" in m for m in found[(dual.seed, dual.snr_c_db)])
    assert (cfg.seeds[1], cfg.snr_c_db_list[0]) in gate.point_violations(cfg, records[:2])


def test_tracer_reports_missing_function_and_restores(workdir):
    import cas
    from cas import dual
    orig = dual.evaluate_dual
    tracer = spans.Tracer(str(workdir), layers={
        "dual": ("evaluate_dual", "no_such_function"), "no_such_layer": ("f",)})
    tracer.install()
    try:
        assert dual.evaluate_dual is not orig
        # the package's own `from .dual import evaluate_dual` binding too
        assert cas.evaluate_dual is dual.evaluate_dual
    finally:
        tracer.uninstall()
    assert dual.evaluate_dual is orig and cas.evaluate_dual is orig
    assert tracer.missing == {"dual.no_such_function", "no_such_layer.f"}


def test_refuses_to_run_without_package_source(workdir):
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
