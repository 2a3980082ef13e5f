import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cas import (alphas_from_channel, evaluate_split, experiment,
                 generate_rayleigh)
from cas.cli import main
from cas.dual import optimize_dual
from cas.experiment import (CSV_COLUMNS, TRACE_COLUMNS, ConfigError,
                            collect_sweep, compare_summary,
                            config_from_mapping, parse_config_file,
                            render_records, run_point, write_output)
from cas.waterfilling import waterfill_capacity

SMALL = {
    "seeds": "0,1,2",
    "snr_c_db_list": "0,10",
    "output_path": "out.csv",
}


def small_cfg(tmp_path, **extra):
    mapping = dict(SMALL)
    mapping["output_path"] = str(tmp_path / "out.csv")
    mapping.update(extra)
    return config_from_mapping(mapping)


def write_sweep(cfg):
    records = write_output(cfg, collect_sweep, render_records)
    return cfg.output_path, sum(1 for r in records if r.flagged)


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    return env


def test_defaults_match_reference_setup():
    cfg = config_from_mapping({})
    assert cfg.system.n_tx == 10
    assert cfg.system.m_s == 5
    assert cfg.system.m_c == 5
    assert cfg.system.n_symbols == 100
    assert cfg.system.var_eta == 0.1
    assert cfg.system.var_s == pytest.approx(1.0)
    assert cfg.seeds == tuple(range(20))
    assert cfg.snr_c_db_list == (0.0, 5.0, 10.0, 15.0, 20.0)
    assert cfg.scheme == "both"


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        config_from_mapping({"scheme": "quantum"})
    with pytest.raises(ConfigError):
        config_from_mapping({"bogus_key": 1})
    with pytest.raises(ConfigError):
        config_from_mapping({"seeds": ""})
    with pytest.raises(ConfigError):
        config_from_mapping({"jobs": "0"})
    # the separated solver has no grid to configure, and the dual search's
    # stop tolerance is fixed
    for key in ("grid_l", "tol", "eps"):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            config_from_mapping({key: "21"})
    for mapping in ({"snr_c_db_list": "10,1000.5"}, {"snr_s_db": "-4000"}):
        with pytest.raises(ConfigError, match=r"must lie in \[-1000, 1000\] dB"):
            config_from_mapping(mapping)
    with pytest.raises(ConfigError):
        config_from_mapping({"n_symbols": "5"})
    with pytest.raises(ConfigError):
        config_from_mapping({"var_eta": "abc"})
    # a library or JSON mapping may pass numbers: a fractional one for an
    # integer key is refused rather than truncated
    for mapping in ({"n_tx": 10.7}, {"seeds": [0.9, 1.2]}, {"jobs": 2.5},
                    {"curve_points": float("inf")}):
        with pytest.raises(ConfigError, match="invalid value"):
            config_from_mapping(mapping)
    assert config_from_mapping({"n_tx": 10.0, "seeds": [0.0, 1]}).seeds == (0, 1)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "n_tx = 4\n"
        "seeds = 0, 1   # trailing comment\n"
        "snr_c_db_list = 5,15\n"
        "scheme = separated\n"
        "\n")
    cfg = config_from_mapping(parse_config_file(str(path)))
    assert cfg.system.n_tx == 4
    assert cfg.seeds == (0, 1)
    assert cfg.snr_c_db_list == (5.0, 15.0)
    assert cfg.scheme == "separated"
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))


def test_run_point_both_schemes(tmp_path):
    cfg = small_cfg(tmp_path)
    records = run_point(cfg, 0, 10.0)
    assert [r.scheme for r in records] == ["separated", "dual"]
    for rec in records:
        assert rec.seed == 0
        assert rec.snr_c_db == 10.0
        assert rec.d_sc == rec.d_s + rec.d_c
        assert rec.converged
        assert not rec.flagged
        assert len(rec.alloc_summary) == 10
    sep, dual = records
    assert 0.0 < sep.p_s < 1.0
    assert dual.p_s == pytest.approx(1.0, rel=1e-9)


def test_run_point_low_snr_ceiling(tmp_path):
    cfg = small_cfg(tmp_path)
    records = run_point(cfg, 0, -20.0)
    for rec in records:
        assert rec.d_sc == pytest.approx(5.0, rel=0.10)


def test_sweep_record_counts_and_sorting(tmp_path):
    cfg = small_cfg(tmp_path)
    records = collect_sweep(cfg)
    assert len(records) == 3 * 2 * 2
    keys = [(r.scheme, r.snr_c_db, r.seed) for r in records]
    assert keys == sorted(keys)


def test_sweep_csv_schema_and_determinism(tmp_path):
    cfg = small_cfg(tmp_path)
    path, flagged = write_sweep(cfg)
    assert flagged == 0
    first = open(path, "rb").read()
    lines = first.decode().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 12
    row = lines[1].split(",")
    assert row[0] == "dual"
    assert row[9] in ("true", "false")
    assert ";" in row[10]
    # every float field parses back and alloc sums to at most the budget
    alloc = [float(v) for v in row[10].split(";")]
    assert sum(alloc) <= 1.0 + 1e-9
    path2, _ = write_sweep(cfg)
    assert open(path2, "rb").read() == first


def test_sweep_json_format(tmp_path):
    cfg = small_cfg(tmp_path, output_format="json",
                    output_path=str(tmp_path / "out.json"))
    path, _ = write_sweep(cfg)
    data = json.loads(open(path).read())
    assert len(data) == 12
    for obj in data:
        assert set(obj) == set(CSV_COLUMNS)
        assert isinstance(obj["alloc_summary"], list)
        assert isinstance(obj["converged"], bool)
    # 12 significant digits survive the round trip
    assert any(len(f"{obj['d_sc']:.12g}") >= 10 for obj in data)
    # the CSV sweep of the same config carries the same values
    csv_path, _ = write_sweep(small_cfg(tmp_path))
    header, *rows = open(csv_path).read().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    parsed = []
    for row in rows:
        obj = dict(zip(CSV_COLUMNS, row.split(",")))
        obj.update({k: float(obj[k]) for k in ("snr_c_db", "p_s", "d_s", "d_c",
                                               "d_sc", "capacity")})
        obj.update(seed=int(obj["seed"]), iterations=int(obj["iterations"]),
                   converged={"true": True, "false": False}[obj["converged"]],
                   alloc_summary=[float(v) for v in obj["alloc_summary"].split(";")])
        parsed.append(obj)
    assert parsed == data


def test_seed_offset_env(tmp_path, monkeypatch):
    # the offset is added when the config is built: cfg.seeds are solved as is
    monkeypatch.setenv("CAS_SEED_OFFSET", "7")
    cfg = small_cfg(tmp_path, seeds="0")
    assert cfg.seeds == (7,)
    monkeypatch.delenv("CAS_SEED_OFFSET")
    shifted = collect_sweep(cfg)
    direct = collect_sweep(small_cfg(tmp_path, seeds="7"))
    assert [r.seed for r in shifted] == [r.seed for r in direct]
    assert [r.d_sc for r in shifted] == [r.d_sc for r in direct]
    monkeypatch.setenv("CAS_SEED_OFFSET", "not-an-int")
    with pytest.raises(ConfigError, match="CAS_SEED_OFFSET must be an integer"):
        small_cfg(tmp_path, seeds="0")


def test_bad_seed_offset_leaves_output_untouched(tmp_path, monkeypatch, capsys):
    # the offset is read before the output opens, so an existing file survives
    monkeypatch.setenv("CAS_SEED_OFFSET", "abc")
    out = tmp_path / "kept.csv"
    out.write_bytes(b"earlier results\n")
    for command in ("sweep", "trace"):
        assert main([command, "--output", str(out)]) == 2, command
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert out.read_bytes() == b"earlier results\n"


def test_unwritable_output_fails_fast(tmp_path):
    cfg = small_cfg(tmp_path, output_path=str(tmp_path / "missing" / "out.csv"))
    with pytest.raises(OSError):
        write_sweep(cfg)


def test_curve_points_emit_grid_rows(tmp_path):
    cfg = small_cfg(tmp_path, seeds="0", snr_c_db_list="10",
                    scheme="separated", curve_points="5")
    records = collect_sweep(cfg)
    grid = [r for r in records if r.scheme == "separated_grid"]
    assert len(grid) == 5
    assert grid[0].p_s == 0.0
    assert grid[-1].p_s == pytest.approx(1.0)
    ps = [r.p_s for r in grid]
    assert ps == sorted(ps)
    # each row is the split composed at its p_s, and none beats the optimum
    sys_cfg = experiment.system_for(cfg, 10.0)
    alphas = alphas_from_channel(
        generate_rayleigh(0, sys_cfg.m_c, sys_cfg.n_tx), sys_cfg)
    best = next(r for r in records if r.scheme == "separated")
    for r in grid:
        assert r.d_sc == evaluate_split(r.p_s, sys_cfg, alphas).d_sc
        wf = waterfill_capacity(sys_cfg.p_total - r.p_s, alphas)
        assert np.array_equal(r.alloc_summary, wf.alloc.lambdas)
        assert r.d_sc >= best.d_sc * (1.0 - 1e-12)


def test_emit_trace(tmp_path):
    path = tmp_path / "trace.csv"
    code = main(["trace", "--seeds", "0", "--snr-c-db-list", "0,10",
                 "--output", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "snr_c_db,init_kind,iteration,d_sc"
    rows = [line.split(",") for line in lines[1:]]
    series = {(snr, kind) for snr, kind, _, _ in rows}
    assert series == {(snr, kind) for snr in ("0", "10")
                      for kind in ("sensing_optimal", "communication_optimal")}
    for key in series:
        iters = [int(i) for snr, kind, i, _ in rows if (snr, kind) == key]
        assert iters == list(range(len(iters)))
        vals = [float(v) for snr, kind, _, v in rows if (snr, kind) == key]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_compare_summary_text(tmp_path):
    cfg = small_cfg(tmp_path)
    records = collect_sweep(cfg)
    text = compare_summary(records)
    lines = text.splitlines()
    assert "gain_pct" in lines[0]
    assert len(lines) == 1 + 2
    # dual never loses on the configured points, so gains are positive
    for line in lines[1:]:
        assert float(line.split()[-1]) > 0


def test_cli_point_stdout(tmp_path, capsys):
    code = main(["point", "--seeds", "0", "--snr-c-db-list", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(CSV_COLUMNS))
    assert len(out.strip().splitlines()) == 3
    # --output writes the same bytes that stdout carried
    path = tmp_path / "p.csv"
    assert main(["point", "--seeds", "0", "--snr-c-db-list", "10",
                 "--output", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert path.read_text() == out


def test_cli_point_runs_in_process(tmp_path, monkeypatch):
    # point is a one-point sweep, and one point never starts a pool
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(["point", "--seed", "0", "--snr-c-db", "10", "--jobs", "2"]) == 0
    with pytest.raises(AssertionError, match="process pool started"):
        main(["sweep", "--seeds", "0,1", "--snr-c-db-list", "10", "--jobs", "2",
              "--output", str(tmp_path / "s.csv")])


def test_cli_sweep_and_compare(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--seeds", "0,1", "--snr-c-db-list", "10",
                 "--output", str(out)])
    assert code == 0
    assert out.exists()
    code = main(["compare", "--seeds", "0,1", "--snr-c-db-list", "10",
                 "--output", str(tmp_path / "c.csv")])
    assert code == 0
    assert "gain_pct" in capsys.readouterr().out
    assert (tmp_path / "c.csv").read_bytes() == out.read_bytes()


def test_cli_trace_default_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["trace", "--seed", "1", "--snr-c-db", "10"])
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert {line.split(",")[0] for line in lines[1:]} == {"10"}


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("seeds = 0\nsnr_c_db_list = 0\nscheme = separated\n")
    out = tmp_path / "o.csv"
    code = main(["sweep", "--config", str(cfgfile), "--scheme", "dual",
                 "--output", str(out)])
    assert code == 0
    body = out.read_text()
    assert "dual" in body and "separated" not in body


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["sweep", "--scheme", "bogus",
                 "--output", str(tmp_path / "x.csv")]) == 2
    assert main(["sweep", "--seeds", "0", "--snr-c-db-list", "10",
                 "--output", str(tmp_path / "nodir" / "x.csv")]) == 4
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg"),
                 "--output", str(tmp_path / "x.csv")]) == 4
    # every swept SNR is checked before the output opens, so nothing is solved
    capsys.readouterr()
    for argv in (["point", "--snr-c-db", "nan"],
                 ["trace", "--snr-c-db", "nan"],
                 ["sweep", "--snr-c-db-list", "10,nan"],
                 ["sweep", "--snr-c-db-list", "10,inf"],
                 ["sweep", "--snr-c-db-list", "10,4000"],
                 ["point", "--snr-s-db", "4000"]):
        assert main(argv + ["--output", str(tmp_path / "y.csv")]) == 2, argv
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (tmp_path / "y.csv").exists()
    for argv in (["sweep", "--snr-c-db-list", "4000"],
                 ["sweep", "--snr-s-db=-4000"]):
        assert main(argv + ["--output", str(tmp_path / "y.csv")]) == 2, argv
        assert "must lie in [-1000, 1000] dB" in capsys.readouterr().err
    # a value starting with '-' is taken as the value, not as a flag
    assert main(["sweep", "--seeds", "0", "--snr-c-db-list", "-5,0",
                 "--scheme", "separated", "--output", str(tmp_path / "z.csv")]) == 0
    snrs = [line.split(",")[2] for line in
            (tmp_path / "z.csv").read_text().splitlines()[1:]]
    assert snrs == ["-5", "0"]
    capsys.readouterr()
    assert main(["point", "--seeds", "0", "--snr-c-db-list", "-5,0",
                 "--scheme", "separated"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["-5"]
    # sensing_subchannel_distortion once rounded above var_eta here, making
    # a source eigenvalue negative (exit 3)
    assert main(["point", "--n-tx", "6", "--m-s", "1", "--m-c", "4",
                 "--n-symbols", "24", "--var-eta", "0.562711567088472",
                 "--p-total", "0.02011631395760996",
                 "--snr-s-db=-5.702254611660248", "--seed", "35",
                 "--snr-c-db=-0.005527540159814492"]) == 0
    # exit 3 names each flagged record (at most 20) with its reason on stderr
    monkeypatch.setattr(experiment, "optimize_dual_best",
                        lambda cfg, alphas: optimize_dual(cfg, alphas, max_iters=1))
    capsys.readouterr()
    assert main(["point", "--seed", "0", "--snr-c-db", "10"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "flagged: scheme dual, seed 0, snr_c_db 10: "
        "dual search stopped at the iteration cap",
        "flagged records: 1"]
    assert main(["sweep", "--scheme", "dual", "--seeds",
                 ",".join(str(s) for s in range(25)), "--snr-c-db-list", "10",
                 "--output", str(tmp_path / "f.csv")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 21 and err[-1] == "flagged records: 25"
    assert err[19].startswith("flagged: scheme dual, seed 19, snr_c_db 10: ")
    monkeypatch.setattr(experiment, "alphas_from_channel",
                        lambda channel, cfg: np.zeros(cfg.n_tx))
    assert main(["point", "--seed", "3", "--snr-c-db=-5",
                 "--scheme", "separated"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "flagged: scheme separated, seed 3, snr_c_db -5: "
        "dead link (all channel gains zero)",
        "flagged records: 1"]


def test_cli_module_entry(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cas", "point", "--seeds", "0",
         "--snr-c-db-list", "10"],
        capture_output=True, text=True, env=src_env(), cwd=str(tmp_path))
    assert proc.returncode == 0
    assert proc.stdout.startswith("scheme,")


def loaded_by_import(module, cwd):
    """Whether a fresh interpreter has ``module`` loaded after importing the command line."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, cas.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=src_env(), cwd=str(cwd))
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.strip()]


def test_import_does_not_load_scipy(tmp_path):
    assert not loaded_by_import("scipy", tmp_path)


def test_import_does_not_load_process_pool(tmp_path):
    # the pool is only needed for jobs > 1; a serial run should not pay for it
    assert not loaded_by_import("concurrent.futures.process", tmp_path)


def test_parallel_jobs_match_serial(tmp_path):
    serial = small_cfg(tmp_path, seeds="0,1", snr_c_db_list="10")
    parallel = small_cfg(tmp_path, seeds="0,1", snr_c_db_list="10", jobs="2")
    a = render_records(collect_sweep(serial), "csv")
    b = render_records(collect_sweep(parallel), "csv")
    assert a == b


# sha256 of `cas` outputs; a change here is a change in output and is
# explained in CHANGES.md.  Together they cover the serializer, the sweep
# and curve records, the single warm start and the trace rows.
DEFAULT_SWEEP_SHA256 = (
    "8c46757ca4d7bf45779e5d7336f26f8980e655f6023d63f7881c0a966fec0054")
OUTPUT_SHA256 = {
    "sweep --format json":
        "8be5fadd744e3b43f5595312fc3c1ba5700ee4bce24546aa820216b05541f74e",
    "sweep --scheme separated --curve-points 101 --seeds 0,1,2":
        "186bdb719bd236978afc06fe7a9d7ed19a697aca9e1c9ff640d4041899586a22",
    "sweep --dual-init sensing --seeds 0,1,2,3 --snr-s-db 60":
        "93fe0f577dd9999128923fbb33f0ae4d637161d9b1afba6cf18867399620e373",
    "trace --seed 0 --snr-c-db-list=-5,0,10,20":
        "dc1ebc77d0adbb0b53a33e5099cb240f6d0417f15dad4896a9a0de0b06850e40",
}


def output_sha256(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("CAS_SEED_OFFSET", raising=False)
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_default_sweep_bytes(tmp_path, monkeypatch):
    assert output_sha256(["sweep"], tmp_path, monkeypatch) == DEFAULT_SWEEP_SHA256


@pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
def test_output_bytes(command, tmp_path, monkeypatch):
    assert (output_sha256(command.split(), tmp_path, monkeypatch)
            == OUTPUT_SHA256[command])


@st.composite
def system_mappings(draw):
    """Configurations over the whole documented space, one seed and SNR each."""
    n_tx = draw(st.integers(1, 16))
    return {
        "n_tx": n_tx,
        "m_s": draw(st.integers(1, 8)),
        "m_c": draw(st.integers(1, 8)),
        "n_symbols": draw(st.integers(n_tx, 4 * n_tx + 1)),
        "var_eta": 10.0 ** draw(st.floats(-3.0, 2.0)),
        "p_total": 10.0 ** draw(st.floats(-2.0, 2.0)),
        "snr_s_db": draw(st.floats(-30.0, 90.0)),
        "snr_c_db_list": [draw(st.floats(-30.0, 60.0))],
        "seeds": [draw(st.integers(0, 999))],
    }


@settings(max_examples=30)
@example({"n_tx": 6, "m_s": 1, "m_c": 4, "n_symbols": 24,
          "var_eta": 0.562711567088472, "p_total": 0.02011631395760996,
          "snr_s_db": -5.702254611660248, "seeds": [35],
          "snr_c_db_list": [-0.005527540159814492]})
@given(mapping=system_mappings())
def test_run_point_invariants_over_config_space(mapping):
    cfg = config_from_mapping(mapping)
    records = run_point(cfg, cfg.seeds[0], cfg.snr_c_db_list[0])
    assert sorted(r.scheme for r in records) == ["dual", "separated"]
    ceiling = cfg.system.m_s * cfg.system.n_tx * cfg.system.var_eta
    for rec in records:
        assert rec.d_sc == rec.d_s + rec.d_c
        assert 0.0 <= rec.d_sc <= ceiling
