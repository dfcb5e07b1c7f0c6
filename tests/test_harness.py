import glob
import json
import os
import sys

import numpy as np
import pytest

from twistpf import harness
from twistpf.cli import main
from twistpf.harness import (
    ConfigError,
    load_config,
    run_bound,
    run_clt_check,
    run_from_manifest,
    run_oracle_check,
    run_simulate,
    run_single,
    run_unbiasedness,
    run_variance_growth,
)
from twistpf.twists import ConvergenceError


def finite_cfg(**over):
    cfg = {
        "model": {
            "kind": "finite",
            "mu0": [0.6, 0.4],
            "trans": [[0.8, 0.2], [0.3, 0.7]],
            "emit": [[0.9, 0.1], [0.2, 0.8]],
        },
        "filter": "bootstrap",
        "steps": 6,
        "particles": 8,
        "replicates": 10,
        "seed": 3,
    }
    cfg.update(over)
    return cfg


def read_csv(path):
    lines = open(path).read().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_load_config_defaults():
    cfg = load_config(finite_cfg())
    assert cfg.filter_kind == "bootstrap"
    assert cfg.twist_spec["kind"] == "constant"
    assert cfg.particles == 8
    assert cfg.workers == 1
    assert cfg.window_length >= cfg.steps + 1


def test_load_config_exact_h_window_margin():
    cfg = load_config(finite_cfg(twist={"kind": "exact_h"}, filter="twisted"))
    # implicit windows for the eigen twist get room on both sides: the window
    # spans [-burn_in, length), and the tables cover [0, steps + 1]
    assert cfg.burn_in >= 32
    assert cfg.window_length - (cfg.steps + 2) >= 32


def test_load_config_field_errors():
    with pytest.raises(ConfigError, match="particles"):
        load_config(finite_cfg(particles=0))
    with pytest.raises(ConfigError, match="replicates"):
        load_config(finite_cfg(replicates=-1))
    with pytest.raises(ConfigError, match="steps"):
        load_config(finite_cfg(steps=-2))
    with pytest.raises(ConfigError, match="filter"):
        load_config(finite_cfg(filter="magic"))
    with pytest.raises(ConfigError, match="model"):
        load_config({"steps": 5})
    with pytest.raises(ConfigError, match="window.burn_in"):
        load_config(finite_cfg(window={"length": 20, "burn_in": -1}))
    with pytest.raises(ConfigError, match="workers"):
        load_config(finite_cfg(workers=0))
    with pytest.raises(ConfigError, match="kind"):
        load_config(finite_cfg(model={"kind": "tabular"}))


def test_load_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="'bogus_key'"):
        load_config(finite_cfg(bogus_key=3))
    with pytest.raises(ConfigError, match="'twist.lag'"):
        load_config(finite_cfg(twist={"kind": "lag", "lag": 2}))
    with pytest.raises(ConfigError, match="'window.size'"):
        load_config(finite_cfg(window={"length": 20, "size": 4}))
    with pytest.raises(ConfigError, match="'window'"):
        load_config(finite_cfg(window=[20, 0]))
    models = {
        "lg": {"kind": "lg", "a": 0.9, "q": 1.0, "r_obs": 1.0, "mu0_var": 2.0},
        "finite": finite_cfg()["model"],
        "sv": {"kind": "sv", "persistence": 0.9},
    }
    for kind, model in models.items():
        load_config(finite_cfg(model=model))
        # a key of another kind is unknown to this one
        stray = "persistence" if kind != "sv" else "mu0"
        with pytest.raises(ConfigError, match=f"'model.{stray}'"):
            load_config(finite_cfg(model=dict(model, **{stray: 0.5})))
    with pytest.raises(ConfigError, match="'model.persistance'"):
        load_config(finite_cfg(model={"kind": "sv", "persistance": 0.9}))


def test_shipped_and_written_configs_still_load(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    configs = glob.glob(os.path.join(root, "demos", "configs", "*.json"))
    assert configs
    for path in configs:
        load_config(path)
    sys.path.insert(0, os.path.join(root, "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    for workload in WORKLOADS.values():
        for _, cfg in workload.build(1).calls:
            load_config(cfg)
    written = [
        run_variance_growth(finite_cfg(filter="twisted", twist={"kind": "lag", "ell": 1},
                                       ell_grid=[0, 1]), str(tmp_path)),
        run_clt_check(finite_cfg(filter="twisted", steps=3, N_grid=[8]), str(tmp_path)),
        run_unbiasedness(finite_cfg(name="u"), str(tmp_path)),
        run_single(finite_cfg(filter="apf", twist={"kind": "lag", "ell": 1}), str(tmp_path)),
        run_oracle_check(finite_cfg(filter="twisted", steps=4), str(tmp_path)),
        run_bound(finite_cfg(filter="twisted", steps=4), str(tmp_path)),
        run_simulate(finite_cfg(), str(tmp_path)),
    ]
    for res in written:
        load_config(json.load(open(res.manifest_path))["config"])


@pytest.mark.parametrize("run", [run_clt_check, run_unbiasedness])
def test_spread_studies_need_two_replicates(tmp_path, run):
    cfg = finite_cfg(filter="twisted", steps=3, N_grid=[8], replicates=1)
    with pytest.raises(ConfigError, match="'replicates' must be >= 2"):
        run(cfg, str(tmp_path))


def test_load_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(finite_cfg()))
    cfg = load_config(path)
    assert cfg.steps == 6


def test_variance_growth_csv_schema(tmp_path):
    res = run_variance_growth(finite_cfg(), str(tmp_path))
    header, rows = read_csv(res.csv_path)
    assert header == ["n", "v_hat_minus_1", "log_v_over_n", "se", "N", "ell", "filter"]
    assert len(rows) == 6
    assert all(r[6] == "bootstrap" for r in rows)
    man = json.load(open(res.manifest_path))
    assert man["experiment"] == "variance-growth"
    assert "variance_growth.csv" in man["artifacts"]


def test_variance_growth_twisted_lag_grid(tmp_path):
    cfg = finite_cfg(
        filter="twisted",
        twist={"kind": "lag", "ell": 1},
        ell_grid=[0, 1],
        replicates=6,
    )
    res = run_variance_growth(cfg, str(tmp_path))
    header, rows = read_csv(res.csv_path)
    ells = {r[5] for r in rows}
    assert ells == {"0", "1"}
    assert len(rows) == 12


def test_clt_check_csv_schema(tmp_path):
    cfg = finite_cfg(filter="twisted", steps=3, replicates=60, N_grid=[8])
    res = run_clt_check(cfg, str(tmp_path))
    header, rows = read_csv(res.csv_path)
    assert header == [
        "N",
        "phi",
        "emp_var_eta",
        "exact_sigma2",
        "emp_var_gamma",
        "exact_varsigma2",
        "se_eta",
        "se_gamma",
    ]
    assert len(rows) >= 1
    for r in rows:
        assert float(r[3]) > 0


def test_unbiasedness_csv_schema(tmp_path):
    res = run_unbiasedness(finite_cfg(replicates=200), str(tmp_path))
    header, rows = read_csv(res.csv_path)
    assert header == [
        "filter",
        "twist",
        "ell",
        "n",
        "N",
        "replicates",
        "mean_ratio",
        "se",
        "z_score",
        "pass",
    ]
    assert rows[0][9] == "True"
    assert abs(float(rows[0][6]) - 1.0) < 4 * float(rows[0][7])


def test_oracle_check_writes_summary(tmp_path):
    cfg = finite_cfg(filter="twisted", twist={"kind": "lag", "ell": 1}, steps=20)
    res = run_oracle_check(cfg, str(tmp_path))
    header, rows = read_csv(res.csv_path)
    assert header[0] == "n"
    assert len(rows) == 21
    summary = json.load(open(res.manifest_path))
    assert "oracle_check_summary.csv" in summary["artifacts"]
    sheader, srows = read_csv(str(tmp_path / "oracle_check_summary.csv"))
    assert "slope" in sheader
    assert len(srows) == 1


def test_oracle_check_records_bound_error(tmp_path, monkeypatch):
    cfg = finite_cfg(filter="twisted", twist={"kind": "lag", "ell": 1}, steps=20)
    res = run_oracle_check(cfg, str(tmp_path / "ok"))
    assert res.extra["bound"] is not None
    assert json.load(open(res.manifest_path))["bound_error"] is None

    def no_convergence(*args, **kwargs):
        raise ConvergenceError("eigenfunction not converged")

    monkeypatch.setattr(harness, "eigen_triple", no_convergence)
    res = run_oracle_check(cfg, str(tmp_path / "short"))
    manifest = json.load(open(res.manifest_path))
    assert manifest["bound_error"] == "eigenfunction not converged"
    assert "bound_error" not in manifest["config"]
    _, srows = read_csv(str(tmp_path / "short" / "oracle_check_summary.csv"))
    assert srows[0][2] == ""

    def broken(*args, **kwargs):
        raise RuntimeError("not a convergence failure")

    monkeypatch.setattr(harness, "eigen_triple", broken)
    with pytest.raises(RuntimeError, match="not a convergence failure"):
        run_oracle_check(cfg, str(tmp_path / "broken"))


def test_single_run_trace_csv(tmp_path):
    res = run_single(finite_cfg(), str(tmp_path))
    header, rows = read_csv(res.csv_path)
    assert header[:3] == ["n", "log_Z", "log_phi"]
    assert len(rows) == 7


def test_simulate_csv(tmp_path):
    res = run_simulate(finite_cfg(steps=9), str(tmp_path))
    header, rows = read_csv(res.csv_path)
    assert header == ["t", "x", "y"]
    assert len(rows) == 9


def test_bound_csv(tmp_path):
    cfg = finite_cfg(filter="twisted", twist={"kind": "lag", "ell": 1}, steps=15)
    res = run_bound(cfg, str(tmp_path))
    header, rows = read_csv(res.csv_path)
    assert header == ["d_sup", "bound", "N", "twist", "ell"]
    d_sup, bound = float(rows[0][0]), float(rows[0][1])
    assert bound == pytest.approx(np.log1p(d_sup / (8 - 1)), rel=1e-12)


def test_runs_are_reproducible_bitwise(tmp_path):
    a = run_variance_growth(finite_cfg(), str(tmp_path / "a"))
    b = run_variance_growth(finite_cfg(), str(tmp_path / "b"))
    assert open(a.csv_path, "rb").read() == open(b.csv_path, "rb").read()


def test_worker_count_does_not_change_results(tmp_path):
    serial = run_variance_growth(finite_cfg(replicates=9), str(tmp_path / "s"))
    pooled = run_variance_growth(
        finite_cfg(replicates=9, workers=3), str(tmp_path / "p")
    )
    assert open(serial.csv_path, "rb").read() == open(pooled.csv_path, "rb").read()


def test_manifest_reproduces_run(tmp_path):
    first = run_variance_growth(finite_cfg(), str(tmp_path / "a"))
    again = run_from_manifest(first.manifest_path, str(tmp_path / "b"))
    assert open(first.csv_path, "rb").read() == open(again.csv_path, "rb").read()


def test_lg_model_and_exact_reference(tmp_path):
    cfg = {
        "model": {"kind": "lg", "a": 0.9, "q": 1.0, "r_obs": 1.0},
        "filter": "twisted",
        "twist": {"kind": "lag", "ell": 1},
        "steps": 5,
        "particles": 16,
        "replicates": 30,
        "seed": 2,
    }
    res = run_unbiasedness(cfg, str(tmp_path))
    header, rows = read_csv(res.csv_path)
    assert rows[0][0] == "twisted"


def test_sv_model_unbiasedness_smoke(tmp_path):
    cfg = {
        "model": {"kind": "sv"},
        "filter": "twisted",
        "twist": {"kind": "sv_approx", "ell": 2},
        "steps": 4,
        "particles": 16,
        "replicates": 40,
        "seed": 2,
    }
    res = run_unbiasedness(cfg, str(tmp_path))
    header, rows = read_csv(res.csv_path)
    assert rows[0][0] == "twisted"
    assert rows[0][9] in {"True", "False"}


def test_cli_simulate_and_run(tmp_path):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--model",
            "finite",
            "--steps",
            "12",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(str(out / "path.csv"))
    assert len(rows) == 12


def test_cli_variance_growth_with_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(finite_cfg(replicates=6)))
    out = tmp_path / "vg"
    code = main(["variance-growth", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "variance_growth.csv").exists()
    assert (out / "variance_growth_manifest.json").exists()


def test_cli_reproduce(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(finite_cfg(replicates=6)))
    out1 = tmp_path / "one"
    assert main(["variance-growth", "--config", str(cfg_path), "--out", str(out1)]) == 0
    out2 = tmp_path / "two"
    man = out1 / "variance_growth_manifest.json"
    assert main(["reproduce", str(man), "--out", str(out2)]) == 0
    assert (out1 / "variance_growth.csv").read_bytes() == (
        out2 / "variance_growth.csv"
    ).read_bytes()


def test_cli_error_exit_codes(tmp_path):
    # config error -> 2
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(finite_cfg(particles=0)))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    # missing file -> 2
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    # missing required pieces -> 2
    assert main(["run", "--out", str(tmp_path / "y")]) == 2


def test_cli_overrides_take_effect(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "run",
            "--model",
            "finite",
            "--steps",
            "4",
            "--particles",
            "5",
            "--seed",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(str(out / "runtrace.csv"))
    assert len(rows) == 5
