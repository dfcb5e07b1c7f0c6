import dataclasses
import glob
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from twistpf import harness, twists
from twistpf.cli import _MODEL_PRESETS, main
from twistpf.config import _PARAMS
from twistpf.filters import _KINDS, run_filter
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
from twistpf.models import kalman_run, simulate
from twistpf.windows import ObservationWindow
from twistpf.oracle import occupation_states
from twistpf.twists import TWIST_KINDS, ConvergenceError

import artifact_digests


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


@pytest.mark.parametrize("run", [run_clt_check, run_unbiasedness],
                         ids=["run_clt_check", "run_unbiasedness"])
def test_spread_studies_need_two_replicates(tmp_path, run):
    cfg = finite_cfg(filter="twisted", steps=3, N_grid=[8], replicates=1)
    with pytest.raises(ConfigError, match="'replicates' must be >= 2"):
        run(cfg, str(tmp_path))


@pytest.mark.parametrize("filter_kind", ["bootstrap", "sis"])
def test_variance_growth_needs_a_horizon(tmp_path, filter_kind):
    # at steps = 0 there is no horizon n >= 1: a ConfigError, not an empty
    # table (SIS) or numpy's error on the empty reduction (the others)
    with pytest.raises(ConfigError, match="'steps' must be >= 1 for variance-growth"):
        run_variance_growth(finite_cfg(filter=filter_kind, steps=0), str(tmp_path))


@pytest.mark.parametrize("cfg, field, run", [
    (finite_cfg(twist={"kind": "lagg"}), "'twist.kind'", run_variance_growth),
    (finite_cfg(twist={"kind": "lag", "ell": "abc"}), "'twist.ell'", run_variance_growth),
    (finite_cfg(steps="x"), "'steps'", run_variance_growth),
    (finite_cfg(twist={"kind": "lag", "ell": -1}), "'twist.ell' must be >= 0",
     run_variance_growth),
    (finite_cfg(filter="twisted", twist={"kind": "lag", "ell": 1}, ell_grid=3), "'ell_grid'",
     run_variance_growth),
    ([1, 2], "JSON object", run_variance_growth),
    (finite_cfg(particles=2.7), "'particles'", run_variance_growth),
    (finite_cfg(twist={"kind": "lag", "ell": True}), "'twist.ell'", run_variance_growth),
    (finite_cfg(name="../evil"), "'name'", run_variance_growth),
    (finite_cfg(model={"kind": "lg", "a": "0.9", "q": 1.0, "r_obs": 1.0}), "'model.a'",
     run_variance_growth),
    (finite_cfg(steps=2), "'steps' must be >= 3 for oracle-check", run_oracle_check),
    (finite_cfg(particles=1), "'particles' must be >= 2 for bound", run_bound),
], ids=["twist-kind", "ell-str", "steps-str", "ell-negative", "ell-grid-int", "json-list",
        "particles-float", "ell-bool", "name-path", "model-str", "oracle-check-steps",
        "bound-particles"])
def test_config_value_types_fail_naming_the_field(tmp_path, monkeypatch, cfg, field, run):
    def no_window(*args):
        raise AssertionError("a window was drawn for a refused config")

    monkeypatch.setattr(harness, "draw_window", no_window)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out" / "deep"
    if run is run_variance_growth:  # a bad value of the config itself
        with pytest.raises(ConfigError, match=field):
            load_config(path)
    else:  # a value the experiment cannot run with, refused before any window
        with pytest.raises(ConfigError, match=field):
            run(path, str(out))
    assert main([run.name, "--config", str(path), "--out", str(out)]) == 2
    assert not (tmp_path / "out").exists()


def test_ell_grid_beyond_the_window_fails_naming_the_field(tmp_path):
    # the implicit window is sized by twist.ell; lag 2 of the grid would read
    # observation 9 of a 9-observation window
    cfg = {"model": {"kind": "lg", "a": 0.9, "q": 1.0, "r_obs": 1.0}, "filter": "twisted",
           "twist": {"kind": "lag", "ell": 0}, "ell_grid": [0, 2], "steps": 8,
           "particles": 8, "replicates": 4}
    assert load_config(cfg).window_length == 9
    with pytest.raises(ConfigError, match="'ell_grid'"):
        run_variance_growth(cfg, str(tmp_path / "a"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["variance-growth", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    res = run_variance_growth(dict(cfg, window={"length": 11, "burn_in": 0}), str(out))
    assert {r[5] for r in read_csv(res.csv_path)[1]} == {"0", "2"}


def test_runner_draws_one_window_and_one_eigen_triple(tmp_path, monkeypatch):
    calls = {"draw_window": 0, "eigen_triple": 0}
    for module, name in ((harness, "draw_window"), (twists, "eigen_triple")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    run_variance_growth(finite_cfg(filter="twisted", twist={"kind": "lag", "ell": 1},
                                   ell_grid=[0, 1]), str(tmp_path))
    run_unbiasedness(finite_cfg(filter="sis"), str(tmp_path))
    assert calls == {"draw_window": 2, "eigen_triple": 0}
    run_clt_check(finite_cfg(filter="twisted", twist={"kind": "exact_h"}, steps=3,
                             N_grid=[8, 16]), str(tmp_path))
    run_bound(finite_cfg(filter="twisted", twist={"kind": "exact_h"}, steps=4), str(tmp_path))
    assert calls == {"draw_window": 4, "eigen_triple": 2}


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


def test_sis_unbiasedness_keeps_one_step_of_chain_weights(tmp_path):
    # an SIS study reads its chains' weights at one step and keeps that step
    # alone: at 10^4 chains and 100 steps a call peaks at about 0.49 MB
    # traced (whole weight traces took 8.4 MB), bounded here at twice that;
    # its ratio is the one the whole traces give
    lg = {"kind": "lg", "a": 0.9, "q": 1.0, "r_obs": 1.0}
    cfg = {"model": lg, "filter": "sis", "steps": 100, "particles": 100, "replicates": 10_000,
           "seed": 3, "window": {"length": 110, "burn_in": 20}}
    run_unbiasedness(cfg, str(tmp_path))  # the engine's step buffers are kept from here on
    tracemalloc.start()
    try:
        res = run_unbiasedness(cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    conf = load_config(cfg)
    window = harness.draw_window(conf.params, conf.window_length, conf.burn_in, conf.seed)
    whole = run_filter("sis", conf.params, None, window, 100, 10_000, 3, test_functions={})
    log_z = kalman_run(conf.params, window, 100).log_z[100]
    ratio = np.exp(whole.aux["chain_log_weights"][100] - log_z)
    _, rows = read_csv(res.csv_path)
    assert rows[0][6] == repr(float(ratio.mean()))


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

    monkeypatch.setattr(twists, "eigen_triple", no_convergence)
    res = run_oracle_check(cfg, str(tmp_path / "short"))
    manifest = json.load(open(res.manifest_path))
    assert manifest["bound_error"] == "eigenfunction not converged"
    assert "bound_error" not in manifest["config"]
    _, srows = read_csv(str(tmp_path / "short" / "oracle_check_summary.csv"))
    assert srows[0][2] == ""

    def broken(*args, **kwargs):
        raise RuntimeError("not a convergence failure")

    monkeypatch.setattr(twists, "eigen_triple", broken)
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


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports twistpf from the same
    sources as this test session; returns its stdout."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout


def test_import_loads_no_scipy():
    # importing twistpf loads numpy and the standard library, nothing else:
    # each top-level module it adds to a bare interpreter's sys.modules is
    # numpy, twistpf or a standard one (an entry that names a module already
    # loaded, like multiprocessing's __mp_main__, adds none); the baseline is
    # taken in the same interpreter, since site may load packages of its own
    out = _fresh_python(
        "import json, sys\n"
        "before = dict(sys.modules)\n"
        "import twistpf\n"
        "loaded = {id(m) for m in before.values()}\n"
        "added = {name.split('.')[0] for name, m in sys.modules.items()\n"
        "         if name not in before and id(m) not in loaded}\n"
        "print(json.dumps(sorted(added - {'numpy', 'twistpf'} - set(sys.stdlib_module_names))))")
    assert json.loads(out) == []


def test_import_loads_no_pool_modules():
    # the process pool's modules, and the logging that concurrent.futures
    # loads, are imported when a pooled study starts, not with the package
    out = _fresh_python(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import twistpf\n"
        "pool = ('multiprocessing', 'concurrent.futures', 'logging')\n"
        "print(json.dumps([m for m in pool if m in sys.modules and m not in before]))")
    assert json.loads(out) == []


def test_worker_pool_leaves_no_process_behind(tmp_path):
    # a fork pool in a with block: its workers are joined on exit, and it
    # starts neither a forkserver nor a resource tracker that would outlive
    # the run; a fresh interpreter keeps other tests' pools out of the count
    cfg = finite_cfg(replicates=6, workers=2)
    out = _fresh_python(
        "import json, multiprocessing\n"
        "from multiprocessing import forkserver, resource_tracker\n"
        "from twistpf.harness import run_variance_growth\n"
        f"run_variance_growth(json.loads({json.dumps(json.dumps(cfg))}), {str(tmp_path)!r})\n"
        "print(json.dumps([[p.pid for p in multiprocessing.active_children()],\n"
        "                  forkserver._forkserver._forkserver_pid,\n"
        "                  resource_tracker._resource_tracker._pid]))")
    assert json.loads(out) == [[], None, None]


def test_closing_a_pooled_study_early_leaves_no_process_behind():
    # closing the generator after its first block cancels the pending blocks
    # and joins every worker: it returns in a fraction of the time the
    # remaining 29 blocks would take on two workers
    out = _fresh_python(
        "import json, multiprocessing, time\n"
        "from multiprocessing import forkserver, resource_tracker\n"
        "from twistpf.filters import replicate_blocks\n"
        "from twistpf.models import LinearGaussianParams, simulate\n"
        "params = LinearGaussianParams(a=0.9, q=1.0, r_obs=1.0)\n"
        "_, w = simulate(params, 400, seed=1)\n"
        "blocks = replicate_blocks('bootstrap', params, None, w, 300, 10_000, 1,\n"
        "                          range(30), test_functions={}, workers=2)\n"
        "t0 = time.perf_counter()\n"
        "next(blocks)\n"
        "t1 = time.perf_counter()\n"
        "blocks.close()\n"
        "t2 = time.perf_counter()\n"
        "print(json.dumps([[p.pid for p in multiprocessing.active_children()],\n"
        "                  forkserver._forkserver._forkserver_pid,\n"
        "                  resource_tracker._resource_tracker._pid, t1 - t0, t2 - t1]))")
    children, forkserver_pid, tracker_pid, first, closing = json.loads(out)
    assert [children, forkserver_pid, tracker_pid] == [[], None, None]
    assert closing < (29 * first / 2) / 3, (first, closing)


def test_manifest_reproduces_run(tmp_path):
    first = run_variance_growth(finite_cfg(), str(tmp_path / "a"))
    again = run_from_manifest(first.manifest_path, str(tmp_path / "b"))
    assert open(first.csv_path, "rb").read() == open(again.csv_path, "rb").read()


LAG1 = {"filter": "twisted", "twist": {"kind": "lag", "ell": 1}}


@pytest.mark.parametrize("run, cfg", [
    (run_variance_growth, finite_cfg(filter="sis", replicates=20)),
    (run_variance_growth, finite_cfg(filter="apf", twist={"kind": "lag", "ell": 1})),
    (run_single, finite_cfg(**LAG1)),
    (run_simulate, finite_cfg()),
    (run_bound, finite_cfg(steps=5, **LAG1)),
    (run_clt_check, finite_cfg(steps=3, N_grid=[8], **LAG1)),
    (run_unbiasedness, finite_cfg()),
    (run_oracle_check, finite_cfg(steps=5, **LAG1)),
], ids=["sis", "apf", "run", "simulate", "bound", "clt-check", "unbiasedness", "oracle-check"])
def test_manifest_reproduces_every_experiment(tmp_path, run, cfg):
    first = run(cfg, str(tmp_path / "a"))
    manifest = json.load(open(first.manifest_path))
    again = run_from_manifest(first.manifest_path, str(tmp_path / "b"))
    assert os.path.basename(again.manifest_path) == os.path.basename(first.manifest_path)
    names = manifest["artifacts"] + [os.path.basename(first.manifest_path)]
    if run is run_oracle_check:
        assert manifest["artifacts"] == ["oracle_check.csv", "oracle_check_summary.csv"]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes(), name


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
    # a bad override -> 2
    assert main(["run", "--model", "finite", "--steps", "3", "--lag", "-1",
                 "--out", str(tmp_path / "z")]) == 2


def test_cli_lets_unexpected_errors_propagate(tmp_path, monkeypatch):
    def boom(config, window):
        raise RuntimeError("boom inside the experiment")

    monkeypatch.setitem(harness._EXPERIMENTS, "simulate",
                        dataclasses.replace(harness.run_simulate, body=boom))
    with pytest.raises(RuntimeError, match="boom inside the experiment"):
        main(["simulate", "--model", "finite", "--steps", "3", "--out", str(tmp_path / "b")])


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


def _refused_before_any_window(tmp_path, monkeypatch, capsys, command, cfg, field):
    """``command`` on ``cfg`` raises a ConfigError naming ``field`` and exits 2
    with it on stderr, and neither draws a window nor writes a file."""
    def no_window(*args):
        raise AssertionError("a window was drawn for a refused config")

    monkeypatch.setattr(harness, "draw_window", no_window)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity as Python's json reads them
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=field):
        harness._EXPERIMENTS[command](str(path), str(out))
    capsys.readouterr()
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, table, value", [
    ("oracle-check", "trans", [[1.2, -0.2], [0.3, 0.7]]),
    ("run", "mu0", [float("nan"), 0.5]),
    ("run", "trans", [[0.8, 0.2], [float("nan"), 0.7]]),
    ("run", "emit", [[0.9, 0.1], [0.2, float("inf")]]),
], ids=["oracle-check-negative-trans", "run-nan-mu0", "run-nan-trans", "run-inf-emit"])
def test_cli_refuses_negative_and_non_finite_tables(tmp_path, monkeypatch, capsys, command,
                                                     table, value):
    cfg = finite_cfg(filter="twisted", twist={"kind": "lag", "ell": 1})
    cfg["model"][table] = value
    _refused_before_any_window(tmp_path, monkeypatch, capsys, command, cfg, f"'model.{table}'")


_LG = {"kind": "lg", "a": 0.9, "q": 1.0, "r_obs": 1.0}
_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("table, value, named", [
    ("mu0", 0.5, "mu0"),
    ("mu0", [], "mu0"),
    ("mu0", "x", "mu0"),
    ("mu0", {}, "mu0"),
    ("mu0", [0.5, 0.5], "trans"),
    ("trans", 0.5, "trans"),
    ("trans", [[0.5, 0.5]], "trans"),
    ("emit", [[0.4, 0.3, 0.3], [0.3, 0.4], [0.3, 0.3, 0.4]], "emit"),
    ("emit", [[], [], []], "emit"),
], ids=["scalar-mu0", "empty-mu0", "string-mu0", "dict-mu0", "short-mu0", "scalar-trans",
        "one-row-trans", "ragged-emit", "no-symbol-emit"])
def test_cli_refuses_malformed_finite_tables_naming_each(tmp_path, monkeypatch, capsys, table,
                                                         value, named):
    # the finite preset with one table replaced: each table is converted and
    # checked by itself, in the order mu0, trans, emit, and the error names
    # it; a valid mu0 of another length is named by the first table that
    # disagrees with it, whose message names mu0 too
    cfg = {"model": dict(_MODEL_PRESETS["finite"], **{table: value}), "steps": 4}
    _refused_before_any_window(tmp_path, monkeypatch, capsys, "run", cfg, f"'model.{named}'")
    with pytest.raises(ConfigError, match=table):
        load_config(cfg)


@pytest.mark.parametrize("field", ["particles", "steps", "replicates", "workers", "twist.ell",
                                   "window.length", "window.burn_in", "ell_grid", "N_grid"])
def test_cli_refuses_integer_fields_past_int64(tmp_path, monkeypatch, capsys, field):
    # sizes, counts and lags are numpy's sizes and indices: 2**63 is refused
    # by name, where numpy would stop on it; the seed is reduced modulo 2**64
    cfg = finite_cfg(twist={"kind": "lag", "ell": 1}, window={"length": 10, "burn_in": 0})
    head, _, key = field.rpartition(".")
    (cfg[head] if head else cfg)[key] = [2**63] if field.endswith("grid") else 2**63
    _refused_before_any_window(tmp_path, monkeypatch, capsys, "variance-growth", cfg, f"'{field}'")
    load_config(finite_cfg(seed=2**63))


def test_cli_refuses_a_window_of_non_finite_observations(tmp_path, capsys):
    # a volatility whose path overflows float64: the drawn window is refused
    # as a model fault, naming the parameters, before any filter reads it
    cfg = finite_cfg(model={"kind": "sv", "vol_of_vol": 2.0**63}, steps=4)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'model'" in err and "vol_of_vol=9.223372036854776e+18" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("filter_kind", ["bootstrap", "twisted", "apf", "sis"])
def test_cli_runs_an_sv_path_with_a_zero_observation(tmp_path, capsys, filter_kind):
    # at seed 0 the path of vol_of_vol 2**63 underflows its observations to
    # exactly 0 (a finite window) while particles lie far below x = -709: the
    # potential's y^2 exp(-x) term is exactly 0 there, not 0 * inf
    cfg = {"model": {"kind": "sv", "vol_of_vol": 2**63}, "filter": filter_kind,
           "twist": {"kind": "sv_approx", "ell": 1}, "steps": 4, "particles": 8,
           "replicates": 4, "seed": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        config = load_config(cfg)
        window = harness.draw_window(config.params, config.window_length, 0, 0)
        assert (window.values == 0.0).any()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    header, rows = read_csv(str(tmp_path / "out" / "runtrace.csv"))
    assert header[1] == "log_Z" and all(np.isfinite(float(row[1])) for row in rows)
    x = np.array([-1e4, -800.0, 0.0, 3.0])
    b2 = config.params.obs_scale2
    zero = ObservationWindow(0, [0.0])
    assert np.array_equal(config.params.log_g(zero, 0, x),
                          np.multiply(-0.5, np.log(2.0 * np.pi * b2) + x))


@pytest.mark.parametrize("model, kind", [("sv", "sv_approx"), ("lg", "lag"), ("finite", "lag")])
def test_cli_lag_takes_the_models_lag_kind(tmp_path, capsys, model, kind):
    # --lag with no twist kind given sets the kind of the model that takes a
    # lag; a kind the config gives is kept, and a twist that is not an object
    # is refused by name
    out = tmp_path / "out"
    assert main(["run", "--model", model, "--lag", "2", "--steps", "4", "--particles", "8",
                 "--filter", "twisted", "--out", str(out)]) == 0
    manifest = json.load(open(out / "runtrace_manifest.json"))
    assert manifest["config"]["twist"] == {"kind": kind, "ell": 2, "tol": 1e-9}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": _MODEL_PRESETS[model], "twist": {"kind": "constant"},
                                "steps": 4, "particles": 8}))
    assert main(["run", "--config", str(path), "--lag", "1", "--out", str(out)]) == 0
    manifest = json.load(open(out / "runtrace_manifest.json"))
    assert manifest["config"]["twist"] == {"kind": "constant", "ell": 1, "tol": 1e-9}
    path.write_text(json.dumps({"model": _MODEL_PRESETS[model], "twist": "x", "steps": 4}))
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--lag", "1", "--out", str(out)]) == 2
    assert "'twist'" in capsys.readouterr().err


@pytest.mark.parametrize("command, over, field", [
    ("run", {"model": _LG, "particles": 2**62}, "particles"),
    ("run", {"model": _LG, "particles": 2**60}, "particles"),
    ("clt-check", {"N_grid": [8, 2**60]}, "N_grid"),
    ("variance-growth", {"filter": "sis", "replicates": 2**60}, "replicates"),
    ("run", {"filter": "sis", "replicates": 2**61}, "replicates"),
], ids=["particles-2**62", "particles-2**60", "N_grid", "sis-variance-growth", "sis-run"])
def test_cli_refuses_rows_numpy_cannot_index(tmp_path, monkeypatch, capsys, command, over,
                                             field):
    # a row of 2**60 float64 particles (or SIS chains) spans 2**63 bytes,
    # which numpy cannot index: the size is refused by name before any window
    _refused_before_any_window(tmp_path, monkeypatch, capsys, command, finite_cfg(**over),
                               f"'{field}'")


def test_unbiasedness_needs_a_horizon(tmp_path, monkeypatch, capsys):
    _refused_before_any_window(tmp_path, monkeypatch, capsys, "unbiasedness",
                               finite_cfg(steps=0), "'steps'")


def test_unbiasedness_with_no_spread_fails_without_dividing(tmp_path, monkeypatch):
    # every replicate ratio equal: a zero standard error, which no z-score
    # can be judged by. q = 2**63 underflows every ratio to 0 (z = inf); the
    # exact value in every replicate gives a mean of exactly 1 (z = 0)
    res = run_unbiasedness(finite_cfg(model=dict(_LG, q=2.0**63), filter="twisted",
                                      twist={"kind": "lag", "ell": 1}), str(tmp_path / "a"))
    assert res.extra == {"pass": False, "z_score": float("inf")}
    header, rows = read_csv(res.csv_path)
    assert dict(zip(header, rows[0]))["se"] == "0.0"

    def exact(config, window, filter_kind, step):
        return [(np.full(config.replicates, harness._exact_log_z(config, window)[step]), {})]

    monkeypatch.setattr(harness, "_replicates", exact)
    res = run_unbiasedness(finite_cfg(), str(tmp_path / "b"))
    assert res.extra == {"pass": False, "z_score": 0.0}


@pytest.mark.parametrize("command, model, twist, field", [
    ("oracle-check", None, {"kind": "lag", "ell": 1, "tol": _INF}, "twist.tol"),
    ("run", dict(_LG, q=_INF), {}, "model.q"),
    ("run", dict(_LG, r_obs=_INF), {}, "model.r_obs"),
    ("run", dict(_LG, mu0_var=_INF), {}, "model.mu0_var"),
    ("run", dict(_LG, mu0_mean=_NAN), {}, "model.mu0_mean"),
    ("run", dict(_LG, a=_NAN, mu0_var=1.0), {}, "model.a"),
    ("run", {"kind": "sv", "vol_of_vol": _INF}, {}, "model.vol_of_vol"),
    ("run", {"kind": "sv", "scale": _INF}, {}, "model.scale"),
], ids=["oracle-check-inf-tol", "lg-inf-q", "lg-inf-r_obs", "lg-inf-mu0_var",
        "lg-nan-mu0_mean", "lg-nan-a", "sv-inf-vol_of_vol", "sv-inf-scale"])
def test_cli_refuses_non_finite_numbers(tmp_path, monkeypatch, capsys, command, model, twist,
                                        field):
    # JSON's Infinity and NaN: an infinite tolerance no certificate can fail,
    # and parameters the engine would meet only as weights that are all -inf
    cfg = finite_cfg(filter="twisted", twist=twist)
    if model is not None:
        cfg["model"] = model
    _refused_before_any_window(tmp_path, monkeypatch, capsys, command, cfg, f"'{field}'")


@pytest.mark.parametrize("model, field", [
    (dict(_LG, mu0_var=-1), "model.mu0_var"),
    (dict(_LG, mu0_var=0), "model.mu0_var"),
    (dict(_LG, q=-1), "model.q"),
    (dict(_LG, r_obs=-1), "model.r_obs"),
    (dict(_LG, a=1.5), "model.a"),
    ({"kind": "sv", "persistence": 1.0}, "model.persistence"),
    ({"kind": "sv", "vol_of_vol": -1}, "model.vol_of_vol"),
    ({"kind": "sv", "scale": -1}, "model.scale"),
], ids=["lg-negative-mu0_var", "lg-zero-mu0_var", "lg-negative-q", "lg-negative-r_obs",
        "lg-explosive-a", "sv-unit-persistence", "sv-negative-vol_of_vol", "sv-negative-scale"])
def test_cli_refuses_out_of_range_parameters_naming_each(tmp_path, monkeypatch, capsys, model,
                                                         field):
    # one check per parameter: each is an exit-2 error naming its own field,
    # never a neighbour checked in the same message or the bare 'model'
    cfg = finite_cfg(model=model)
    _refused_before_any_window(tmp_path, monkeypatch, capsys, "run", cfg, f"'{field}'")


@pytest.mark.parametrize("filter_kind", ["bootstrap", "twisted", "apf", "sis"])
@pytest.mark.parametrize("model, twist", [
    ({"kind": "sv"}, {"kind": "lag", "ell": 1}),
    ({"kind": "sv"}, {"kind": "exact_h"}),
    (_LG, {"kind": "sv_approx", "ell": 1}),
    (_LG, {"kind": "exact_h"}),
    (finite_cfg()["model"], {"kind": "sv_approx", "ell": 1}),
], ids=["sv-lag", "sv-exact_h", "lg-sv_approx", "lg-exact_h", "finite-sv_approx"])
def test_cli_refuses_a_twist_kind_the_model_lacks(tmp_path, monkeypatch, capsys, model, twist,
                                                   filter_kind):
    # checked whatever the filter: oracle-check, bound and clt-check build the
    # twist even for a bootstrap config
    cfg = finite_cfg(model=model, filter=filter_kind, twist=twist)
    _refused_before_any_window(tmp_path, monkeypatch, capsys, "run", cfg, "'twist.kind'")


def test_cli_refuses_an_oracle_chain_over_the_state_ceiling(tmp_path, monkeypatch, capsys):
    # k = 3: C(N + 2, 2) occupation states, 16 290 at N = 179 and 16 471 at
    # N = 180, over the oracle's ceiling of 16 384
    model = {"kind": "finite", "mu0": [0.5, 0.3, 0.2],
             "trans": [[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]],
             "emit": [[0.40, 0.32, 0.28], [0.29, 0.42, 0.29], [0.30, 0.28, 0.42]]}
    for particles in (500, 180):
        cfg = finite_cfg(model=model, filter="twisted", particles=particles)
        _refused_before_any_window(tmp_path, monkeypatch, capsys, "oracle-check", cfg,
                                   "'particles'")
    with pytest.raises(ValueError, match="ceiling"):
        occupation_states(3, 180)
    occupation_states(3, 179)

    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(harness, "draw_window", drawn)  # past every precondition
    with pytest.raises(Drawn):
        run_oracle_check(finite_cfg(model=model, filter="twisted", particles=179), str(tmp_path))


def test_artifact_digest_set_covers_every_experiment_and_filter_kind():
    # the byte-identity set of tests/artifact_digests.py is read, not run: a
    # new experiment, filter kind or twist kind cannot be left out of it
    # unnoticed, and every case is a config the package accepts
    cases = artifact_digests.CASES
    assert {command for command, _ in cases} == set(harness._EXPERIMENTS)
    for command in ("run", "variance-growth", "unbiasedness"):
        kinds = {cfg.get("filter", "bootstrap") for c, cfg in cases if c == command}
        assert kinds == set(_KINDS), command
    for command, cfg in cases:
        config = load_config(cfg)
        assert config.twist_spec["kind"] in TWIST_KINDS[type(config.params)]
    twists = {(cfg["model"]["kind"], cfg.get("twist", {}).get("kind", "constant"))
              for _, cfg in cases}
    assert twists == {(model, kind) for model, cls in _PARAMS.items()
                      for kind in TWIST_KINDS[cls]}
    assert {cfg.get("twist", {}).get("ell") for _, cfg in cases} >= {0, 1, 2, 3}
    assert any(cfg.get("workers", 1) >= 2 for _, cfg in cases)
    assert any("ell_grid" in cfg for _, cfg in cases)
    stems = [cfg["name"] for _, cfg in cases]
    assert len(set(stems)) == len(stems)


def test_artifact_digest_set_covers_every_demo():
    # the set digests each demo's stdout; a new script under demos/ cannot be
    # left out of it unnoticed (read, not run)
    demo_dir = os.path.join(artifact_digests.ROOT, "demos")
    assert set(artifact_digests.DEMOS) == {
        os.path.basename(path) for path in glob.glob(os.path.join(demo_dir, "*.py"))}


def test_second_moment_stats_match_the_per_column_loop():
    # variance-growth reduces chunks of horizons as the rows of contiguous
    # matrices; each row gives the bits the per-horizon reduction gave
    rng = np.random.default_rng(11)
    for r in (2, 3, 32, 1000, 10_000):
        log_z = rng.normal(scale=3.0, size=(r, 41)).cumsum(axis=1)
        log_ref = rng.normal(size=41)
        v, se, log_v = harness._second_moment_stats(log_z, log_ref)
        assert v.shape == se.shape == log_v.shape == (40,)
        for n in range(1, 41):
            x = 2.0 * (log_z[:, n] - float(log_ref[n]))
            m = x.max()
            u = np.exp(x - m)
            mean_u = float(u.mean())
            want = float(np.exp(m) * mean_u)
            assert v[n - 1] == want, (r, n)
            assert se[n - 1] == want * float(u.std(ddof=1) / np.sqrt(u.size) / mean_u), (r, n)
            assert log_v[n - 1] == m + np.log(mean_u), (r, n)


SIS_MODELS = {
    "lg": ({"kind": "lg", "a": 0.9, "q": 1.0, "r_obs": 1.0}, {"kind": "lag", "ell": 1}),
    "finite": (finite_cfg()["model"], {"kind": "constant"}),
    "sv": ({"kind": "sv"}, {"kind": "sv_approx", "ell": 2}),
}


@pytest.mark.parametrize("model", SIS_MODELS)
def test_streamed_sis_moments_equal_the_materialized_ones(model):
    # SIS variance-growth reduces each horizon as the chains reach it; its
    # statistics are those of the whole chain-weight trace, bit for bit, and
    # so is the stochastic volatility reference, each horizon's log mean
    # chain weight, which the whole trace's transpose reduces pairwise
    spec, twist_spec = SIS_MODELS[model]
    for chains in (2, 3, 37, 10_000):
        cfg = {"model": spec, "filter": "sis", "twist": twist_spec, "steps": 12,
               "particles": 8, "replicates": chains, "seed": 4}
        config = load_config(cfg)
        window = harness.draw_window(config.params, config.window_length, config.burn_in, 4)
        twist = harness._build_twist(config, window, config.twist_spec, "sis")
        log_ref = harness._exact_log_z(config, window)
        assert (log_ref is None) == (model == "sv")
        got = harness._sis_moment_stats(config, window, twist, log_ref)
        whole = run_filter("sis", config.params, twist, window, 12, chains, 4,
                           test_functions={})
        log_w = whole.aux["chain_log_weights"].T
        ref = harness._logmeanexp_rows(log_w) if log_ref is None else log_ref
        want = harness._second_moment_stats(log_w, ref)
        assert got.shape == (3, 12)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (model, chains)


def _sis_lg_cfg(steps):
    return {"model": SIS_MODELS["lg"][0], "filter": "sis", "steps": steps, "particles": 100,
            "replicates": 10_000, "seed": 3, "window": {"length": steps + 10, "burn_in": 20}}


def test_sis_variance_growth_keeps_no_chain_weights(tmp_path):
    # 10^4 chains: a study keeps each step's statistics, not its chains'
    # weights, so its traced peak (about 0.42 MB at 100 steps and 0.43 MB at
    # 400 on numpy 2.x) does not grow with the horizon; the whole weight
    # traces took 9.1 and 33.1 MB
    run_variance_growth(_sis_lg_cfg(100), str(tmp_path))  # the step buffers, kept from here on
    peaks = []
    for steps in (100, 400):
        tracemalloc.start()
        try:
            run_variance_growth(_sis_lg_cfg(steps), str(tmp_path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1_000_000, peaks
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_sis_variance_growth_rate_stays_finite_where_v_underflows(tmp_path):
    # at 400 steps the relative second moment of 10^4 chains underflows to 0
    # from some horizon on; its log is then taken in the log domain, with no
    # divide-by-zero warning and no -inf in the table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_variance_growth(_sis_lg_cfg(400), str(tmp_path))
    _, rows = read_csv(res.csv_path)
    assert len(rows) == 400
    assert any(float(row[1]) == -1.0 for row in rows)  # V underflowed
    assert all(np.isfinite(float(row[2])) for row in rows)
