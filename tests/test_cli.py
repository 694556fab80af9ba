from pathlib import Path
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdeq import h2
from rdeq.cli import main

DATA_DIR = Path(__file__).parent / "data"

DATA = str(DATA_DIR / "source_a.json")
SIM_CONFIG = "<simulate config>"  # replaced by a written ``sweep_sim_config`` file


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def sweep_sim_config(tmp_path, n=8, trials=600, seed=11):
    cfg = {
        "source": {"bec_bsc": {"p": 0.1, "eps": "h2p"}},
        "system": {
            "u_given_v": {"input_size": 2, "output_size": 2, "rows": [1, 0, 0, 1]},
            "v_given_a": {"input_size": 2, "output_size": 2, "rows": [0.85, 0.15, 0.15, 0.85]},
            "w_given_c": {"input_size": 3, "output_size": 3,
                          "rows": [0.65, 0.35, 0, 0, 1, 0, 0, 0.35, 0.65]},
            "reconstruction": [[0, 0, 1], [0, 1, 1]],
        },
        "code": {"n": n, "r1": 0.84, "r2": 0.0, "rc_link": 1.029,
                 "s1": 0.84, "s2": 0.0, "sc": 1.029, "delta_n": 0.14, "seed": seed},
        "trials": trials,
        "distortion": "hamming",
        "compute_equivocation": True,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestBinaryCommand:
    def test_csv_output(self, capsys):
        rc, out, _ = run_cli(["binary", "--p", "0.1", "--eps", "h2p", "--d", "0.01", "0.05"], capsys)
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "D,Delta_opt,Delta_wz,alpha,beta"
        assert len(lines) == 3

    def test_rate_cap_row_contains_table_point(self, capsys):
        rc, out, _ = run_cli(
            ["binary", "--p", "0.1", "--eps", "h2p", "--rate-cap", "0.375192",
             "--d", "0.0146", "--format", "json"], capsys)
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert row["Delta_opt"] == pytest.approx(0.133, abs=2e-3)
        assert row["D"] == pytest.approx(0.015, abs=1e-3)

    def test_dominance_on_default_grid(self, capsys):
        rc, out, _ = run_cli(
            ["binary", "--p", "0.1", "--eps", "h2p", "--points", "20", "--format", "json"],
            capsys)
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert all(r["Delta_opt"] >= r["Delta_wz"] - 1e-12 for r in rows)

    def test_noiseless_eve_collapses_to_zero(self, capsys):
        # with p = 0 Eve sees the source exactly, so both curves vanish
        rc, out, _ = run_cli(
            ["binary", "--p", "0", "--eps", "0.5", "--d", "0.02", "0.1", "--format", "json"],
            capsys)
        assert rc == 0
        for row in json.loads(out)["rows"]:
            assert row["Delta_opt"] == pytest.approx(0.0, abs=1e-9)
            assert row["Delta_wz"] == pytest.approx(0.0, abs=1e-9)

    def test_validation_exit(self, capsys):
        rc, _, err = run_cli(["binary", "--p", "1.2", "--eps", "0.3", "--d", "0.1"], capsys)
        assert rc == 2
        assert "validation" in err

    def test_infeasible_exit(self, capsys):
        rc, _, _ = run_cli(
            ["binary", "--p", "0.1", "--eps", "h2p", "--rate-cap", "0.1", "--d", "0.0"],
            capsys)
        assert rc == 3


class TestGaussianCommand:
    def test_exact_flag_and_identity(self, capsys):
        rc, out, _ = run_cli(
            ["gaussian", "--rho-c", "0.8", "--rho-e", "0.0", "--rc", "1.0", "--d",
             "0.2", "0.5", "--format", "json"], capsys)
        assert rc == 0
        rows = json.loads(out)["rows"]
        half_log = 0.5 * np.log2(2 * np.pi * np.e)
        for r in rows:
            assert r["exact"] is True
            assert r["R_A_min"] + r["Delta_max"] == pytest.approx(half_log, abs=1e-12)

    def test_single_point_value(self, capsys):
        rc, out, _ = run_cli(
            ["gaussian", "--rho-c", "0.8", "--rho-e", "0.0", "--rc", "1.0",
             "--d", "0.2", "--format", "json"], capsys)
        row = json.loads(out)["rows"][0]
        assert row["R_A_min"] == pytest.approx(0.6892561, abs=1e-6)

    def test_unbounded_rc(self, capsys):
        rc, out, _ = run_cli(
            ["gaussian", "--rho-c", "0.8", "--rho-e", "0.6", "--rc", "inf",
             "--d", "0.1"], capsys)
        assert rc == 0
        assert out.splitlines()[1].startswith("inf,")

    def test_fig8_parameters_monotone(self, capsys):
        rc, out, _ = run_cli(
            ["gaussian", "--rho-c", "0.8", "--rho-e", "0.6", "--rc", "0.5", "--d-min",
             "0.05", "--d-max", "1.0", "--points", "15", "--format", "json"], capsys)
        rows = json.loads(out)["rows"]
        deltas = [r["Delta_max"] for r in rows]
        rates = [r["R_A_min"] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


class TestRegionAndLossless:
    def test_region_command(self, capsys):
        rc, out, _ = run_cli(
            ["region", "--source", DATA, "--max-d", "0.3", "--starts", "6",
             "--format", "json"], capsys)
        assert rc == 0
        obj = json.loads(out)
        assert obj["points"][0]["feasible"]

    def test_region_missing_source(self, capsys):
        rc, _, _ = run_cli(["region", "--source", "no_such.json", "--max-d", "0.3"], capsys)
        assert rc == 2

    def test_lossless_command(self, capsys):
        rc, out, _ = run_cli(
            ["lossless", "--source", DATA, "--rc-grid", "0.5,1.0", "--starts", "4"],
            capsys)
        assert rc == 0
        assert out.startswith("sweep,feasible")

    @pytest.mark.parametrize("text", [
        '{"alphabets": [2, 2, 2], "probs": [0.5',
        '{"alphabets": [2, 2, 2]}',
        '{"alphabets": [2, 2, 2], "probs": [0.5, "x", 0, 0, 0, 0, 0, 0.5]}',
        '{"alphabets": [2, 2, 2], "probs": [0.5, 0.5]}',
    ], ids=["not-json", "no-probs", "non-numeric", "wrong-length"])
    @pytest.mark.parametrize("argv", [
        ["region", "--max-d", "0.3", "--starts", "1"],
        ["lossless", "--rc-grid", "0.5", "--starts", "1"],
    ], ids=lambda argv: argv[0])
    def test_malformed_source_exit(self, capsys, tmp_path, argv, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc, _, err = run_cli([*argv, "--source", str(path)], capsys)
        assert rc == 2
        assert "validation error" in err

    def test_lossless_infeasible(self, capsys):
        rc, _, _ = run_cli(
            ["lossless", "--source", DATA, "--rc-grid", "0.01", "--starts", "2"], capsys)
        assert rc == 3


class TestSimulateCommand:
    def test_runs_and_reports(self, capsys, tmp_path):
        cfg = sweep_sim_config(tmp_path)
        rc, out, _ = run_cli(["simulate", "--config", cfg], capsys)
        assert rc == 0
        rep = json.loads(out)
        assert rep["trials"] == 600
        assert 0.0 <= rep["decode_error_rate"] <= 1.0
        assert rep["exact_equivocation"] is not None

    def test_same_seed_identical_output(self, capsys, tmp_path):
        cfg = sweep_sim_config(tmp_path)
        rc1, out1, _ = run_cli(["simulate", "--config", cfg], capsys)
        rc2, out2, _ = run_cli(["simulate", "--config", cfg], capsys)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_worker_invariance(self, capsys, tmp_path):
        cfg = sweep_sim_config(tmp_path)
        _, out1, _ = run_cli(["simulate", "--config", cfg, "--workers", "1"], capsys)
        _, out2, _ = run_cli(["simulate", "--config", cfg, "--workers", "2"], capsys)
        assert out1 == out2

    def test_budget_exit_code(self, capsys, tmp_path):
        cfg = json.loads(open(sweep_sim_config(tmp_path)).read())
        cfg["code"]["n"] = 26
        cfg["code"]["s1"] = 1.0
        cfg["code"]["r1"] = 1.0
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        rc, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert rc == 4
        assert "budget" in err.lower()

    def test_malformed_channel_exit(self, capsys, tmp_path):
        path = sweep_sim_config(tmp_path)
        cfg = json.loads(Path(path).read_text())
        cfg["system"]["u_given_v"]["rows"] = [1, 0, 0]
        Path(path).write_text(json.dumps(cfg))
        rc, _, err = run_cli(["simulate", "--config", path], capsys)
        assert rc == 2
        assert "validation error" in err

    @pytest.mark.parametrize("drop", [("source",), ("system",), ("system", "reconstruction"),
                                      ("code",)], ids="/".join)
    def test_missing_config_entry_exit(self, capsys, tmp_path, drop):
        path = sweep_sim_config(tmp_path)
        cfg = json.loads(Path(path).read_text())
        parent = cfg
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        Path(path).write_text(json.dumps(cfg))
        rc, _, err = run_cli(["simulate", "--config", path], capsys)
        assert rc == 2
        assert f"'{drop[-1]}'" in err

    def test_invalid_json_exit(self, capsys, tmp_path):
        path = sweep_sim_config(tmp_path)
        Path(path).write_text(Path(path).read_text()[:-20])
        rc, _, err = run_cli(["simulate", "--config", path], capsys)
        assert rc == 2
        assert "not valid JSON" in err

    def test_unknown_code_field_exit(self, capsys, tmp_path):
        path = sweep_sim_config(tmp_path)
        cfg = json.loads(Path(path).read_text())
        cfg["code"]["blocklength"] = 8
        Path(path).write_text(json.dumps(cfg))
        rc, _, err = run_cli(["simulate", "--config", path], capsys)
        assert rc == 2
        assert "blocklength" in err

    @pytest.mark.parametrize("keys, value", [
        (("trials",), "x"),
        (("trials",), None),
        (("trials",), -1),
        (("trials",), 1.5),
        (("compute_equivocation",), "no"),
        (("system", "reconstruction"), "x"),
        (("distortion",), {"table": "x"}),
        (("distortion",), "x"),
        (("code", "n"), "x"),
        (("code", "n"), 4.5),
        (("code", "r1"), float("nan")),
        (("code", "s1"), float("inf")),
        (("code", "delta_n"), float("nan")),
        (("system", "reconstruction"), [[0, 0, -1], [0, 1, 1]]),
        (("system", "reconstruction"), [[0, 0, 5], [0, 1, 1]]),
        (("distortion",), {"table": [[0, 1]]}),
        (("distortion",), {"table": [[0, 1], [1, 0], [1, 1]]}),
    ], ids=lambda v: "/".join(v) if isinstance(v, tuple) else repr(v))
    def test_wrong_type_config_entry_exit(self, capsys, tmp_path, keys, value):
        path = sweep_sim_config(tmp_path)
        cfg = json.loads(Path(path).read_text())
        parent = cfg
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        Path(path).write_text(json.dumps(cfg))
        rc, _, err = run_cli(["simulate", "--config", path], capsys)
        assert rc == 2
        assert "validation error" in err

    def test_trivial_degenerate_config(self, capsys, tmp_path):
        cfg = {
            "source": {"bec_bsc": {"p": 0.1, "eps": 0.3}},
            "system": {
                "u_given_v": {"input_size": 1, "output_size": 1, "rows": [1.0]},
                "v_given_a": {"input_size": 2, "output_size": 1, "rows": [1.0, 1.0]},
                "w_given_c": {"input_size": 3, "output_size": 1, "rows": [1.0, 1.0, 1.0]},
                "reconstruction": [[0]],
            },
            "code": {"n": 8, "r1": 0, "r2": 0, "rc_link": 0, "s1": 0, "s2": 0, "sc": 0,
                     "seed": 2},
            "trials": 50,
        }
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(cfg))
        rc, out, _ = run_cli(["simulate", "--config", str(path)], capsys)
        assert rc == 0
        rep = json.loads(out)
        assert rep["exact_equivocation"] == pytest.approx(h2(0.1), abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["binary", "--p", "0.1", "--eps", "h2p", "--seed", "3"],
    ["binary", "--p", "0.1", "--eps", "h2p", "--workers", "2"],
    ["gaussian", "--rho-c", "0.8", "--rho-e", "0.6", "--seed", "3"],
    ["gaussian", "--rho-c", "0.8", "--rho-e", "0.6", "--workers", "2"],
    ["simulate", "--config", "sim.json", "--seed", "3"],
    ["simulate", "--config", "sim.json", "--format", "json"],
    ["reproduce", "table3", "--seed", "3"],
    ["reproduce", "table3", "--workers", "2"],
    ["reproduce", "table3", "--format", "json"],
])
def test_unread_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return text != "h2p"
    return False


@given(st.sampled_from([
    lambda t: ["binary", "--p", "0.1", "--eps", t, "--d", "0.01"],
    lambda t: ["gaussian", "--rho-c", "0.8", "--rho-e", "0.6", "--rc", t, "--d", "0.2"],
    lambda t: ["region", "--source", DATA, "--max-d", "0.3", "--caps", f"2,{t}"],
    lambda t: ["lossless", "--source", DATA, "--rc-grid", f"0.5,{t}"],
]), st.text(max_size=12).filter(_not_a_number))
@settings(max_examples=200, deadline=None)
def test_non_numeric_flag_is_a_usage_error(argv, text):
    with pytest.raises(SystemExit) as exc:
        main(argv(text))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["binary", "--p", "0.1", "--eps", "h2p", "--d", "nan"],
    ["binary", "--p", "0.1", "--eps", "h2p", "--d", "0.01", "--rate-cap", "nan"],
    ["binary", "--p", "0.1", "--eps", "h2p", "--d-min", "nan"],
    ["gaussian", "--rho-c", "0.8", "--rho-e", "0.6", "--d", "nan"],
    ["gaussian", "--rho-c", "0.8", "--rho-e", "0.6", "--rc", "nan", "--d", "0.2"],
    ["region", "--source", DATA, "--max-d", "nan", "--starts", "1"],
    ["region", "--source", DATA, "--max-d", "0.3", "--max-ra", "nan", "--starts", "1"],
    ["region", "--source", DATA, "--max-d", "0.3", "--max-rc", "nan", "--starts", "1"],
    ["lossless", "--source", DATA, "--rc-grid", "nan", "--starts", "1"],
    ["lossless", "--source", DATA, "--rc-grid", "0.5,nan", "--starts", "1"],
    ["binary", "--p", "0.1", "--eps", "h2p", "--d-max", "inf"],
    ["gaussian", "--rho-c", "0.8", "--rho-e", "0.6", "--d", "inf"],
    ["gaussian", "--rho-c", "0.8", "--rho-e", "0.6", "--d-max", "inf"],
    ["region", "--source", DATA, "--max-d", "0.3", "--starts", "0"],
    ["region", "--source", DATA, "--max-d", "0.3", "--starts", "-1"],
    ["lossless", "--source", DATA, "--rc-grid", "2.0", "--starts", "0"],
    ["region", "--source", DATA, "--max-d", "0.3", "--caps", "2,2", "--starts", "1"],
    ["region", "--source", DATA, "--max-d", "0.3", "--caps", "0,2,2", "--starts", "1"],
    ["region", "--source", DATA, "--max-d", "0.3", "--starts", "1", "--workers", "0"],
    ["lossless", "--source", DATA, "--rc-grid", "2.0", "--starts", "1", "--workers", "-3"],
    ["simulate", "--config", SIM_CONFIG, "--workers", "0"],
    ["lossless", "--source", DATA, "--rc-grid", "0.01", "--starts", "0"],
])
def test_nan_or_infinite_flag_is_a_validation_error(argv, capsys, tmp_path):
    argv = [sweep_sim_config(tmp_path) if a == SIM_CONFIG else a for a in argv]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert "validation error" in err


@pytest.mark.parametrize("argv, flags", [
    (["binary", "--p", "0.1", "--eps", "h2p", "--d", "0.01", "--d-min", "0.5", "--points", "1"],
     "--d-min, --points"),
    (["gaussian", "--rho-c", "0.8", "--rho-e", "0.6", "--d", "0.3", "--d-min", "5",
      "--points", "0"], "--d-min, --points"),
    (["binary", "--p", "0.1", "--eps", "h2p", "--d", "0.01", "--d-max", "0.2"], "--d-max"),
])
def test_explicit_grid_with_log_grid_flags_is_a_validation_error(argv, flags, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert f"validation error: --d sets the grid; it cannot be given with {flags}" in err


def test_infinite_caps_are_accepted(capsys):
    # --max-ra and --max-rc default to inf; inf may also be passed
    for extra in ([], ["--max-rc", "inf"]):
        rc, out, _ = run_cli(["region", "--source", DATA, "--max-d", "0.3", "--caps", "2,2,2",
                              "--starts", "1", "--format", "json", *extra], capsys)
        assert rc == 0
        cons = json.loads(out)["provenance"]["constraints"][0]
        assert cons["max_r_a"] == cons["max_r_c"] == float("inf")


def _sim_config_with(tmp_path, key, value):
    cfg = json.loads(Path(sweep_sim_config(tmp_path)).read_text())
    cfg["source"]["bec_bsc"][key] = value
    path = tmp_path / "sim_value.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@given(st.sampled_from(["p", "eps"]),
       st.one_of(st.text(max_size=12).filter(_not_a_number), st.none(),
                 st.lists(st.integers(), max_size=2)))
@settings(max_examples=100, deadline=None)
def test_non_numeric_simulate_source_entry_exits_2(tmp_path_factory, key, value):
    path = _sim_config_with(tmp_path_factory.mktemp("sim"), key, value)
    assert main(["simulate", "--config", path]) == 2


class TestReproduceCommand:
    def test_table3(self, capsys):
        rc, out, _ = run_cli(["reproduce", "table3"], capsys)
        assert rc == 0
        assert "FAIL" not in out

    def test_entry_point_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdeq.cli", "reproduce", "table3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
