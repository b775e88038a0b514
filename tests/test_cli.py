import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bbmlab import cli
from bbmlab.cli import main
from bbmlab.io import read_state_csv, write_manifest, write_state_csv
from bbmlab.sampling import smooth_profile
from bbmlab.spectral import TrigState, z_norm

from conftest import random_state

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(path, text):
    path.write_text(text)
    return str(path)


def run(tmp_path, monkeypatch, command, text):
    outdir = tmp_path / "out"
    monkeypatch.setenv("BBMLAB_OUTDIR", str(outdir))
    code = main([command, write_config(tmp_path / "cfg.ini", text)])
    return code, outdir


def ini(sections):
    """INI text from {section: {key: value}}."""
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


class Checked(Exception):
    """Raised in place of running a command whose config passed reject_unread."""


def stop_after_check(monkeypatch):
    """Make every command stop right after reject_unread; returns the checked configs."""
    checked = []
    check = cli._Cfg.reject_unread

    def check_then_stop(cfg):
        check(cfg)
        checked.append(cfg)
        raise Checked

    monkeypatch.setattr(cli._Cfg, "reject_unread", check_then_stop)
    return checked


# One line of arbitrary text: configparser reads \r and \n as line ends, and
# surrogates cannot be written as UTF-8.
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"))


SIMULATE_T0 = """
[run]
seed = 3
[flow]
N = 16
dt = 0.01
T = 0.0
trace_every = 1
[state]
preset = smooth
"""


class TestStateCsv:
    def test_round_trip_exact(self, tmp_path):
        u = random_state(1, 12)
        path = tmp_path / "state.csv"
        write_state_csv(path, u)
        v = read_state_csv(path)
        assert v.mean == u.mean
        assert np.all(v.a == u.a) and np.all(v.b == u.b)

    def test_header_and_mean_row(self, tmp_path):
        path = tmp_path / "state.csv"
        write_state_csv(path, TrigState(0.25, [1.0, 0.0], [0.0, 2.0]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,a_k,b_k"
        assert lines[1] == "0,0.25,0"
        assert lines[2].startswith("1,1,")

    def _rows(self, tmp_path, rows):
        path = tmp_path / "state.csv"
        path.write_text("k,a_k,b_k\n" + "".join(row + "\n" for row in rows))
        return path

    def test_negative_k_rejected(self, tmp_path):
        path = self._rows(tmp_path, ["0,0,0", "1,0.5,0", "-1,0.25,0"])
        with pytest.raises(ValueError, match=r"state\.csv, line 4: negative mode k = -1"):
            read_state_csv(path)

    def test_duplicate_k_rejected(self, tmp_path):
        path = self._rows(tmp_path, ["0,0,0", "1,0.5,0", "2,0.1,0", "1,0.25,0"])
        with pytest.raises(ValueError, match=r"state\.csv, line 5: duplicate row for mode k = 1"):
            read_state_csv(path)

    def test_mean_row_b_rejected(self, tmp_path):
        path = self._rows(tmp_path, ["0,0.1,0.3", "1,0.5,0"])
        with pytest.raises(ValueError, match=r"state\.csv, line 2: the k = 0 \(mean\) row must have b = 0"):
            read_state_csv(path)

    def test_non_finite_coefficient_rejected(self, tmp_path):
        path = self._rows(tmp_path, ["0,0,0", "1,nan,0"])
        with pytest.raises(ValueError, match=r"state\.csv, line 3: non-finite coefficient"):
            read_state_csv(path)

    def test_mode_above_n_modes_rejected(self, tmp_path):
        path = self._rows(tmp_path, ["0,0,0", "1,0.5,0", "3,0.1,0"])
        assert read_state_csv(path, 3).n_modes == 3
        with pytest.raises(ValueError, match=r"state\.csv, line 4: mode k = 3 exceeds the truncation N = 2"):
            read_state_csv(path, 2)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.one_of(
        LINE_TEXT,
        st.tuples(
            st.one_of(st.integers(-2, 40).map(str), LINE_TEXT),
            st.one_of(st.floats().map(repr), LINE_TEXT),
            st.one_of(st.floats().map(repr), st.just("0"), LINE_TEXT),
        ).map(",".join),
    ), max_size=8))
    def test_fuzzed_rows_parse_or_name_file_and_line(self, tmp_path, rows):
        path = self._rows(tmp_path, rows)
        try:
            state = read_state_csv(path)
        except ValueError as exc:
            msg = str(exc)
            assert str(path) in msg
            assert re.search(r"line \d+: ", msg) or msg.endswith("holds no modes"), msg
        else:
            assert isinstance(state, TrigState)

    def test_bad_state_file_exits_2(self, tmp_path, monkeypatch, capsys):
        path = self._rows(tmp_path, ["0,0,0", "1,0.5,0", "-1,0.25,0"])
        text = SIMULATE_T0.replace("preset = smooth", f"csv = {path}")
        code, _ = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        assert "line 4: negative mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "squeeze"])
    def test_huge_mode_exits_2_before_sizing_arrays(self, tmp_path, monkeypatch, capsys, command):
        # The arrays used to be sized by the largest k before any check
        # against N: numpy failed to allocate 72.8 TiB (traceback, exit 1).
        path = self._rows(tmp_path, ["0,0,0", "10000000000000,1,0"])
        if command == "simulate":
            text = SIMULATE_T0.replace("preset = smooth", f"csv = {path}")
        else:
            text = ini({"squeeze": {"r": "0.5", "n0": "1", "T": "0.0", "N": "8", "center_csv": path}})
        code, _ = run(tmp_path, monkeypatch, command, text)
        assert code == 2
        assert (f"state file {path}, line 3: mode k = 10000000000000 exceeds the truncation N = "
                in capsys.readouterr().err)


class TestSimulate:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_blow_up_exits_1_naming_step(self, tmp_path, monkeypatch, capsys):
        text = """
[flow]
N = 16
dt = 2
T = 50
[state]
preset = single_mode
k = 1
amplitude = 50
"""
        code, _ = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 1
        err = capsys.readouterr().err
        assert "integration failed: state became non-finite at step" in err
        assert "(t = " in err

    def test_blow_up_stderr_is_one_line(self, tmp_path):
        # In a fresh interpreter with Python's default warning filters, numpy's
        # overflow RuntimeWarning would print ahead of the error if the
        # stepping loop let it through.
        cfg = write_config(tmp_path / "cfg.ini", f"""
[run]
outdir = {tmp_path / "out"}
[flow]
N = 16
dt = 2
T = 50
[state]
preset = single_mode
k = 1
amplitude = 50
""")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        proc = subprocess.run([sys.executable, "-m", "bbmlab", "simulate", cfg],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("bbmlab simulate: integration failed: state became non-finite")

    @pytest.mark.parametrize("key, value", [
        ("dt", "inf"), ("dt", "nan"), ("picard_tol", "nan"), ("midpoint_tol", "inf"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, monkeypatch, capsys, key, value):
        text = SIMULATE_T0.replace("T = 0.0", "T = 0.1")
        if key == "dt":
            text = text.replace("dt = 0.01", f"dt = {value}")
        else:
            text = text.replace("[state]", f"{key} = {value}\n[state]")
        code, _ = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_trace_every_below_one_exits_2(self, tmp_path, monkeypatch, capsys, value):
        # trace_every = 0 used to run the whole flow, write the CSVs and then
        # die on an empty trace; -1 recorded every step.
        text = SIMULATE_T0.replace("T = 0.0", "T = 0.1").replace(
            "trace_every = 1", f"trace_every = {value}")
        code, outdir = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        assert f"[flow] trace_every must be >= 1, got {value}" in capsys.readouterr().err
        assert not (outdir / "trace.csv").exists()
        assert not (outdir / "final_state.csv").exists()

    def test_misspelt_key_exits_2(self, tmp_path, monkeypatch, capsys):
        # `integrater = picard` used to run rk4 and exit 0.
        text = SIMULATE_T0.replace("[state]", "integrater = picard\n[state]")
        code, outdir = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown config key(s) `integrater` in [flow]" in err
        assert not (outdir / "trace.csv").exists()

    def test_unknown_section_and_default_keys_named(self, tmp_path, monkeypatch, capsys):
        text = "[DEFAULT]\nseed = 3\nverbose = 1\n" + SIMULATE_T0 + "[flwo]\nN = 8\n"
        code, _ = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        err = capsys.readouterr().err
        assert "`n` in [flwo]" in err and "`verbose` in [DEFAULT]" in err
        assert "`seed`" not in err

    def test_zero_horizon_final_equals_initial(self, tmp_path, monkeypatch, capsys):
        code, outdir = run(tmp_path, monkeypatch, "simulate", SIMULATE_T0)
        assert code == 0
        final = read_state_csv(outdir / "final_state.csv")
        expect = smooth_profile(16)
        assert np.max(np.abs(final.a - expect.a)) == 0.0
        out = capsys.readouterr().out
        assert "drift" in out and "0.000e+00" in out

    def test_missing_required_key_exits_2(self, tmp_path, monkeypatch, capsys):
        text = SIMULATE_T0.replace("N = 16\n", "")
        code, _ = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        assert "`N`" in capsys.readouterr().err

    def test_outputs_and_manifest(self, tmp_path, monkeypatch):
        text = SIMULATE_T0.replace("T = 0.0", "T = 0.2")
        code, outdir = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 0
        for name in ("trace.csv", "final_state.csv", "manifest.json"):
            assert (outdir / name).exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 3
        assert manifest["config"]["flow"]["N"] == 16
        trace_lines = (outdir / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "t,I1,I2,H"

    def test_bitwise_determinism(self, tmp_path, monkeypatch):
        text = SIMULATE_T0.replace("T = 0.0", "T = 0.1")
        _, outdir = run(tmp_path, monkeypatch, "simulate", text)
        first = (outdir / "trace.csv").read_bytes() + (outdir / "final_state.csv").read_bytes()
        _, outdir = run(tmp_path, monkeypatch, "simulate", text)
        second = (outdir / "trace.csv").read_bytes() + (outdir / "final_state.csv").read_bytes()
        assert first == second


class TestEstimates:
    def test_admissible_run_emits_csv(self, tmp_path, monkeypatch):
        text = """
[run]
seed = 5
[estimates]
s = 0.5
r = 0.5
rprime = 0.5
n_samples = 25
N_list = 16, 32
"""
        code, outdir = run(tmp_path, monkeypatch, "estimates", text)
        assert code == 0
        lines = (outdir / "estimate.csv").read_text().splitlines()
        assert lines[0] == "s,r,rprime,N,n_samples,max_ratio,argmax_seed"
        assert len(lines) == 3

    def test_inadmissible_triple_exits_2_naming_gap(self, tmp_path, monkeypatch, capsys):
        text = """
[estimates]
s = 0.5
r = 0.5
rprime = 0.2
n_samples = 5
"""
        code, _ = run(tmp_path, monkeypatch, "estimates", text)
        assert code == 2
        assert "2s - r - r' < 1/4" in capsys.readouterr().err

    def test_fixed_seed_reruns_bit_identical(self, tmp_path, monkeypatch):
        text = """
[run]
seed = 11
[estimates]
s = 0.5
r = 0.5
rprime = 0.45
n_samples = 30
N_list = 16
"""
        _, outdir = run(tmp_path, monkeypatch, "estimates", text)
        first = (outdir / "estimate.csv").read_bytes()
        _, outdir = run(tmp_path, monkeypatch, "estimates", text)
        assert (outdir / "estimate.csv").read_bytes() == first


class TestSqueeze:
    def test_zero_horizon_reports_radius(self, tmp_path, monkeypatch, capsys):
        text = """
[run]
seed = 2
[squeeze]
r = 0.5
n0 = 1
T = 0.0
N = 8
n_starts = 2
max_ascent_iters = 1
"""
        code, outdir = run(tmp_path, monkeypatch, "squeeze", text)
        assert code == 0
        lines = (outdir / "squeeze.csv").read_text().splitlines()
        assert lines[0] == "start_id,iter,radius"
        assert lines[-1] == "best,,0.5"
        witness = read_state_csv(outdir / "witness_state.csv")
        assert abs(z_norm(witness) - 0.5) < 1e-9

    def test_bad_mode_exits_2(self, tmp_path, monkeypatch, capsys):
        text = """
[squeeze]
r = 0.5
n0 = 9
T = 1.0
N = 8
"""
        code, _ = run(tmp_path, monkeypatch, "squeeze", text)
        assert code == 2
        assert "n0" in capsys.readouterr().err

    def test_mode_outside_active_window_exits_2(self, tmp_path, monkeypatch, capsys):
        text = """
[squeeze]
r = 0.5
n0 = 17
T = 1.0
N = 32
"""
        code, _ = run(tmp_path, monkeypatch, "squeeze", text)
        assert code == 2
        assert "at most 16 mode pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["r", "T", "fd_step"])
    def test_non_finite_number_exits_2(self, tmp_path, monkeypatch, capsys, key):
        keys = {"r": "0.5", "n0": "1", "T": "1.0", "N": "8", "fd_step": "1e-4", key: "inf"}
        text = "[squeeze]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        code, _ = run(tmp_path, monkeypatch, "squeeze", text)
        assert code == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        # Each of these used to exit 0 having done no ascent, or (fd_step = 0)
        # to fail on a nan gradient without naming fd_step.
        ("fd_step", "0", "fd_step must be positive, got 0.0"),
        ("ascent_step", "0", "ascent_step must be positive, got 0.0"),
        ("ascent_step", "-0.1", "ascent_step must be positive, got -0.1"),
        ("max_ascent_iters", "-3", "max_ascent_iters must be >= 0, got -3"),
        ("stall_tol", "-1e-6", "stall_tol must be >= 0, got -1e-06"),
        # Used to read "cylinder mode n0 = 1 outside 1..0".
        ("N", "0", "N must be >= 1"),
    ])
    def test_setting_that_disables_the_search_exits_2(self, tmp_path, monkeypatch, capsys,
                                                       key, value, message):
        keys = {"r": "0.5", "n0": "1", "T": "1.0", "N": "8", key: value}
        code, outdir = run(tmp_path, monkeypatch, "squeeze", ini({"squeeze": keys}))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (outdir / "squeeze.csv").exists()


class TestGalerkinAndOrbit:
    def test_galerkin_sweep(self, tmp_path, monkeypatch):
        text = """
[run]
seed = 0
[flow]
N = 32
dt = 0.01
T = 0.25
[state]
preset = smooth
[galerkin]
N_small_list = 4, 8
"""
        code, outdir = run(tmp_path, monkeypatch, "galerkin", text)
        assert code == 0
        lines = (outdir / "galerkin.csv").read_text().splitlines()
        assert lines[0] == "N_small,defect"
        defects = [float(line.split(",")[1]) for line in lines[1:]]
        assert defects[0] > defects[1]

    def test_orbit_grid(self, tmp_path, monkeypatch):
        text = """
[orbit]
fprime_list = 0.5, 2.0
radius2 = 0.5
"""
        code, outdir = run(tmp_path, monkeypatch, "orbit", text)
        assert code == 0
        lines = (outdir / "orbit.csv").read_text().splitlines()
        assert lines[0] == "fprime,period,period_times_fprime"
        for line in lines[1:]:
            product = float(line.split(",")[2])
            assert abs(product - np.pi) < 1e-5

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["orbit", "/nonexistent/config.ini"]) == 2
        assert "not found" in capsys.readouterr().err


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
    def test_every_key_is_read(self, path, tmp_path, monkeypatch):
        # Each shipped config is named after its subcommand.  The command
        # stops at the unknown-key check, before any flow or sweep starts.
        class Checked(Exception):
            pass

        check = cli._Cfg.reject_unread

        def check_then_stop(cfg):
            check(cfg)
            raise Checked

        monkeypatch.setenv("BBMLAB_OUTDIR", str(tmp_path))
        monkeypatch.setattr(cli._Cfg, "reject_unread", check_then_stop)
        with pytest.raises(Checked):
            main([path.stem, str(path)])

    def test_simulate_config_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BBMLAB_OUTDIR", str(tmp_path / "sim"))
        import time

        t0 = time.perf_counter()
        assert main(["simulate", str(CONFIGS / "simulate.ini")]) == 0
        assert time.perf_counter() - t0 < 10.0
        out = capsys.readouterr().out
        assert "I2 drift" in out

    def test_orbit_config_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BBMLAB_OUTDIR", str(tmp_path / "orb"))
        assert main(["orbit", str(CONFIGS / "orbit.ini")]) == 0

    def test_squeeze_config_meets_witness_gate(self, tmp_path, monkeypatch, capsys):
        # The shipped cell is the (r, n0, T) = (0.5, 1, 1.0) acceptance row.
        monkeypatch.setenv("BBMLAB_OUTDIR", str(tmp_path / "sq"))
        assert main(["squeeze", str(CONFIGS / "squeeze.ini")]) == 0
        lines = (tmp_path / "sq" / "squeeze.csv").read_text().splitlines()
        achieved = float(lines[-1].split(",")[2])
        assert achieved >= 0.95 * 0.5

    def test_galerkin_config_defects_decrease(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BBMLAB_OUTDIR", str(tmp_path / "gal"))
        assert main(["galerkin", str(CONFIGS / "galerkin.ini")]) == 0
        lines = (tmp_path / "gal" / "galerkin.csv").read_text().splitlines()
        defects = [float(line.split(",")[1]) for line in lines[1:]]
        assert defects[0] > defects[1] > defects[2]


class TestSqueezeDeterminism:
    def test_rerun_bit_identical(self, tmp_path, monkeypatch):
        text = """
[run]
seed = 6
[squeeze]
r = 0.4
n0 = 1
T = 0.2
N = 8
n_starts = 3
dt = 0.05
max_ascent_iters = 3
"""
        _, outdir = run(tmp_path, monkeypatch, "squeeze", text)
        first = (outdir / "squeeze.csv").read_bytes() + (outdir / "witness_state.csv").read_bytes()
        _, outdir = run(tmp_path, monkeypatch, "squeeze", text)
        second = (outdir / "squeeze.csv").read_bytes() + (outdir / "witness_state.csv").read_bytes()
        assert first == second


FLOW_ALL_KEYS = {
    "N": "16", "dt": "0.01", "T": "0.1", "integrator": "rk4", "picard_tol": "1e-12",
    "picard_max_iter": "60", "midpoint_tol": "1e-12", "linear_only": "false",
}
STATE_ALL_KEYS = {
    "smooth": {"preset": "smooth", "scale": "0.5"},
    "single_mode": {"preset": "single_mode", "k": "2", "amplitude": "0.5"},
    "random_ball": {"preset": "random_ball", "radius": "0.5", "reg": "0.5"},
    "csv": {"csv": "{state_csv}"},
}
RUN_ALL_KEYS = {"seed": "1", "outdir": "out"}
# Every key each subcommand accepts, with its [state] block chosen per preset.
ALL_KEYS = {
    "simulate": {"run": RUN_ALL_KEYS, "flow": {**FLOW_ALL_KEYS, "trace_every": "10"}},
    "galerkin": {"run": RUN_ALL_KEYS, "flow": FLOW_ALL_KEYS, "galerkin": {"N_small_list": "4, 8"}},
    "estimates": {"run": RUN_ALL_KEYS, "estimates": {
        "s": "0.5", "r": "0.5", "rprime": "0.5", "n_samples": "10", "N_list": "16, 32",
        "sampler": "gaussian", "mode": "bilinear",
    }},
    "squeeze": {"run": RUN_ALL_KEYS, "squeeze": {
        "r": "0.5", "n0": "1", "T": "1.0", "N": "16", "n_starts": "2", "center_csv": "{state_csv}",
        "cyl_center_p": "0.0", "cyl_center_q": "0.0", "fd_step": "1e-4", "ascent_step": "0.1",
        "max_ascent_iters": "3", "stall_tol": "1e-6", "dt": "0.01", "integrator": "rk4",
        "linear_only": "no",
    }},
    "orbit": {"run": RUN_ALL_KEYS, "orbit": {
        "fprime_list": "0.5, 2.0", "n_pairs": "1", "radius2": "0.5",
    }},
}
SCHEMA_CASES = [(command, None) for command in ("estimates", "squeeze", "orbit")] + [
    (command, preset) for command in ("simulate", "galerkin") for preset in STATE_ALL_KEYS
]

# Valid configs whose numeric values the fuzz below replaces one at a time.
# The [flow] N keys are left out: the initial state is built at N before the
# key check.
FUZZ_CONFIGS = {
    "simulate": {
        "run": {"seed": "3"},
        "flow": {"N": "8", "dt": "0.01", "T": "0.1", "picard_tol": "1e-12",
                 "picard_max_iter": "60", "midpoint_tol": "1e-12", "trace_every": "10"},
        "state": {"preset": "smooth", "scale": "1.0"},
    },
    "galerkin": {
        "flow": {"N": "16", "dt": "0.01", "T": "0.1"},
        "state": {"preset": "single_mode", "k": "1", "amplitude": "0.5"},
        "galerkin": {"N_small_list": "4, 8"},
    },
    "estimates": {"estimates": {"s": "0.5", "r": "0.5", "rprime": "0.5", "n_samples": "10",
                                "N_list": "16, 32"}},
    "squeeze": {"run": {"seed": "0"}, "squeeze": {
        "r": "0.5", "n0": "1", "T": "1.0", "N": "8", "n_starts": "2", "fd_step": "1e-4",
        "ascent_step": "0.1", "max_ascent_iters": "3", "stall_tol": "1e-6", "dt": "0.01",
        "cyl_center_p": "0.0", "cyl_center_q": "0.0",
    }},
    "orbit": {"orbit": {"fprime_list": "0.5, 2.0", "n_pairs": "1", "radius2": "0.5"}},
}
FUZZ_KEYS = [
    (command, section, key)
    for command, sections in FUZZ_CONFIGS.items()
    for section, keys in sections.items()
    for key in keys
    if key != "preset" and (section, key) != ("flow", "N")
]
NUMERIC_TEXT = st.one_of(
    LINE_TEXT,
    st.text(st.sampled_from("0123456789+-.,_eE xjnaif%#;:=()[]{}$")),
    st.floats().map(repr),
    st.integers().map(str),
    st.lists(st.one_of(st.floats().map(repr), st.integers().map(str)), max_size=4).map(", ".join),
)


class TestConfigSchema:
    @pytest.mark.parametrize("command, preset", SCHEMA_CASES,
                             ids=[f"{c}-{p}" if p else c for c, p in SCHEMA_CASES])
    def test_config_setting_every_key_passes_check(self, tmp_path, monkeypatch, command, preset):
        state_csv = tmp_path / "state.csv"
        write_state_csv(state_csv, random_state(0, 8, radius=0.1))
        sections = dict(ALL_KEYS[command])
        if preset:
            sections["state"] = STATE_ALL_KEYS[preset]
        text = ini(sections).replace("{state_csv}", str(state_csv))
        checked = stop_after_check(monkeypatch)
        monkeypatch.setenv("BBMLAB_OUTDIR", str(tmp_path / "out"))
        with pytest.raises(Checked):
            main([command, write_config(tmp_path / "cfg.ini", text)])
        # The command read exactly the keys the config sets, so none is
        # missing from this table and none was added.  [state] preset and csv
        # are both read whichever of them is set.
        expected = {section: set(keys) for section, keys in sections.items()}
        if preset:
            expected["state"] |= {"preset", "csv"}
        assert {section: set(keys) for section, keys in checked[0].resolved.items()} == expected

    def test_squeeze_dealias_factor_is_unknown(self, tmp_path, monkeypatch, capsys):
        text = ini({"squeeze": {"r": "0.5", "n0": "1", "T": "1.0", "N": "8", "dealias_factor": "2.0"}})
        code, _ = run(tmp_path, monkeypatch, "squeeze", text)
        assert code == 2
        assert "unknown config key(s) `dealias_factor` in [squeeze]" in capsys.readouterr().err

    def test_flow_dealias_factor_is_unknown(self, tmp_path, monkeypatch, capsys):
        # The padded grid follows from N alone.
        text = SIMULATE_T0.replace("[state]", "dealias_factor = 1.5\n[state]")
        code, _ = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        assert "unknown config key(s) `dealias_factor` in [flow]" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["flow", "squeeze"])
    def test_readme_schema_lists_the_keys_read(self, section):
        # The README's schema table names every key the CLI reads, and no other.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        row = re.search(rf"^\| `\[{section}\]` \| (.*) \|$", readme, re.MULTILINE).group(1)
        names = re.findall(r"`([A-Za-z0-9_/]+)`", re.sub(r"\([^)]*\)", "", row))
        keys = {key for name in names for key in (
            [name[:-4] + "_p", name[:-4] + "_q"] if name.endswith("_p/q") else [name])}
        command = "simulate" if section == "flow" else "squeeze"
        assert keys == set(ALL_KEYS[command][section])

    @pytest.mark.parametrize("name, expected", [
        ("simulate", {
            "flow": {"N": 64, "T": 1.0, "dt": 0.001, "integrator": "rk4",
                     "linear_only": False, "midpoint_tol": 1e-12, "picard_max_iter": 60,
                     "picard_tol": 1e-12, "trace_every": 100},
            "run": {"outdir": "runs/simulate", "seed": 1},
            "state": {"csv": None, "preset": "smooth", "scale": 1.0},
        }),
        ("squeeze", {
            "run": {"outdir": "runs/squeeze", "seed": 0},
            "squeeze": {"N": 32, "T": 1.0, "ascent_step": None, "center_csv": None,
                        "cyl_center_p": 0.0, "cyl_center_q": 0.0, "dt": 0.02, "fd_step": 1e-4,
                        "integrator": "rk4", "linear_only": False, "max_ascent_iters": 12,
                        "n0": 1, "n_starts": 16, "r": 0.5, "stall_tol": 1e-5},
        }),
    ])
    def test_shipped_manifest_config_block(self, tmp_path, monkeypatch, name, expected):
        checked = stop_after_check(monkeypatch)
        monkeypatch.setenv("BBMLAB_OUTDIR", str(tmp_path / "out"))
        with pytest.raises(Checked):
            main([name, str(CONFIGS / f"{name}.ini")])
        manifest_path = tmp_path / "manifest.json"
        write_manifest(manifest_path, name, checked[0].resolved, 0, [])
        config = json.loads(manifest_path.read_text())["config"]
        # Compared as JSON text, so 1.0 and 1, or False and 0, differ.
        assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("command, section, key, value, message", [
        ("simulate", "state", "scale", "nan", "[state] scale must be finite"),
        ("simulate", "flow", "dt", "5%", "[flow] dt '%' must be followed by"),
        ("estimates", "estimates", "N_list", "16, abc", "[estimates] N_list must be an integer, got 'abc'"),
        ("orbit", "orbit", "fprime_list", "0.5, inf", "[orbit] fprime_list must be finite, got 'inf'"),
        ("squeeze", "squeeze", "n0", "1.5", "[squeeze] n0 must be an integer, got '1.5'"),
        ("squeeze", "squeeze", "linear_only", "maybe", "[squeeze] linear_only must be a boolean, got 'maybe'"),
    ])
    def test_bad_value_exits_2_naming_key(self, tmp_path, monkeypatch, capsys,
                                          command, section, key, value, message):
        sections = {name: dict(keys) for name, keys in FUZZ_CONFIGS[command].items()}
        sections[section][key] = value
        code, _ = run(tmp_path, monkeypatch, command, ini(sections))
        assert code == 2
        assert message in capsys.readouterr().err

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(FUZZ_KEYS), value=NUMERIC_TEXT)
    def test_fuzzed_value_passes_check_or_exits_2_naming_key(self, tmp_path, capsys, case, value):
        command, section, key = case
        sections = {name: dict(keys) for name, keys in FUZZ_CONFIGS[command].items()}
        sections[section][key] = value
        path = write_config(tmp_path / "cfg.ini", ini(sections))
        with pytest.MonkeyPatch.context() as mp:
            stop_after_check(mp)
            mp.setenv("BBMLAB_OUTDIR", str(tmp_path / "out"))
            try:
                code = main([command, path])
            except Checked:
                return
        err = capsys.readouterr().err
        assert code == 2, err
        assert re.search(rf"\[{section}\] {key} |\b{key} (must|=) ", err), err
