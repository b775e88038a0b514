import json
from pathlib import Path

import numpy as np
import pytest

from bbmlab.cli import main
from bbmlab.io import read_state_csv, write_state_csv
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

    def test_bad_state_file_exits_2(self, tmp_path, monkeypatch, capsys):
        path = self._rows(tmp_path, ["0,0,0", "1,0.5,0", "-1,0.25,0"])
        text = SIMULATE_T0.replace("preset = smooth", f"csv = {path}")
        code, _ = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        assert "line 4: negative mode" in capsys.readouterr().err


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
