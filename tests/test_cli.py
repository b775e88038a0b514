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

from bbmlab import __version__, cli, estimates, flow, squeeze
from bbmlab.cli import main
from bbmlab.io import read_state_csv, write_manifest, write_state_csv
from bbmlab.sampling import smooth_profile
from bbmlab.spectral import MAX_MODES, TrigState, z_norm
from bbmlab.squeeze import cylinder_radius

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


# How an input file that cannot be read is named, by what is wrong with it.
UNREADABLE = {
    "missing": "{what} not found: {path}",
    "directory": "cannot read {what} {path}: Is a directory",
    "not_utf8": "cannot read {what} {path}: not UTF-8 text (invalid start byte)",
}


def unreadable(path, case):
    """Make path name nothing, a directory, or a file holding a byte that is not UTF-8."""
    if case == "directory":
        path.mkdir()
    elif case == "not_utf8":
        path.write_bytes(b"k,a_k,b_k\n0,0,0\n1,0.5,0\n# \xff\n")
    return path


def refuse_work(monkeypatch):
    """Make building the initial state or taking an rk4 step fail the test."""
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "_initial_state", no_work)
    monkeypatch.setattr(flow, "rk4_step", no_work)


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

    def test_mode_above_max_modes_rejected_without_n(self, tmp_path):
        # Without a truncation the arrays used to be sized by k: k = 9999999999 asked numpy for
        # 74.5 GiB and failed with a bare _ArrayMemoryError that named neither file nor line.
        path = self._rows(tmp_path, ["1,0.5,0", f"{MAX_MODES + 1},0.1,0", "9999999999,0,0"])
        with pytest.raises(ValueError, match=rf"state\.csv, line 3: mode k = {MAX_MODES + 1} "
                                             rf"exceeds the truncation N = spectral\.MAX_MODES"):
            read_state_csv(path)
        assert read_state_csv(self._rows(tmp_path, [f"{MAX_MODES},0.1,0"])).n_modes == MAX_MODES

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

    # A missing file or a directory used to end in a FileNotFoundError or
    # IsADirectoryError traceback (exit 1), and non-UTF-8 bytes in a bare
    # codec message that did not name the file.
    @pytest.mark.parametrize("case", list(UNREADABLE))
    @pytest.mark.parametrize("command", ["simulate", "squeeze"])
    def test_unreadable_state_file_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, command,
                                                     case):
        path = unreadable(tmp_path / "state.csv", case)
        if command == "simulate":
            text = SIMULATE_T0.replace("preset = smooth", f"csv = {path}")
        else:
            text = ini({"squeeze": {"r": "0.5", "n0": "1", "T": "0.0", "N": "8", "center_csv": path}})
        code, outdir = run(tmp_path, monkeypatch, command, text)
        assert code == 2
        message = UNREADABLE[case].format(what="state file", path=path)
        assert f"bbmlab {command}: {message}" in capsys.readouterr().err
        assert not list(outdir.glob("*.csv"))

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
        ("dt", "inf"), ("dt", "nan"), ("midpoint_tol", "inf"),
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

    # dt = 5e-324 died in math.ceil(inf) with an OverflowError traceback, and
    # dt = 1e-300 asked for 10^300 steps and never ended; later it was refused
    # without naming [flow], after the state was built and the outdir made.
    @pytest.mark.parametrize("dt", ["5e-324", "1e-300"])
    def test_step_count_above_cap_exits_2_before_any_step(self, tmp_path, monkeypatch, capsys,
                                                          dt):
        refuse_work(monkeypatch)
        text = SIMULATE_T0.replace("T = 0.0", "T = 1.0").replace("dt = 0.01", f"dt = {dt}")
        code, outdir = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        err = capsys.readouterr().err
        assert f"bbmlab simulate: [flow] dt = {float(dt)!r} over T = 1.0 needs " in err
        assert f"more than flow.MAX_STEPS = {flow.MAX_STEPS}" in err
        assert not outdir.exists()

    def test_negative_radius_exits_2_before_the_outdir(self, tmp_path, monkeypatch, capsys):
        # Used to run to exit 0 with a state of H^{1/2} norm 2, recording radius -2 in the
        # manifest.
        text = SIMULATE_T0.replace("preset = smooth", "preset = random_ball\nradius = -2")
        code, outdir = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        assert "bbmlab simulate: radius must be >= 0, got -2.0" in capsys.readouterr().err
        assert not outdir.exists()

    def test_picard_panel_count_above_cap_exits_2_before_any_node(self, tmp_path, monkeypatch,
                                                                   capsys):
        # One Picard subinterval of length 1e300 used to ask numpy for 8e300
        # node rows and fail with its bare "Maximum allowed size exceeded".
        def no_nodes(*args):
            raise AssertionError("node arrays allocated")

        monkeypatch.setattr(flow, "_picard_subinterval", no_nodes)
        text = SIMULATE_T0.replace("T = 0.0", "T = 1e300").replace("dt = 0.01", "dt = 1e300")
        code, outdir = run(tmp_path, monkeypatch, "simulate",
                           text.replace("[state]", "integrator = picard\n[state]"))
        assert code == 2
        assert ("bbmlab simulate: dt = 1e+300 makes Picard subintervals of up to 1e+300 quadrature "
                f"panels, more than flow.MAX_PICARD_PANELS = {flow.MAX_PICARD_PANELS}"
                in capsys.readouterr().err)
        assert not list(outdir.glob("*.csv"))

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

    def test_tolerated_mean_kept_in_outputs(self, tmp_path, monkeypatch, capsys):
        # The flow used to drop the mean after its first step: "I1 drift: 6.283e-13
        # (relative 1.000e+00)" and a final_state.csv with mean 0.
        path = tmp_path / "state.csv"
        path.write_text("k,a_k,b_k\n0,1e-13,0\n1,0.5,0\n")
        text = SIMULATE_T0.replace("preset = smooth", f"csv = {path}").replace("T = 0.0", "T = 0.1")
        code, outdir = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 0
        assert read_state_csv(outdir / "final_state.csv").mean == 1e-13
        trace = np.loadtxt(outdir / "trace.csv", delimiter=",", skiprows=1)
        assert len(trace) == 11 and np.all(trace[:, 1] == trace[0, 1])
        assert "I1 drift: 0.000e+00 (relative 0.000e+00)" in capsys.readouterr().out

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


class TestImplicitMidpoint:
    """simulate and squeeze with integrator = implicit_midpoint."""

    TEXT = SIMULATE_T0.replace("T = 0.0", "T = 0.2").replace(
        "trace_every = 1", "trace_every = 5\nintegrator = implicit_midpoint")

    def test_simulate_reruns_byte_identical_and_keeps_the_invariants(self, tmp_path,
                                                                       monkeypatch):
        outputs = []
        for _ in range(2):
            code, outdir = run(tmp_path, monkeypatch, "simulate", self.TEXT)
            assert code == 0
            outputs.append([(outdir / name).read_bytes()
                            for name in ("trace.csv", "final_state.csv")])
        assert outputs[0] == outputs[1]
        rows = [[float(x) for x in line.split(",")]
                for line in outputs[0][0].decode().splitlines()[1:]]
        assert len(rows) == 5 and rows[-1][0] == pytest.approx(0.2)
        first, last = rows[0], rows[-1]
        # I1 is the mean, which no step touches; I2 is quadratic, which the midpoint rule keeps
        # up to its solver's tolerance (midpoint_tol = 1e-12) a step.
        assert last[1] == first[1]
        assert abs(last[2] - first[2]) <= 20 * 1e-12 * first[2]

    def test_squeeze_reruns_byte_identical(self, tmp_path, monkeypatch):
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
integrator = implicit_midpoint
"""
        outputs = []
        for _ in range(2):
            code, outdir = run(tmp_path, monkeypatch, "squeeze", text)
            assert code == 0
            outputs.append([(outdir / name).read_bytes()
                            for name in ("squeeze.csv", "witness_state.csv")])
        assert outputs[0] == outputs[1]


class TestClosedStdout:
    """A reader that closes stdout early (bbmlab ... | head -1) costs the run nothing."""

    TEXT = SIMULATE_T0.replace("T = 0.0", "T = 0.1")

    def test_write_to_a_closed_pipe_exits_0_after_every_output(self, tmp_path, monkeypatch,
                                                               capsys):
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = os.fdopen(write_end, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        code, outdir = run(tmp_path, monkeypatch, "simulate", self.TEXT)
        # What is left in the buffer now goes to the null device, as at the exit flush.
        stdout.close()
        monkeypatch.undo()
        assert code == 0
        for name in ("trace.csv", "final_state.csv", "manifest.json"):
            assert (outdir / name).exists()
        assert capsys.readouterr().err == ""

    def test_fresh_interpreter_prints_no_traceback(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.ini", self.TEXT)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, BBMLAB_OUTDIR=str(tmp_path / "out"))
        proc = subprocess.Popen([sys.executable, "-m", "bbmlab", "simulate", cfg],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # before the run prints its summary
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0 and err == b""
        assert (tmp_path / "out" / "manifest.json").exists()


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

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exits_2_before_work(self, tmp_path, monkeypatch, capsys, seed):
        # Used to run masked to 64 bits: 2^64 wrote seed 0's CSV bytes and -1 those of 2^64 - 1,
        # while the manifest recorded the seed given.
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(estimates, "_sample_rows", no_work)
        text = f"[run]\nseed = {seed}\n[estimates]\ns = 0.5\nr = 0.5\nrprime = 0.5\nn_samples = 5\n"
        code, outdir = run(tmp_path, monkeypatch, "estimates", text)
        assert code == 2
        assert f"[run] seed must lie in 0..2^64 - 1, got {seed}" in capsys.readouterr().err
        assert not outdir.exists()

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

    @pytest.mark.parametrize("key, value, message", [
        # n_samples < 1 used to run the whole sweep and then fail writing the
        # CSV with an AttributeError traceback (exit 1).
        ("n_samples", "0", "n_samples must be >= 1, got 0"),
        ("n_samples", "-3", "n_samples must be >= 1, got -3"),
        # Used to read only "truncation must be at least 1".
        ("N_list", "0", f"N_list entry N = 0 outside 1..{MAX_MODES}"),
        # Used to fail allocating the wavenumbers with a numpy traceback (exit 1).
        ("N_list", "16, 10000000000000", f"N_list entry N = 10000000000000 outside 1..{MAX_MODES}"),
        ("N_list", "", "[estimates] N_list must list at least one value"),
        # Used to sample N = 16 twice, write one CSV row and record [16, 16] in the manifest.
        ("N_list", "16, 16", "N_list must not repeat an entry, got N = 16 twice"),
        # Used to sample until a timeout.
        ("n_samples", "100000000000", "n_samples must be <= 1000000 (estimates.MAX_SAMPLES), "
                                      "got 100000000000"),
    ])
    def test_bad_sweep_size_exits_2_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                    key, value, message):
        def no_sampling(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(estimates, "_sample_rows", no_sampling)
        keys = {"s": "0.5", "r": "0.5", "rprime": "0.5", "n_samples": "10", "N_list": "16", key: value}
        code, outdir = run(tmp_path, monkeypatch, "estimates", ini({"estimates": keys}))
        assert code == 2
        assert f"bbmlab estimates: {message}" in capsys.readouterr().err
        assert not (outdir / "estimate.csv").exists()


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

    def test_mode_beyond_sixteen_pairs_runs(self, tmp_path, monkeypatch, capsys):
        # Used to exit 2: the window held at most 16 mode pairs.
        text = """
[squeeze]
r = 0.5
n0 = 17
T = 0.0
N = 32
n_starts = 2
max_ascent_iters = 1
"""
        code, outdir = run(tmp_path, monkeypatch, "squeeze", text)
        assert code == 0
        assert (outdir / "squeeze.csv").read_text().splitlines()[1] == "0,0,0.5"
        witness = read_state_csv(outdir / "witness_state.csv")
        assert abs(cylinder_radius(witness, 17) - 0.5) < 1e-9

    @pytest.mark.parametrize("key", ["r", "T"])
    def test_non_finite_number_exits_2(self, tmp_path, monkeypatch, capsys, key):
        keys = {"r": "0.5", "n0": "1", "T": "1.0", "N": "8", key: "inf"}
        text = "[squeeze]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        code, _ = run(tmp_path, monkeypatch, "squeeze", text)
        assert code == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_fd_step_is_an_unknown_key(self, tmp_path, monkeypatch, capsys):
        # Gradients come from the adjoint now: the difference step is gone.
        keys = {"r": "0.5", "n0": "1", "T": "1.0", "N": "8", "fd_step": "1e-4"}
        code, _ = run(tmp_path, monkeypatch, "squeeze", ini({"squeeze": keys}))
        assert code == 2
        assert "unknown config key(s) `fd_step` in [squeeze]" in capsys.readouterr().err

    def test_ascent_step_is_an_unknown_key(self, tmp_path, monkeypatch, capsys):
        # Every search starts its steps at 0.05 r: the knob is gone.
        keys = {"r": "0.5", "n0": "1", "T": "1.0", "N": "8", "ascent_step": "0.1"}
        code, _ = run(tmp_path, monkeypatch, "squeeze", ini({"squeeze": keys}))
        assert code == 2
        assert "unknown config key(s) `ascent_step` in [squeeze]" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, message", [
        ({"integrator": "picard"}, "integrator = 'picard' has no adjoint"),
        ({"n_starts": "1025"}, "n_starts must be <= 1024 (squeeze.MAX_STARTS), got 1025"),
        ({"n_starts": "100000000000"}, "n_starts must be <= 1024"),
        ({"N": "4096"}, "the search's tapes need 1373 MiB at n_starts = 16, N = 4096, T = 1.0, "
                        "dt = 0.01, more than squeeze.MAX_TAPE_BYTES = 256 MiB"),
    ], ids=["picard", "starts", "starts_1e11", "tapes"])
    def test_search_refused_before_any_draw(self, tmp_path, monkeypatch, capsys, keys, message):
        # n_starts = 10^11 used to draw starts until a timeout, silently.
        def no_draw(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(squeeze, "substream", no_draw)
        monkeypatch.setattr(squeeze, "integrate_taped", no_draw)
        code, outdir = run(tmp_path, monkeypatch, "squeeze",
                           ini({"squeeze": {"r": "0.5", "n0": "1", "T": "1.0", "N": "8", **keys}}))
        assert code == 2
        assert f"bbmlab squeeze: {message}" in capsys.readouterr().err
        assert not (outdir / "squeeze.csv").exists()

    def test_step_count_above_cap_exits_2_before_center_is_read(self, tmp_path, monkeypatch,
                                                                 capsys):
        # Used to read the centre file first, then refuse the step count from
        # SqueezeConfig without naming [squeeze].
        keys = {"r": "0.5", "n0": "1", "T": "1.0", "N": "8", "dt": "1e-300",
                "center_csv": str(tmp_path / "missing.csv")}
        code, outdir = run(tmp_path, monkeypatch, "squeeze", ini({"squeeze": keys}))
        assert code == 2
        assert ("bbmlab squeeze: [squeeze] dt = 1e-300 over T = 1.0 needs 1e+300 steps, more "
                f"than flow.MAX_STEPS = {flow.MAX_STEPS}" in capsys.readouterr().err)
        assert not outdir.exists()

    @pytest.mark.parametrize("key, value, message", [
        # Each of these used to exit 0 having done no ascent.
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


@pytest.mark.parametrize("command, sections", [
    ("simulate", {"flow": {"N": "10000000000000", "dt": "0.01", "T": "0.1"},
                  "state": {"preset": "smooth"}}),
    ("galerkin", {"flow": {"N": "10000000000000", "dt": "0.01", "T": "0.1"},
                  "state": {"preset": "smooth"}}),
    ("squeeze", {"squeeze": {"r": "0.5", "n0": "1", "T": "1.0", "N": "10000000000000"}}),
])
def test_mode_count_above_cap_exits_2(tmp_path, monkeypatch, capsys, command, sections):
    # Used to pass every check and fail allocating the first state (exit 1).
    code, _ = run(tmp_path, monkeypatch, command, ini(sections))
    assert code == 2
    assert f"bbmlab {command}: N must be <= {MAX_MODES}" in capsys.readouterr().err


@pytest.mark.parametrize("n_pairs", ["0", "10000000000000"])
def test_orbit_pair_count_outside_range_exits_2(tmp_path, monkeypatch, capsys, n_pairs):
    code, _ = run(tmp_path, monkeypatch, "orbit", ini({"orbit": {"n_pairs": n_pairs}}))
    assert code == 2
    err = capsys.readouterr().err
    assert f"bbmlab orbit: [orbit] n_pairs must lie in 1..{MAX_MODES}, got {n_pairs}" in err


# fprime_list = 0.5, 5 used to integrate the 0.5 orbit (~1 s) and then exit 2
# with "fprime_max must lie in (0, pi), got 5.0"; neither that nor the radius2
# message named [orbit].
@pytest.mark.parametrize("keys, message", [
    ({"fprime_list": "0.5, 5"}, "[orbit] fprime_list entry 5.0 outside (0, pi)"),
    ({"fprime_list": "0, 0.5"}, "[orbit] fprime_list entry 0.0 outside (0, pi)"),
    ({"fprime_list": "0.5", "radius2": "2"}, "[orbit] radius2 must lie in (0, 1), got 2.0"),
    ({"radius2": "0"}, "[orbit] radius2 must lie in (0, 1), got 0.0"),
])
def test_orbit_value_outside_range_exits_2_before_any_orbit(tmp_path, monkeypatch, capsys, keys,
                                                            message):
    def no_orbit(*args):
        raise AssertionError("orbit started")

    monkeypatch.setattr(cli, "radial_orbit", no_orbit)
    code, outdir = run(tmp_path, monkeypatch, "orbit", ini({"orbit": keys}))
    assert code == 2
    assert f"bbmlab orbit: {message}" in capsys.readouterr().err
    assert not (outdir / "orbit.csv").exists()


class TestGalerkinAndOrbit:
    GALERKIN = """
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

    def test_galerkin_sweep(self, tmp_path, monkeypatch):
        code, outdir = run(tmp_path, monkeypatch, "galerkin", self.GALERKIN)
        assert code == 0
        lines = (outdir / "galerkin.csv").read_text().splitlines()
        assert lines[0] == "N_small,defect"
        defects = [float(line.split(",")[1]) for line in lines[1:]]
        assert defects[0] > defects[1]

    def test_galerkin_sweep_flows_its_reference_once(self, tmp_path, monkeypatch):
        truncations, samples = [], flow.interaction_samples

        def watched(c, t_span, n_times, cfg):
            truncations.append(cfg.N)
            return samples(c, t_span, n_times, cfg)

        monkeypatch.setattr(flow, "interaction_samples", watched)
        code, _ = run(tmp_path, monkeypatch, "galerkin", self.GALERKIN)
        assert code == 0 and truncations == [32, 4, 8]

    # An empty list used to exit 0 with a header-only CSV; N_small_list = 0, 8
    # read "N must be >= 1" and an entry above N "n_small = 64 exceeds
    # reference truncation 32", neither naming the key.
    # The range error names [flow] N too, since a small N is as much at fault.
    @pytest.mark.parametrize("command, keys, message", [
        ("galerkin", {"N_small_list": ""}, "[galerkin] N_small_list must list at least one value"),
        ("galerkin", {"N_small_list": "0, 8"}, "[galerkin] N_small_list entry 0 outside 1..32"),
        ("galerkin", {"N_small_list": "8, 64"}, "[galerkin] N_small_list entry 64 outside 1..32 ([flow] N = 32)"),
        ("orbit", {"fprime_list": ""}, "[orbit] fprime_list must list at least one value"),
    ])
    def test_bad_list_exits_2_before_any_flow(self, tmp_path, monkeypatch, capsys, command, keys,
                                              message):
        def no_flow(*args):
            raise AssertionError("flow started")

        monkeypatch.setattr(cli, "galerkin_defect", no_flow)
        monkeypatch.setattr(cli, "radial_orbit", no_flow)
        sections = {"flow": {"N": "32", "dt": "0.01", "T": "0.25"}, "state": {"preset": "smooth"}}
        text = ini({**sections, command: keys} if command == "galerkin" else {command: keys})
        code, outdir = run(tmp_path, monkeypatch, command, text)
        assert code == 2
        assert f"bbmlab {command}: {message}" in capsys.readouterr().err
        assert not list(outdir.glob("*.csv"))

    def test_galerkin_step_count_above_cap_exits_2_before_any_work(self, tmp_path, monkeypatch,
                                                                    capsys):
        refuse_work(monkeypatch)
        sections = {"flow": {"N": "32", "dt": "1e-300", "T": "0.25"}, "state": {"preset": "smooth"}}
        code, outdir = run(tmp_path, monkeypatch, "galerkin", ini(sections))
        assert code == 2
        assert ("bbmlab galerkin: [flow] dt = 1e-300 over T = 0.25 needs 2.5e+299 steps, more "
                f"than flow.MAX_STEPS = {flow.MAX_STEPS}" in capsys.readouterr().err)
        assert not outdir.exists()

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
    "N": "16", "dt": "0.01", "T": "0.1", "integrator": "rk4", "picard_max_iter": "60",
    "midpoint_tol": "1e-12", "linear_only": "false",
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
        "cyl_center_p": "0.0", "cyl_center_q": "0.0", "max_ascent_iters": "3", "stall_tol": "1e-6", "dt": "0.01", "integrator": "rk4",
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
FUZZ_CONFIGS = {
    "simulate": {
        "run": {"seed": "3"},
        "flow": {"N": "8", "dt": "0.01", "T": "0.1", "picard_max_iter": "60",
                 "midpoint_tol": "1e-12", "trace_every": "10"},
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
        "r": "0.5", "n0": "1", "T": "1.0", "N": "8", "n_starts": "2",
        "max_ascent_iters": "3", "stall_tol": "1e-6", "dt": "0.01",
        "cyl_center_p": "0.0", "cyl_center_q": "0.0",
    }},
    "orbit": {"orbit": {"fprime_list": "0.5, 2.0", "n_pairs": "1", "radius2": "0.5"}},
}
FUZZ_KEYS = [
    (command, section, key)
    for command, sections in FUZZ_CONFIGS.items()
    for section, keys in sections.items()
    for key in keys
    if key != "preset"
]
NUMERIC_TEXT = st.one_of(
    LINE_TEXT,
    st.text(st.sampled_from("0123456789+-.,_eE xjnaif%#;:=()[]{}$")),
    st.floats().map(repr),
    st.integers().map(str),
    st.lists(st.one_of(st.floats().map(repr), st.integers().map(str)), max_size=4).map(", ".join),
)


# The keys that size a run's work, fuzzed past the config check below.
WORK_KEYS = [("simulate", "flow", "dt"), ("squeeze", "squeeze", "dt"),
             ("squeeze", "squeeze", "n_starts"), ("estimates", "estimates", "n_samples")]
WORK_TEXT = st.one_of(
    NUMERIC_TEXT,
    st.integers(-10 ** 15, 10 ** 15).map(str),
    st.floats(min_value=5e-324, max_value=1.0).map(repr),
)


class Started(Exception):
    """Raised in place of the first step, draw or sample of a run whose config passed."""


def within_cap(command, section, key, path):
    """Whether the work the config at path asks for stays within its cap.

    The value is read as the CLI reads it: `dt = 1 #` is dt = 1, its inline comment dropped.
    """
    value = cli._Cfg(path).get(section, key, cli._float if key == "dt" else cli._int)
    if key == "dt":
        t_span = float(FUZZ_CONFIGS[command][command if command == "squeeze" else "flow"]["T"])
        return t_span / value <= flow.MAX_STEPS
    if key == "n_starts":
        return 1 <= value <= squeeze.MAX_STARTS
    return 1 <= value <= estimates.MAX_SAMPLES


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

    def test_flow_picard_tol_is_unknown(self, tmp_path, monkeypatch, capsys):
        # The Picard tolerance is the constant flow._PICARD_TOL.
        text = SIMULATE_T0.replace("[state]", "picard_tol = 1e-12\n[state]")
        code, _ = run(tmp_path, monkeypatch, "simulate", text)
        assert code == 2
        assert "unknown config key(s) `picard_tol` in [flow]" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["flow", "squeeze", "estimates", "galerkin", "orbit"])
    def test_readme_schema_lists_the_keys_read(self, section):
        # The README's schema table names every key the CLI reads, and no other.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        row = re.search(rf"^\| `\[{section}\]` \| (.*) \|$", readme, re.MULTILINE).group(1)
        names = re.findall(r"`([A-Za-z0-9_/]+)`", re.sub(r"\([^)]*\)", "", row))
        keys = {key for name in names for key in (
            [name[:-4] + "_p", name[:-4] + "_q"] if name.endswith("_p/q") else [name])}
        command = "simulate" if section == "flow" else section
        assert keys == set(ALL_KEYS[command][section])

    @pytest.mark.parametrize("name, expected", [
        ("simulate", {
            "flow": {"N": 64, "T": 1.0, "dt": 0.001, "integrator": "rk4",
                     "linear_only": False, "midpoint_tol": 1e-12, "picard_max_iter": 60,
                     "trace_every": 100},
            "run": {"outdir": "runs/simulate", "seed": 1},
            "state": {"csv": None, "preset": "smooth", "scale": 1.0},
        }),
        ("squeeze", {
            "run": {"outdir": "runs/squeeze", "seed": 0},
            "squeeze": {"N": 32, "T": 1.0, "center_csv": None,
                        "cyl_center_p": 0.0, "cyl_center_q": 0.0, "dt": 0.02,
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

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(WORK_KEYS), value=WORK_TEXT)
    def test_fuzzed_work_size_exits_2_or_stays_within_its_cap(self, tmp_path, capsys, case, value):
        # Run on past the check: the first rk4 step, start draw, taped flow or
        # estimate sample stops the run, and only a value within its cap may
        # get there.  Any other value exits 2 naming its key.
        command, section, key = case
        sections = {name: dict(keys) for name, keys in FUZZ_CONFIGS[command].items()}
        sections[section][key] = value
        path = write_config(tmp_path / "cfg.ini", ini(sections))

        def started(*args):
            raise Started

        with pytest.MonkeyPatch.context() as mp:
            for module, name in ((flow, "rk4_step"), (squeeze, "substream"),
                                 (squeeze, "integrate_taped"), (estimates, "_sample_rows")):
                mp.setattr(module, name, started)
            mp.setenv("BBMLAB_OUTDIR", str(tmp_path / "out"))
            try:
                code = main([command, path])
            except Started:
                assert within_cap(command, section, key, path), value
                return
        err = capsys.readouterr().err
        assert code == 2, err
        assert re.search(rf"\[{section}\] {key} |\b{key} (must|=) ", err), err


# What each FUZZ_CONFIGS run printed when every command had its own copy of
# the run skeleton; the squeeze wall time is stripped.  The galerkin defect at
# N = 8 is roundoff, so its digits follow the order of rk4's arithmetic.
FUZZ_STDOUT = {
    "simulate": (
        "simulate: 10 steps to T = 0.1\n"
        "  I1 drift: 0.000e+00 (relative 0.000e+00)\n"
        "  I2 drift: 4.530e-14 (relative 3.875e-14)\n"
        "  H drift: 1.571e-14 (relative 6.224e-14)\n"
    ),
    "galerkin": (
        "galerkin: defect(N=4) = 3.763223e-10 against reference N = 16\n"
        "galerkin: defect(N=8) = 1.256860e-18 against reference N = 16\n"
    ),
    "estimates": "estimates: (0.5, 0.5, 0.5) bilinear max ratio 0.071521 over 10 samples, "
                 "sweep bounded: True\n",
    "squeeze": (
        "squeeze: r = 0.5, n0 = 1, T = 1.0: achieved radius 0.499886496 (0.9998 r) in X s\n"
        "  witness Z norm: 0.5\n"
        "  witness H^1 norm: 0.50001\n"
    ),
    "orbit": (
        "orbit: f' = 0.5: period 6.28318531, period * f' = 3.14159265\n"
        "orbit: f' = 2.0: period 1.57079633, period * f' = 3.14159265\n"
    ),
}


def as_read(text):
    """A FUZZ_CONFIGS value as the manifest records it: a number, a list of numbers, or text."""
    try:
        return json.loads(f"[{text}]" if "," in text else text)
    except json.JSONDecodeError:
        return text


def test_artifact_version_is_the_project_version(tmp_path):
    # The manifest's artifact_version is bbmlab.__version__, which nothing tied to pyproject.toml.
    text = (CONFIGS.parent / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        project = re.search(r'^\[project\]$(.*?)^\[', text, re.M | re.S).group(1)
        version = re.search(r'^version = "(.*)"$', project, re.M).group(1)
    else:
        version = tomllib.loads(text)["project"]["version"]
    write_manifest(tmp_path / "manifest.json", "simulate", {}, 0, [])
    assert __version__ == version
    assert json.loads((tmp_path / "manifest.json").read_text())["artifact_version"] == version


class TestDriver:
    """main runs every command the same way: check, run, manifest, print, exit code."""

    @pytest.mark.parametrize("command", list(FUZZ_CONFIGS))
    def test_command_writes_its_manifest_and_prints(self, tmp_path, monkeypatch, capsys, command):
        sections = FUZZ_CONFIGS[command]
        code, outdir = run(tmp_path, monkeypatch, command, ini(sections))
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["seed"] == int(sections.get("run", {}).get("seed", 0))
        assert manifest["outputs"] == sorted(str(path) for path in outdir.glob("*.csv"))
        assert manifest["outputs"]
        for section, keys in sections.items():
            for key, text in keys.items():
                assert manifest["config"][section][key] == as_read(text), (section, key)
        out = re.sub(r" in \d+\.\d s$", " in X s", capsys.readouterr().out, flags=re.MULTILINE)
        assert out == FUZZ_STDOUT[command]

    # A directory used to read "missing required key `N` in section [flow]
    # of <path>", and non-UTF-8 bytes gave the bare codec message.
    @pytest.mark.parametrize("case", ["directory", "not_utf8"])
    def test_unreadable_config_file_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, case):
        path = unreadable(tmp_path / "cfg.ini", case)
        monkeypatch.setenv("BBMLAB_OUTDIR", str(tmp_path / "out"))
        assert main(["simulate", str(path)]) == 2
        message = UNREADABLE[case].format(what="config file", path=path)
        assert f"bbmlab simulate: {message}" in capsys.readouterr().err

    # os.makedirs used to raise FileExistsError: a traceback and exit 1.
    @pytest.mark.parametrize("setting", ["[run] outdir", "BBMLAB_OUTDIR"])
    def test_outdir_that_is_a_file_exits_2_naming_its_setting(self, tmp_path, monkeypatch, capsys,
                                                              setting):
        def no_orbit(*args):
            raise AssertionError("orbit started")

        taken = tmp_path / "taken"
        taken.write_text("")
        sections = {"orbit": FUZZ_CONFIGS["orbit"]["orbit"]}
        if setting == "BBMLAB_OUTDIR":
            monkeypatch.setenv("BBMLAB_OUTDIR", str(taken))
        else:
            monkeypatch.delenv("BBMLAB_OUTDIR", raising=False)
            sections["run"] = {"outdir": str(taken)}
        monkeypatch.setattr(cli, "radial_orbit", no_orbit)
        assert main(["orbit", write_config(tmp_path / "cfg.ini", ini(sections))]) == 2
        err = capsys.readouterr().err
        assert f"bbmlab orbit: output directory {setting} = {str(taken)!r}: File exists" in err

    # A directory in the way of an output file used to end in io._write with
    # an IsADirectoryError traceback and exit 1, after the whole flow.
    @pytest.mark.parametrize("name", ["trace.csv", "manifest.json"])
    def test_output_that_cannot_be_written_exits_2_naming_it(self, tmp_path, monkeypatch, capsys,
                                                             name):
        (tmp_path / "out" / name).mkdir(parents=True)
        code, outdir = run(tmp_path, monkeypatch, "simulate", ini(FUZZ_CONFIGS["simulate"]))
        assert code == 2
        assert (f"bbmlab simulate: cannot write {outdir / name}: Is a directory"
                in capsys.readouterr().err)


class TestParserOncePerProcess:
    """main builds its parser on the first call and reads each config class's hints once."""

    def test_two_calls_build_one_parser_and_read_hints_once(self, tmp_path, monkeypatch):
        cli._parser.cache_clear()
        cli._type_hints.cache_clear()
        text = SIMULATE_T0.replace("T = 0.0", "T = 0.1")
        for _ in range(2):
            assert run(tmp_path, monkeypatch, "simulate", text)[0] == 0
        assert cli._parser.cache_info()[:2] == (1, 1)  # hits, misses
        assert cli._type_hints.cache_info()[:2] == (1, 1)  # FlowConfig, read twice
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv, message", [
        (["simulte", "cfg.ini"], "bbmlab: error: argument command: invalid choice: 'simulte'"),
        (["simulate"], "bbmlab simulate: error: the following arguments are required: config"),
    ])
    def test_bad_command_line_exits_2_with_argparse_message(self, capsys, argv, message):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    def test_misspelt_key_exits_2_naming_it_on_the_kept_parser(self, tmp_path, monkeypatch,
                                                                capsys):
        text = SIMULATE_T0.replace("[state]", "integrater = picard\n[state]")
        for _ in range(2):
            assert run(tmp_path, monkeypatch, "simulate", text)[0] == 2
            assert "unknown config key(s) `integrater` in [flow]" in capsys.readouterr().err
