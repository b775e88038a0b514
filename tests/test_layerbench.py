"""scripts/layerbench.py: its quick mode runs every layer and prints the documented record."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "layerbench.py"
LAYERS = {
    *(f"rhs/N={n}/rows={rows}" for n in (32, 64, 128) for rows in (1, 16)),
    "rk4_step/N=64/rows=1",
    "midpoint_step/N=32/rows=1",
    "midpoint_step/N=8/rows=64",
    "integrate_midpoint/N=8/rows=64/T=0.25",
    "adjoint_batch_midpoint/N=8/rows=64/T=0.25",
    "picard_subinterval/N=32/h=1",
    "integrate_picard/N=32/h=1",
    "integrate/N=64/rows=1/T=1",
    *(f"{layer}/N=32/rows={rows}/T=1" for layer in ("integrate_taped", "adjoint_batch")
      for rows in (2, 16)),
    "integrate_taped_linear/N=32/rows=2/T=1",
    "adjoint_batch_linear/N=32/rows=2/T=1",
    "search_iteration/N=32/starts=16",
    "invariants_of/N=128",
    "smoothing_ratio/N=32/T=1",
    "substream/keys=1",
    "sweep_normals/N=128/rows=32",
    "bilinear_ratio/N=128/rows=32",
}


@pytest.fixture(scope="module")
def layerbench():
    spec = importlib.util.spec_from_file_location("layerbench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_layers(layers):
    assert set(layers) == LAYERS
    for name, layer in layers.items():
        assert set(layer) == {"unit", "median", "q1", "q3", "calls", "repeats"}, name
        assert layer["unit"] == "us" and layer["repeats"] == 3 and layer["calls"] >= 1, name
        assert 0.0 < layer["q1"] <= layer["median"] <= layer["q3"], name


def test_quick_mode_prints_every_layer_with_its_quartiles(layerbench, capsys):
    assert layerbench.main(["--quick"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"environment", "quick", "layers"} and record["quick"] is True
    assert set(record["environment"]) == {"git_revision", "python", "numpy", "nproc", "seed"}
    check_layers(record["layers"])


def test_against_times_a_second_tree_in_process_and_leaves_bbmlab_imported(layerbench, capsys):
    import bbmlab.flow

    assert layerbench.main(["--quick", "--against", str(ROOT)]) == 0
    assert sys.modules["bbmlab.flow"] is bbmlab.flow
    record = json.loads(capsys.readouterr().out)
    against = record["against"]
    assert set(against) == {"tree", "git_revision", "layers", "relative_change", "this_faster"}
    check_layers(record["layers"])
    check_layers(against["layers"])
    assert set(against["relative_change"]) == set(against["this_faster"]) == LAYERS
    assert all(0 <= wins <= 3 for wins in against["this_faster"].values())
