import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_layers():
    spec = importlib.util.spec_from_file_location("layers",
                                                  ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_bench_smoke(tmp_path):
    # one round of tiny marches on both sides, this checkout as its own
    # parent, without the config run
    layers = load_layers()
    out = tmp_path / "layers.json"
    layers.main(["--rounds", "1", "--repeats", "1", "--steps", "8",
                 "--no-config", "--parent", str(ROOT), "--out", str(out)])
    result = json.loads(out.read_text())
    names = {f"solve_forward.{kind}.m{b}.s8_ms"
             for kind in ("free", "potential") for b in (1, 3)}
    assert set(result["summary"]) == names
    for entry in result["summary"].values():
        assert entry["change"]["median"] > 0 and entry["parent_iqr"] == 0.0
        assert entry["change_wins"] in (0, 1)


def test_summary_pairs_rounds():
    layers = load_layers()
    change = [{"m": 1.0}, {"m": 3.0}, {"m": 2.0}]
    parent = [{"m": 2.0}, {"m": 2.0}, {"m": 4.0}]
    entry = layers.summarize(change, parent)["m"]
    assert entry["change_wins"] == 2
    assert entry["change"]["median"] == 2.0
    assert entry["parent"] == {"p25": 2.0, "median": 2.0, "p75": 3.0}
    assert entry["parent_iqr"] == 1.0 and entry["ratio"] == 1.0
