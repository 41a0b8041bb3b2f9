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
    # one round of tiny marches and the workload-sized fixed-point solve on
    # both sides, this checkout as its own parent, without the config run
    layers = load_layers()
    out = tmp_path / "layers.json"
    layers.main(["--rounds", "1", "--repeats", "1", "--steps", "8",
                 "--no-config", "--parent", str(ROOT), "--out", str(out)])
    result = json.loads(out.read_text())
    names = {f"solve_forward.{kind}.m{b}.s8_ms"
             for kind in ("free", "potential", "potential_forced")
             for b in (1, 3)}
    names |= {f"fixed_point_solve{field}_ms"
              for field in ("", ".cpu", ".iteration")}
    names.add("fixed_point_solve.iterations")
    assert set(result["summary"]) == names
    for entry in result["summary"].values():
        assert entry["change"]["median"] > 0 and entry["parent_iqr"] == 0.0
        assert entry["change_wins"] in (0, 1)


def test_layers_bench_audit_slice_smoke(tmp_path):
    # one round of the audit slice on both sides, without the config runs;
    # each call is timed in wall and CPU time
    layers = load_layers()
    out = tmp_path / "layers.json"
    layers.main(["--slice", "audit", "--rounds", "1", "--repeats", "1",
                 "--no-config", "--parent", str(ROOT), "--out", str(out)])
    result = json.loads(out.read_text())
    assert result["slice"] == "audit" and "steps" not in result
    assert set(result["summary"]) == {
        f"{name}{clock}_ms" for name in ("build_eta", "audit_inequality")
        for clock in ("", ".cpu")}
    for entry in result["summary"].values():
        assert entry["change"]["median"] > 0 and entry["parent_iqr"] == 0.0


def test_audit_configs_are_the_workload_entry():
    # the audit slice runs the perfbench audit workload's pool entry 0 and
    # copies laps its manifests have
    layers = load_layers()
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    entry = workloads.CONFIGS["audit"](0)
    assert set(layers.AUDIT_CONFIGS) == set(layers.AUDIT_LAPS)
    for name, text in layers.AUDIT_CONFIGS.items():
        assert text == entry[name.replace("_", "-")]
        assert set(layers.AUDIT_LAPS[name]) <= set(
            layers.run_config(text, name, 1))


def test_summary_pairs_rounds():
    layers = load_layers()
    change = [{"m": 1.0}, {"m": 3.0}, {"m": 2.0}]
    parent = [{"m": 2.0}, {"m": 2.0}, {"m": 4.0}]
    entry = layers.summarize(change, parent)["m"]
    assert entry["change_wins"] == 2
    assert entry["change"]["median"] == 2.0
    assert entry["parent"] == {"p25": 2.0, "median": 2.0, "p75": 3.0}
    assert entry["parent_iqr"] == 1.0 and entry["ratio"] == 1.0
