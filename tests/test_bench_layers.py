import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))   # the scripts import `checkout`
import layers  # noqa: E402


def laps(name, stages):
    return {f"{name}_config.timing.{stage}{clock}_ms" for stage in stages
            for clock in ("", "_cpu")}


def test_layers_bench_smoke(tmp_path):
    # one round of tiny marches and one run of the workload's forward
    # config on both sides, this checkout as its own parent
    out = tmp_path / "layers.json"
    layers.main(["--rounds", "1", "--repeats", "1", "--steps", "8",
                 "--parent", str(ROOT), "--out", str(out)])
    result = json.loads(out.read_text())
    names = {f"solve_forward.{kind}.m{b}.s8_ms"
             for kind in ("free", "potential", "potential_forced")
             for b in (1, 3)}
    names |= laps("forward", ("setup", "march", "fixed_point", "output"))
    names |= {"fixed_point_solve.iteration_ms",
              "fixed_point_solve.iterations"}
    assert set(result["summary"]) == names
    for entry in result["summary"].values():
        assert entry["change"]["median"] > 0 and entry["parent_iqr"] == 0.0
        assert entry["change_wins"] in (0, 1)


def test_layers_bench_audit_slice_smoke(tmp_path):
    # one round of the audit slice on both sides: one run of each audit
    # config, every lap in wall and CPU time
    out = tmp_path / "layers.json"
    layers.main(["--slice", "audit", "--rounds", "1", "--repeats", "1",
                 "--parent", str(ROOT), "--out", str(out)])
    result = json.loads(out.read_text())
    assert result["slice"] == "audit" and "steps" not in result
    assert set(result["summary"]) == \
        laps("carleman_audit", ("setup", "kernels", "samples", "output")) \
        | laps("weights_audit", ("setup", "sweep", "output"))
    for entry in result["summary"].values():
        assert entry["change"]["median"] > 0 and entry["parent_iqr"] == 0.0


def test_audit_configs_are_the_workload_entry():
    # the audit slice runs the perfbench audit workload's pool entry 0
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    entry = workloads.CONFIGS["audit"](0)
    assert set(layers.AUDIT_CONFIGS) == {"carleman_audit", "weights_audit"}
    for name, text in layers.AUDIT_CONFIGS.items():
        assert text == entry[name.replace("_", "-")]


def test_summary_pairs_rounds():
    change = [{"m": 1.0, "new": 1.0}, {"m": 3.0, "new": 1.0},
              {"m": 2.0, "new": 1.0}]
    parent = [{"m": 2.0, "old": 1.0}, {"m": 2.0, "old": 1.0},
              {"m": 4.0, "old": 1.0}]
    summary = layers.summarize(change, parent)
    entry = summary["m"]
    assert entry["change_wins"] == 2
    assert entry["change"]["median"] == 2.0
    assert entry["parent"] == {"p25": 2.0, "median": 2.0, "p75": 3.0}
    assert entry["parent_iqr"] == 1.0 and entry["ratio"] == 1.0
    # a lap only one checkout takes is summarized on its side alone
    assert set(summary["new"]) == {"change"}
    assert set(summary["old"]) == {"parent", "parent_iqr"}
