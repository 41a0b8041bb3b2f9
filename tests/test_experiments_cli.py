import configparser
import csv
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamctrl
from beamctrl import dynamics
from beamctrl.cli import main
from beamctrl.config import SCHEMA, ConfigError, load_config
from beamctrl.dynamics import SolverDivergenceError, solve_forward
from beamctrl.experiments import EXPECTED_FILES, emit_plot_data, run
from beamctrl.hum import (CGConvergenceError, CurvatureError,
                          FactorizationError)
from beamctrl.io import (FIELD_MAGIC, export_field_csv, read_field_snapshot,
                         read_flat_report, write_field_csv,
                         write_field_snapshot, write_flat_report)
from beamctrl.torus import SpatialGrid

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# outputs of the shipped configs, taken on a 2-CPU x86-64 machine (numpy
# 2.4.6): a SHA-256 per file, or the control manifest's rows
SHIPPED = json.loads(Path(__file__).with_name("shipped_outputs.json")
                     .read_text())
# control metrics at the rounding floor move with any change of summation
# order, so they are held under a bound instead of to a value
FLOOR_BOUNDS = {"metrics.superposition_defect": 1e-13,
                "metrics.cg_relative_residual": 1e-14,
                "metrics.cg_true_relative_residual": 5e-8}

BASE = """
[experiment]
kind = {kind}
seed = 7

[domain]
d = 1.0
L = 1.0
T = 4.0

[grid]
n_modes = 16
n_time = 48

[data]
kind = random
seed = 5
max_mode = 2

[forward]
n_steps = 400

[audit]
n_samples = 3
max_mode = 4
s_grid = 4,8
lambda_grid = 2

[hum]
tol = 1e-8
eps_scale = 1e-12
verify_steps = 512
suppression_target = 1.0
"""


def write_cfg(tmp_path, kind, extra=""):
    path = tmp_path / f"{kind}.ini"
    path.write_text(BASE.format(kind=kind) + extra)
    return path


def edit_cfg(source, out, changes):
    """The config file source with changes {(section, key): value}, written
    to out."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    parser.read(source)
    for (section, key), value in changes.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    with open(out, "w") as f:
        parser.write(f)
    return out


def run_fresh(code: str) -> list[str]:
    """Output lines of code run in a fresh interpreter on this beamctrl."""
    src = str(Path(beamctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], check=True, env=env,
                          capture_output=True, text=True).stdout.splitlines()


# a finder ahead of all others that refuses every scipy module
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
"""

RUN_CONFIGS = """
import sys
from beamctrl.config import load_config
from beamctrl.experiments import run
for path in {paths!r}:
    print(run(load_config(path), out_root={out!r}).overall_pass)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


class TestConfig:
    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nkind = spectrum\n[domain]\nd = 1\nL = 1\n")
        with pytest.raises(ConfigError, match="domain.T"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE.format(kind="spectrum")
                        .replace("n_modes = 16", "n_modes = 16\nbogus = 1"))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE.format(kind="spectrum") + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "warp-drive")
        with pytest.raises(ConfigError, match="kind"):
            load_config(path)

    # each of these passed validation and then failed inside the run
    @pytest.mark.parametrize("kind, line, bad, key", [
        ("forward", "n_steps = 400", "n_steps = 0", "forward.n_steps"),
        ("control", "verify_steps = 512", "verify_steps = 0",
         "hum.verify_steps"),
        ("control", "tol = 1e-8", "tol = 1e-8\nmax_iter = 0", "hum.max_iter"),
        ("control", "eps_scale = 1e-12", "eps_scale = -1e-12",
         "hum.eps_scale"),
        ("carleman-audit", "n_samples = 3", "n_samples = 0",
         "audit.n_samples"),
        ("carleman-audit", "n_samples = 3", "n_samples = -1",
         "audit.n_samples"),
        ("weights-audit", "lambda_grid = 2", "lambda_grid =",
         "audit.lambda_grid"),
        ("carleman-audit", "s_grid = 4,8", "s_grid =", "audit.s_grid"),
        ("control", "tol = 1e-8", "tol = nan", "hum.tol"),
        ("forward", "n_steps = 400", "n_steps = 400\nfixed_point_kappa = -0.1",
         "forward.fixed_point_kappa"),
    ], ids=["n_steps", "verify_steps", "max_iter", "eps_scale", "n_samples_0",
            "n_samples_negative", "lambda_grid_empty", "s_grid_empty",
            "tol_nan", "fixed_point_kappa_negative"])
    def test_solver_sizes_rejected(self, tmp_path, kind, line, bad, key):
        path = tmp_path / "bad.ini"
        path.write_text(BASE.format(kind=kind).replace(line, bad))
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    # each of these passed validation and then crashed inside the run, or
    # (space_mode = -1) ran silently on the Nyquist mode
    @pytest.mark.parametrize("line, bad, key", [
        ("kind = random", "kind = modal\nbeta0_modes = 99:1:0",
         "data.beta0_modes"),
        ("kind = random", "kind = modal\nbeta0_modes = 2:1",
         "data.beta0_modes"),
        ("kind = random", "kind = modal\nbeta0_modes = 2:1:0;3:x:0",
         "data.beta0_modes"),
        ("kind = random",
         "kind = modal\nbeta0_modes = 1:1:0\nbeta1_modes = -1:0:1",
         "data.beta1_modes"),
        ("[forward]", "[potential]\nkind = separable\nspace_mode = 99\n"
         "[forward]", "potential.space_mode"),
        ("max_mode = 2", "max_mode = 40", "data.max_mode"),
        ("[forward]", "[potential]\nkind = separable\nspace_mode = -1\n"
         "[forward]", "potential.space_mode"),
    ], ids=["mode_above_nyquist", "two_fields", "not_a_number",
            "negative_mode", "space_mode_99", "max_mode_40",
            "space_mode_negative"])
    def test_mode_indices_rejected(self, tmp_path, line, bad, key):
        path = tmp_path / "bad.ini"
        path.write_text(BASE.format(kind="forward").replace(line, bad))
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    # the domain and Carleman types' errors named no config key
    @pytest.mark.parametrize("kind, changes, keys", [
        ("spectrum", {("domain", "d"): "-1.0"}, ["domain.d"]),
        ("control", {("domain", "T"): "1e-6"},
         ["domain.T", "carleman.T0", "carleman.T1"]),
        ("weights-audit", {("carleman", "lambda"): "0.5"},
         ["carleman.lambda"]),
    ], ids=["negative_d", "horizon_below_junctions", "lambda_below_one"])
    def test_domain_and_carleman_errors_name_their_keys(self, tmp_path, kind,
                                                        changes, keys):
        path = edit_cfg(write_cfg(tmp_path, kind), tmp_path / "bad.ini",
                        changes)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        for key in keys:
            assert re.search(rf"\b{re.escape(key)}\b", str(exc.value))

    def test_hash_ignores_formatting(self, tmp_path):
        a = load_config(write_cfg(tmp_path, "spectrum"))
        reordered = tmp_path / "b.ini"
        reordered.write_text(
            "[domain]\nT = 4.0\nd = 1.0\nL = 1.0\n"
            "[experiment]\nseed = 7\nkind = spectrum   # trailing comment\n"
            "[grid]\nn_modes = 16\nn_time = 48\n"
            "[data]\nkind = random\nseed = 5\nmax_mode = 2\n"
            "[forward]\nn_steps = 400\n"
            "[audit]\nn_samples = 3\nmax_mode = 4\ns_grid = 4,8\n"
            "lambda_grid = 2\n"
            "[hum]\ntol = 1e-8\neps_scale = 1e-12\nverify_steps = 512\n"
            "suppression_target = 1.0\n")
        b = load_config(reordered)
        assert a.config_hash == b.config_hash

    # -0.1 validated and then ran silently with the L/8 default; nan
    # validated and then failed inside the run
    @pytest.mark.parametrize("radius", ["-0.1", "nan"])
    def test_invalid_mollify_radius_rejected(self, tmp_path, radius):
        path = write_cfg(tmp_path, "weights-audit",
                         extra=f"\n[carleman]\nmollify_radius = {radius}\n")
        with pytest.raises(ConfigError, match="carleman.mollify_radius"):
            load_config(path)

    # every float key of SCHEMA, one member of each float list and one mode
    # coefficient; most of these loaded and then failed inside the run, or
    # ran to NaN metrics
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["control.ini", "carleman_audit.ini",
                                      "weights_audit.ini", "forward.ini"])
    def test_nonfinite_values_rejected(self, tmp_path, name, value):
        cfg = load_config(CONFIGS / name)
        cases = [({("data", "kind"): "modal",
                   ("data", "beta0_modes"): f"1:{value}:0"},
                  "data.beta0_modes")]
        for section, keys in SCHEMA.items():
            for key in keys:
                old = cfg[section][key]
                if isinstance(old, float):
                    cases.append(({(section, key): value}, f"{section}.{key}"))
                elif isinstance(old, tuple):
                    cases.append(({(section, key): f"{old[0]!r},{value}"},
                                  f"{section}.{key}"))
        assert len(cases) >= 21
        missed = []
        for changes, key in cases:
            path = edit_cfg(CONFIGS / name, tmp_path / name, changes)
            try:
                load_config(path)
                missed.append((key, "loaded"))
            except ConfigError as exc:
                if not re.search(rf"\b{re.escape(key)}\b", str(exc)):
                    missed.append((key, str(exc)))
        assert missed == []

    def test_readme_names_every_schema_key(self):
        # the README's schema section has one bullet per section
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text().split("## Configuration schema")[1]
        text = text.split("\n## ")[0]
        bullets = {re.match(r"`\[(\w+)\]`", b)[1]: b
                   for b in text.split("\n- ")[1:]}
        assert set(bullets) == set(SCHEMA)
        for section, keys in SCHEMA.items():
            for key in keys:
                assert f"`{key}`" in bullets[section], f"{section}.{key}"

    def test_readme_library_quick_start_runs(self, capsys):
        # the quick start's two python blocks, the second on the first's
        # names
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(),
                            re.DOTALL)
        assert len(blocks) == 2
        names = {}
        for block in blocks:
            exec(compile(block, str(readme), "exec"), names)
        assert float(capsys.readouterr().out) < 1.0
        assert names["sol"].v.shape == names["f"].shape

    @pytest.mark.parametrize("name, kind, config_hash", [
        ("carleman_audit.ini", "carleman-audit", "119feba0d795"),
        ("control.ini", "control", "5fa53cd416f0"),
        ("forward.ini", "forward", "a5a73b697d41"),
        ("spectrum.ini", "spectrum", "330649a4c19a"),
        ("weights_audit.ini", "weights-audit", "980ca2b24b5e"),
        ("zeta_ledger.ini", "zeta-ledger", "5bb29296f97a"),
    ])
    def test_shipped_config_hashes(self, name, kind, config_hash):
        # the run directories of the shipped configs are named by these
        cfg = load_config(CONFIGS / name)
        assert (cfg.kind, cfg.config_hash) == (kind, config_hash)

    def test_carleman_audit_config_metrics_pinned(self, tmp_path):
        # values of the per-sample, per-term audit this one replaced; the
        # table path sums in another order, so they agree to roundoff only
        cfg = load_config(CONFIGS / "carleman_audit.ini")
        metrics = run(cfg, out_root=tmp_path / "runs").metrics
        pinned = {
            "calibration_max_ratio": 1.4963636867615129,
            "heldout_max_ratio": 1.5175747928266008,
            "max_s_growth_factor": 1.4870433293655987,
            "kernel_underflow_frac": 0.06787109375,
        }
        for key, value in pinned.items():
            assert metrics[key] == pytest.approx(value, rel=1e-12), key

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_shipped_config_outputs_pinned(self, tmp_path, name):
        # a one-ulp change to any output of the five numpy-only configs
        # changes its digest; control is held to its manifest rows, so its
        # large snapshots are neither exported nor hashed
        dynamics._block_matrix.cache_clear()
        manifest = run(load_config(CONFIGS / name), out_root=tmp_path)
        run_dir = manifest.run_dir
        if manifest.kind == "control":
            # every march of the run carries the potential, so none builds
            # the potential-free core's block matrix
            assert dynamics._block_matrix.cache_info().misses == 0
            rows = {key: value for key, value
                    in read_flat_report(run_dir / "manifest.txt").items()
                    if key != "wall_time_s" and not key.startswith("timing.")}
            pinned = dict(SHIPPED[name]["manifest"])
            for key, bound in FLOOR_BOUNDS.items():
                assert float(rows.pop(key)) <= bound, key
                del pinned[key]
            assert rows == pinned
            return
        for path in run_dir.glob("*.bin"):
            export_field_csv(path)
        digests = {}
        for path in sorted(run_dir.iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.txt":
                data = b"".join(
                    line for line in data.splitlines(keepends=True)
                    if not line.startswith((b"wall_time_s ", b"timing.")))
            digests[path.name] = hashlib.sha256(data).hexdigest()
        assert digests == SHIPPED[name]["sha256"]

    def test_zeta_parsed_as_fraction(self, tmp_path):
        path = write_cfg(tmp_path, "zeta-ledger",
                         extra="\n[carleman]\nzeta = 4/3\n")
        cfg = load_config(path)
        from fractions import Fraction
        assert cfg["carleman"]["zeta"] == Fraction(4, 3)


class TestImportBoundary:
    def test_runs_without_scipy_except_control(self, tmp_path):
        # five kinds in one process; the control kind runs in the next test
        kinds = ["spectrum", "zeta-ledger", "forward", "weights-audit",
                 "carleman-audit"]
        paths = [write_cfg(tmp_path, kind) for kind in kinds]
        # 400 steps miss the energy-defect gate at this resolution
        forward = paths[kinds.index("forward")]
        forward.write_text(forward.read_text().replace("n_steps = 400",
                                                       "n_steps = 4000"))
        paths = [str(path) for path in paths]
        out = run_fresh(BLOCK_SCIPY + RUN_CONFIGS.format(
            paths=paths, out=str(tmp_path / "runs")))
        assert out == ["True"] * len(kinds) + ["[]"]

    def test_control_run_loads_scipy(self, tmp_path):
        # asks which scipy modules a control run loads: none, since its
        # band is factored with numpy alone; the run passes with every
        # scipy module refused
        out = run_fresh(BLOCK_SCIPY + RUN_CONFIGS.format(
            paths=[str(write_cfg(tmp_path, "control"))],
            out=str(tmp_path / "runs")))
        assert out == ["True", "[]"]

    def test_export_loads_no_scipy(self, tmp_path):
        manifest = run(load_config(write_cfg(tmp_path, "forward")),
                       out_root=tmp_path / "runs")
        out = run_fresh(
            "import sys\n"
            "from beamctrl.cli import main\n"
            f"print(main(['export', {str(manifest.run_dir)!r}]))\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))\n")
        assert out[-2:] == ["0", "[]"]
        assert (manifest.run_dir / "trajectory.csv").exists()


TINY = """
[experiment]
kind = {kind}
[domain]
d = 1.0
L = 1.0
T = 4.0
[grid]
n_modes = 8
n_time = 16
[potential]
kind = separable
[forward]
n_steps = 16
fixed_point_kappa = 0.2
[audit]
n_samples = 2
max_mode = 2
s_grid = 4
[hum]
verify_steps = 16
suppression_target = 1e300
"""

# extreme finite settings of the float keys, and one step
EXTREMES = [("potential", "amplitude", "1e6"),
            ("potential", "amplitude", "1e300"), ("domain", "T", "1e-6"),
            ("domain", "T", "1e3"), ("domain", "d", "1e-9"),
            ("forward", "n_steps", "1"), ("carleman", "s", "40"),
            ("hum", "eps_scale", "0"), ("hum", "eps_scale", "1e300"),
            ("hum", "tol", "1e-300")]
NAMED_FAILURES = (ConfigError, SolverDivergenceError, OverflowError,
                  CGConvergenceError, CurvatureError, FactorizationError)


class TestRuns:
    # each run ends in a named error or with finite metrics; a
    # carleman-audit run with amplitude 1e300 overflows its residual and
    # once finished with NaN ratio maxima
    @pytest.mark.parametrize("kind", ["spectrum", "zeta-ledger", "forward",
                                      "weights-audit", "carleman-audit",
                                      "control"])
    def test_extreme_finite_values(self, tmp_path, kind):
        base = tmp_path / "tiny.ini"
        base.write_text(TINY.format(kind=kind))
        for section, key, value in EXTREMES:
            path = edit_cfg(base, tmp_path / "extreme.ini",
                            {(section, key): value})
            try:
                manifest = run(load_config(path), out_root=tmp_path / "runs")
            except NAMED_FAILURES:
                continue
            bad = [name for name, metric in manifest.metrics.items()
                   if isinstance(metric, float) and not math.isfinite(metric)]
            assert bad == [], f"{section}.{key} = {value}"

    @pytest.mark.parametrize("kind", ["spectrum", "zeta-ledger", "forward",
                                      "weights-audit", "carleman-audit",
                                      "control"])
    def test_schema_completeness(self, tmp_path, kind):
        cfg = load_config(write_cfg(tmp_path, kind))
        manifest = run(cfg, out_root=tmp_path / "runs")
        files = emit_plot_data(manifest)
        assert {f.name for f in files} == set(EXPECTED_FILES[kind])
        assert (manifest.run_dir / "manifest.txt").exists()

    @pytest.mark.parametrize("kind", ["spectrum", "zeta-ledger", "forward",
                                      "weights-audit", "carleman-audit",
                                      "control"])
    def test_laps_tile_the_wall_time(self, tmp_path, kind):
        # the clock starts with the setup lap, every lap has its CPU twin
        # and the wall laps leave no part of the run untimed
        path = tmp_path / "tiny.ini"
        path.write_text(TINY.format(kind=kind))
        manifest = run(load_config(path), out_root=tmp_path / "runs")
        stages = [key for key in manifest.timing if not key.endswith("_cpu")]
        assert stages[0] == "setup"
        assert list(manifest.timing) == [f"{s}{clock}" for s in stages
                                         for clock in ("", "_cpu")]
        wall = sum(manifest.timing[s] for s in stages)
        assert abs(wall - manifest.wall_time_s) <= 1e-3

    @pytest.mark.parametrize("kind", ["forward", "control", "carleman-audit"])
    def test_determinism_bit_for_bit(self, tmp_path, kind):
        cfg = load_config(write_cfg(tmp_path, kind))
        m1 = run(cfg, out_root=tmp_path / "r1")
        m2 = run(cfg, out_root=tmp_path / "r2")
        assert m1.metrics == m2.metrics
        assert m1.assertions == m2.assertions

    def test_modal_data_run(self, tmp_path):
        path = write_cfg(tmp_path, "forward")
        path.write_text(path.read_text().replace(
            "kind = random", "kind = modal\nbeta0_modes = 1:1:0;2:0:0.5\n"
            "beta1_modes = 3:-0.25:0"))
        manifest = run(load_config(path), out_root=tmp_path / "runs")
        grid, _, fields = read_field_snapshot(manifest.run_dir
                                              / "trajectory.bin")
        x, kap = grid.nodes, grid.kappa
        b0 = np.cos(kap[1] * x) + 0.5 * np.sin(kap[2] * x)
        assert np.allclose(fields["beta"][0], b0, rtol=0.0, atol=1e-14)
        assert np.allclose(fields["beta_t"][0], -0.25 * np.cos(kap[3] * x),
                           rtol=0.0, atol=1e-14)
        assert manifest.metrics["initial_energy"] > 0.0

    def test_weights_audit_rows_per_inequality(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "weights-audit"))
        manifest = run(cfg, out_root=tmp_path / "runs")
        bounds = [p for p in manifest.run_dir.iterdir()
                  if p.name.startswith("bounds_lambda_")]
        assert bounds
        lines = bounds[0].read_text().strip().splitlines()
        # 22 derivative inequalities + 4 positivity floors + header
        assert len(lines) == 27

    # zeta_witness.csv, the one table of zeta-ledger runs, holds exact
    # rationals and verdicts
    @pytest.mark.parametrize("kind", ["spectrum", "forward", "weights-audit",
                                      "carleman-audit", "control"])
    def test_csv_cells_are_numbers(self, tmp_path, kind):
        manifest = run(load_config(write_cfg(tmp_path, kind)),
                       out_root=tmp_path / "runs")
        tables = sorted(manifest.run_dir.glob("*.csv"))
        assert tables
        for path in tables:
            with path.open(newline="") as fh:
                header, *rows = csv.reader(fh)
            numeric = [i for i, name in enumerate(header)
                       if name not in ("inequality", "family", "sample")]
            assert rows, path.name
            for row in rows:
                for i in numeric:
                    float(row[i])   # raises on np.float64(...) and the like

    def test_zeta_run_headline(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "zeta-ledger"))
        manifest = run(cfg, out_root=tmp_path / "runs")
        assert manifest.metrics["admissible"] == "true"
        assert manifest.metrics["coefficients"] == "-2;-102;-6;-9"

    def test_manifest_roundtrip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "spectrum"))
        manifest = run(cfg, out_root=tmp_path / "runs")
        entries = read_flat_report(manifest.run_dir / "manifest.txt")
        assert entries["config_hash"] == cfg.config_hash
        assert entries["overall_pass"] == "true"


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "spectrum")
        assert main(["validate", str(path)]) == 0
        assert "kind=spectrum" in capsys.readouterr().out

    def test_validate_rejects_malformed(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nkind = spectrum\n[domain]\nd = 1\nL = 1\n")
        assert main(["validate", str(path)]) == 1

    # configparser's own errors: a key given twice in one section, a key
    # before any section header, a "%" that is no interpolation
    @pytest.mark.parametrize("text, message", [
        ("[experiment]\nkind = spectrum\nkind = spectrum\n",
         "option 'kind' in section 'experiment' already exists"),
        ("seed = 3\n[experiment]\nkind = spectrum\n", "no section headers"),
        ("[experiment]\nkind = spectrum\n[data]\nbeta0_modes = 1:0.5%:0\n",
         "'%' must be followed by '%' or '('"),
    ], ids=["duplicate_key", "no_section_header", "percent"])
    def test_validate_reports_parser_errors(self, tmp_path, capsys, text,
                                            message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid: cannot parse config file {path}: ")

    def test_run_and_report_exit_codes(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "spectrum")
        out_root = tmp_path / "runs"
        assert main(["run", str(path), "--out-root", str(out_root)]) == 0
        cfg = load_config(path)
        assert main(["report", str(out_root / cfg.config_hash)]) == 0
        assert main(["report", str(tmp_path / "nowhere")]) == 1

    def test_report_shows_solver_diagnostics(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "control")
        out_root = tmp_path / "runs"
        main(["run", str(path), "--out-root", str(out_root)])
        capsys.readouterr()
        main(["report", str(out_root / load_config(path).config_hash)])
        out = capsys.readouterr().out
        # n_modes = 16: half-bandwidth 6 * 16 - 1, band 96 x (48 * 16) doubles
        assert "metrics.precond_half_bandwidth = 95\n" in out
        assert f"metrics.precond_band_mb = {8e-6 * 96 * 48 * 16!r}\n" in out
        for key in ("cg_iterations", "cg_relative_residual",
                    "cg_true_relative_residual", "eps", "norm_estimate",
                    "w1_underflow_frac", "w2_underflow_frac",
                    "verification_guard_margin"):
            assert f"metrics.{key} = " in out

    def test_report_shows_control_stage_times(self, tmp_path, capsys):
        # each stage's wall seconds, then its CPU seconds
        stages = [f"{s}{clock}" for s in (
            "setup", "weights", "free_march", "assembly", "band", "factor",
            "cg", "verification", "output") for clock in ("", "_cpu")]
        manifest = run(load_config(write_cfg(tmp_path, "control")),
                       out_root=tmp_path / "runs")
        main(["report", str(manifest.run_dir)])
        lines = capsys.readouterr().out.splitlines()
        timed = [line.split(" = ") for line in lines
                 if line.startswith("timing.")]
        assert [key for key, _ in timed] == [f"timing.{s}_s" for s in stages]
        assert all(np.isfinite(float(value)) and float(value) >= 0.0
                   for _, value in timed)
        names = {n for s in stages for n in (s, f"{s}_s", f"timing.{s}_s")}
        assert not names & set(manifest.metrics)

    @pytest.mark.parametrize("kind, stages", [
        ("carleman-audit", ("setup", "kernels", "samples", "output")),
        ("weights-audit", ("setup", "sweep", "output")),
        ("forward", ("setup", "march", "output")),
        ("spectrum", ("setup", "spectrum", "output")),
        ("zeta-ledger", ("setup", "ledger", "output"))])
    def test_audit_runs_report_stage_times(self, tmp_path, capsys, kind,
                                           stages):
        # each stage's wall seconds, then its CPU seconds
        stages = [f"{s}{clock}" for s in stages for clock in ("", "_cpu")]
        manifest = run(load_config(write_cfg(tmp_path, kind)),
                       out_root=tmp_path / "runs")
        assert list(manifest.timing) == stages
        main(["report", str(manifest.run_dir)])
        timed = [line.split(" = ") for line in capsys.readouterr().out
                 .splitlines() if line.startswith("timing.")]
        assert [key for key, _ in timed] == [f"timing.{s}_s" for s in stages]
        assert all(float(value) >= 0.0 for _, value in timed)
        assert not {f"{s}_s" for s in stages} & set(manifest.metrics)

    def test_forward_run_times_the_fixed_point_sweeps(self, tmp_path,
                                                      capsys):
        path = write_cfg(tmp_path, "forward", extra="""
[potential]
kind = random
amplitude = 1.0
seed = 3
max_mode = 2
""")
        path.write_text(path.read_text().replace(
            "[forward]\n", "[forward]\nfixed_point_kappa = 0.2\n"))
        manifest = run(load_config(path), out_root=tmp_path / "runs")
        keys = list(manifest.metrics)
        # the sweeps' count follows their windows: at least one per window
        assert keys[keys.index("fp_windows") + 1] == "fp_iterations"
        assert manifest.metrics["fp_iterations"] \
            >= manifest.metrics["fp_windows"] > 1
        assert list(manifest.timing) == [
            f"{s}{clock}" for s in ("setup", "march", "fixed_point", "output")
            for clock in ("", "_cpu")]
        assert all(seconds >= 0.0 for seconds in manifest.timing.values())
        main(["report", str(manifest.run_dir)])
        out = capsys.readouterr().out
        assert (f"metrics.fp_iterations = "
                f"{manifest.metrics['fp_iterations']}\n") in out

    def test_report_shows_audit_kernel_underflow(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "carleman-audit")
        out_root = tmp_path / "runs"
        main(["run", str(path), "--out-root", str(out_root)])
        capsys.readouterr()
        main(["report", str(out_root / load_config(path).config_hash)])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines()
                    if l.startswith("metrics.kernel_underflow_frac = "))
        assert 0.0 < float(line.split(" = ")[1]) < 1.0

    @pytest.mark.parametrize("factor, name", [("5", "heldout_within_5x"),
                                              ("10", "heldout_within_10x")])
    def test_heldout_assertion_names_its_factor(self, tmp_path, factor,
                                                name):
        path = edit_cfg(write_cfg(tmp_path, "carleman-audit"),
                        tmp_path / "factor.ini",
                        {("audit", "heldout_factor"): factor})
        manifest = run(load_config(path), out_root=tmp_path / "runs")
        assert [key for key in manifest.assertions
                if key.startswith("heldout")] == [name]
        rows = read_flat_report(manifest.run_dir / "manifest.txt")
        assert f"assert.{name}" in rows


class TestExport:
    @pytest.mark.parametrize("kind", ["forward", "weights-audit", "control"])
    def test_export_writes_each_snapshot_as_exact_csv(self, tmp_path, kind):
        manifest = run(load_config(write_cfg(tmp_path, kind)),
                       out_root=tmp_path / "runs")
        run_dir = manifest.run_dir
        before = set(run_dir.glob("*.csv"))
        snapshots = sorted(run_dir.glob("*.bin"))
        assert snapshots and main(["export", str(run_dir)]) == 0
        assert set(run_dir.glob("*.csv")) - before \
            == {p.with_suffix(".csv") for p in snapshots}
        for path in snapshots:
            grid, times, fields = read_field_snapshot(path)
            header, *rows = path.with_suffix(".csv").read_text().splitlines()
            assert header == ",".join(["t", "x", *fields])
            back = np.array([[float(v) for v in row.split(",")]
                             for row in rows])
            n_t, n_x = times.size, grid.n
            assert back.shape == (n_t * n_x, 2 + len(fields))
            assert back[:, 0].tobytes() == np.repeat(times, n_x).tobytes()
            assert back[:, 1].tobytes() == np.tile(grid.nodes, n_t).tobytes()
            for j, values in enumerate(fields.values()):
                assert back[:, 2 + j].tobytes() == values.ravel().tobytes()
            if path.name == "weights_field.bin":
                # phi, xi and the 22 ledger fields
                assert len(fields) == 24 and list(fields)[:2] == ["phi", "xi"]

    def test_export_without_snapshots_fails(self, tmp_path):
        assert main(["export", str(tmp_path)]) == 1
        assert main(["export", str(tmp_path / "nowhere")]) == 1


def snapshot_file(tmp_path, n_t=5, n_x=8, names=("v",)):
    """A field snapshot of seeded random fields, and what it holds."""
    rng = np.random.default_rng(4)
    grid = SpatialGrid(n_x, 3.0, x0=-1.0)
    times = np.sort(rng.uniform(0.0, 1.0, n_t))
    fields = {name: rng.standard_normal((n_t, n_x))
              * 10.0 ** rng.integers(-300, 300, (n_t, n_x)) for name in names}
    path = write_field_snapshot(tmp_path / "f.bin", grid, times, fields)
    return path, grid, times, fields


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        grid = SpatialGrid(16, 3.0, x0=-1.0)
        rng = np.random.default_rng(0)
        times = np.linspace(0, 1.0, 9)
        traj = solve_forward(grid, rng.standard_normal(16),
                             rng.standard_normal(16), times)
        path = write_field_snapshot(tmp_path / "snap.bin", grid, traj.times,
                                    {"beta": traj.beta, "beta_t": traj.beta_t})
        back_grid, back_times, back = read_field_snapshot(path)
        assert np.array_equal(back["beta"], traj.beta)
        assert np.array_equal(back["beta_t"], traj.beta_t)
        assert np.array_equal(back_times, traj.times)
        assert back_grid.circumference == grid.circumference

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a snapshot")
        with pytest.raises(ValueError):
            read_field_snapshot(path)

    def test_field_snapshot_roundtrip(self, tmp_path):
        grid = SpatialGrid(8, 3.0, x0=-1.0)
        times = np.linspace(0.1, 0.9, 5)
        vals = np.arange(40, dtype=float).reshape(5, 8)
        path = write_field_snapshot(tmp_path / "f.bin", grid, times,
                                    {"v": vals})
        g2, t2, v2 = read_field_snapshot(path)
        assert g2.n == 8 and g2.x0 == -1.0
        assert np.array_equal(t2, times) and np.array_equal(v2["v"], vals)

    def test_named_fields_roundtrip_bit_for_bit(self, tmp_path):
        names = ("zeta", "beta", "xi_t2")
        path, grid, times, fields = snapshot_file(tmp_path, names=names)
        fields["beta"][0, :2] = (-0.0, np.pi)
        path = write_field_snapshot(path, grid, times, fields)
        g2, t2, back = read_field_snapshot(path)
        assert list(back) == list(names)
        assert (g2.n, g2.circumference, g2.x0) == (grid.n, 3.0, -1.0)
        assert t2.tobytes() == times.tobytes()
        for name in names:
            assert back[name].tobytes() == fields[name].tobytes()

    @pytest.mark.parametrize("damage", ["foreign_magic", "version_1",
                                        "truncated_header", "truncated_data"])
    def test_rejects_damaged_file(self, tmp_path, damage):
        path, grid, times, fields = snapshot_file(tmp_path)
        raw = path.read_bytes()
        if damage == "foreign_magic":
            raw = b"BEAMSNAP" + raw[8:]
        elif damage == "version_1":
            # the one-block layout of version 1: no field count, no names
            raw = (FIELD_MAGIC + struct.pack("<IIIdd", 1, 5, 8, 3.0, -1.0)
                   + times.tobytes() + fields["v"].tobytes())
        elif damage == "truncated_header":
            raw = raw[:20]
        else:
            raw = raw[:-1]
        path.write_bytes(raw)
        with pytest.raises(ValueError):
            read_field_snapshot(path)

    @pytest.mark.parametrize("shape", [(5, 9), (4, 8), (40,)],
                             ids=["n_x", "n_t", "flat"])
    def test_writer_rejects_misshapen_field(self, tmp_path, shape):
        grid, times = SpatialGrid(8, 3.0, x0=-1.0), np.linspace(0, 1, 5)
        path = tmp_path / "f.bin"
        with pytest.raises(ValueError, match="'w'"):
            write_field_snapshot(path, grid, times,
                                 {"v": np.zeros((5, 8)), "w": np.zeros(shape)})
        assert not path.exists()

    def test_field_csv_roundtrip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 1.0, 7)
        x = rng.uniform(-1.0, 2.0, 5)
        beta = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300,
                                                                  (7, 5))
        beta[0, :2] = (np.pi, -0.0)
        path = write_field_csv(tmp_path / "f.csv", {
            "t": t[:, None], "x": x[None, :], "beta": beta})
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == 1 + 7 * 5
        header, *rows = raw.decode().splitlines()
        assert header == "t,x,beta"
        back = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(back[:, 0], np.repeat(t, 5))
        assert np.array_equal(back[:, 1], np.tile(x, 7))
        assert np.array_equal(back[:, 2], beta.ravel())
        assert np.signbit(back[1, 2])
        # more rows than the writer puts in one block
        n = np.arange(5000.0)
        path = write_field_csv(tmp_path / "g.csv", {"t": n, "v": -n})
        assert path.read_bytes() == ("t,v\r\n" + "".join(
            f"{i!r},{-i!r}\r\n" for i in n.tolist())).encode()

    def test_flat_report_roundtrip(self, tmp_path):
        path = write_flat_report(tmp_path / "r.txt",
                                 [("alpha", 1.5), ("s", "4")])
        entries = read_flat_report(path)
        assert entries == {"alpha": "1.5", "s": "4"}
