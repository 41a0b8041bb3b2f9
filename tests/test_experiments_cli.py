import numpy as np
import pytest

from beamctrl.cli import main
from beamctrl.config import ConfigError, load_config
from beamctrl.dynamics import BeamTrajectory, solve_forward
from beamctrl.experiments import EXPECTED_FILES, emit_plot_data, run
from beamctrl.io import (read_flat_report, read_snapshot, write_field_csv,
                         write_flat_report, write_snapshot)
from beamctrl.torus import SpatialGrid

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

    def test_zeta_parsed_as_fraction(self, tmp_path):
        path = write_cfg(tmp_path, "zeta-ledger",
                         extra="\n[carleman]\nzeta = 4/3\n")
        cfg = load_config(path)
        from fractions import Fraction
        assert cfg["carleman"]["zeta"] == Fraction(4, 3)


class TestRuns:
    @pytest.mark.parametrize("kind", ["spectrum", "zeta-ledger", "forward",
                                      "weights-audit", "carleman-audit",
                                      "control"])
    def test_schema_completeness(self, tmp_path, kind):
        cfg = load_config(write_cfg(tmp_path, kind))
        manifest = run(cfg, out_root=tmp_path / "runs")
        files = emit_plot_data(manifest)
        assert {f.name for f in files} == set(EXPECTED_FILES[kind])
        assert (manifest.run_dir / "manifest.txt").exists()

    @pytest.mark.parametrize("kind", ["forward", "control", "carleman-audit"])
    def test_determinism_bit_for_bit(self, tmp_path, kind):
        cfg = load_config(write_cfg(tmp_path, kind))
        m1 = run(cfg, out_root=tmp_path / "r1")
        m2 = run(cfg, out_root=tmp_path / "r2")
        assert m1.metrics == m2.metrics
        assert m1.assertions == m2.assertions

    def test_weights_audit_rows_per_inequality(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "weights-audit"))
        manifest = run(cfg, out_root=tmp_path / "runs")
        bounds = [p for p in manifest.run_dir.iterdir()
                  if p.name.startswith("bounds_lambda_")]
        assert bounds
        lines = bounds[0].read_text().strip().splitlines()
        # 22 derivative inequalities + 4 positivity floors + header
        assert len(lines) == 27

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
        for key in ("cg_iterations", "eps", "norm_estimate",
                    "w1_underflow_frac", "w2_underflow_frac"):
            assert f"metrics.{key} = " in out


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        grid = SpatialGrid(16, 3.0, x0=-1.0)
        rng = np.random.default_rng(0)
        times = np.linspace(0, 1.0, 9)
        traj = solve_forward(grid, rng.standard_normal(16),
                             rng.standard_normal(16), times)
        path = write_snapshot(tmp_path / "snap.bin", traj)
        back = read_snapshot(path)
        assert np.array_equal(back.beta, traj.beta)
        assert np.array_equal(back.beta_t, traj.beta_t)
        assert np.array_equal(back.times, traj.times)
        assert back.grid.circumference == grid.circumference

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a snapshot")
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_field_snapshot_roundtrip(self, tmp_path):
        from beamctrl.io import read_field_snapshot, write_field_snapshot
        grid = SpatialGrid(8, 3.0, x0=-1.0)
        times = np.linspace(0.1, 0.9, 5)
        vals = np.arange(40, dtype=float).reshape(5, 8)
        path = write_field_snapshot(tmp_path / "f.bin", grid, times, vals)
        g2, t2, v2 = read_field_snapshot(path)
        assert g2.n == 8 and g2.x0 == -1.0
        assert np.array_equal(t2, times) and np.array_equal(v2, vals)

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
