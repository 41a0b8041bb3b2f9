import ast
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))   # the scripts import `checkout`
import checkout  # noqa: E402


def test_two_loads_of_one_checkout_are_separate_packages():
    before = sys.modules.get("beamctrl")
    a, b = (checkout.load_beamctrl(ROOT, "dynamics", "torus")
            for _ in range(2))
    assert a.__name__ != b.__name__
    assert a.dynamics is not b.dynamics
    assert a.dynamics._stage_table is not b.dynamics._stage_table
    # one march with a potential on each side fills each side's own cache
    results = []
    for side in (a, b):
        grid = side.torus.SpatialGrid(16, 2.0, x0=-1.0)
        rng = np.random.default_rng(0)
        times = np.arange(9) / 64
        pot = np.cos(grid.kappa[1] * grid.nodes)[None, :] \
            * np.cos(times)[:, None]
        beta0, beta1 = rng.standard_normal((2, grid.n))
        results.append(side.dynamics.solve_forward(grid, beta0, beta1,
                                                    times, a=pot))
        assert side.dynamics._stage_table.cache_info().currsize == 1
    assert type(results[0]) is not type(results[1])
    assert np.array_equal(results[0].beta, results[1].beta)
    assert np.array_equal(results[0].beta_t, results[1].beta_t)
    assert sys.modules.get("beamctrl") is before


def test_bench_imports_only_the_standard_library_and_numpy():
    own = {path.stem for path in BENCH.glob("*.py")}
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names | own | {"numpy"}, \
                    (path.name, name)
