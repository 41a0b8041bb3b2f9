import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))   # the scripts import `checkout`
import equivalence  # noqa: E402

DOMAIN = "[domain]\nd = 1.0\nL = 1.0\nT = 4.0\n"
TINY = {
    "spectrum": f"[experiment]\nkind = spectrum\n{DOMAIN}"
                "[grid]\nn_modes = 8\n",
    "zeta-ledger": f"[experiment]\nkind = zeta-ledger\n{DOMAIN}",
}


def test_equivalence_smoke():
    # this checkout as its own parent: two tiny runs per side, equal but
    # for their wall and stage times, which are not compared
    result = equivalence.compare(ROOT, list(TINY.items()))
    assert result["configs"] == 2 and result["differences"] == []
    # spectrum.csv, the ledger's two files and their manifest rows, no error
    assert result["values"] > 2 * 8
    # both sides are this checkout, so both count its lines as wc -l does
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src" / "beamctrl").glob("*.py"))
    assert result["src_lines"] == {"change": lines, "parent": lines}


def test_differences_name_each_value():
    change = {"a": {"manifest.metrics.x": "1.0", "sha256.f.csv": "00"},
              "b": {"error": "OverflowError: inf"}}
    parent = {"a": {"manifest.metrics.x": "1.0", "sha256.f.csv": "01"},
              "c": {"manifest.kind": "spectrum"}}
    assert equivalence.differences(change, parent) == [
        {"config": "a", "value": "sha256.f.csv", "change": "00",
         "parent": "01"},
        {"config": "b", "value": "error", "change": "OverflowError: inf",
         "parent": None},
        {"config": "c", "value": "manifest.kind", "change": None,
         "parent": "spectrum"}]


def test_compares_the_pool_and_shipped_configs():
    names = [name for name, _ in
             equivalence.shipped_and_pool_configs()]
    assert len(names) == len(set(names)) == 94
    assert sum(name.startswith("configs/") for name in names) == 6
