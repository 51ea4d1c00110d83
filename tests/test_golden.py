"""CLI reports compared byte for byte with committed golden files.

The inputs and the expected reports live in ``tests/data/golden``.  After a
deliberate change of a report, regenerate the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from cyclica.cli import dispatch

GOLDEN = Path(__file__).parent / "data" / "golden"

# report name -> CLI arguments; input files are named relative to GOLDEN
CASES = {
    "analyze_raw": ["analyze", "--input", "power_cyclic.json"],
    "analyze_tail_model": ["analyze", "--input", "tail_model.json"],
    "blocks": ["blocks", "--input", "blocks.json",
               "--model", "blocks_model.json"],
    "factorize": ["factorize", "--poly", "poly.json"],
    "multishift_power_cyclic": ["multishift", "--input", "power_cyclic.json",
                                "--power", "3"],
    "multishift_power_witness": ["multishift", "--input", "power_witness.json",
                                 "--power", "2"],
    "polydisc": ["polydisc", "--input", "polydisc.json", "--check-c1c2",
                 "--analyze"],
    "spectrum": ["spectrum", "--input", "geometric2.json", "--lacunarity",
                 "--diff-mult", "--residues", "5"],
    "unions_construct": ["unions", "construct",
                         "--spectra", "geometric2.json,geometric3.json"],
}


def _resolve(arg):
    if not arg.endswith(".json"):
        return arg
    return ",".join(str(GOLDEN / name) for name in arg.split(","))


def _run(name, report):
    argv = [_resolve(a) for a in CASES[name]] + ["--report", str(report)]
    assert dispatch(argv) == 0
    return Path(report).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("CYCLICA_SEED", raising=False)
    got = _run(name, tmp_path / "report.json")
    assert got == (GOLDEN / f"{name}.report.json").read_bytes()


if __name__ == "__main__":
    import os

    os.environ.pop("CYCLICA_SEED", None)
    for name in CASES:
        _run(name, GOLDEN / f"{name}.report.json")
