"""CLI reports and CSV files compared byte for byte with committed goldens.

The inputs and the expected outputs live in ``tests/data/golden``.  After a
deliberate change of a report, regenerate the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from cyclica.cli import dispatch

GOLDEN = Path(__file__).parent / "data" / "golden"
CSV = "<csv>"  # stands for the path of the CSV file a case writes
OUT = "<out>"  # stands for the path of the JSON file a case writes by --out
SUFFIX = {CSV: ".csv", OUT: ".out.json"}

# case name -> CLI arguments; input files are named relative to GOLDEN.  A
# case writes <name>.report.json, except construct, which writes CSV only,
# plus <name>.csv where its arguments name CSV and <name>.out.json where
# they name OUT.
CASES = {
    "analyze_raw": ["analyze", "--input", "power_cyclic.json"],
    "analyze_tail_model": ["analyze", "--input", "tail_model.json"],
    "construct_crc": ["construct", "crc", "--count", "6", "--dim", "3",
                      "--out", CSV],
    "construct_crt": ["construct", "crt", "--count", "10", "--set", "2,3",
                      "--out", CSV],
    "construct_factorial": ["construct", "factorial", "--count", "12",
                            "--mod", "97", "--out", CSV],
    "blocks": ["blocks", "--input", "blocks.json",
               "--model", "blocks_model.json"],
    "factorize": ["factorize", "--poly", "poly.json"],
    "factorize_c4": ["factorize", "--poly", "poly_c4.json", "--out", OUT],
    "multishift_power_cyclic": ["multishift", "--input", "power_cyclic.json",
                                "--power", "3"],
    "multishift_power_witness": ["multishift", "--input", "power_witness.json",
                                 "--power", "2"],
    "orbit": ["orbit", "--input", "power_cyclic.json", "--target",
              "orbit_target.json", "--max-shift", "200", "--csv", CSV],
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


def _run(name, out):
    """Run case ``name`` with its outputs in directory ``out``; return the
    names of the files it writes."""
    args = CASES[name]
    files = [f"{name}{SUFFIX[a]}" for a in args if a in SUFFIX]
    argv = [str(out / f"{name}{SUFFIX[a]}") if a in SUFFIX else _resolve(a)
            for a in args]
    if args[0] != "construct":
        files.append(f"{name}.report.json")
        argv += ["--report", str(out / files[-1])]
    assert dispatch(argv) == 0
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("CYCLICA_SEED", raising=False)
    for file in _run(name, tmp_path):
        got = (tmp_path / file).read_bytes()
        assert got == (GOLDEN / file).read_bytes(), file


if __name__ == "__main__":
    import os

    os.environ.pop("CYCLICA_SEED", None)
    for name in CASES:
        _run(name, GOLDEN)
