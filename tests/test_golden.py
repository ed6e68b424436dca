"""Golden CLI corpus: stdout bytes and exit codes must not change.

Each case runs ``python -m tropfw.cli`` in ``tests/golden`` on the inputs
committed there and compares its stdout (and any ``--out`` files) byte for
byte with ``tests/golden/expected``.  A refactor that claims to keep
behaviour must leave every case passing.  To record a deliberate change
of output, run ``PYTHONPATH=src python -m tests.test_golden`` from the
repository root and commit the rewritten expected files.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
SRC = Path(__file__).parent.parent / "src"

# name -> argv; "{out}" is replaced by a scratch directory for --out files
CASES = {
    "fw_lp_weighted": ["fw", "running.json", "--weights", "1/3,2/3"],
    "fw_lp_uniform": ["fw", "running.json"],
    "fw_transport": ["fw", "rational4.json", "--weights", "1/2,1/4,1/8,1/8",
                     "--method", "transport"],
    "fw_both": ["fw", "rational4.json", "--weights", "1/2,1/4,1/8,1/8",
                "--method", "both"],
    "fw_both_uniform": ["fw", "rational4.json", "--method", "both"],
    "cells_json": ["cells", "tied3.json"],
    "cells_tsv": ["cells", "rational4.json", "--format", "tsv"],
    "cells_out": ["cells", "tied3.json", "--out", "{out}/cells.json"],
    "inverse_cycle": ["inverse", "tied3.json", "--cell", "cycle_cell.json"],
    "inverse_plane": ["inverse", "tied3.json", "--cell", "plane_cell.json"],
    "inverse_complete": ["inverse", "tied3.json", "--cell", "complete_cell.json"],
    "consensus_input_mean": ["consensus", "trees.nwk", "--weights",
                             "1/2,1/3,1/6"],
    "consensus_zero_sum": ["consensus", "trees.nwk", "--weights",
                           "1/2,1/3,1/6", "--anchor", "zero-sum"],
}


def run_case(name, out_dir):
    """(exit code, {file name: bytes}) of one case; stdout is "stdout"."""
    argv = [a.replace("{out}", str(out_dir)) for a in CASES[name]]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "tropfw.cli", *argv],
                          cwd=GOLDEN, env=env, capture_output=True,
                          timeout=120)
    files = {"stdout": proc.stdout}
    for path in sorted(Path(out_dir).iterdir()):
        files[path.name] = path.read_bytes()
    return proc.returncode, files


def _exit_codes():
    return json.loads((EXPECTED / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path):
    code, files = run_case(name, tmp_path)
    assert code == _exit_codes()[name]
    expected = sorted(EXPECTED.glob(f"{name}.*"))
    assert sorted(f"{name}.{k}" for k in files) == [p.name for p in expected]
    for path in expected:
        assert files[path.name[len(name) + 1:]] == path.read_bytes(), path.name


def _regenerate():
    import tempfile

    codes = {}
    for path in EXPECTED.glob("*"):
        path.unlink()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            codes[name], files = run_case(name, tmp)
        for key, data in files.items():
            (EXPECTED / f"{name}.{key}").write_bytes(data)
    (EXPECTED / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
