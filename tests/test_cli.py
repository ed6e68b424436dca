import json
import os
import subprocess
import sys
from pathlib import Path

from tropfw.cli import main

SRC = Path(__file__).parent.parent / "src"

RUNNING = '[["0","0","0"],["1","-1","0"]]'


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fw_weighted_json(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(RUNNING)
    code, out, _ = _run(capsys, "fw", str(pts), "--weights", "1/3,2/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/3"
    assert payload["graph"]["edges"] == [[1, 1], [2, 2], [2, 3]]
    assert payload["vertices"] == [["1/3", "-2/3", "1/3"], ["1", "-1", "0"]]


def test_fw_uniform_central_cell(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(RUNNING)
    code, out, _ = _run(capsys, "fw", str(pts), "--weights", "uniform")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 0
    assert payload["witness"] == ["1/3", "-2/3", "1/3"]
    assert payload["graph"]["edges"] == [[1, 1], [1, 3], [2, 2], [2, 3]]


def test_fw_method_both_agrees(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(RUNNING)
    code, out, _ = _run(capsys, "fw", str(pts), "--weights", "1/3,2/3",
                        "--method", "both")
    assert code == 0
    assert json.loads(out)["methods_agree"] is True


def test_fw_bad_weights_exit_code(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(RUNNING)
    code, _, err = _run(capsys, "fw", str(pts), "--weights", "0,1")
    assert code == 3
    assert "positive" in err


def test_fw_wrong_weight_count(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(RUNNING)
    code, _, _ = _run(capsys, "fw", str(pts), "--weights", "1/2,1/4,1/4")
    assert code == 3


def test_parse_error_exit_code(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text("not json")
    code, _, err = _run(capsys, "fw", str(pts))
    assert code == 2
    assert "line" in err


def test_float_coordinates_rejected(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text("[[0.25, 0, 0]]")
    code, _, _ = _run(capsys, "fw", str(pts))
    assert code == 2


def test_cells_census_and_tsv(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(RUNNING)
    out_file = tmp_path / "cells.json"
    code, _, _ = _run(capsys, "cells", str(pts), "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload) == 5
    assert sorted(c["dim"] for c in payload) == [0, 0, 0, 1, 1]
    tsv = (tmp_path / "cells.json.tsv").read_text()
    assert tsv.splitlines()[0] == "cell\tdim\tvertex\tcoords"
    assert len(tsv.splitlines()) == 8  # header + 7 vertex rows


def test_cells_single_point(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text('[["2","-1","-1"]]')
    code, out, _ = _run(capsys, "cells", str(pts))
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["vertices"] == [["2", "-1", "-1"]]


def test_cells_scale_guard_exit(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    rows = [["0"] * 4 for _ in range(6)]
    rows = [[str(i + j) for j in range(4)] for i in range(6)]
    pts.write_text(json.dumps(rows))
    code, _, _ = _run(capsys, "cells", str(pts))
    assert code == 5


def test_inverse_round_trip(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(RUNNING)
    cell = tmp_path / "cell.json"
    cell.write_text('{"m":2,"n":3,"edges":[[1,1],[2,2],[2,3]]}')
    code, out, _ = _run(capsys, "inverse", str(pts), "--cell", str(cell))
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == ["1/3", "2/3"]
    assert payload["verification"]["graph"]["edges"] == [[1, 1], [2, 2], [2, 3]]


def test_inverse_unrealizable_exit(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(RUNNING)
    cell = tmp_path / "cell.json"
    # an unbounded cell graph: right node 1 uncovered
    cell.write_text('{"m":2,"n":3,"edges":[[1,1],[2,1]]}')
    code, _, _ = _run(capsys, "inverse", str(pts), "--cell", str(cell))
    assert code in (3, 4)


def test_consensus_cli(tmp_path, capsys):
    trees = tmp_path / "trees.nwk"
    trees.write_text("((1:1,2:1):1,3:2);\n((1:2,2:2):3,3:5);\n")
    code, out, _ = _run(capsys, "consensus", str(trees), "--weights", "uniform")
    assert code == 0
    assert out.strip().endswith(";")
    assert out.startswith("((1:")


def test_consensus_of_copies_cli(tmp_path, capsys):
    trees = tmp_path / "trees.nwk"
    trees.write_text("((1:1,2:1):1,3:2);\n((1:1,2:1):1,3:2);\n")
    code, out, _ = _run(capsys, "consensus", str(trees))
    assert code == 0
    assert out.strip() == "((1:1,2:1):1,3:2);"


def test_consensus_mismatched_leaves_exit(tmp_path, capsys):
    trees = tmp_path / "trees.nwk"
    trees.write_text("((1:1,2:1):1,3:2);\n(1:1,2:1);\n")
    code, _, _ = _run(capsys, "consensus", str(trees))
    assert code == 3


def test_determinism_byte_identical(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(RUNNING)
    _, out1, _ = _run(capsys, "fw", str(pts), "--weights", "1/3,2/3")
    _, out2, _ = _run(capsys, "fw", str(pts), "--weights", "1/3,2/3")
    assert out1 == out2


def test_selftest_runs(capsys):
    code, out, _ = _run(capsys, "selftest", "--seed", "1", "--trials", "3")
    assert code == 0
    assert "selftest ok: 3 trials" in out


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_selftest_fails_under_optimize_flag():
    # Invariants are checks that raise, not asserts that -O removes: with
    # solve_fw reporting the optimum + 1, selftest must fail with exit 6.
    script = """
import dataclasses, sys
import tropfw.cli as cli
real = cli.solve_fw
def wrong(V, w):
    res = real(V, w)
    return dataclasses.replace(res, optimal_value=res.optimal_value + 1)
cli.solve_fw = wrong
sys.exit(cli.main(["selftest", "--trials", "3"]))
"""
    proc = _python("-O", "-c", script)
    assert proc.returncode == 6, proc.stderr
    assert "selftest ok" not in proc.stdout
    assert "internal error" in proc.stderr


def test_import_loads_only_stdlib():
    script = """
import sys
before = set(sys.modules)
import tropfw
print("\\n".join(sorted(set(sys.modules) - before)))
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "tropfw.linalg" in loaded
    third_party = [
        name for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "tropfw"
    ]
    assert third_party == []
