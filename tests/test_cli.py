import json
import os
import subprocess
import sys

import numpy as np
import pytest

import trmod

from trmod.algebra import AlgebraSpec, build_algebra
from trmod.cli import certificate_to_dict, main
from trmod import linalg
from trmod.modmat import PresentationMatrix, ring_matmul
from trmod.totref import check_totally_reflexive


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def matrix_file(tmp_path):
    def make(entries, name="m.json"):
        rows, cols = len(entries), len(entries[0]) if entries else 0
        return write_json(tmp_path / name,
                          {"rows": rows, "cols": cols, "entries": entries})
    return make


def run(capsys, *argv):
    code = main(["--json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_ring_check(capsys):
    code, rep = run(capsys, "ring", "check", "S:2")
    assert code == 0
    assert rep["result"]["hilbert_series"] == [1, 3, 2]
    assert rep["result"]["admits_nontrivial_tr"] is True
    assert rep["command"] == "ring"
    assert "timing_seconds" in rep


def test_ring_from_file(capsys, tmp_path):
    ring = write_json(tmp_path / "ring.json", {
        "characteristic": 3,
        "variables": ["x", "y", "z"],
        "relations": ["x^2", "y^2", "z^2", "y*z"],
    })
    code, rep = run(capsys, "ring", "check", ring)
    assert code == 0
    assert rep["result"]["length"] == 6


def test_ring_invalid_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, rep = run(capsys, "ring", "check", str(bad))
    assert code == 3
    assert "error" in rep["result"]


def test_ring_missing_file(capsys, tmp_path):
    code, rep = run(capsys, "ring", "check", "/nonexistent/ring.json")
    assert code == 3
    code, rep = run(capsys, "ring", "check", str(tmp_path))  # a directory
    assert code == 3


def test_gorenstein_warning(capsys, tmp_path):
    ring = write_json(tmp_path / "gor.json", {
        "characteristic": 2,
        "variables": ["x", "y"],
        "relations": ["x^2", "y^2"],
    })
    code = main(["--json", "ring", "check", ring])
    captured = capsys.readouterr()
    assert "Gorenstein" in captured.err
    code = main(["--json", "--allow-gorenstein", "ring", "check", ring])
    captured = capsys.readouterr()
    assert "Gorenstein" not in captured.err


def test_classify_gorenstein_warns_once(tmp_path):
    # k[x, y]/(x^2, y^2) over F_3: one warning on stderr, none when the
    # flag silences it; the library's own warning never reaches it
    ring = write_json(tmp_path / "gor.json", {
        "characteristic": 3,
        "variables": ["x", "y"],
        "relations": ["x^2", "y^2"],
    })
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trmod.__file__)))
    for flags, warnings in (([], 1), (["--allow-gorenstein"], 0)):
        proc = subprocess.run(
            [sys.executable, "-m", "trmod.cli", *flags, "--json", "classify", ring, "--cyclic"],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["cyclic"]
        assert proc.stderr.count("Gorenstein") == warnings


def test_ring_beyond_int64_bound_is_invalid(capsys):
    code, rep = run(capsys, "ring", "check", "S:2147483647")
    assert code == 3
    assert "must be below" in rep["result"]["error"]


def test_ezd(capsys):
    code, rep = run(capsys, "ezd", "S:2")
    assert code == 0
    assert rep["result"]["count"] == 4
    assert rep["result"]["pairs"][0] == {"element": "x", "partner": "x"}


def test_tr_certified(capsys, matrix_file):
    m = matrix_file([["x", "z"], ["y", "x"]])
    code, rep = run(capsys, "tr", "S:2", m)
    assert code == 0
    res = rep["result"]
    assert res["verdict"] == "certified"
    assert "complete_resolution" in res
    positions = sorted(int(k) for k in res["complete_resolution"])
    assert positions == list(range(-3, 4))


@pytest.mark.parametrize("rows, pruned", [
    ([["x", "0"], ["0", "0"]], [["x"]]),
    ([["x", "z", "0"], ["0", "x", "0"], ["0", "0", "0"]], [["x", "z"], ["0", "x"]]),
])
def test_tr_pruned_input_prints_resolution(capsys, matrix_file, rows, pruned):
    # the resolution starts at the pruned presentation, not at the input
    code, rep = run(capsys, "tr", "S:2", matrix_file(rows))
    assert code == 0
    res = rep["result"]["complete_resolution"]
    assert sorted(int(k) for k in res) == list(range(-3, 4))
    assert res["1"]["entries"] == pruned


@pytest.mark.parametrize("window", ["0", "-2"])
def test_tr_window_below_one_is_invalid(capsys, matrix_file, window):
    code, rep = run(capsys, "tr", "S:2", matrix_file([["x"]]), "--window", window)
    assert code == 3
    assert "window" in rep["result"]["error"]


def test_tr_returns_library_certificate(capsys, matrix_file):
    rows = [["x", "z"], ["y", "x"]]
    code, rep = run(capsys, "tr", "S:2", matrix_file(rows))
    A = build_algebra(AlgebraSpec.canonical_s(2))
    cert = check_totally_reflexive(PresentationMatrix.from_exprs(A, rows))
    assert (cert.preperiod, cert.period) == (1, 2)
    res = rep["result"]
    res.pop("complete_resolution")
    assert res == json.loads(json.dumps(certificate_to_dict(cert)))


def test_tr_refuted(capsys, matrix_file):
    m = matrix_file([["x*y"], ["x*z"]])
    code, rep = run(capsys, "tr", "S:2", m)
    assert code == 1
    assert rep["result"]["verdict"] == "refuted"
    assert rep["result"]["witness"]["kind"] == "k_summand"


def test_ext_with_gamma(capsys, matrix_file):
    n = matrix_file([["x"]], "n.json")
    m = matrix_file([["x"]], "m2.json")
    code, rep = run(capsys, "ext", "S:3", n, m)
    assert code == 0
    assert rep["result"]["rank"] == 3
    assert rep["result"]["gamma"] == 2


def test_ext_computes_ext1_once(capsys, matrix_file, monkeypatch):
    # the command computes Ext^1 once; gamma builds no Ext space
    from trmod import cli, ext
    calls = []
    ext1 = ext.ext1
    def spy(N, M):
        calls.append((N, M))
        return ext1(N, M)
    monkeypatch.setattr(cli, "ext1", spy)
    monkeypatch.setattr(ext, "ext1", spy)
    n = matrix_file([["x + y"]], "n.json")
    m = matrix_file([["x"]], "m2.json")
    code, rep = run(capsys, "ext", "S:3", n, m)
    assert code == 0
    assert (rep["result"]["rank"], rep["result"]["gamma"]) == (1, 1)
    assert len(calls) == 1


def test_ext_gamma_none_for_non_cyclic(capsys, matrix_file):
    n = matrix_file([["x", "y"], ["0", "x"]], "n.json")
    m = matrix_file([["x"]], "m2.json")
    code, rep = run(capsys, "ext", "S:3", n, m)
    assert code == 0
    assert rep["result"]["gamma"] is None


def test_pushout(capsys):
    code, rep = run(capsys, "pushout", "S:2",
                    "--u", "x", "--v", "x", "--alpha", "y")
    assert code == 0
    assert rep["result"]["matrix"]["entries"] == [["x", "y"], ["0", "x"]]
    assert rep["result"]["length"] == 6


def test_pushout_with_unit_alpha_is_minimal(capsys, tmp_path):
    # alpha = 1 splits off nothing: [[x, 1], [0, x]] presents R itself,
    # reported as its minimal 1 x 0 presentation, which tr certifies
    code, rep = run(capsys, "pushout", "S:2",
                    "--u", "x", "--v", "x", "--alpha", "1")
    assert code == 0
    assert rep["result"]["matrix"] == {"rows": 1, "cols": 0, "entries": [[]]}
    assert rep["result"]["length"] == 6
    free = write_json(tmp_path / "free.json", rep["result"]["matrix"])
    code, rep = run(capsys, "tr", "S:2", free)
    assert code == 0 and rep["result"]["verdict"] == "certified"


def test_pushout_non_cocycle(capsys):
    code, rep = run(capsys, "pushout", "S:3",
                    "--u", "x + y", "--v", "x + y", "--alpha", "1")
    assert code == 3
    assert "cocycle" in rep["result"]["error"]


def test_filtrate_ut_input(capsys, matrix_file):
    m = matrix_file([["x", "y"], ["0", "x + y"]])
    code, rep = run(capsys, "filtrate", "S:2", m)
    assert code == 0
    assert rep["result"]["filtration"]["lengths"] == [3, 6]
    assert rep["result"]["filtration"]["quotients"] == ["x", "x + y"]


def test_filtrate_no_ut_form(capsys, matrix_file):
    m = matrix_file([["x", "z"], ["y", "x"]])
    code, rep = run(capsys, "filtrate", "S:2", m)
    assert code == 1
    assert rep["result"]["ut_form"] is None


def test_filtrate_finds_ut_form(capsys, matrix_file):
    m = matrix_file([["0", "x + y"], ["x", "y"]])
    code, rep = run(capsys, "filtrate", "S:2", m)
    assert code == 0
    assert rep["result"]["ut_form"] is not None
    assert set(rep["result"]["witness"]) == {"P", "Q"}


def test_filtrate_witness_replays(capsys, matrix_file):
    # P * M * Q, rebuilt from the reported expressions alone, is ut_form;
    # the input is a UT matrix disguised by P, Q with degree-1 parts
    rows = [["2*y + x*y + x*z", "x + x*y"], ["x + y + 2*x*z", "x + 2*x*y"]]
    code, rep = run(capsys, "filtrate", "S:3", matrix_file(rows))
    assert code == 0
    res = rep["result"]
    A = build_algebra(AlgebraSpec.canonical_s(3))
    P, Q, ut = (PresentationMatrix.from_exprs(A, d["entries"])
                for d in (res["witness"]["P"], res["witness"]["Q"], res["ut_form"]))
    M = PresentationMatrix.from_exprs(A, rows)
    assert ut.is_upper_triangular
    assert np.array_equal(ring_matmul(A, ring_matmul(A, P.entries, M.entries), Q.entries),
                          ut.entries)
    assert P.entries[:, :, 1:].any()
    assert linalg.det_nonzero(P.entries[:, :, 0], 3) and linalg.det_nonzero(Q.entries[:, :, 0], 3)


def test_filtrate_accepts_ut_input_past_the_caps(capsys, matrix_file):
    # the search budget does not apply to a UT input
    m = matrix_file([["x", "y", "0", "0"], ["0", "x", "z", "0"],
                     ["0", "0", "x", "y"], ["0", "0", "0", "x"]])
    code, rep = run(capsys, "--budget", "0", "filtrate", "S:2", m)
    assert code == 0
    assert rep["result"]["filtration"]["lengths"] == [3, 6, 9, 12]
    m = matrix_file([["x", "y", "0"], ["0", "x + y", "z"], ["0", "0", "x + 2*z"]])
    code, rep = run(capsys, "filtrate", "S:5", m)
    assert code == 0
    assert rep["result"]["filtration"]["lengths"] == [3, 6, 9]


def test_filtrate_decides_2x2_over_large_prime(capsys, matrix_file):
    # 102^2 flag pairs over S:101, within the default budget
    code, rep = run(capsys, "filtrate", "S:101", matrix_file([["x", "z"], ["y", "x"]]))
    assert code == 1 and rep["result"]["ut_form"] is None


def test_filtrate_refuses_large_prime(capsys, matrix_file):
    # over S:5 a 2x2 search scans 6^2 flag pairs and finds no UT form; a
    # budget below that, or a 4x4 input (29016^2 pairs), is refused
    m = matrix_file([["x", "z"], ["y", "x"]])
    code, rep = run(capsys, "filtrate", "S:5", m)
    assert code == 1 and rep["result"]["ut_form"] is None
    code, rep = run(capsys, "--budget", "35", "filtrate", "S:5", m)
    assert code == 2 and "flag pairs" in rep["result"]["error"]
    assert (rep["result"]["required"], rep["result"]["budget"]) == (36, 35)
    assert set(rep["inputs"]) == {"allow_gorenstein", "budget", "command",
                                  "ring", "matrix"}
    m = matrix_file([["x", "0", "0", "0"], ["y", "x", "0", "0"],
                     ["0", "0", "x", "0"], ["0", "0", "0", "x"]])
    code, rep = run(capsys, "filtrate", "S:5", m)
    assert code == 2
    assert rep["result"]["required"] == 29016 ** 2


def test_classify(capsys):
    code, rep = run(capsys, "classify", "S:2")
    assert code == 0
    res = rep["result"]
    assert res["class_count"] == 24
    assert res["swap_check"]["all_match_expected"] is True
    assert "u \\ t" in res["grid"]


def test_classify_cyclic(capsys):
    code, rep = run(capsys, "classify", "S:2", "--cyclic")
    assert code == 0
    assert len(rep["result"]["cyclic"]) == 4


def test_mb(capsys):
    code, rep = run(capsys, "mb", "S:2", "--b", "4",
                    "--s", "x", "--t", "x", "--u", "y", "--v", "z")
    assert code == 0
    assert rep["result"]["matrix"]["entries"] == [
        ["x", "y", "0", "0"],
        ["0", "x", "z", "0"],
        ["0", "0", "x", "y"],
        ["0", "0", "0", "x"],
    ]
    assert rep["result"]["preconditions"]["satisfied"] is True


def test_equiv(capsys, matrix_file):
    m1 = matrix_file([["x", "z"], ["0", "x + y"]], "m1.json")
    m2 = matrix_file([["x", "z + x + y"], ["0", "x + y"]], "m2.json")
    code, rep = run(capsys, "equiv", "S:2", m1, m2)
    assert code == 0
    assert rep["result"]["equivalent"] is True
    m3 = matrix_file([["x", "0"], ["0", "x + y"]], "m3.json")
    code, rep = run(capsys, "equiv", "S:2", m1, m3)
    assert code == 1
    assert rep["result"]["equivalent"] is False


def test_equiv_budget_exceeded(capsys, matrix_file):
    m1 = matrix_file([["x", "z"], ["0", "x + y"]], "m1.json")
    code, rep = run(capsys, "--budget", "1", "equiv", "S:2", m1, m1)
    assert code == 2
    assert "budget" in rep["result"]["error"]


def test_malformed_matrix(capsys, tmp_path):
    bad = write_json(tmp_path / "bad.json",
                     {"rows": 2, "cols": 2, "entries": [["x"]]})
    code, rep = run(capsys, "tr", "S:2", bad)
    assert code == 3


def test_malformed_entry_is_invalid_input(capsys, matrix_file):
    for entry in ("x*", "x* + y", "2 3", "x^"):
        code, _ = run(capsys, "tr", "S:2", matrix_file([["x", entry], ["0", "x"]]))
        assert code == 3


def test_human_output(capsys):
    code = main(["ezd", "S:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "count: 4" in out


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def crash(A):
        raise RuntimeError("boom")

    monkeypatch.setattr("trmod.cli.enumerate_ezd", crash)
    code, rep = run(capsys, "ezd", "S:2")
    assert code == 4
    assert code not in (0, 1, 2, 3)
    assert rep["result"]["error"] == "internal error: RuntimeError: boom"
