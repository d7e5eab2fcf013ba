import functools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from trmod import linalg
from trmod.algebra import AlgebraSpec, build_algebra, enumerate_ezd, is_exact_zero_divisor
from trmod.errors import BudgetExceededError, ValidationError
from trmod.modmat import PresentationMatrix, coker_length, prune_presentation, syzygy
from trmod.totref import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    _reversed_transpose,
    check_totally_reflexive,
    check_ut_tr,
    complete_resolution,
    verify_periodic_window,
)


@pytest.fixture(scope="module")
def S2():
    return build_algebra(AlgebraSpec.canonical_s(2))


@pytest.fixture(scope="module")
def S3():
    return build_algebra(AlgebraSpec.canonical_s(3))


def M(A, rows):
    return PresentationMatrix.from_exprs(A, rows)


def test_certify_cyclic_period_one(S2):
    cert = check_totally_reflexive(M(S2, [["x"]]))
    assert cert.certified
    assert cert.preperiod == 0 and cert.period == 1
    assert cert.window[0] == M(S2, [["x"]])
    assert verify_periodic_window(cert.window)


def test_certify_two_by_two(S2):
    mat = M(S2, [["x", "z"], ["y", "x"]])
    cert = check_totally_reflexive(mat)
    assert cert.certified
    assert cert.period in (1, 2)
    assert verify_periodic_window(cert.window)
    assert coker_length(mat) == 6


def test_certify_two_by_two_f3(S3):
    mat = M(S3, [["x", "z"], ["y", "x"]])
    cert = check_totally_reflexive(mat)
    assert cert.certified
    assert verify_periodic_window(cert.window)


def test_refute_k_summand(S2):
    cert = check_totally_reflexive(M(S2, [["x*y"], ["x*z"]]))
    assert cert.verdict == REFUTED
    assert cert.witness["kind"] == "k_summand"
    assert cert.depth == 1


def test_refute_non_square(S2):
    cert = check_totally_reflexive(M(S2, [["x", "y"]]))
    assert cert.verdict == REFUTED
    assert cert.witness["kind"] == "non_square"


def test_refute_non_ezd_diagonal(S2):
    cert = check_totally_reflexive(M(S2, [["y"]]))
    assert cert.verdict == REFUTED


def test_refuted_inputs_never_certify_deeper(S2):
    for depth in (2, 8):
        cert = check_totally_reflexive(M(S2, [["x*y"], ["x*z"]]), depth=depth)
        assert cert.verdict == REFUTED


def test_free_module_trivially_certified(S2):
    cert = check_totally_reflexive(M(S2, [["0"]]))
    assert cert.certified
    assert any("free" in line for line in cert.log)


def test_pruned_presentation_certifies(S2):
    # coker [[0, x], [0, 0]] = R/(x) + R: redundant column and free row
    cert = check_totally_reflexive(M(S2, [["0", "x"], ["0", "0"]]))
    assert cert.certified
    assert any("pruned" in line for line in cert.log)


@pytest.mark.xfail(strict=True, reason="prune_presentation misses free summands "
                   "hidden by row operations")
@pytest.mark.parametrize("rows", [[["x"], ["x"]], [["x", "y"], ["0", "x"], ["x", "y"]]])
def test_hidden_free_summand_certifies(S2, rows):
    # each cokernel is a TR module + R (row 2 - row 1, row 3 - row 1):
    # [[x], [x]] presents R/(x) + R, and the other coker [[x, y], [0, x]]
    # + R; the certifier refutes both as non-square
    assert check_totally_reflexive(M(S2, rows)).certified


def test_depth_validation(S2):
    with pytest.raises(ValidationError):
        check_totally_reflexive(M(S2, [["x"]]), depth=0)


def test_check_ut_tr(S2):
    ok, evidence = check_ut_tr(M(S2, [["x", "y"], ["0", "x + y"]]))
    assert ok
    assert [row["exact_zero_divisor"] for row in evidence] == [True, True]
    bad, evidence = check_ut_tr(M(S2, [["y", "x"], ["0", "x"]]))
    assert not bad
    assert evidence[0]["partner"] is None
    ok1, _ = check_ut_tr(M(S2, [["x"]]))
    assert ok1


def test_check_ut_tr_rejects_non_ut(S2):
    with pytest.raises(ValidationError):
        check_ut_tr(M(S2, [["x", "0"], ["y", "x"]]))


def test_check_ut_tr_refuses_a_redundant_column(S2):
    # [[x, 0], [0, 0]] presents R/(x) + R, which is TR; a zero diagonal
    # entry says nothing when prune_presentation drops a column
    for rows in ([["x", "0"], ["0", "0"]], [["x", "x"], ["0", "0"]],
                 [["0", "x"], ["0", "y"]]):
        assert prune_presentation(M(S2, rows))[0].cols < 2
        with pytest.raises(ValidationError, match="not a minimal presentation"):
            check_ut_tr(M(S2, rows))
    assert check_totally_reflexive(M(S2, [["x", "0"], ["0", "0"]])).certified
    # a zero row alone: R/(y, z) + R, answered, and not TR
    mat = M(S2, [["y", "z"], ["0", "0"]])
    assert prune_presentation(mat)[0].cols == 2
    assert check_ut_tr(mat)[0] is False
    assert check_totally_reflexive(mat).verdict == REFUTED


def test_check_ut_tr_cross_validation(S2):
    # the diagonal criterion agrees with the resolution certificate
    for rows, expected in (([["x", "z"], ["0", "x + y"]], True),
                           ([["y", "x"], ["0", "x"]], False)):
        mat = M(S2, rows)
        verdict, _ = check_ut_tr(mat)
        cert = check_totally_reflexive(mat)
        assert cert.verdict != INCONCLUSIVE
        assert verdict == cert.certified == expected


def test_complete_resolution_self_paired(S2):
    res = complete_resolution(M(S2, [["x + y"]]), window=3)
    assert sorted(res) == list(range(-3, 4))
    for pos in res:
        assert res[pos] == M(S2, [["x + y"]])


def test_complete_resolution_alternating_f3(S3):
    res = complete_resolution(M(S3, [["x + y"]]), window=3)
    a, b = M(S3, [["x + y"]]), M(S3, [["x + 2*y"]])
    for pos in res:
        assert res[pos] == (a if pos % 2 == 1 else b)


_T4 = ["x^2", "y^2", "z^2", "w^2", "y*z", "y*w", "z*w"]
_UT_RINGS = {
    "S:2": AlgebraSpec.canonical_s(2),
    "S:3": AlgebraSpec.canonical_s(3),
    "S:5": AlgebraSpec.canonical_s(5),
    "S:3 in y, x, z": AlgebraSpec(3, ["y", "x", "z"], ["x^2", "y^2", "z^2", "y*z"]),
    "T_4 over F_2": AlgebraSpec(2, ["x", "y", "z", "w"], _T4),
    "T_4 over F_3": AlgebraSpec(3, ["x", "y", "z", "w"], _T4),
}


def _ut_ezd_cases(name, count=24):
    """Seeded minimal n x n upper triangular presentations, n <= 4: on
    the diagonal a unit times an exact zero divisor's linear point plus
    a degree-2 tail, above it entries of m."""
    A = build_algebra(_UT_RINGS[name])
    rng = np.random.default_rng(400 + A.p * A.e + len(name))
    points = [pair.a.coeffs for pair in enumerate_ezd(A)]
    for k in range(count):
        n = 1 + k % 4
        ent = rng.integers(0, A.p, (n, n, A.dim))
        ent[:, :, 0] = 0
        ent[np.tril_indices(n, -1)] = 0
        for i in range(n):
            ent[i, i, :1 + A.e] = points[rng.integers(len(points))][:1 + A.e] * rng.integers(1, A.p)
        yield PresentationMatrix(A, ent)


def _divide(A, w, by):
    """Some r with r * by = w, or None."""
    return linalg.solve(A.mult_op(by), np.asarray(w) % A.p, A.p)


def _col_sub(A, col, pivot_col, r):
    out = col.copy()
    for k in range(col.shape[0]):
        out[k] = (col[k] - A.mult_vectors(r, pivot_col[k])) % A.p
    return out


def _loop_column_reduce_to_ut(M):
    """Column-operate a square matrix into upper triangular form, or
    None: bottom row up, an entry of the row that divides the others
    left of the diagonal is swapped into the diagonal slot and clears
    them."""
    A = M.algebra
    n = M.rows
    if not M.is_square:
        return None
    ent = M.entries.copy()
    for i in range(n - 1, -1, -1):
        pivot = None
        for j in range(i, -1, -1):
            w = ent[i, j]
            if not w.any():
                continue
            if all(j2 == j or not ent[i, j2].any() or _divide(A, ent[i, j2], w) is not None
                   for j2 in range(i + 1)):
                pivot = j
                break
        if pivot is None:
            if ent[i, :i].any():
                return None
            continue
        if pivot != i:
            ent[:, [pivot, i]] = ent[:, [i, pivot]]
        for j2 in range(i):
            if ent[i, j2].any():
                r = _divide(A, ent[i, j2], ent[i, i])
                ent[:, j2] = _col_sub(A, ent[:, j2], ent[:, i], r)
    return PresentationMatrix(A, ent)


@pytest.mark.parametrize("name", sorted(_UT_RINGS))
def test_syzygy_of_ut_ezd_diagonal_is_ut(name):
    # complete_resolution's lemma: the syzygy of a minimal UT matrix with
    # exact-zero-divisor diagonal is again one, and so is that of
    # J M^T J, so no column reduction has anything to do
    for mat in _ut_ezd_cases(name):
        A = mat.algebra
        for d in (mat, _reversed_transpose(mat)):
            syz = syzygy(d)
            assert syz.is_upper_triangular and syz.is_minimal
            assert all(is_exact_zero_divisor(A, syz.entry(i, i)) for i in range(syz.rows))
        syz = syzygy(mat)
        assert _loop_column_reduce_to_ut(syz).entries.tobytes() == syz.entries.tobytes()


def test_complete_resolution_stays_ut():
    # every position UT and minimal; positions 1..window are the plain
    # syzygy chain of the input, also from a depth-1 certificate, whose
    # window is the input times the closing witness
    for name in _UT_RINGS:
        for mat in _ut_ezd_cases(name, count=8):
            res = complete_resolution(mat, window=3)
            assert sorted(res) == list(range(-3, 4))
            assert all(d.is_upper_triangular and d.is_minimal for d in res.values())
            chain = [mat]
            for _ in range(2):
                chain.append(syzygy(chain[-1]))
            assert [res[pos] for pos in (1, 2, 3)] == chain
            cert = check_totally_reflexive(mat, depth=1)
            if cert.certified:
                assert complete_resolution(mat, window=3, certificate=cert) == res


def test_complete_resolution_window_validation(S2):
    for window in (0, -2):
        with pytest.raises(ValidationError):
            complete_resolution(M(S2, [["x"]]), window=window)
    assert sorted(complete_resolution(M(S2, [["x"]]), window=1)) == [-1, 0, 1]


def test_complete_resolution_resolves_the_pruned_presentation(S2):
    # coker [[x, 0], [0, 0]] = R/(x) + R: d_1 is the pruned (x)
    res = complete_resolution(M(S2, [["x", "0"], ["0", "0"]]), window=2)
    assert res == {pos: M(S2, [["x"]]) for pos in range(-2, 3)}


def test_complete_resolution_requires_certificate(S2):
    with pytest.raises(ValidationError):
        complete_resolution(M(S2, [["y"]]))


def test_has_m2_column_once_per_step(S2, monkeypatch):
    # the input's own m^2 test comes before the square test; the loop
    # must not repeat it at step 1
    from trmod import totref
    calls = []
    has_m2 = totref.has_m2_column
    def spy(mat):
        calls.append(mat)
        return has_m2(mat)
    monkeypatch.setattr(totref, "has_m2_column", spy)
    mat = M(S2, [["x", "z"], ["y", "x"]])
    cert = check_totally_reflexive(mat)
    steps = sum(line.startswith("step ") for line in cert.log)
    assert cert.certified and steps >= 2
    assert len(calls) == steps and calls[0] == mat


@pytest.mark.parametrize("p", [2, 3])
def test_equivalence_repeat_only_without_literal_one(p):
    A = build_algebra(AlgebraSpec.canonical_s(p))
    mat = M(A, [["x", "z"], ["y", "x"]])
    # d_2 repeats d_1 only up to equivalence; d_4 = d_2 literally
    cert = check_totally_reflexive(mat, depth=1)
    assert cert.certified and (cert.preperiod, cert.period) == (0, 1)
    assert "periodic window found up to equivalence: preperiod 0, period 1" in cert.log
    assert verify_periodic_window(cert.window)
    deep = check_totally_reflexive(mat, depth=3)
    assert deep.certified and (deep.preperiod, deep.period) == (1, 2)
    assert "periodic window found: preperiod 1, period 2" in deep.log


def test_equivalence_repeat_certifies_3x3_over_s5_quickly():
    # a UT matrix with EZD diagonal whose differentials first repeat
    # literally at step 12 (preperiod 2, period 10): at depth 8 only the
    # equivalence stage can close the window, and it does so in well
    # under a second
    A = build_algebra(AlgebraSpec.canonical_s(5))
    mat = M(A, [["x + y + 4*z", "x + 4*y + z + 2*x*y + 2*x*z", "2*x + 3*y + 2*z + 3*x*z"],
                ["0", "x + y + z", "3*x + 2*y + 4*z + 2*x*y + 4*x*z"],
                ["0", "0", "x + 4*z"]])
    literal = check_totally_reflexive(mat)
    assert (literal.preperiod, literal.period) == (2, 10)
    start = time.perf_counter()
    cert = check_totally_reflexive(mat, depth=8)
    assert time.perf_counter() - start < 1
    assert cert.certified and (cert.preperiod, cert.period) == (6, 2)
    assert "periodic window found up to equivalence: preperiod 6, period 2" in cert.log
    assert verify_periodic_window(cert.window)


def test_equivalence_search_nearest_first_and_only_at_depth(S2, monkeypatch):
    from trmod import totref
    calls = []
    is_eq = totref.is_equivalent
    def spy(a, b):
        calls.append((a, b))
        return is_eq(a, b)
    monkeypatch.setattr(totref, "is_equivalent", spy)
    mat = M(S2, [["x", "z"], ["y", "x"]])
    assert check_totally_reflexive(mat, depth=3).period == 2
    assert calls == []
    cert = check_totally_reflexive(mat, depth=2)
    assert (cert.preperiod, cert.period) == (1, 1)
    d2 = syzygy(mat)
    assert calls == [(d2, syzygy(d2))]  # d_3 against d_2 first, not d_1


def test_budget_stop_in_equivalence_search_is_no_match(S2, monkeypatch):
    from trmod import totref
    calls = []
    def over_budget(a, b):
        calls.append((a, b))
        raise BudgetExceededError("over", required=2, budget=1)
    monkeypatch.setattr(totref, "is_equivalent", over_budget)
    cert = check_totally_reflexive(M(S2, [["x", "z"], ["y", "x"]]), depth=2)
    assert cert.verdict == INCONCLUSIVE
    assert len(calls) == 2


def test_one_dual_rank_per_differential(S2, monkeypatch):
    # each distinct differential of one certification gets at most one
    # rank L1 (none for a syzygy, whose rank L1 is its Lam kernel's
    # dimension), one elimination of Lam (its kernel in syzygy) and one
    # dual rank (rank L1 and rank Lam of its transpose), recorded on the
    # matrix; the window replay, its junction and the certificate's
    # coker length read those records and eliminate nothing
    import numpy as np
    from trmod import linalg, modmat, totref
    calls = []  # (phase, function, shape, bytes of the eliminated matrix)
    phase = ["loop"]
    def spy(fn):
        def wrapped(mat, p):
            mat = np.asarray(mat)
            calls.append((phase[0], fn.__name__, mat.shape, mat.tobytes()))
            return fn(mat, p)
        return wrapped
    verify = totref.verify_periodic_window
    def replay(window):
        phase[0] = "replay"
        return verify(window)
    monkeypatch.setattr(linalg, "rank", spy(linalg.rank))
    monkeypatch.setattr(linalg, "nullspace", spy(linalg.nullspace))
    monkeypatch.setattr(totref, "verify_periodic_window", replay)
    mat = M(S2, [["x", "z"], ["y", "x"]])
    cert = check_totally_reflexive(mat)
    assert cert.certified and (cert.preperiod, cert.period) == (1, 2)
    n = mat.rows
    # no rank eliminates a whole n*dim square of lin d
    assert (n * S2.dim, n * S2.dim) not in [shape for _, _, shape, _ in calls]
    assert [c for c in calls if c[0] != "loop"] == []

    def linear(d):
        L1 = d.entries[:, :, 1:1 + S2.e].transpose(1, 0, 2).reshape(d.cols, -1)
        return ("rank", L1.shape, L1.tobytes())

    def lam(d, fn):
        block = modmat._lam(d)
        return (fn, block.shape, block.tobytes())

    distinct = cert.prefix + cert.window  # d_1, d_2, d_3; d_4 = d_2
    want = [linear(mat)] + [elim for d in distinct for elim in
                            (lam(d, "nullspace"), linear(d.transpose()),
                             lam(d.transpose(), "rank"))]
    assert sorted(c[1:] for c in calls) == sorted(want)
    # a window made afresh, as when parsed from a certificate, is
    # eliminated from scratch: rank L1 and rank Lam of each matrix and
    # of its transpose
    calls.clear()
    assert verify([PresentationMatrix(S2, d.entries.copy()) for d in cert.window])
    assert [c[1] for c in calls] == ["rank"] * (4 * cert.period)


def test_literal_repeats_found_without_eq(S2, S3, monkeypatch):
    # the literal-repeat lookup keys differentials by their bytes; no
    # PresentationMatrix.__eq__ call, and the same certificates
    calls = []
    eq = PresentationMatrix.__eq__
    def spy(self, other):
        calls.append(1)
        return eq(self, other)
    monkeypatch.setattr(PresentationMatrix, "__eq__", spy)
    cases = [(S2, [["x"]]), (S2, [["x", "z"], ["y", "x"]]), (S3, [["x", "z"], ["y", "x"]]),
             (S2, [["x", "y"], ["0", "x + y"]]), (S2, [["x", "y"], ["0", "y"]])]
    certs = [check_totally_reflexive(M(A, rows)) for A, rows in cases]
    assert calls == []
    assert [c.verdict for c in certs] == [CERTIFIED] * 4 + [REFUTED]
    assert [(c.preperiod, c.period) for c in certs[:3]] == [(0, 1), (1, 2), (1, 2)]


def test_literal_repeat_tries_every_earlier_match_oldest_first(S2, monkeypatch):
    # with every window rejected, each step tries exactly the earlier
    # differentials equal to it, oldest first, and a later equal one is
    # still tried after an earlier one fails
    import numpy as np
    from trmod import totref
    tried, resolution = [], []
    def reject(ds, betti, log, i, P=None):
        tried.append((len(ds) - 1, i))
        resolution[:] = ds
    monkeypatch.setattr(totref, "_try_certify", reject)
    monkeypatch.setattr(totref, "is_equivalent", lambda a, b: None)
    cert = check_totally_reflexive(M(S2, [["x", "z"], ["y", "x"]]), depth=8)
    assert cert.verdict == INCONCLUSIVE and len(resolution) == 9
    want = [(j, i) for j in range(9) for i in range(j)
            if np.array_equal(resolution[i].entries, resolution[j].entries)]
    assert tried == want
    assert max(sum(t[0] == j for t in tried) for j in range(9)) > 1


# a 4x4 UT matrix over S:5 whose certificate has preperiod 2 and period 20
_UT4_S5 = [["4*x + 2*y + x*y + x*z", "x + 4*y + z + x*y", "3*x + 4*z + x*y", "2*y + z + 2*x*z"],
           ["0", "2*x + 4*y + 4*z + 4*x*y + 2*x*z", "2*z + x*y + 3*x*z", "3*x + 3*y + 2*z + 2*x*z"],
           ["0", "0", "4*x + 3*y + 3*z + 3*x*y + 4*x*z", "2*z + x*y + 4*x*z"],
           ["0", "0", "0", "2*x + 3*y + 2*z + 3*x*z"]]


def test_resolution_eliminates_lam_only(monkeypatch):
    # with rank L1 = c every syzygy comes from ker Lam, an (n*s2) x (n*e)
    # block: one nullspace per step, none wider than c*e columns, and
    # none in prune
    import numpy as np
    from trmod import linalg
    A = build_algebra(AlgebraSpec.canonical_s(5))
    widths = []
    nullspace = linalg.nullspace
    def spy(mat, p):
        widths.append(np.shape(mat)[1])
        return nullspace(mat, p)
    monkeypatch.setattr(linalg, "nullspace", spy)
    cert = check_totally_reflexive(M(A, _UT4_S5))
    assert cert.certified and (cert.preperiod, cert.period) == (2, 20)
    assert cert.betti == [4] * 23
    assert widths == [4 * A.e] * 22


_DIFFERENTIAL_RINGS = {
    "S:2": AlgebraSpec.canonical_s(2),
    "S:3": AlgebraSpec.canonical_s(3),
    "S:3 in x, a, b": AlgebraSpec(3, ["x", "a", "b"], ["x^2", "a^2", "b^2", "a*b"]),
}


@functools.cache
def _differential_ring(name):
    return build_algebra(_DIFFERENTIAL_RINGS[name])


@st.composite
def _minimal_ut_presentations(draw):
    """n x n upper triangular matrices, n <= 3, entries in m, some of
    them zero; only minimal presentations are kept, where no column is a
    ring combination of the others (check_ut_tr's theorem assumes one)."""
    import numpy as np
    A = _differential_ring(draw(st.sampled_from(sorted(_DIFFERENTIAL_RINGS))))
    n = draw(st.integers(1, 3))
    density = draw(st.sampled_from([0.4, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ent = rng.integers(0, A.p, size=(n, n, A.dim)) * (rng.random((n, n, A.dim)) < density)
    ent[:, :, 0] = 0
    ent[np.tril_indices(n, -1)] = 0
    mat = PresentationMatrix(A, ent)
    assume(prune_presentation(mat)[0].cols == n)
    return mat


@settings(max_examples=150, deadline=None)
@given(_minimal_ut_presentations())
def test_ut_criterion_agrees_with_certifier(mat):
    cert = check_totally_reflexive(mat)
    assert cert.verdict != INCONCLUSIVE
    assert check_ut_tr(mat)[0] == cert.certified
    if cert.certified and cert.window:
        assert verify_periodic_window(cert.window)
