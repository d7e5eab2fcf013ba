import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trmod import filtration, linalg, modmat
from trmod.algebra import AlgebraSpec, build_algebra, enumerate_ezd, exact_zero_divisor_partner
from trmod.errors import BudgetExceededError, ValidationError
from trmod.filtration import (
    filtrate_ut,
    find_ut_form,
    mb_matrix,
    mb_preconditions,
    submodule_step,
)
from trmod.modmat import (
    PresentationMatrix,
    coker_length,
    correction_space,
    ring_identity,
    ring_matmul,
)
from trmod.totref import check_totally_reflexive, check_ut_tr


@pytest.fixture(scope="module")
def S2():
    return build_algebra(AlgebraSpec.canonical_s(2))


@pytest.fixture(scope="module")
def S3():
    return build_algebra(AlgebraSpec.canonical_s(3))


def M(A, rows):
    return PresentationMatrix.from_exprs(A, rows)


def test_filtrate_ut_two_step(S2):
    filt = filtrate_ut(M(S2, [["x", "y"], ["0", "x + y"]]))
    assert len(filt) == 2
    assert filt.blocks[0] == M(S2, [["x"]])
    assert filt.lengths == [3, 6]
    assert [repr(q) for q in filt.quotients] == ["x", "x + y"]


def test_filtrate_ut_single(S2):
    filt = filtrate_ut(M(S2, [["x"]]))
    assert len(filt) == 1
    assert filt.lengths == [3]


def test_filtrate_ut_rejects_non_ezd_diagonal(S2):
    with pytest.raises(ValidationError, match="exact zero divisor"):
        filtrate_ut(M(S2, [["x", "y"], ["0", "y"]]))


def test_filtrate_ut_rejects_non_ut(S2):
    with pytest.raises(ValidationError):
        filtrate_ut(M(S2, [["x", "z"], ["y", "x"]]))


def test_filtrate_ut_three_step(S2):
    filt = filtrate_ut(M(S2, [["x", "y", "0"],
                              ["0", "x + y", "z"],
                              ["0", "0", "x + z"]]))
    assert filt.lengths == [3, 6, 9]
    for blk in filt.blocks:
        assert check_ut_tr(blk)[0]


def test_submodule_step(S2):
    U, t = submodule_step(M(S2, [["x", "y"], ["0", "x + y"]]))
    assert U == M(S2, [["x"]])
    assert repr(t) == "x + y"
    U2, t2 = submodule_step(M(S2, [["x + y", "z"], ["0", "x"]]))
    assert U2 == M(S2, [["x + y"]])
    assert repr(t2) == "x"


def test_submodule_step_degenerate(S2):
    U, t = submodule_step(M(S2, [["x"]]))
    assert (U.rows, U.cols) == (0, 0)
    assert repr(t) == "x"


def test_submodule_step_rejects_bad_shape(S2):
    with pytest.raises(ValidationError):
        submodule_step(M(S2, [["x", "z"], ["y", "x"]]))


def test_submodule_step_agrees_with_filtrate(S2):
    mat = M(S2, [["x", "y", "0"],
                 ["0", "x + y", "z"],
                 ["0", "0", "x + z"]])
    filt = filtrate_ut(mat)
    cur = mat
    chain = []
    while cur.rows:
        cur, t = submodule_step(cur)
        chain.append(t)
    assert [repr(t) for t in reversed(chain)] == [repr(q) for q in filt.quotients]


_T4 = ["x^2", "y^2", "z^2", "w^2", "y*z", "y*w", "z*w"]


@pytest.mark.parametrize("spec", [
    AlgebraSpec.canonical_s(2),
    AlgebraSpec.canonical_s(3),
    AlgebraSpec.canonical_s(5),
    AlgebraSpec(2, ["x", "y", "z", "w"], _T4),
    AlgebraSpec(3, ["x", "y", "z", "w"], _T4),
], ids=["S:2", "S:3", "S:5", "T_4 over F_2", "T_4 over F_3"])
def test_submodule_step_is_certified_by_length_additivity(spec, monkeypatch):
    # seeded 2x2 and 3x3 inputs with last row (0, .., 0, t), t an exact
    # zero divisor: the layer is peeled off exactly when the lengths add,
    # which is exactly when s*c lies in im U (c the column above t, s the
    # partner of t), and no syzygy is taken to decide it
    A = build_algebra(spec)
    rng = np.random.default_rng(90 + A.p * A.e)
    # the EZD points; enumerating them fills the partner cache, so the
    # steps below need no annihilator
    points = [pair.a.coeffs for pair in enumerate_ezd(A)]
    cases = []
    for k in range(60):
        n = 2 + k % 2
        ent = rng.integers(0, A.p, (n, n, A.dim))
        ent[:, :, 0] = 0
        ent[n - 1, :n - 1] = 0
        # a unit times an EZD point, plus the random m^2 tail
        point = points[rng.integers(len(points))]
        ent[n - 1, n - 1, :1 + A.e] = point[:1 + A.e] * rng.integers(1, A.p)
        T = PresentationMatrix(A, ent)
        U = PresentationMatrix(A, np.ascontiguousarray(ent[:n - 1, :n - 1]))
        s = exact_zero_divisor_partner(A, T.entry(n - 1, n - 1))
        sc = np.concatenate([A.mult_vectors(s.coeffs, c) for c in ent[:n - 1, n - 1]])
        adds = coker_length(U) == coker_length(T) - A.e
        assert adds == (linalg.solve(modmat.linearize(U), sc, A.p) is not None)
        cases.append((T, U, adds))
    assert {adds for _, _, adds in cases} == {False, True}

    def no_nullspace(*args):
        raise AssertionError("submodule_step took a kernel")

    monkeypatch.setattr(linalg, "nullspace", no_nullspace)
    for T, U, adds in cases:
        if adds:
            assert submodule_step(T) == (U, T.entry(T.rows - 1, T.rows - 1))
        else:
            with pytest.raises(ValidationError):
                submodule_step(T)


def test_find_ut_form_already_ut(S2):
    mat = M(S2, [["x", "y"], ["0", "x"]])
    w, ut = find_ut_form(mat)
    assert ut == mat
    assert w.verify(mat, ut)


def test_find_ut_form_row_swapped(S2):
    # a permuted UT matrix recovers a UT form via the search
    mat = M(S2, [["0", "x + y"], ["x", "y"]])
    result = find_ut_form(mat)
    assert result is not None
    w, ut = result
    assert ut.is_upper_triangular
    assert w.verify(mat, ut)
    assert filtrate_ut(ut).lengths == [3, 6]


def test_find_ut_form_none_exists(S2):
    assert find_ut_form(M(S2, [["x", "z"], ["y", "x"]])) is None


def test_find_ut_form_none_exists_f3(S3):
    assert find_ut_form(M(S3, [["x", "z"], ["y", "x"]])) is None


def test_find_ut_form_budget(S2):
    # a 4x4 search over S:2 scans 315^2 flag pairs: decided within the
    # default budget, refused one pair below it
    big = PresentationMatrix.zeros(S2, 4, 4)
    ent = big.entries.copy()
    for i in range(4):
        ent[i, i] = S2.from_expr("x").coeffs
    ent[1, 0] = S2.from_expr("y").coeffs
    mat = PresentationMatrix(S2, ent)
    w, ut = find_ut_form(mat)
    assert ut.is_upper_triangular and w.verify(mat, ut)
    with pytest.raises(BudgetExceededError, match="flag pairs") as err:
        find_ut_form(mat, budget=315 ** 2 - 1)
    assert (err.value.required, err.value.budget) == (315 ** 2, 315 ** 2 - 1)


def test_find_ut_form_budget_reports_the_prime():
    # the flag count [n]_p! grows with p: a 2x2 over S:5 (6^2 pairs) is
    # decided, a 4x4 over S:3 (2080^2 pairs) is past the default budget
    S5 = build_algebra(AlgebraSpec.canonical_s(5))
    assert find_ut_form(M(S5, [["x", "z"], ["y", "x"]])) is None
    with pytest.raises(BudgetExceededError, match="flag pairs") as err:
        find_ut_form(M(S5, [["x", "z"], ["y", "x"]]), budget=35)
    assert (err.value.required, err.value.budget) == (36, 35)
    S3 = build_algebra(AlgebraSpec.canonical_s(3))
    ent = np.zeros((4, 4, S3.dim), dtype=np.int64)
    ent[:, :, 1] = np.eye(4, dtype=np.int64)
    ent[1, 0, 2] = 1
    with pytest.raises(BudgetExceededError, match="over F_3") as err:
        find_ut_form(PresentationMatrix(S3, ent))
    assert (err.value.required, err.value.budget) == (4_326_400, modmat.DEFAULT_BUDGET)


@pytest.mark.parametrize("p", [101, 1009])
def test_find_ut_form_large_prime_2x2(p):
    # (p + 1)^2 flag pairs fit the default budget; u*A1*v is evaluated
    # only for the rows and columns of the flag representatives, not on
    # all of F_p^2 x F_p^2 (10^12 cells at p = 1009)
    A = build_algebra(AlgebraSpec.canonical_s(p))
    n = 2
    lo_i, lo_j = filtration._below_diagonal(n)
    P0s, Q0s = filtration.flag_representatives(n, p)
    us, row_of, vs, col_of = filtration._flag_vectors(n, p)
    assert (us[row_of] == P0s[:, lo_i]).all()
    assert (vs[col_of] == Q0s.transpose(0, 2, 1)[:, lo_j]).all()
    assert len(us) <= p + 1 and len(vs) <= p + 1
    assert find_ut_form(M(A, [["x", "z"], ["y", "x"]])) is None
    for rows in ([["x + y", "x"], ["y", "x + 2*y"]], [["x", "x"], ["x", "x + y"]]):
        mat = M(A, rows)
        w, ut = find_ut_form(mat)
        assert ut.is_upper_triangular and w.verify(mat, ut)


def test_find_ut_form_3x3_over_s11_is_refused():
    # [3]_11! = 133 * 12 = 1596 flags, 1596^2 pairs past the default budget
    S11 = build_algebra(AlgebraSpec.canonical_s(11))
    mat = M(S11, [["x", "0", "0"], ["y", "x", "0"], ["0", "0", "x"]])
    with pytest.raises(BudgetExceededError, match="flag pairs") as err:
        find_ut_form(mat)
    assert err.value.required == 1596 ** 2


def _pair_form(mat, P0, Q0):
    """(N, part) for one scalar pair (P0, Q0): N = P0*(M + corr @ part)*Q0
    is upper triangular for the solution `part` linalg.solve gives of the
    below-diagonal system, or None when P0*A1*Q0 is not upper triangular
    or the system has no solution."""
    A, p, n = mat.algebra, mat.algebra.p, mat.rows
    e, s2 = A.e, A.s2
    A1, A2 = mat.linear_part(), mat.quadratic_part()
    below = [(i, j) for i in range(n) for j in range(n) if i > j]
    N1 = np.einsum("il,lje,jm->ime", P0, A1, Q0) % p
    if any(N1[i, j].any() for i, j in below):
        return None
    corr = correction_space(mat, mat)
    N2_base = np.einsum("il,ljs,jm->ims", P0, A2, Q0) % p
    conj = np.einsum("il,ljsg,jm->imsg", P0, corr.reshape(n, n, s2, -1), Q0) % p
    sysA = np.stack([conj[i, j].reshape(s2, -1) for i, j in below]
                    ).reshape(-1, corr.shape[1])
    rhs = np.concatenate([(-N2_base[i, j]) % p for i, j in below])
    part = linalg.solve(sysA, rhs, p)
    if part is None:
        return None
    delta = (corr @ part % p).reshape(n, n, s2)
    N2 = (N2_base + np.einsum("il,ljs,jm->ims", P0, delta, Q0)) % p
    ent = np.zeros((n, n, A.dim), dtype=np.int64)
    ent[:, :, 1:1 + e] = N1
    ent[:, :, 1 + e:] = N2
    N = PresentationMatrix(A, ent)
    assert N.is_upper_triangular
    return N, part


def _scan_pairs_reference(mat):
    """(exists, first) from plain loops, one pair at a time.  `exists`
    says whether any pair (P0, Q0) of GL_n x GL_n solves.  `first` is the
    UT form find_ut_form returns, and its witness: those of the first
    flag pair of `flag_representatives`, in P0-then-Q0 order, whose
    system solves over the full width of the correction space.  The
    witness is P0*(I + A), (I + B)*Q0 for that pair, with A and B read
    from its solution in the column layout of correction_space.  An
    upper triangular input is its own form, with the identity witness."""
    A, p, n = mat.algebra, mat.algebra.p, mat.rows
    e = A.e
    I = ring_identity(A, n)
    if mat.is_upper_triangular:
        return True, (mat, I, I)
    GL = _gl(n, p)
    exists = any(_pair_form(mat, P0, Q0) is not None for P0 in GL for Q0 in GL)
    P0s, Q0s = filtration.flag_representatives(n, p)
    for P0, Q0 in itertools.product(P0s, Q0s):
        found = _pair_form(mat, P0, Q0)
        if found is not None:
            break
    else:
        return exists, None
    N, part = found
    scalar_P0, scalar_Q0, left, right = (np.zeros_like(I) for _ in range(4))
    scalar_P0[:, :, 0], scalar_Q0[:, :, 0] = P0, Q0
    left[:, :, 1:1 + e] = part[:n * n * e].reshape(n, n, e)
    right[:, :, 1:1 + e] = part[n * n * e:].reshape(n, n, e)
    return exists, (N, ring_matmul(A, scalar_P0, I + left), ring_matmul(A, I + right, scalar_Q0))


def _random_minimal(rng, A, n, linear=False):
    ent = rng.integers(0, A.p, (n, n, A.dim))
    ent[:, :, 0] = 0
    if linear:
        ent[:, :, 1 + A.e:] = 0
    return ent


def _gl(n, p):
    """GL_n(F_p), n <= 3, built here so that the orbit checks share
    nothing with trmod's search."""
    mats = np.array(list(itertools.product(range(p), repeat=n * n))).reshape(-1, n, n)
    return mats[np.rint(np.linalg.det(mats)).astype(np.int64) % p != 0]


def _linear_ut_orbit(L, p):
    """Whether some P0 * L * Q0, P0 and Q0 in GL_n(F_p), is zero below the
    diagonal.  A minimal presentation equivalent to a UT one needs such a
    pair, since the scalar parts of the equivalence act on its linear part."""
    G = _gl(L.shape[0], p)
    orbit = np.einsum("aij,jkv,bkl->abilv", G, L, G) % p
    lo_i, lo_j = np.tril_indices(L.shape[0], -1)
    return not orbit[:, :, lo_i, lo_j].reshape(len(G) ** 2, -1).any(axis=1).all()


def _disguised_ut(rng, A, n, linear=False):
    """P * U * Q for a random UT U with nonzero linear diagonal and random
    invertible ring matrices P, Q with random degree-1 and -2 parts; with
    `linear`, U is linear and P, Q are scalar."""
    U = np.triu(_random_minimal(rng, A, n, linear).transpose(2, 0, 1)).transpose(1, 2, 0)
    for i in range(n):
        while not U[i, i, 1:1 + A.e].any():
            U[i, i, 1:1 + A.e] = rng.integers(0, A.p, A.e)
    GL = _gl(n, A.p)
    P, Q = (_random_minimal(rng, A, n) for _ in range(2))
    if linear:
        P[:, :, 1:] = Q[:, :, 1:] = 0
    P[:, :, 0] = GL[rng.integers(len(GL))]
    Q[:, :, 0] = GL[rng.integers(len(GL))]
    return ring_matmul(A, ring_matmul(A, P, U), Q)


def _without_ut(rng, A, n, linear=False):
    """A random minimal matrix with no UT form, by the orbit check."""
    while True:
        ent = _random_minimal(rng, A, n, linear)
        if not _linear_ut_orbit(ent[:, :, 1:1 + A.e], A.p):
            return ent


@pytest.mark.parametrize("p, n, draws", [(2, 2, 16), (3, 2, 16), (2, 3, 6)])
def test_find_ut_form_matches_pairwise_scan(p, n, draws):
    # against the one-pair-at-a-time loop over GL_n x GL_n: a form exists
    # iff some pair solves, and the UT form and the lift of the pair that
    # gave it are byte for byte those of the first solvable flag pair, on
    # seeded minimal inputs with random degree-2 parts, half of them
    # disguised UT matrices, then linear inputs, whose systems all have
    # right side 0 and reach no correction system in find_ut_form; the
    # reference still solves each pair's system over the full width of
    # the correction space, where find_ut_form solves on its independent
    # columns
    A = build_algebra(AlgebraSpec.canonical_s(p))
    rng = np.random.default_rng(100 * p + n)
    for k in range(draws + draws // 2):
        linear = k >= draws
        ent = (_disguised_ut if k % 2 else _without_ut)(rng, A, n, linear)
        mat = PresentationMatrix(A, ent)
        assert linear == (not mat.quadratic_part().any())
        exists, ref = _scan_pairs_reference(mat)
        got = find_ut_form(mat)
        assert (got is not None) == exists == (ref is not None) == bool(k % 2)
        if ref is None:
            continue
        (w, ut), (ref_ut, ref_P, ref_Q) = got, ref
        assert ut.entries.tobytes() == ref_ut.entries.tobytes()
        assert w.P.tobytes() == ref_P.tobytes()
        assert w.Q.tobytes() == ref_Q.tobytes()


def test_find_ut_form_returns_ut_input_past_the_caps(S2):
    # the budget bounds the search; an input that is already UT needs
    # none and gets the identity witness, at any n and p, whatever the
    # budget
    S5 = build_algebra(AlgebraSpec.canonical_s(5))
    x, y, z = (S2.from_expr(v) for v in "xyz")
    for mat in (M(S2, [["x", "y"], ["0", "x + y"]]), mb_matrix(4, x, x, y, z),
                M(S5, [["x", "y", "0"], ["0", "x + y", "z"], ["0", "0", "x + 2*z"]])):
        w, ut = find_ut_form(mat, budget=0)
        assert ut is mat
        identity = ring_identity(mat.algebra, mat.rows)
        assert w.P.tobytes() == w.Q.tobytes() == identity.tobytes()
        assert w.verify(mat, ut)
    assert filtrate_ut(find_ut_form(mb_matrix(4, x, x, y, z))[1]).lengths == [3, 6, 9, 12]


def _solves_up_to_winner(mat, w):
    """The UT-compatible flag pairs, in P0-then-Q0 order up to the one
    whose scalar parts the witness w carries, whose conjugated quadratic
    part is nonzero below the diagonal."""
    p, n = mat.algebra.p, mat.rows
    below = np.tril_indices(n, -1)
    A1, A2 = mat.linear_part(), mat.quadratic_part()
    P0s, Q0s = filtration.flag_representatives(n, p)
    count = 0
    for P0, Q0 in itertools.product(P0s, Q0s):
        if (np.einsum("il,lje,jm->ime", P0, A1, Q0) % p)[below].any():
            continue
        count += bool((np.einsum("il,ljs,jm->ims", P0, A2, Q0) % p)[below].any())
        if (P0 == w.P[:, :, 0]).all() and (Q0 == w.Q[:, :, 0]).all():
            return count
    raise AssertionError("the witness is not a flag pair")


def test_find_ut_form_scan_makes_no_solve_call(S2, S3, monkeypatch):
    # the scan lifts the winning pair to the witness: no linalg.inv or
    # is_equivalent call anywhere in it.  A linear input makes no
    # linalg.solve call; an input with degree-2 parts makes one for each
    # UT-compatible flag pair with a nonzero right side, up to the winner
    events = []
    def spy(module, name):
        original = getattr(module, name)
        def wrapped(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)
    spy(linalg, "solve")
    spy(linalg, "inv")
    spy(modmat, "is_equivalent")
    solved = 0
    for A in (S2, S3):
        rng = np.random.default_rng(A.p)
        for n in (2, 3) if A.p == 2 else (2,):
            for linear in (True, False):
                mat = PresentationMatrix(A, _disguised_ut(rng, A, n, linear))
                events.clear()
                w, _ = find_ut_form(mat)
                expected = 0 if linear else _solves_up_to_winner(mat, w)
                assert events == ["solve"] * expected
                solved += expected
    assert solved
    events.clear()
    assert find_ut_form(M(S3, [["x", "z"], ["y", "x"]])) is None
    assert events == []
    assert not hasattr(filtration, "is_equivalent")


def test_find_ut_form_skips_pairs_a_zero_correction_space_cannot_solve(S2, S3, monkeypatch):
    # with linear part zero every flag pair is UT-compatible and the
    # correction space is 0, so a pair with a nonzero right side has no
    # solution and is skipped without a linalg.solve call.  The result is
    # still that of the reference scan, which solves every pair
    solves = []
    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    found = 0
    for A in (S2, S3):
        rng = np.random.default_rng(600 + A.p)
        for _ in range(8):
            ent = np.zeros((2, 2, A.dim), dtype=np.int64)
            ent[:, :, 1 + A.e:] = rng.integers(0, A.p, (2, 2, A.s2))
            mat = PresentationMatrix(A, ent)
            _, ref = _scan_pairs_reference(mat)
            solves.clear()
            got = find_ut_form(mat)
            assert solves == [] and (got is None) == (ref is None)
            if ref is not None:
                (w, ut), (ref_ut, ref_P, ref_Q) = got, ref
                assert ut.entries.tobytes() == ref_ut.entries.tobytes()
                assert w.P.tobytes() == ref_P.tobytes() and w.Q.tobytes() == ref_Q.tobytes()
                found += 1
    assert 0 < found < 16
    # 99,225 flag pairs over S:2, none of them solvable
    ent = np.zeros((4, 4, S2.dim), dtype=np.int64)
    ent[:, :, 1 + S2.e:] = np.random.default_rng(0).integers(0, 2, (4, 4, 2))
    assert find_ut_form(PresentationMatrix(S2, ent)) is None
    assert solves == []


def test_find_ut_form_builds_correction_space_only_when_needed(S2, S3, monkeypatch):
    # the correction system is built once per call, and only when some
    # UT-compatible pair has a nonzero quadratic part below the diagonal
    calls = []
    build = filtration.correction_space
    def spy(mat, other):
        calls.append(mat)
        return build(mat, other)
    monkeypatch.setattr(filtration, "correction_space", spy)
    for A in (S2, S3):
        rng = np.random.default_rng(500 + A.p)
        for n in (2, 3) if A.p == 2 else (2,):
            # linear inputs: every right side is 0
            w, ut = find_ut_form(PresentationMatrix(A, _disguised_ut(rng, A, n, True)))
            assert not (w.P[:, :, 1:].any() or w.Q[:, :, 1:].any())
            assert find_ut_form(PresentationMatrix(A, _without_ut(rng, A, n, True))) is None
        # no UT-compatible pair, whatever the degree-2 parts
        for _ in range(4):
            ent = M(A, [["x", "z"], ["y", "x"]]).entries.copy()
            ent[:, :, 1 + A.e:] = rng.integers(0, A.p, (2, 2, A.s2))
            assert find_ut_form(PresentationMatrix(A, ent)) is None
    assert calls == []
    # a scalar disguise of [[x, y], [x*y, x]]: the pair that undoes it
    # needs the correction A = y*E_10 (up to sign) to clear x*y
    P0, Q0 = np.array([[1, 1], [0, 1]]), np.array([[0, 1], [1, 2]])
    mat = PresentationMatrix(S3, np.einsum("il,ljd,jm->imd", P0,
                                           M(S3, [["x", "y"], ["x*y", "x"]]).entries, Q0))
    w, ut = find_ut_form(mat)
    assert w.verify(mat, ut) and ut.is_upper_triangular
    assert calls == [mat]


@pytest.mark.parametrize("p, n, draws", [(2, 2, 12), (2, 3, 3), (3, 2, 12)])
def test_find_ut_form_witness_verifies(p, n, draws):
    # the lifted witness carries each disguise, with random degree-1 and
    # degree-2 parts in P, Q and the hidden UT matrix, to the form; some
    # of the witnesses need a degree-1 correction
    A = build_algebra(AlgebraSpec.canonical_s(p))
    rng = np.random.default_rng(400 + 10 * p + n)
    corrected = 0
    for _ in range(draws):
        mat = PresentationMatrix(A, _disguised_ut(rng, A, n))
        w, ut = find_ut_form(mat)
        assert ut.is_upper_triangular
        assert w.verify(mat, ut)
        corrected += bool(w.P[:, :, 1:].any() or w.Q[:, :, 1:].any())
    assert corrected


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3)])
def test_find_ut_form_chunk_boundaries(p, n, monkeypatch):
    # one P0 per block, and blocks that split the P0 unevenly, give the
    # default's bytes: the first solvable pair does not depend on them
    A = build_algebra(AlgebraSpec.canonical_s(p))
    rng = np.random.default_rng(300 + 10 * p + n)
    mats = [PresentationMatrix(A, _disguised_ut(rng, A, n)) for _ in range(4)]
    def outputs():
        return [(ut.entries.tobytes(), w.P.tobytes(), w.Q.tobytes())
                for w, ut in map(find_ut_form, mats)]
    default = outputs()
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(filtration, "_GL_CHUNK", chunk)
        assert outputs() == default


def test_find_ut_form_3x3_disguised(S2):
    U = M(S2, [["x", "y", "0"], ["0", "x + y", "z"], ["0", "0", "x + z"]])
    P = M(S2, [["0", "1", "y"], ["1", "z", "0"], ["x", "1", "1"]]).entries
    Q = M(S2, [["1", "0", "1"], ["y", "1", "0"], ["1", "1", "x"]]).entries
    mat = PresentationMatrix(S2, ring_matmul(S2, ring_matmul(S2, P, U.entries), Q))
    assert not mat.is_upper_triangular and mat.quadratic_part().any()
    w, ut = find_ut_form(mat)
    assert ut.is_upper_triangular
    assert w.verify(mat, ut)
    assert filtrate_ut(ut).lengths == [3, 6, 9]


def test_find_ut_form_3x3_none_by_orbit_enumeration(S2):
    # certified without trmod's search: none of the 168^2 pairs in
    # GL_3(F_2) x GL_3(F_2) clears the linear part below the diagonal
    assert len(_gl(3, 2)) == 168
    rows = [["x", "x", "0"], ["y", "0", "z"], ["z", "0", "x"]]
    assert not _linear_ut_orbit(M(S2, rows).linear_part(), 2)
    assert find_ut_form(M(S2, rows)) is None


@pytest.mark.parametrize("n, p", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_flag_representatives_cover_gl_once(n, p):
    # checked against GL_n and B enumerated here: the products Q0*b over
    # the representatives Q0 and b in B are GL_n, each element once, and
    # so are the products b*P0
    P0s, Q0s = filtration.flag_representatives(n, p)
    GL = _gl(n, p)
    B = GL[~GL[:, np.tril_indices(n, -1)[0], np.tril_indices(n, -1)[1]].any(axis=1)]
    assert len(P0s) == len(Q0s) == len(GL) // len(B)
    def numbers(mats):
        return np.sort(mats.reshape(len(mats), -1) @ p ** np.arange(n * n - 1, -1, -1))
    gl_numbers = numbers(GL)
    assert np.array_equal(numbers(np.einsum("aij,bjk->abik", Q0s, B).reshape(-1, n, n) % p),
                          gl_numbers)
    assert np.array_equal(numbers(np.einsum("bij,ajk->abik", B, P0s).reshape(-1, n, n) % p),
                          gl_numbers)
    assert not (P0s.flags.writeable or Q0s.flags.writeable)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]), st.integers(0, 2 ** 32 - 1))
def test_solvability_is_constant_on_flag_cosets(shape, seed):
    # the one-pair system at (P0, Q0) solves iff it solves at
    # (b*P0, Q0*b') for b, b' in B, on the winning flag pair of a disguised
    # UT matrix and on random flag pairs of it
    p, n = shape
    A = build_algebra(AlgebraSpec.canonical_s(p))
    rng = np.random.default_rng(seed)
    mat = PresentationMatrix(A, _disguised_ut(rng, A, n))
    w, _ = find_ut_form(mat)
    P0s, Q0s = filtration.flag_representatives(n, p)
    pairs = [(w.P[:, :, 0], w.Q[:, :, 0])] + [
        (P0s[rng.integers(len(P0s))], Q0s[rng.integers(len(Q0s))]) for _ in range(8)]
    for P0, Q0 in pairs:
        b, b2 = (np.triu(rng.integers(0, p, (n, n)), 1) + np.diag(rng.integers(1, p, n))
                 for _ in range(2))
        solved = _pair_form(mat, P0, Q0) is not None
        assert solved == (_pair_form(mat, b @ P0 % p, Q0 @ b2 % p) is not None)
    assert _pair_form(mat, *pairs[0]) is not None


def test_find_ut_form_3x3_over_s3_and_4x4_over_s2(S2):
    # 52^2 and 315^2 flag pairs, within the default budget: U times
    # scalar P0, Q0 over S:3 (both singular mod 3, so its UT form has a
    # zero row and column); a disguise of a 3x3 UT matrix over S:3 with
    # degree-1 and -2 parts in P, Q and U; and a disguised 4x4 over S:2.
    # Each is decided with a witness that verifies
    S3 = build_algebra(AlgebraSpec.canonical_s(3))
    U = M(S3, [["x", "y", "z"], ["0", "x + y", "x*y"], ["0", "0", "x + z"]]).entries
    P0, Q0 = (np.zeros((3, 3, S3.dim), dtype=np.int64) for _ in range(2))
    P0[:, :, 0] = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
    Q0[:, :, 0] = [[1, 0, 1], [2, 1, 0], [0, 1, 1]]
    rng = np.random.default_rng(27)
    mats = [PresentationMatrix(S3, ring_matmul(S3, ring_matmul(S3, P0, U), Q0)),
            PresentationMatrix(S3, _disguised_ut(rng, S3, 3)),
            PresentationMatrix(S2, _disguised_ut(rng, S2, 4))]
    for mat in mats:
        assert not mat.is_upper_triangular
        w, ut = find_ut_form(mat)
        assert ut.is_upper_triangular and w.verify(mat, ut)


def test_mb_matrix_pattern(S2):
    x, y, z = (S2.from_expr(v) for v in "xyz")
    mat = mb_matrix(4, x, x, y, z)
    assert mat == M(S2, [["x", "y", "0", "0"],
                         ["0", "x", "z", "0"],
                         ["0", "0", "x", "y"],
                         ["0", "0", "0", "x"]])
    assert mb_matrix(1, x, x, y, z) == M(S2, [["x"]])


def test_mb_preconditions(S2, S3):
    x, y, z = (S2.from_expr(v) for v in "xyz")
    pre = mb_preconditions(x, x, y, z)
    assert pre["exact_pair"] and pre["uv_zero"]
    assert pre["condition_b"] and not pre["condition_a"]
    assert pre["satisfied"]
    # condition (a): s, t, u independent mod m^2
    u3 = S3.from_expr("x + y")
    t3 = S3.from_expr("x + 2*y")
    pre3 = mb_preconditions(u3, t3, S3.from_expr("z"), S3.from_expr("y"))
    assert pre3["condition_a"]


def test_mb_matrix_warns_on_violation(S2):
    x, y, z = (S2.from_expr(v) for v in "xyz")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mb_matrix(2, y, y, x, x)  # y not an EZD, xx = 0 though
        assert any("precondition" in str(w.message) or "condition" in str(w.message)
                   for w in caught)


def test_mb_matrix_resolution_constant_betti(S2):
    x, y, z = (S2.from_expr(v) for v in "xyz")
    for b in (2, 3):
        mat = mb_matrix(b, x, x, y, z)
        cert = check_totally_reflexive(mat)
        assert cert.certified
        assert all(c == b for c in cert.betti)
        assert coker_length(mat) == b * S2.e


def test_mb_matrix_passes_ut_criterion(S2):
    x, y, z = (S2.from_expr(v) for v in "xyz")
    ok, _ = check_ut_tr(mb_matrix(3, x, x, y, z))
    assert ok
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bad_mat = mb_matrix(2, y, y, x, x)
    bad, _ = check_ut_tr(bad_mat)
    assert not bad
