import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trmod import linalg


def _random_matrix(rng, r, c, p):
    return rng.integers(0, p, size=(r, c)).astype(np.int64)


def test_rref_known_case():
    A = np.array([[1, 2], [2, 4]], dtype=np.int64)
    R, piv = linalg.rref(A, 5)
    assert piv == [0]
    assert (R[0] == [1, 2]).all()
    assert not R[1].any()


def test_rank_nullspace_consistency_random():
    rng = np.random.default_rng(0)
    for p in (2, 3, 5):
        for _ in range(40):
            r = int(rng.integers(1, 7))
            c = int(rng.integers(1, 7))
            A = _random_matrix(rng, r, c, p)
            rk = linalg.rank(A, p)
            N = linalg.nullspace(A, p)
            assert rk + N.shape[1] == c
            if N.shape[1]:
                assert not (A @ N % p).any()
            # nullspace columns are linearly independent
            assert linalg.rank(N.T, p) == N.shape[1]


def test_solve_and_inv_random():
    rng = np.random.default_rng(1)
    for p in (2, 3, 5):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            A = _random_matrix(rng, n, n, p)
            Ainv = linalg.inv(A, p)
            if Ainv is None:
                assert not linalg.det_nonzero(A, p)
                continue
            assert ((A @ Ainv) % p == np.eye(n, dtype=np.int64)).all()
            b = _random_matrix(rng, n, 1, p)[:, 0]
            x = linalg.solve(A, b, p)
            assert x is not None
            assert ((A @ x) % p == b % p).all()


def test_solve_inconsistent_returns_none():
    A = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    assert linalg.solve(A, b, 3) is None


def test_subspace_membership_and_canonical_key():
    S1 = linalg.Subspace(3, 2, np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64))
    S2 = linalg.Subspace(3, 2, np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64))
    assert S1 == S2
    assert S1.key() == S2.key()
    assert S1.contains(np.array([1, 0, 1], dtype=np.int64))
    assert not S1.contains(np.array([1, 0, 0], dtype=np.int64))


def test_subspace_incremental_add():
    S = linalg.Subspace(4, 3)
    assert S.dim == 0
    assert S.add(np.array([1, 2, 0, 0], dtype=np.int64))
    assert not S.add(np.array([2, 4, 0, 0], dtype=np.int64))  # dependent
    assert S.add(np.array([0, 0, 1, 0], dtype=np.int64))
    assert S.dim == 2


def test_det_nonzero():
    A = np.array([[1, 1], [1, 1]], dtype=np.int64)
    B = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert not linalg.det_nonzero(A, 2)
    assert linalg.det_nonzero(B, 2)


def test_nullspace_canonical():
    # same row space in different presentation gives the same nullspace
    A = np.array([[1, 2, 1]], dtype=np.int64)
    B = np.array([[2, 4, 2], [1, 2, 1]], dtype=np.int64)
    assert (linalg.nullspace(A, 5) == linalg.nullspace(B, 5)).all()


# -- differential tests against a reference elimination ------------------------
#
# The reference is a plain elimination loop over numpy scalars, sharing no
# code with linalg's kernel; every public result must match it entry for
# entry.


def _ref_rref(A, p):
    R = np.array(A, dtype=np.int64) % p
    m, n = R.shape
    r = 0
    for c in range(n):
        pr = -1
        for i in range(r, m):
            if R[i, c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        iv = pow(int(R[r, c]), p - 2, p)
        for j in range(n):
            R[r, j] = R[r, j] * iv % p
        for i in range(m):
            if i != r and R[i, c] != 0:
                f = p - R[i, c]
                for j in range(n):
                    R[i, j] = (R[i, j] + f * R[r, j]) % p
        r += 1
        if r == m:
            break
    return R, [int(np.argmax(R[i] != 0)) for i in range(r)]


def _ref_nullspace(A, p):
    R, pivots = _ref_rref(A, p)
    n = R.shape[1]
    free = [c for c in range(n) if c not in pivots]
    N = np.zeros((n, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        N[f, k] = 1
        for i, c in enumerate(pivots):
            N[c, k] = (-R[i, f]) % p
    return N


@st.composite
def _matrices(draw, max_rows=8, max_cols=8):
    """(A, p) with 0..8 rows, 1..8 columns and entries anywhere in
    [-p, 2p), sometimes all zero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_cols))
    cells = draw(st.lists(st.integers(-p, 2 * p - 1), min_size=m * n, max_size=m * n))
    A = np.array(cells, dtype=np.int64).reshape(m, n)
    if draw(st.booleans()) and draw(st.booleans()):
        A[:] = 0
    return A, p


@st.composite
def _sparse_matrices(draw, max_rows=12, max_cols=12):
    """(A, p) with 0..12 rows, 1..12 columns and each entry nonzero with
    probability (p - 1) / 4p: the kernel updates a row only at the pivot
    row's nonzeros, and uniform draws are rarely sparse."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_cols))
    cells = draw(st.lists(st.integers(0, 4 * p - 1), min_size=m * n, max_size=m * n))
    A = np.array(cells, dtype=np.int64).reshape(m, n)
    A[A >= p] = 0
    return A, p


@settings(max_examples=300, deadline=None)
@given(st.one_of(_matrices(), _sparse_matrices()))
def test_rref_rank_nullspace_match_reference(case):
    A, p = case
    R, pivots = linalg.rref(A, p)
    R_ref, piv_ref = _ref_rref(A, p)
    assert R.dtype == np.int64 and R.shape == A.shape
    assert R.tobytes() == R_ref.tobytes()
    assert pivots == piv_ref
    assert linalg.rank(A, p) == len(piv_ref)
    # rank's forward elimination finds the same pivots
    assert linalg._rref_rows((A % p).tolist(), A.shape[1], p, _above=False) == piv_ref
    N = linalg.nullspace(A, p)
    assert N.tobytes() == _ref_nullspace(A, p).tobytes()
    assert N.shape == (A.shape[1], A.shape[1] - len(piv_ref)) and N.dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(_matrices(), st.data())
def test_solve_matches_reference(case, data):
    A, p = case
    b = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=A.shape[0],
                                    max_size=A.shape[0])), dtype=np.int64)
    x = linalg.solve(A, b, p)
    R, pivots = _ref_rref(np.concatenate([A % p, b.reshape(-1, 1)], axis=1), p)
    n = A.shape[1]
    if n in pivots:
        assert x is None
        return
    x_ref = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(pivots):
        x_ref[c] = R[i, n]
    assert x.tobytes() == x_ref.tobytes()
    assert ((A @ x - b) % p == 0).all()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 6), st.data())
def test_inv_matches_reference(p, n, data):
    cells = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    A = np.array(cells, dtype=np.int64).reshape(n, n)
    Ainv = linalg.inv(A, p)
    R, pivots = _ref_rref(np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1), p)
    if pivots[:n] != list(range(n)):
        assert Ainv is None
        assert not linalg.det_nonzero(A, p)
        return
    assert Ainv.tobytes() == R[:, n:].copy().tobytes()
    assert (A @ Ainv % p == np.eye(n, dtype=np.int64)).all()


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_subspace_grown_by_add_matches_one_call(case):
    V, p = case
    n = V.shape[1]
    whole = linalg.Subspace(n, p, V)
    grown = linalg.Subspace(n, p)
    for k, v in enumerate(V):
        grew = len(_ref_rref(V[: k + 1], p)[1]) > len(_ref_rref(V[:k], p)[1])
        assert grown.add(v) == grew
        assert grown.key() == linalg.Subspace(n, p, V[: k + 1]).key()
    assert grown.key() == whole.key()
    assert grown.pivots == whole.pivots
    for v in V:
        assert whole.contains(v)
        assert not whole.reduce(v).any()
    # a stack of rows reduces row by row, against any subspace
    half = linalg.Subspace(n, p, V[: len(V) // 2])
    for S in (half, whole, linalg.Subspace(n, p)):
        stacked = S.reduce(V)
        rows = [S.reduce(v) for v in V]
        assert stacked.dtype == np.int64 and stacked.shape == V.shape
        assert stacked.tobytes() == (np.stack(rows) if rows else V % p).tobytes()


def test_independent_columns_is_greedy_add():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            A = _random_matrix(rng, int(rng.integers(1, 7)), int(rng.integers(0, 9)), p)
            skip = int(rng.integers(0, A.shape[1] + 1))
            span = linalg.Subspace(A.shape[0], p, A[:, :skip].T)
            greedy = [t for t in range(A.shape[1] - skip) if span.add(A[:, skip + t])]
            assert linalg.independent_columns(A, p, skip=skip) == greedy


@st.composite
def _stacks(draw):
    """(A, b, p): a (B, m, n) stack with 0..8 matrices, 0..6 rows and 0..6
    columns, entries anywhere in [-p, 2p).  Some stacks get a last row
    that is a multiple of the first in every matrix, so rank-deficient
    systems, and with b left free inconsistent ones, are common."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    B, m, n = (draw(st.integers(0, k)) for k in (8, 6, 6))
    cells = draw(st.lists(st.integers(-p, 2 * p - 1), min_size=B * m * n,
                          max_size=B * m * n))
    A = np.array(cells, dtype=np.int64).reshape(B, m, n)
    if m > 1 and draw(st.booleans()):
        A[:, -1] = A[:, 0] * draw(st.integers(0, p - 1))
    b = np.array(draw(st.lists(st.integers(-p, 2 * p - 1), min_size=B * m,
                               max_size=B * m)), dtype=np.int64).reshape(B, m)
    return A, b, p


@settings(max_examples=300, deadline=None)
@given(_stacks())
def test_solve_stack_matches_solve(case):
    A, b, p = case
    B, m, n = A.shape
    ok, X = linalg.solve_stack(A, b, p)
    assert ok.shape == (B,) and X.shape == (B, n) and X.dtype == np.int64
    for k in range(B):
        x = linalg.solve(A[k], b[k], p)
        assert ok[k] == (x is not None)
        assert X[k].tobytes() == (np.zeros(n, dtype=np.int64) if x is None else x).tobytes()
