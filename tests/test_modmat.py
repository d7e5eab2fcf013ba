import hashlib

import numpy as np
import pytest

from trmod.algebra import AlgebraSpec, build_algebra
from trmod.errors import BudgetExceededError, ValidationError
from trmod.modmat import (
    CokernelSpace,
    PresentationMatrix,
    coker_length,
    column_reduce_to_lt,
    column_reduce_to_ut,
    dual,
    endomorphism_space,
    has_m2_column,
    is_equivalent,
    is_indecomposable,
    linearize,
    minimize,
    prune_presentation,
    ring_matmul,
    syzygy,
)
from trmod import linalg
from trmod.ext import ext1


@pytest.fixture(scope="module")
def S2():
    return build_algebra(AlgebraSpec.canonical_s(2))


@pytest.fixture(scope="module")
def S3():
    return build_algebra(AlgebraSpec.canonical_s(3))


def M(A, rows):
    return PresentationMatrix.from_exprs(A, rows)


def test_coker_length(S2):
    assert coker_length(M(S2, [["x"]])) == 3
    assert coker_length(M(S2, [["x", "y"], ["0", "x + y"]])) == 6
    assert coker_length(M(S2, [["1"]])) == 0


def test_coker_length_rank_nullity(S3):
    mat = M(S3, [["x", "z"], ["y", "x"]])
    L = linearize(mat)
    assert coker_length(mat) + linalg.rank(L, 3) == mat.rows * S3.dim


def test_minimize(S2):
    # coker [[v, 1], [0, u]] is free of rank 1: minimize to a 1 x 0 matrix
    mat = M(S2, [["x", "1"], ["0", "x"]])
    red = minimize(mat)
    assert (red.rows, red.cols) == (1, 0)
    assert minimize(M(S2, [["1"]])).rows == 0
    mm = M(S2, [["x", "y"], ["0", "x"]])
    assert minimize(mm) == mm


def test_syzygy_period_one(S2):
    mat = M(S2, [["x"]])
    assert syzygy(mat) == mat


def test_syzygy_partner(S3):
    w = syzygy(M(S3, [["x + y"]]))
    assert w == M(S3, [["x + 2*y"]])


def test_syzygy_soundness_random(S2, S3):
    rng = np.random.default_rng(2)
    for A in (S2, S3):
        for _ in range(10):
            ent = rng.integers(0, A.p, size=(2, 2, A.dim))
            ent[:, :, 0] = 0  # keep minimal
            mat = PresentationMatrix(A, ent)
            if not mat.entries.any():
                continue
            w = syzygy(mat)
            if w.cols == 0:
                continue
            prod = ring_matmul(A, mat.entries, w.entries)
            assert not prod.any()
            # exactness at the middle spot
            Lm = linearize(mat)
            Lw = linearize(w)
            assert linalg.rank(Lw, A.p) == Lm.shape[1] - linalg.rank(Lm, A.p)


def test_dual_is_transpose(S2):
    mat = M(S2, [["x", "z"], ["y", "x"]])
    assert dual(mat) == M(S2, [["x", "y"], ["z", "x"]])
    rect = M(S2, [["x", "y", "z"], ["z", "x", "y"]])
    assert (dual(rect).rows, dual(rect).cols) == (3, 2)


def test_has_m2_column(S2):
    assert has_m2_column(M(S2, [["x*y"], ["x*z"]]))
    assert not has_m2_column(M(S2, [["x", "z"], ["y", "x"]]))
    assert has_m2_column(M(S2, [["x", "x*y"], ["0", "x*z"]]))
    # a column of m^2 entries that is a ring multiple of another column
    # is a redundant relation, not a genuine m^2 column
    redundant = M(S2, [["x", "x*y"], ["y", "x*y"]])
    assert not has_m2_column(redundant)


def test_is_equivalent_superdiagonal_shift(S2):
    # [[u, a], [0, t]] is equivalent to [[u, a - t], [0, t]]
    m1 = M(S2, [["x", "z"], ["0", "x + y"]])
    m2 = M(S2, [["x", "z + x + y"], ["0", "x + y"]])
    w = is_equivalent(m1, m2)
    assert w is not None and w.verify(m1, m2)


def test_is_equivalent_self(S2):
    mat = M(S2, [["x", "y"], ["0", "x"]])
    w = is_equivalent(mat, mat)
    assert w is not None and w.verify(mat, mat)


def test_is_equivalent_distinguishes_ideals(S2):
    assert is_equivalent(M(S2, [["x"]]), M(S2, [["x + y"]])) is None


def test_is_equivalent_witness_validity(S3):
    m1 = M(S3, [["x", "y"], ["0", "x"]])
    # act by an explicit ring transformation and recover a witness
    P = M(S3, [["1", "z"], ["0", "2"]]).entries
    Q = M(S3, [["1", "0"], ["y", "1"]]).entries
    moved = PresentationMatrix(S3, ring_matmul(S3, ring_matmul(S3, P, m1.entries), Q))
    w = is_equivalent(m1, moved)
    assert w is not None and w.verify(m1, moved)
    # rectangular: 1 x 2 and 2 x 3, so the Q0 system is not square in r, c
    for rows, P, Q in (
        ([["x", "y + x*z"]], [["2"]], [["1", "x"], ["1", "2"]]),
        ([["x", "y", "0"], ["z", "x", "x*y"]], [["1", "y"], ["1", "2"]],
         [["1", "0", "z"], ["0", "2", "0"], ["x", "1", "1"]]),
    ):
        m = M(S3, rows)
        moved = PresentationMatrix(S3, ring_matmul(
            S3, ring_matmul(S3, M(S3, P).entries, m.entries), M(S3, Q).entries))
        w = is_equivalent(m, moved)
        assert w is not None and w.verify(m, moved)


def test_is_equivalent_symmetric_transitive(S2):
    mats = [
        M(S2, [["x", "z"], ["0", "x + y"]]),
        M(S2, [["x", "z + x"], ["0", "x + y"]]),
        M(S2, [["x + y", "z"], ["0", "x"]]),
    ]
    rel = {}
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            rel[i, j] = is_equivalent(a, b) is not None
    for i in range(3):
        assert rel[i, i]
        for j in range(3):
            assert rel[i, j] == rel[j, i]
            for k in range(3):
                if rel[i, j] and rel[j, k]:
                    assert rel[i, k]


def test_is_equivalent_budget_exceeded(S2):
    mat = M(S2, [["x", "y"], ["0", "x"]])
    with pytest.raises(BudgetExceededError):
        is_equivalent(mat, mat, budget=1)


def test_is_equivalent_rejects_non_minimal(S2):
    with pytest.raises(ValidationError):
        is_equivalent(M(S2, [["1"]]), M(S2, [["1"]]))


def test_is_indecomposable(S2):
    assert is_indecomposable(M(S2, [["x"]]))[0]
    dec, witness = is_indecomposable(M(S2, [["x", "0"], ["0", "x + y"]]))
    assert not dec
    assert witness is not None
    assert is_indecomposable(M(S2, [["x", "z"], ["0", "x + y"]]))[0]


def test_prune_presentation(S2):
    mat = M(S2, [["0", "x"], ["0", "0"]])
    pruned, free = prune_presentation(mat)
    assert free == 1
    assert pruned == M(S2, [["x"]])
    clean = M(S2, [["x", "z"], ["y", "x"]])
    same, free = prune_presentation(clean)
    assert free == 0 and same == clean


def test_column_reduce_to_ut(S2):
    assert M(S2, [["x", "z"], ["0", "x + y"]]).is_upper_triangular
    assert M(S2, [["x"]]).is_upper_triangular
    assert PresentationMatrix.zeros(S2, 0, 0).is_upper_triangular
    assert not M(S2, [["x", "z"], ["x*y", "x"]]).is_upper_triangular  # m^2 below
    assert not M(S2, [["x", "0", "y"], ["0", "x", "0"], ["z", "0", "x"]]).is_upper_triangular
    assert M(S2, [["x", "y", "z"], ["0", "x", "y"], ["0", "0", "0"]]).is_upper_triangular
    assert not M(S2, [["x", "y"]]).is_upper_triangular  # not square
    ut = M(S2, [["x", "z"], ["0", "x + y"]])
    w = syzygy(ut)
    red = column_reduce_to_ut(w)
    assert red is not None
    assert red.is_upper_triangular
    # column operations preserve the cokernel
    assert is_equivalent(w, red) is not None
    # syzygies of lower triangular inputs reduce to lower triangular
    lt = column_reduce_to_lt(syzygy(ut.transpose()))
    assert lt is not None
    assert lt.transpose().is_upper_triangular


# -- references: the loops that one RREF, one einsum and whole-matrix
# projection replace ------------------------------------------------------------
#
# syzygy, has_m2_column and endomorphism_space with their spans built one
# Subspace.add at a time; linearize one multiplication block per entry;
# multiplication on R^copies block by block; cokernel operators, classes
# and lifts projected or sectioned one column at a time.


def _loop_linearize(M):
    A = M.algebra
    d = A.dim
    out = np.zeros((M.rows * d, M.cols * d), dtype=np.int64)
    for i in range(M.rows):
        for j in range(M.cols):
            if M.entries[i, j].any():
                out[i * d:(i + 1) * d, j * d:(j + 1) * d] = A.mult_op(M.entries[i, j])
    return out


def module_mult_op(A, a_coeffs, copies):
    """Multiplication by a ring element on R^copies, linearized."""
    op = A.mult_op(a_coeffs)
    out = np.zeros((copies * A.dim, copies * A.dim), dtype=np.int64)
    for t in range(copies):
        out[t * A.dim:(t + 1) * A.dim, t * A.dim:(t + 1) * A.dim] = op
    return out


def _loop_project(cok, V):
    cols = [cok.image.reduce(V[:, j])[cok.coords] for j in range(V.shape[1])]
    return np.stack(cols, axis=1) if cols else np.zeros((cok.length, 0), dtype=np.int64)


def _loop_cokernel_mult_op(cok, a_coeffs):
    big = module_mult_op(cok.M.algebra, a_coeffs, cok.M.rows)
    cols = [cok.project(big @ cok.section(w) % cok.p) for w in np.eye(cok.length, dtype=np.int64)]
    return np.stack(cols, axis=1) if cok.length else np.zeros((0, 0), dtype=np.int64)


def _coker_operator(cok, phi0):
    """Operator on the cokernel induced by the ring matrix phi0 on R^r."""
    A = cok.M.algebra
    d, r = A.dim, cok.M.rows
    big = np.zeros((r * d, r * d), dtype=np.int64)
    for i in range(r):
        for l in range(r):
            if phi0[i, l].any():
                big[i * d:(i + 1) * d, l * d:(l + 1) * d] = A.mult_op(phi0[i, l])
    cols = [cok.project(big @ cok.section(w) % A.p) for w in np.eye(cok.length, dtype=np.int64)]
    return np.stack(cols, axis=1) if cok.length else np.zeros((0, 0), dtype=np.int64)


def _loop_lift(ext, w):
    A, q = ext.M.algebra, ext.cok.length
    ent = np.zeros((ext.M.rows, ext.N.cols, A.dim), dtype=np.int64)
    for j in range(ext.N.cols):
        ent[:, j, :] = ext.cok.section(np.asarray(w)[j * q:(j + 1) * q]).reshape(ext.M.rows, A.dim)
    return ent


def _loop_class_coords(ext, lift):
    q = ext.cok.length
    w = np.zeros(ext.N.cols * q, dtype=np.int64)
    for j in range(ext.N.cols):
        w[j * q:(j + 1) * q] = ext.cok.project(lift.entries[:, j, :].reshape(-1))
    return w


def _greedy_syzygy(M):
    A = M.algebra
    c, d = M.cols, A.dim
    N = linalg.nullspace(linearize(M), A.p)
    span = linalg.Subspace(c * d, A.p)
    for i in A.maximal_ideal_indices():
        op = module_mult_op(A, np.eye(A.dim, dtype=np.int64)[i], c)
        for t in range(N.shape[1]):
            span.add(op @ N[:, t] % A.p)
    gens = []
    for t in range(N.shape[1]):
        if span.add(N[:, t]):
            v = N[:, t]
            lead = int(v[np.nonzero(v)[0][0]])
            gens.append(v * pow(lead, A.p - 2, A.p) % A.p)
    W = np.zeros((c, len(gens), d), dtype=np.int64)
    for g, v in enumerate(gens):
        W[:, g, :] = v.reshape(c, d)
    return PresentationMatrix(A, W)


def _greedy_has_m2_column(M):
    A = M.algebra
    d, r = A.dim, M.rows
    V = linalg.Subspace(r * d, A.p, linearize(M).T)
    mV = linalg.Subspace(r * d, A.p)
    for i in A.maximal_ideal_indices():
        op = module_mult_op(A, np.eye(A.dim, dtype=np.int64)[i], r)
        for row in V.basis:
            mV.add(op @ row % A.p)
    non_m2 = [t * d + i for t in range(r) for i in range(1 + A.e)]
    B = V.basis.T
    K = linalg.nullspace(B[non_m2, :], A.p)
    for t in range(K.shape[1]):
        vec = B @ K[:, t] % A.p
        if vec.any() and not mV.contains(vec):
            return True
    return False


def _greedy_endomorphism_basis(M):
    A = M.algebra
    p, d, C = A.p, A.dim, A.mult_table
    r, c = M.rows, M.cols
    n0 = r * r * d
    sys = np.zeros((r * c * d, n0 + c * c * d), dtype=np.int64)
    for i in range(r):
        for j in range(c):
            eq = slice((i * c + j) * d, (i * c + j + 1) * d)
            for l in range(r):
                block = np.einsum("def,e->df", C, M.entries[l, j]) % p
                sys[eq, (i * r + l) * d:(i * r + l + 1) * d] = block.T
            for l in range(c):
                block = np.einsum("def,d->ef", C, M.entries[i, l]) % p
                sys[eq, n0 + (l * c + j) * d:n0 + (l * c + j + 1) * d] = -block.T % p
    N = linalg.nullspace(sys, p)
    cok = CokernelSpace(M)
    q = cok.length
    span = linalg.Subspace(q * q, p)
    basis = []
    for t in range(N.shape[1]):
        v = _coker_operator(cok, N[:n0, t].reshape(r, r, d)).reshape(-1)
        if span.add(v):
            basis.append(v.reshape(q, q))
    return np.stack(basis) if basis else np.zeros((0, q, q), dtype=np.int64)


def _same(got, ref):
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _cases(p, seed):
    """Seeded minimal presentations over S:p, each followed by its first
    syzygy; shapes include r = 1 and c = 0."""
    A = build_algebra(AlgebraSpec.canonical_s(p))
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (1, 0), (2, 0)]
    for k in range(32):
        r, c = shapes[k % len(shapes)]
        ent = rng.integers(0, p, size=(r, c, A.dim))
        ent[:, :, 0] = 0  # minimal
        if k % 3 == 0:
            ent[:, :, 1 + A.e:] = 0  # linear entries: larger syzygies
        mat = PresentationMatrix(A, ent)
        yield mat
        if mat.cols:
            yield syzygy(mat)


def _verdicts_and_witnesses(p, seed):
    """sha256 of is_indecomposable's verdicts and idempotents, and of
    is_equivalent's witnesses for each case against a seeded P*M*Q, over
    the cases with at most two rows (and two columns, for is_equivalent)."""
    rng = np.random.default_rng(seed + 1000)
    h = hashlib.sha256()
    for mat in _cases(p, seed):
        if mat.rows > 2 or not mat.is_minimal:
            continue
        A = mat.algebra
        indec, idem = is_indecomposable(mat)
        h.update(bytes([indec]) + (b"" if idem is None else idem.tobytes()))
        if mat.cols > 2:
            continue
        P, Q = (rng.integers(0, p, size=(n, n, A.dim)) for n in (mat.rows, mat.cols))
        while not (linalg.det_nonzero(P[:, :, 0], p) and linalg.det_nonzero(Q[:, :, 0], p)):
            P[:, :, 0] = rng.integers(0, p, size=(mat.rows, mat.rows))
            Q[:, :, 0] = rng.integers(0, p, size=(mat.cols, mat.cols))
        moved = PresentationMatrix(A, ring_matmul(A, ring_matmul(A, P, mat.entries), Q))
        w = is_equivalent(mat, moved)
        assert w is not None and w.verify(mat, moved)
        h.update(w.P.tobytes() + w.Q.tobytes())
    return h.hexdigest()


# The digests that is_indecomposable with its per-column top action and
# is_equivalent with its index-loop Q0 system gave on these cases.
_PINNED = {
    2: "293a78bbc3b1af408f127a2f9fce2839dbb557a91fc60cb55ce4a0b8d1b96372",
    3: "fe8b971d557326dad99e4ff5ed84535308bb0b898a4cd1b41c72a065267d3371",
    5: "c48cb7d758ac1db978e36d8f0a747470bd1d69987c19856642684e238cf2c38f",
}


@pytest.mark.parametrize("p, seed", [(2, 11), (3, 12), (5, 13)])
def test_one_rref_span_building_matches_greedy_add(p, seed, monkeypatch):
    aux = np.random.default_rng(seed + 2000)
    for mat in _cases(p, seed):
        A = mat.algebra
        assert _same(linearize(mat), _loop_linearize(mat))
        cok = CokernelSpace(mat)
        elements = list(np.eye(A.dim, dtype=np.int64)) + [aux.integers(0, p, size=A.dim)]
        for a in elements:
            assert _same(cok.mult_op(a), _loop_cokernel_mult_op(cok, a))
        for k in (0, 1, 4):
            V = aux.integers(-p, 2 * p, size=(cok.ambient, k))
            assert _same(cok.project(V), _loop_project(cok, V))
        if mat.rows <= 2:
            _, basis = endomorphism_space(mat)
            assert _same(basis, _greedy_endomorphism_basis(mat))
        if not (mat.cols and mat.is_minimal):  # zero columns: unit syzygies
            continue
        assert _same(syzygy(mat).entries, _greedy_syzygy(mat).entries)
        assert has_m2_column(mat) == _greedy_has_m2_column(mat)
        if mat.rows <= 2:
            ext = ext1(mat, mat)
            with monkeypatch.context() as m:
                m.setattr(CokernelSpace, "mult_op", _loop_cokernel_mult_op)
                ref = ext1(mat, mat)
            assert ext.rank == ref.rank == len(ext.representatives)
            for w, w_ref in zip(ext.representatives, ref.representatives):
                assert _same(w, w_ref)
                lift = ext.lift(w)
                assert _same(lift.entries, _loop_lift(ext, w))
                assert _same(ext.class_of(lift).coords, _loop_class_coords(ext, lift))
    assert _verdicts_and_witnesses(p, seed) == _PINNED[p]
