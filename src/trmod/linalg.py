"""Dense exact linear algebra over prime fields F_p.

Matrices are int64 numpy arrays with entries reduced mod p.  Gaussian
elimination runs on the rows as lists of Python ints, which the
interpreter handles faster than numpy scalars and which cannot
overflow.  The matrices it meets are small and mostly zero, so each
pivot step updates the other rows only at the pivot row's nonzero
columns, all at or right of the pivot; the zeros it skips would add
nothing, so the result is that of the dense update.  A stack of many
small systems (`solve_stack`) is eliminated at once
instead, one numpy step per pivot for the whole stack.

All subspaces are represented by their reduced row-echelon form (RREF),
which is canonical: two generating sets span the same subspace iff their
RREFs are byte-identical.
"""

from __future__ import annotations

import bisect

import numpy as np


def _rref_rows(rows: list[list[int]], n: int, p: int, _above: bool = True) -> list[int]:
    """RREF mod p of `rows` (lists of ints in [0, p), n columns), in place.

    Returns the pivot columns; the first len(pivots) rows are then the
    nonzero rows of the RREF.  With `_above` false only the rows below
    each pivot are cleared: the rows are left in echelon form, which has
    the same pivots.
    """
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = r
        while pr < m and not rows[pr][c]:
            pr += 1
        if pr == m:
            continue
        piv = rows[pr]
        rows[pr] = rows[r]
        rows[r] = piv
        # the pivot row is zero left of c: only its nonzeros from c on act
        nz = [j for j in range(c, n) if piv[j]]
        if piv[c] != 1:
            iv = pow(piv[c], p - 2, p)
            for j in nz:
                piv[j] = piv[j] * iv % p
        for i in range(0 if _above else r + 1, m):
            row = rows[i]
            f = row[c]
            if f and i != r:
                f = p - f
                for j in nz:
                    row[j] = (row[j] + f * piv[j]) % p
        pivots.append(c)
        r += 1
    return pivots


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.int64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    return A


def rref(A, p: int):
    """Reduced row-echelon form mod p.

    Returns:
        (R, pivots): R the RREF (new array, same shape), pivots the list
        of pivot column indices (length = rank).
    """
    R = _as_matrix(A) % p
    rows = R.tolist()
    pivots = _rref_rows(rows, R.shape[1], p)
    if pivots:
        R[:] = rows
    return R, pivots


def rank(A, p: int) -> int:
    """Rank mod p, by forward elimination only."""
    R = _as_matrix(A) % p
    return len(_rref_rows(R.tolist(), R.shape[1], p, _above=False))


def independent_columns(A, p: int, skip: int = 0) -> list[int]:
    """Columns of A past the first `skip` that lie outside the span of
    the columns before them, shifted to count from `skip`.

    These are the vectors a loop of `Subspace.add` over A's columns in
    order keeps once it has added the first `skip`: the pivot columns of
    one RREF.
    """
    _, pivots = rref(A, p)
    return [c - skip for c in pivots if c >= skip]


def nullspace(A, p: int) -> np.ndarray:
    """Basis of {x : A x = 0 mod p}, as columns of an (n, k) array.

    The basis is the canonical one read off the RREF (one vector per
    free column, unit coordinate at the free column).
    """
    A = _as_matrix(A) % p
    n = A.shape[1]
    rows = A.tolist()
    pivots = _rref_rows(rows, n, p)
    piv_set = set(pivots)
    free = [c for c in range(n) if c not in piv_set]
    N = np.zeros((n, len(free)), dtype=np.int64)
    if free:
        N[free, range(len(free))] = 1
        if pivots:
            # RREF row t, read at the free columns, is -N[pivots[t]]
            N[pivots] = [[-row[f] % p for f in free] for row in rows[:len(pivots)]]
    return N


def solve(A, b, p: int):
    """One solution x of A x = b mod p, or None if inconsistent."""
    A = _as_matrix(A)
    b = np.asarray(b, dtype=np.int64).reshape(-1) % p
    n = A.shape[1]
    aug = np.concatenate([A % p, b.reshape(-1, 1)], axis=1)
    R, pivots = rref(aug, p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = R[: len(pivots), n]
    return x


def _stack_dtype(p: int):
    """The narrowest integer type that holds every value the stacked
    elimination forms: entries below p and products below p^2."""
    return np.int32 if p * p < 1 << 31 else np.int64


def _eliminate_stack(T: np.ndarray, p: int, ncols: int):
    """Forward Gaussian elimination mod p, in place, of the matrices
    T[:, :, k] of an (m, w, B) array with entries in [0, p), over their
    first `ncols` columns.

    The stack is the last axis, so each operation is elementwise over
    the whole stack.  Step r finds pivot r of every matrix at once: each
    matrix takes the first column with a nonzero in rows r and below,
    swaps the first such row up to row r, scales it to 1 and clears that
    column in the rows below.  Returns (rank, pivots): the rank of each
    matrix, and an (m, B) array of the column of each row's pivot,
    `ncols` for the rows past the rank.  Each matrix ends in echelon
    form, with the pivots of its RREF.
    """
    m, _, B = T.shape
    # inverse[0] = 1 leaves row r as it is in a matrix with no pivot left
    inverse = np.array([1] + [pow(a, p - 2, p) for a in range(1, p)], dtype=T.dtype)
    rank = np.zeros(B, dtype=np.int64)
    pivots = np.full((m, B), ncols, dtype=np.int64)
    each = np.arange(B)
    for r in range(min(m, ncols)):
        nonzero = T[r:, :ncols] != 0
        cols = nonzero.any(axis=0)
        has = cols.any(axis=0)
        if not has.any():
            break
        c = cols.argmax(axis=0)
        below = r + nonzero[:, c, each].argmax(axis=0)
        piv = T[below, :, each].T
        T[below, :, each] = T[r].T
        T[r] = piv * inverse[piv[c, each]] % p
        f = T[r + 1:, c, each] * has
        T[r + 1:] -= f[:, None] * T[r]
        T[r + 1:] %= p
        pivots[r, has] = c[has]
        rank[has] = r + 1
    return rank, pivots


def solve_stack(A, b, p: int):
    """Solve A[k] x = b[k] mod p for a (B, m, n) stack A and (B, m) b.

    Returns (ok, X): ok[k] says whether system k is consistent, and then
    X[k] is `solve(A[k], b[k], p)` byte for byte: a forward elimination
    of [A | b] finds the same pivots as the RREF, and back-substitution
    on the b column with the free coordinates 0 gives the one solution
    that RREF reads off.  X[k] is 0 where ok[k] is false.
    """
    A = np.asarray(A, dtype=np.int64)
    B, m, n = A.shape
    T = np.empty((m, n + 1, B), dtype=_stack_dtype(p))
    T[:, :n] = A.transpose(1, 2, 0) % p
    T[:, n] = np.asarray(b, dtype=np.int64).reshape(B, m).T % p
    rank, pivots = _eliminate_stack(T, p, n)
    # rows past the rank are zero left of b; a nonzero b there is 0 = b_i
    ok = ~((T[:, n] != 0) & (np.arange(m)[:, None] >= rank)).any(axis=0)
    # row r is 1 at its pivot and 0 left of it: x[pivot] = b_r - row_r . x
    X = np.zeros((n + 1, B), dtype=np.int64)
    each = np.arange(B)
    for r in range(min(m, n) - 1, -1, -1):
        row = T[r].astype(np.int64)
        live = rank > r
        X[pivots[r, live], each[live]] = ((row[n] - (row[:n] * X[:n]).sum(axis=0)) % p)[live]
    return ok, X[:n].T * ok[:, None]


def inv(A, p: int):
    """Inverse of a square matrix mod p, or None if singular."""
    A = _as_matrix(A)
    n = A.shape[0]
    aug = np.concatenate([A % p, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        return None
    return R[:, n:].copy()


def det_nonzero(A, p: int) -> bool:
    A = _as_matrix(A)
    return rank(A, p) == A.shape[0]


class Subspace:
    """A subspace of F_p^n maintained in canonical RREF row form."""

    def __init__(self, n: int, p: int, vectors=None):
        self.n = n
        self.p = p
        if vectors is None or len(vectors) == 0 or n == 0:
            self.basis = np.zeros((0, n), dtype=np.int64)
            self.pivots: list[int] = []
        else:
            V = np.asarray(vectors, dtype=np.int64).reshape(-1, n)
            self.basis, self.pivots = rref(V, p)
            self.basis = self.basis[: len(self.pivots)]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def reduce(self, v) -> np.ndarray:
        """Residual of v, or of each row of a stack v, after reduction
        against the basis.

        Each basis row is 1 at its own pivot and 0 at the others, so the
        coefficient of row i is v's entry at pivot i.
        """
        v = np.asarray(v, dtype=np.int64)
        return (v - v[..., self.pivots] @ self.basis) % self.p

    def add(self, v) -> bool:
        """Grow the subspace by v.  Returns True if the dimension grew."""
        r = self.reduce(v)
        nz = np.flatnonzero(r)
        if not nz.size:
            return False
        c = int(nz[0])
        r = r * pow(int(r[c]), self.p - 2, self.p) % self.p
        basis = (self.basis - np.outer(self.basis[:, c], r)) % self.p
        k = bisect.bisect(self.pivots, c)
        self.basis = np.insert(basis, k, r, axis=0)
        self.pivots.insert(k, c)
        return True

    def key(self) -> bytes:
        return self.dim.to_bytes(4, "little") + self.basis.tobytes()

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.p == other.p
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.n, self.p, self.key()))
