"""Presentation matrices and their cokernel invariants.

A module is given as the cokernel of a rectangular matrix of ring
elements; everything here reduces to exact linear algebra over F_p via
the linearized map (each ring entry becomes a dim x dim multiplication
block).  Matrix equivalence uses the graded normal form: for minimal
matrices M = M1 + M2 (degree-1 and degree-2 parts), ring equivalence is
a GL_r(k) x GL_c(k) orbit problem on (M1, M2 mod {A*M1 + M1*B}) because
m^3 = 0 kills every higher interaction term.

The same grading shapes lin M itself.  For minimal M, in degree order
lin M = [[0, 0, 0], [L1, 0, 0], [Q, Lam, 0]]: L1 is the (r*e) x c
linear part, Lam the (r*s2) x (c*e) map from degree 1 to degree 2.
When rank L1 = c, rank lin M = c + rank Lam and ker lin M =
ker Lam + R_2^c, with the canonical kernel basis carried over column by
column.  `graded_rank` and `graded_nullspace` eliminate only these
blocks, and raise ValidationError on a non-minimal M, where the zero
blocks are not zero; every rank and kernel of lin M on a resolution
(`syzygy`, `has_m2_column`, the certifier's exactness ranks) goes
through them.

A resolution step with rank L1 = c (every step of a totally reflexive
module, whose syzygies are linear) eliminates Lam alone.  Its canonical
kernel K gives the generators of degree 1, all of them kept, since
m*ker = R_1*K lies in R_2^c; the unit vector of R_2^c at t is a further
generator iff no vector of span(R_1*K) has its last nonzero coordinate
at t, which one forward elimination of R_1*K with its columns reversed
decides.  `prune_presentation` computes no kernel at all then: every
kernel vector has zero degree-0 coordinates, so no column is redundant.

Each matrix records the ranks of its blocks in three int slots, so a
differential is eliminated once of each kind however many callers ask:
rank L1 from `_linear_rank` (or, for a syzygy built from ker Lam, from
that kernel's dimension), rank Lam from `_lam_kernel` or `graded_rank`,
and rank lin(M^T) from `totref._dual_rank`.  `is_minimal` likewise
scans the constant coefficients once, on its first ask.  The entries
are read-only, so a record cannot go stale; kernels, syzygies and
cokernel models are never stored, and a matrix made afresh, even with
equal entries, starts with empty records.

Endomorphisms of coker M are pairs (phi0, phi1) with phi0*M = M*phi1,
and the grading splits this system too: the degree-0 parts (P0, Q0)
of a solution are exactly those with P0*M1 = M1*Q0 and P0*M2 - M2*Q0
in the span of `correction_space(M)`.  So the top algebra {P0}, which
decides `is_indecomposable`, comes from r*r + c*c unknowns
(`_top_algebra`).  The full system and the q x q operators it induces
on the cokernel are built by `endomorphism_space`, and by
`is_indecomposable` only for a module it finds decomposable, and then
only for the kernel columns its idempotent is made of.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import linalg
from .algebra import GradedLocalAlgebra, RingElement
from .errors import BudgetExceededError, ValidationError

DEFAULT_BUDGET = 2_000_000


class PresentationMatrix:
    """r x c matrix of ring elements presenting coker(R^c -> R^r).

    Entries are stored as one read-only (r, c, dim) int64 array over F_p.
    `rank_l1`, `rank_lam` and `rank_dual` record rank L1, rank Lam and
    rank lin(M^T) once computed, None before (see the module docstring);
    `_minimal` records `is_minimal` on its first ask.
    """

    __slots__ = ("algebra", "entries", "rank_l1", "rank_lam", "rank_dual", "_minimal")

    def __init__(self, algebra: GradedLocalAlgebra, entries: np.ndarray):
        entries = np.asarray(entries, dtype=np.int64) % algebra.p
        if entries.ndim != 3 or entries.shape[2] != algebra.dim:
            raise ValidationError(
                f"entry array must have shape (r, c, {algebra.dim})"
            )
        entries.setflags(write=False)
        self.algebra = algebra
        self.entries = entries
        self.rank_l1 = self.rank_lam = self.rank_dual = self._minimal = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_exprs(cls, algebra, rows_of_exprs) -> "PresentationMatrix":
        r = len(rows_of_exprs)
        c = len(rows_of_exprs[0]) if r else 0
        parse = algebra.parse_coeffs
        flat = []
        for row in rows_of_exprs:
            if len(row) != c:
                raise ValidationError("ragged matrix")
            flat.extend(parse(str(text)) for text in row)
        return cls(algebra, np.array(flat, dtype=np.int64).reshape(r, c, algebra.dim))

    @classmethod
    def zeros(cls, algebra, r, c) -> "PresentationMatrix":
        return cls(algebra, np.zeros((r, c, algebra.dim), dtype=np.int64))

    # -- basic shape ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_minimal(self) -> bool:
        """No unit entries (every entry lies in m); scanned once per matrix."""
        if self._minimal is None:
            self._minimal = not self.entries[:, :, 0].any()
        return self._minimal

    @property
    def is_upper_triangular(self) -> bool:
        return self.is_square and not self.entries[_below_diagonal(self.rows)].any()

    def entry(self, i, j) -> RingElement:
        return RingElement(self.algebra, self.entries[i, j].copy())

    def transpose(self) -> "PresentationMatrix":
        return PresentationMatrix(self.algebra, np.swapaxes(self.entries, 0, 1).copy())

    def linear_part(self) -> np.ndarray:
        """(r, c, e) array of degree-1 coefficients."""
        A = self.algebra
        return self.entries[:, :, 1 : 1 + A.e].copy()

    def quadratic_part(self) -> np.ndarray:
        """(r, c, s2) array of degree-2 coefficients."""
        A = self.algebra
        return self.entries[:, :, 1 + A.e :].copy()

    def to_exprs(self) -> list[list[str]]:
        A = self.algebra
        return [
            [A.format_element(self.entries[i, j]) for j in range(self.cols)]
            for i in range(self.rows)
        ]

    def key(self) -> bytes:
        return self.entries.tobytes() + bytes([self.rows % 256, self.cols % 256])

    def __eq__(self, other):
        return (
            isinstance(other, PresentationMatrix)
            and self.entries.shape == other.entries.shape
            and np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PresentationMatrix({self.to_exprs()})"


@functools.cache
def _below_diagonal(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.tril_indices(n, -1), built once per n and read-only."""
    rows, cols = np.tril_indices(n, -1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


# -- ring-matrix arithmetic ----------------------------------------------------


def ring_matmul(A: GradedLocalAlgebra, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Product of ring matrices given as (r, k, dim) and (k, c, dim) arrays.

    Two contractions: the coefficient products summed over k, then the
    (dim^2, dim) multiplication table applied to each entry's pairs.
    """
    d = A.dim
    pairs = np.einsum("ikd,kje->ijde", X, Y)
    return pairs.reshape(pairs.shape[:2] + (d * d,)) @ A.mult_table.reshape(d * d, d) % A.p


def ring_identity(A: GradedLocalAlgebra, n: int) -> np.ndarray:
    out = np.zeros((n, n, A.dim), dtype=np.int64)
    out[:, :, 0] = np.eye(n, dtype=np.int64)
    return out


def linearize(M: PresentationMatrix) -> np.ndarray:
    """k-linear map R^c -> R^r of M, as an (r*dim) x (c*dim) matrix.

    Block (i, j) is the multiplication operator of entry (i, j).
    """
    A = M.algebra
    lin = np.einsum("ijs,skl->ikjl", M.entries, A._mult_ops) % A.p
    return lin.reshape(M.rows * A.dim, M.cols * A.dim)


# -- graded blocks of lin M ----------------------------------------------------


def _lin_block(M: PresentationMatrix, rows: slice, cols: slice) -> np.ndarray:
    """The submatrix of lin M of basis rows `rows` and basis columns `cols`
    of every block, for minimal M: `linearize` on a slice of the
    multiplication operators, skipping the zero constant coefficients."""
    A = M.algebra
    ops = A._mult_ops[1:, rows, cols]
    blk = np.einsum("ijs,skl->ikjl", M.entries[:, :, 1:], ops) % A.p
    return blk.reshape(M.rows * ops.shape[1], M.cols * ops.shape[2])


def _require_minimal(M: PresentationMatrix, what: str) -> None:
    if not M.is_minimal:
        raise ValidationError(f"{what} requires a minimal presentation matrix")


def _linear_rank(M: PresentationMatrix) -> int:
    """rank L1 of the (r*e) x c matrix of the columns' linear parts,
    eliminated as its transpose (c rows) once per matrix."""
    if M.rank_l1 is None:
        r, c, e = M.rows, M.cols, M.algebra.e
        M.rank_l1 = linalg.rank(
            M.entries[:, :, 1:1 + e].transpose(1, 0, 2).reshape(c, r * e), M.algebra.p)
    return M.rank_l1


def _lam(M: PresentationMatrix) -> np.ndarray:
    """Lam, the (r*s2) x (c*e) block of lin M from degree 1 to degree 2."""
    e = M.algebra.e
    return _lin_block(M, slice(1 + e, None), slice(1, 1 + e))


def graded_rank(M: PresentationMatrix) -> int:
    """rank(lin M) of a minimal M, eliminating only its nonzero blocks.

    In graded coordinates lin M = [[0, 0, 0], [L1, 0, 0], [Q, Lam, 0]]:
    entries in m send R_0 to R_1 + R_2 (the (r*e) x c linear part L1 and
    the quadratic part Q), R_1 to R_2 (the (r*s2) x (c*e) block Lam) and
    R_2 to 0.  When rank L1 = c the degree-0 columns are independent of
    everything else, so rank(lin M) = c + rank Lam, with rank Lam read
    from M's record once `_lam_kernel` (a `syzygy`) or an earlier call
    has eliminated Lam; otherwise the (r*(e+s2)) x (c*(1+e)) nonzero
    block is eliminated.  Raises ValidationError on a non-minimal M,
    where these blocks are not lin M.
    """
    _require_minimal(M, "graded_rank")
    A = M.algebra
    e, c = A.e, M.cols
    if _linear_rank(M) == c:
        if M.rank_lam is None:
            M.rank_lam = linalg.rank(_lam(M), A.p)
        return c + M.rank_lam
    return linalg.rank(_lin_block(M, slice(1, None), slice(0, 1 + e)), A.p)


def _lam_kernel(M: PresentationMatrix) -> np.ndarray:
    """Canonical kernel basis of Lam as (c*e, k) columns; the one
    elimination of Lam, whose rank c*e - k it records on M."""
    K = linalg.nullspace(_lam(M), M.algebra.p)
    M.rank_lam = K.shape[0] - K.shape[1]
    return K


def _graded_kernel(M: PresentationMatrix, K: np.ndarray, units: list[int]) -> np.ndarray:
    """The columns of K in the degree-1 coordinates of R^c and the unit
    vectors of R_2^c at indices `units`, as one (c*d, k) matrix with its
    columns ordered by their last nonzero coordinate: column t of the
    canonical K ends at its free coordinate."""
    A = M.algebra
    c, d, e, s2 = M.cols, A.dim, A.e, A.s2
    k = K.shape[1]
    free = (K.shape[0] - 1 - (K[::-1] != 0).argmax(axis=0)).tolist() if K.size else []
    last = [f // e * d + 1 + f % e for f in free] + [u // s2 * d + 1 + e + u % s2 for u in units]
    V = np.zeros((c, d, len(last)), dtype=np.int64)
    V[:, 1:1 + e, :k] = K.reshape(c, e, k)
    V = V.reshape(c * d, len(last))
    V[last[k:], range(k, len(last))] = 1
    return V[:, sorted(range(len(last)), key=last.__getitem__)]


def graded_nullspace(M: PresentationMatrix) -> np.ndarray:
    """linalg.nullspace(linearize(M)) of a minimal M, byte for byte.

    When rank L1 = c (see `graded_rank`), L1 x0 = 0 forces x0 = 0, so
    ker lin M = ker Lam + R_2^c has zero degree-0 coordinates and is the
    kernel of [Lam 0], the degree-2 rows and degree >= 1 columns.  A
    column is free iff some kernel vector ends there, so the degree-0
    columns are pivots and the other columns are free in lin M iff free
    in [Lam 0]; the canonical basis of lin M (one vector per free
    column, in column order) is then the canonical basis of Lam in the
    degree-1 coordinates and, for the zero degree-2 columns, the unit
    vectors of R_2^c.  Otherwise lin M is eliminated without its zero
    degree-0 rows.  Raises ValidationError on a non-minimal M.
    """
    _require_minimal(M, "graded_nullspace")
    A = M.algebra
    c = M.cols
    if _linear_rank(M) < c:
        return linalg.nullspace(_lin_block(M, slice(1, None), slice(None)), A.p)
    return _graded_kernel(M, _lam_kernel(M), list(range(c * A.s2)))


# -- cokernel structure --------------------------------------------------------


def coker_length(M: PresentationMatrix) -> int:
    """k-length of coker M = r*dim(R) - rank(linearized M)."""
    if M.rows == 0:
        return 0
    if M.cols == 0:
        return M.rows * M.algebra.dim
    if M.is_minimal:
        return M.rows * M.algebra.dim - graded_rank(M)
    return M.rows * M.algebra.dim - linalg.rank(linearize(M), M.algebra.p)


class CokernelSpace:
    """Concrete model of coker M as a complement of im(lin M) in F_p^{r*dim}.

    The complement is spanned by the unit vectors at `coords`, the
    non-pivot coordinates of the RREF of im(lin M).  `project` maps a
    vector, or each column of a matrix, to its coset's coordinates, and
    `section` maps coordinates (one vector, or one per row) back to that
    representative.  `action` is the (dim, length, length) tensor of the
    induced multiplication by each basis element of R, built on first
    use; `mult_op` contracts it with an element's coefficients, so Hom
    and Ext computations reduce to plain matrices.
    """

    def __init__(self, M: PresentationMatrix):
        self.M = M
        A = M.algebra
        self.p = A.p
        self.ambient = M.rows * A.dim
        self.image = linalg.Subspace(self.ambient, A.p, linearize(M).T)
        piv = set(self.image.pivots)
        self.coords = [i for i in range(self.ambient) if i not in piv]
        self.length = len(self.coords)

    def project(self, v) -> np.ndarray:
        """Coordinates of v + im(M) on the complement basis; for a matrix,
        of each of its columns."""
        return self.image.reduce(np.asarray(v).T)[..., self.coords].T

    def section(self, w) -> np.ndarray:
        """A representative in F_p^{r*dim} of the coset with coordinates w
        (of each row's coset, for a stack of rows)."""
        w = np.asarray(w, dtype=np.int64)
        v = np.zeros(w.shape[:-1] + (self.ambient,), dtype=np.int64)
        v[..., self.coords] = w % self.p
        return v

    @functools.cached_property
    def action(self) -> np.ndarray:
        """action[s]: induced multiplication by basis element s of R.

        Column w of action[s] is the projection of column coords[w] of
        basis element s's operator on R^r; all dim operators are
        projected in one call.
        """
        A = self.M.algebra
        r, d, q = self.M.rows, A.dim, self.length
        big = np.einsum("tu,skl->stkul", np.eye(r, dtype=np.int64), A._mult_ops)
        cols = big.reshape(d, r * d, r * d)[:, :, self.coords]
        ops = self.project(cols.transpose(1, 0, 2).reshape(r * d, d * q))
        return ops.reshape(q, d, q).transpose(1, 0, 2)

    def mult_op(self, a_coeffs) -> np.ndarray:
        """Induced multiplication by a ring element, as length x length."""
        return np.einsum("s,skl->kl", np.asarray(a_coeffs) % self.p, self.action) % self.p


# -- minimization and syzygies -------------------------------------------------


def minimize(M: PresentationMatrix) -> PresentationMatrix:
    """Pivot away unit entries until every entry lies in m.

    The cokernel is preserved up to isomorphism.  A module that becomes
    free is reported as an n x 0 matrix.
    """
    A = M.algebra
    ent = M.entries
    while True:
        units = np.argwhere(ent[:, :, 0] % A.p)
        if not len(units):
            break
        i, j = units[0]
        uinv = RingElement(A, ent[i, j].copy()).inverse().coeffs
        # Row and column operations clear column j and row i; what is
        # left is the Schur complement rest - col * u^-1 * row.
        col = ring_matmul(A, np.delete(ent[:, [j]], i, axis=0), uinv.reshape(1, 1, -1))
        row = np.delete(ent[[i]], j, axis=1)
        rest = np.delete(np.delete(ent, i, axis=0), j, axis=1)
        ent = (rest - ring_matmul(A, col, row)) % A.p
    # Zero columns impose no relation; a free cokernel shows as r x 0.
    if ent.shape[1]:
        nonzero = [j for j in range(ent.shape[1]) if ent[:, j].any()]
        ent = ent[:, nonzero, :]
    return PresentationMatrix(A, ent)


def prune_presentation(M: PresentationMatrix):
    """Drop redundant relation columns and split off free row summands.

    A kernel vector of lin(M) with a unit coordinate j means column j is
    a ring combination of the others; an all-zero row is a free rank-1
    summand of the cokernel.  Returns (M', free_rank) with
    coker M = coker M' + R^free_rank and M' free of both defects.

    A minimal M with rank L1 = c has no such kernel vector: the degree-1
    part of M*x is L1*x0, so x0 = 0 for every x in ker lin M.  The loop
    then ends without computing the kernel.  The first pass works on M
    itself, and M comes back as it is when nothing is dropped, so its
    recorded rank L1 serves the caller's later steps too.
    """
    A = M.algebra
    p = A.p
    cur = M
    free_rank = 0
    while True:
        ent = cur.entries
        r, c = ent.shape[0], ent.shape[1]
        # zero rows are free summands
        keep_rows = [i for i in range(r) if ent[i].any()]
        if len(keep_rows) < r:
            free_rank += r - len(keep_rows)
            cur = PresentationMatrix(A, ent[keep_rows])
            continue
        if c == 0:
            break
        if cur.is_minimal and _linear_rank(cur) == c:
            break  # every kernel vector has zero degree-0 coordinates
        ker = (graded_nullspace(cur) if cur.is_minimal
               else linalg.nullspace(linearize(cur), p))
        # units[j, t]: constant coefficient of column j in kernel vector t
        units = ker[::A.dim] % p
        hits = np.flatnonzero(units.any(axis=0))
        if not hits.size:
            break
        cur = PresentationMatrix(A, np.delete(ent, np.flatnonzero(units[:, hits[0]])[0], axis=1))
    return cur, free_rank


@functools.cache
def _inverses(p: int) -> np.ndarray:
    """a^-1 mod p at index a of F_p^*, 0 at index 0 (read-only)."""
    table = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)
    table.flags.writeable = False
    return table


def syzygy(M: PresentationMatrix) -> PresentationMatrix:
    """Minimal presentation of the first syzygy of coker M.

    Columns minimally generate ker(lin M) as an R-submodule of R^c
    (Nakayama lifting from ker/m*ker): the vectors of the canonical
    kernel basis N (`graded_nullspace`) outside m*ker + span(earlier
    ones), each scaled so its first nonzero coordinate is 1.  The output
    is deterministic for a given input, which the periodicity detector
    relies on.

    When rank L1 = c, N is the canonical basis K of ker Lam (in the
    degree-1 coordinates) and the unit vectors of R_2^c, and m*ker is
    the span of R_1*K, inside R_2^c: ker has no degree-0 part, so
    R_2*ker = 0, and R_1*R_2^c = 0.  No vector of R_2^c ends at a
    coordinate of K's columns, so all of K is kept; the unit at t is
    dropped iff some vector of span(R_1*K) has its last nonzero
    coordinate at t, i.e. e_t lies in m*ker + span(earlier units).  The
    last nonzero coordinates that a span attains are the pivot columns
    of its echelon form with the columns reversed, so one forward
    elimination of R_1*K finds them.  Only Lam and the (e*k) x (c*s2)
    block R_1*K are eliminated, never [Lam 0] or the generator
    selection in R^c.
    """
    _require_minimal(M, "syzygy")
    A = M.algebra
    d, e, p = A.dim, A.e, A.p
    c = M.cols
    if c == 0:
        return PresentationMatrix.zeros(A, 0, 0)
    rank_l1 = None
    if _linear_rank(M) == c:
        K = _lam_kernel(M)
        # the generators' linear parts are K's independent columns and
        # zeros, so the syzygy's rank L1 is k, with no elimination
        rank_l1 = K.shape[1]
        n2 = c * A.s2
        # row (i, t): degree-1 basis element i times column t of K, in R_2^c
        RK = np.einsum("iab,jbt->itja", A._mult_ops[1:1 + e, 1 + e:, 1:1 + e],
                       K.reshape(c, e, -1)).reshape(-1, n2) % p
        ends = set(linalg._rref_rows(RK[:, ::-1].tolist(), n2, p, _above=False))
        V = _graded_kernel(M, K, [u for u in range(n2) if n2 - 1 - u not in ends])
    else:
        N = graded_nullspace(M)  # (c*d, k) columns
        # Generators: the columns of N independent of m*ker and of the
        # columns before them, i.e. the pivot columns of [m*N | N] past the
        # m*N block, whose column (i, t) is degree-1 basis element i times
        # kernel vector t: m^2 ker = R_1 (R_1 ker), so these span m*ker.
        # Every column lies in ker, and reading a kernel vector at N's free
        # rows (column t of N is 1 at its last nonzero entry, free[t], and 0
        # at the other free rows) gives its coordinates in the basis N, an
        # isomorphism ker -> F_p^k; so [m*N[free] | I_k] has the same pivot
        # columns, with k rows instead of c*d.  Its zero columns (degree-1
        # elements times degree-2 vectors) are never pivots and are dropped.
        free = c * d - 1 - (N[::-1] != 0).argmax(axis=0)
        mN = np.einsum("iab,jbt->jait", A._mult_ops[1:1 + e],
                       N.reshape(c, d, -1)).reshape(c * d, -1)[free]
        mN = mN[:, mN.any(axis=0)]
        keep = linalg.independent_columns(
            np.concatenate([mN, np.eye(N.shape[1], dtype=np.int64)], axis=1), p,
            skip=mN.shape[1])
        V = N[:, keep]
    # scale each generator so its first nonzero coordinate is 1
    k = V.shape[1]
    lead = V[(V != 0).argmax(axis=0), range(k)]
    V = V * _inverses(p)[lead] % p
    out = PresentationMatrix(A, V.reshape(c, d, k).transpose(0, 2, 1))
    out.rank_l1 = rank_l1
    return out


def divide(A: GradedLocalAlgebra, w, by):
    """Some r with r * by = w, or None.  (Local ring: not unique.)"""
    sol = linalg.solve(A.mult_op(by), np.asarray(w) % A.p, A.p)
    return sol


def column_reduce_to_ut(M: PresentationMatrix):
    """Column-operate a square matrix into upper triangular form, or None.

    Works bottom row up: in each row the surviving entries left of the
    diagonal must be ring multiples of some entry, which is swapped into
    the diagonal slot and used to clear the rest.  This is exactly the
    reduction available for syzygies of upper triangular totally
    reflexive matrices; on other inputs it may simply fail.
    """
    A = M.algebra
    n = M.rows
    if not M.is_square:
        return None
    ent = M.entries.copy()
    for i in range(n - 1, -1, -1):
        # find a pivot among columns 0..i dividing every other entry of row i
        pivot = None
        for j in range(i, -1, -1):
            w = ent[i, j]
            if not w.any():
                continue
            ok = True
            for j2 in range(i + 1):
                if j2 == j:
                    continue
                if ent[i, j2].any() and divide(A, ent[i, j2], w) is None:
                    ok = False
                    break
            if ok:
                pivot = j
                break
        if pivot is None:
            if ent[i, :i].any():  # row not clearable
                return None
            continue
        if pivot != i:
            ent[:, [pivot, i]] = ent[:, [i, pivot]]
        # column j2 < i minus the pivot column times r_j2, where
        # r_j2 * ent[i, i] = ent[i, j2]
        quot = np.zeros((1, i, A.dim), dtype=np.int64)
        for j2 in range(i):
            if ent[i, j2].any():
                quot[0, j2] = divide(A, ent[i, j2], ent[i, i])
        ent[:, :i] = (ent[:, :i] - ring_matmul(A, ent[:, [i]], quot)) % A.p
    return PresentationMatrix(A, ent)


def column_reduce_to_lt(M: PresentationMatrix):
    """Column-operate a square matrix into lower triangular form, or None.

    Conjugating by the index reversal turns the problem into the upper
    triangular one; the net transformation is still column ops only.
    """
    A = M.algebra
    if not M.is_square:
        return None
    rev = PresentationMatrix(A, np.ascontiguousarray(M.entries[::-1, ::-1]))
    red = column_reduce_to_ut(rev)
    if red is None:
        return None
    return PresentationMatrix(A, np.ascontiguousarray(red.entries[::-1, ::-1]))


def has_m2_column(M: PresentationMatrix) -> bool:
    """True iff some column lies in m^2*R^r after column reduction.

    Criterion: the column span V (as R-submodule) satisfies
    V ∩ m^2 R^r ⊄ mV, which is invariant under row and column
    operations over the ring.  Both sides are read off ranks, since
    m^3 = 0 and M is minimal: mV ⊆ V ∩ m^2 R^r; V / mV has dimension
    mu, the number of minimal generators of V; and V ∩ m^2 R^r has
    codimension rank(L1) in V, where L1 is the (r*e) x c matrix of the
    columns' linear parts.  So the criterion holds iff rank(L1) < mu.
    mu is c minus the rank of the constant parts of the relations among
    the columns (the kernel of lin M read at each column's unit
    coordinate), computed only when rank(L1) < c.
    """
    _require_minimal(M, "has_m2_column")
    A = M.algebra
    r, c = M.rows, M.cols
    if c == 0 or r == 0:
        return False
    lin_rank = _linear_rank(M)
    if lin_rank == c:
        return False
    relations = graded_nullspace(M)[::A.dim]
    return lin_rank < c - linalg.rank(relations, A.p)


# -- equivalence ---------------------------------------------------------------


class EquivalenceWitness:
    """Invertible ring matrices with P * M1 * Q = M2."""

    def __init__(self, algebra, P, Q):
        self.algebra = algebra
        self.P = P  # (r, r, dim)
        self.Q = Q  # (c, c, dim)

    def verify(self, M1: PresentationMatrix, M2: PresentationMatrix) -> bool:
        A = self.algebra
        prod = ring_matmul(A, ring_matmul(A, self.P, M1.entries), self.Q)
        if not np.array_equal(prod, M2.entries % A.p):
            return False
        return linalg.det_nonzero(self.P[:, :, 0], A.p) and linalg.det_nonzero(
            self.Q[:, :, 0], A.p
        )


_GL_CACHE: dict[tuple[int, int], np.ndarray] = {}
# candidate matrices eliminated, or table cells looked up, at once
_GL_CHUNK = 1 << 16


def _nonsingular(S: np.ndarray, p: int) -> np.ndarray:
    """Mask of the invertible matrices in a stack S of n x n matrices mod p."""
    return linalg.rank_stack(S, p) == S.shape[-1]


def general_linear_group(n: int, p: int) -> np.ndarray:
    """All invertible n x n matrices over F_p, as an (N, n, n) array, in
    the order of itertools.product(range(p), repeat=n*n) over the entries
    read row by row: the base-p digits of 0, 1, ..., p^(n*n) - 1, tested
    _GL_CHUNK at a time and written into an array of the group's order."""
    key = (n, p)
    if key not in _GL_CACHE:
        total = p ** (n * n)
        place = p ** np.arange(n * n - 1, -1, -1)
        GL = np.empty((_gl_order(n, p), n, n), dtype=np.int64)
        filled = 0
        for start in range(0, total, _GL_CHUNK):
            numbers = np.arange(start, min(start + _GL_CHUNK, total))
            S = (numbers[:, None] // place % p).reshape(len(numbers), n, n)
            S = S[_nonsingular(S, p)]
            GL[filled:filled + len(S)] = S
            filled += len(S)
        if filled != len(GL):
            raise AssertionError(f"found {filled} invertible matrices, expected {len(GL)}")
        _GL_CACHE[key] = GL
    return _GL_CACHE[key]


def vector_numbers(X: np.ndarray, p: int) -> np.ndarray:
    """Number of each vector along the last axis of X: its base-p digits,
    first entry most significant, as in itertools.product(range(p), ...)."""
    return X @ (p ** np.arange(X.shape[-1] - 1, -1, -1))


@functools.cache
def gl_vector_numbers(n: int, p: int) -> np.ndarray:
    """vector_numbers of the rows of every matrix of
    general_linear_group(n, p): an (N, n) array, built once per (n, p)
    and read-only."""
    table = vector_numbers(general_linear_group(n, p), p)
    table.flags.writeable = False
    return table


@functools.cache
def _all_vectors(n: int, p: int) -> np.ndarray:
    """F_p^n as a read-only (p^n, n) array, vector number k at row k."""
    table = np.arange(p ** n)[:, None] // p ** np.arange(n - 1, -1, -1) % p
    table.flags.writeable = False
    return table


def bilinear_table(A1: np.ndarray, p: int) -> np.ndarray:
    """W[u, v] = u*A1*v for every u in F_p^r and v in F_p^c.

    A1 is an (r, c, e) linear part; u and v are numbered as in
    `vector_numbers`.  Entry (i, j) of P0*A1*Q0 is W[row i of P0,
    column j of Q0].  Returns a (p^r, p^c, e) array.
    """
    r, c = A1.shape[:2]
    U, V = _all_vectors(r, p), _all_vectors(c, p)
    return (U @ (A1.transpose(2, 0, 1) @ V.T)).transpose(1, 2, 0) % p


def correction_space(M: PresentationMatrix) -> np.ndarray:
    """Span of {A*M1 + M1*B} with A, B degree-1 scalar-shape matrices.

    Returns an (r*c*s2, r*r*e + c*c*e) matrix whose columns are the
    degree-2 coefficient vectors of the generators: first A = E_il * x_m
    acting on the left, in (i, l, m) order, then B = E_lj * x_m acting
    on the right, in (l, j, m) order.
    """
    A = M.algebra
    r, c = M.rows, M.cols
    e, s2 = A.e, A.s2
    M1 = M.linear_part()  # (r, c, e)
    # products x_m * x_f of degree-1 basis elements, in m^2 coordinates
    deg1_prod = A.mult_table[1:1 + e, 1:1 + e, 1 + e:]
    # (A*M1)[a, j] = x_m * M1[l, j] when a = i, and
    # (M1*B)[i, b] = M1[i, l] * x_m when b = j
    left = np.einsum("ai,ljf,mfs->ajsilm", np.eye(r, dtype=np.int64), M1, deg1_prod)
    right = np.einsum("bj,ilf,mfs->ibsljm", np.eye(c, dtype=np.int64), M1, deg1_prod)
    return np.concatenate([left.reshape(r * c * s2, r * r * e),
                           right.reshape(r * c * s2, c * c * e)], axis=1) % A.p


def _build_correction_matrices(M: PresentationMatrix, coeffs):
    """Rebuild degree-1 ring matrices (A, B) from correction coefficients,
    read in the column layout of `correction_space`."""
    alg = M.algebra
    r, c, e = M.rows, M.cols, alg.e
    coeffs = np.asarray(coeffs) % alg.p
    Amat = np.zeros((r, r, alg.dim), dtype=np.int64)
    Bmat = np.zeros((c, c, alg.dim), dtype=np.int64)
    Amat[:, :, 1:1 + e] = coeffs[:r * r * e].reshape(r, r, e)
    Bmat[:, :, 1:1 + e] = coeffs[r * r * e:].reshape(c, c, e)
    return Amat, Bmat


def is_equivalent(
    M1: PresentationMatrix, M2: PresentationMatrix, budget: int = DEFAULT_BUDGET
):
    """Decide P*M1*Q = M2 for invertible ring matrices; witness or None.

    Exhaustive over scalar parts P0 in GL_r; for each P0 the scalar part
    Q0 is confined to an affine solution space of P0*A1*Q0 = B1, and the
    quadratic parts are compared modulo the correction space — complete
    by the graded normal form.  Raises BudgetExceededError rather than
    guessing when the scalar search is too large.

    Most P0 admit no Q0 at all.  Entry (i, j) of P0*A1*Q0 is u_i*A1*v
    for u_i row i of P0 and v column j of Q0, so P0*A1*Q0 = B1 has a
    solution (singular or not) iff every column j has some v with
    u_i*A1*v = B1[i, j] for all i.  One table of u*A1*v over all u, v
    (`bilinear_table`) answers that for a block of P0 at a time with one
    lookup, and only the P0 that pass reach the linear solve.  The
    skipped P0 are exactly those whose solve would fail, so the witness,
    the order in which candidates are tried and the budget count are
    those of the full scan.

    Only the pairs whose quadratic parts differ, P0^-1*B2*Q0^-1 != A2,
    reach the correction system: `correction_space(M1)` is built when
    the first of them appears, and a pair with equal quadratic parts
    takes the canonical solution 0 without a solve (`_try_quadratic`).
    """
    if M1.algebra is not M2.algebra and M1.algebra.spec != M2.algebra.spec:
        raise ValidationError("matrices over different algebras")
    alg = M1.algebra
    if not (M1.is_minimal and M2.is_minimal):
        raise ValidationError("equivalence requires minimal matrices")
    if M1.rows != M2.rows or M1.cols != M2.cols:
        return None
    r, c = M1.rows, M1.cols
    if r == 0 or c == 0:
        return EquivalenceWitness(alg, ring_identity(alg, r), ring_identity(alg, c))
    p = alg.p
    gl_r_size = _gl_order(r, p)
    if gl_r_size > budget:
        raise BudgetExceededError(
            "equivalence search budget exceeded", required=gl_r_size, budget=budget
        )
    A1 = M1.linear_part()
    B1 = M2.linear_part()
    A2 = M1.quadratic_part().reshape(-1)
    B2 = M2.quadratic_part()
    # built once a pair of scalar parts needs a correction
    corr = functools.cache(lambda: correction_space(M1))
    GLr = general_linear_group(r, p)
    # match[u, v, i, j]: u*A1*v equals B1[i, j]
    match = (bilinear_table(A1, p)[:, :, None, None, :] == B1).all(axis=4)
    row_of = gl_vector_numbers(r, p)
    rows = np.arange(r)
    block = max(1, _GL_CHUNK // match[0, :, 0].size // r)  # r * p^c * c cells per P0
    passing = (P0 for a in range(0, len(GLr), block) for P0 in GLr[a:a + block][
        match[row_of[a:a + block], :, rows, :].all(1).any(1).all(1)])
    checked = 0
    # column j of Q0 solves L*q = B1[:, j], for L the (r*e) x c matrix of
    # P0*A1: one elimination of [L | B1] gives each column's canonical
    # solution, and Q0 = part + N*Z runs over all of them, Z read row by
    # row in the order of the canonical solutions of the (r*c*e) x c^2
    # system on the entries of Q0
    B1cols = B1.transpose(0, 2, 1).reshape(r * alg.e, c)
    for P0 in passing:
        L = np.einsum("il,ljf->ifj", P0, A1).reshape(r * alg.e, c) % p
        R, pivots = linalg.rref(np.concatenate([L, B1cols], axis=1), p)
        if pivots and pivots[-1] >= c:
            continue
        part = np.zeros((c, c), dtype=np.int64)
        part[pivots] = R[:len(pivots), c:]
        null = linalg.nullspace(L, p)
        checked += p ** null.size
        if checked > budget:
            raise BudgetExceededError(
                "equivalence search budget exceeded", required=checked, budget=budget
            )
        for combo in itertools.product(range(p), repeat=null.size):
            Q0 = (part + null @ np.array(combo, dtype=np.int64).reshape(-1, c)) % p
            if not linalg.det_nonzero(Q0, p):
                continue
            witness = _try_quadratic(M1, M2, P0, Q0, corr, A2, B2)
            if witness is not None:
                return witness
    return None


def _try_quadratic(M1, M2, P0, Q0, corr, A2_flat, B2):
    """Given matching linear parts, solve the quadratic membership and
    construct an exact witness.  `corr` returns `correction_space(M1)`;
    it is called only when the quadratic parts differ, since a zero
    right side has the canonical solution 0."""
    alg = M1.algebra
    p = alg.p
    P0inv = linalg.inv(P0, p)
    Q0inv = linalg.inv(Q0, p)
    target = np.einsum("il,ljs,jm->ims", P0inv, B2, Q0inv) % p
    rhs = (target.reshape(-1) - A2_flat) % p
    if not rhs.any():
        coeffs = np.zeros((M1.rows ** 2 + M1.cols ** 2) * alg.e, dtype=np.int64)
    else:
        coeffs = linalg.solve(corr(), rhs, p)
        if coeffs is None:
            return None
    return _lift_witness(M1, M2, P0, Q0, coeffs)


def _lift_witness(M1, M2, P0, Q0, coeffs) -> EquivalenceWitness:
    """P = P0*(I + A), Q = (I + B)*Q0 for the degree-1 corrections (A, B)
    read from `correction_space` coefficients, verified to carry M1 to M2.

    A and B have degree-1 entries and m^3 = 0, so (I + A)*M1*(I + B) =
    M1 + A*L + L*B for L the linear part of M1, and the degree-2 parts of
    A*L + L*B are corr @ coeffs.
    """
    alg = M1.algebra
    Amat, Bmat = _build_correction_matrices(M1, coeffs)
    # a scalar factor multiplies each coordinate's matrix alike
    P = np.einsum("il,ljd->ijd", P0, ring_identity(alg, M1.rows) + Amat) % alg.p
    Q = np.einsum("ild,lj->ijd", ring_identity(alg, M1.cols) + Bmat, Q0) % alg.p
    w = EquivalenceWitness(alg, P, Q)
    if not w.verify(M1, M2):
        raise AssertionError("internal error: constructed witness failed verification")
    return w


def _gl_order(n: int, p: int) -> int:
    order = 1
    for i in range(n):
        order *= p**n - p**i
    return order


# -- indecomposability ---------------------------------------------------------


def _commutator_system(X: np.ndarray) -> np.ndarray:
    """The linear map (P0, Q0) -> P0*X - X*Q0 for scalar P0 (r x r) and
    Q0 (c x c) and an (r, c, t) coefficient array X: an (r*c*t) x
    (r*r + c*c) matrix, rows in (i, j, coordinate) order, unknowns P0
    then Q0, each read row by row."""
    r, c, t = X.shape
    left = np.einsum("ia,ljf->ijfal", np.eye(r, dtype=np.int64), X)
    right = np.einsum("ilf,jb->ijflb", X, np.eye(c, dtype=np.int64))
    return np.concatenate([left.reshape(r * c * t, r * r),
                           -right.reshape(r * c * t, c * c)], axis=1)


def _top_algebra(M: PresentationMatrix) -> np.ndarray:
    """A basis of pi(E) = {phi0[:, :, 0]} for the endomorphisms
    (phi0, phi1) of a minimal M, as an (n, r, r) array.

    Split phi0 = P0 + P1 + P2 and phi1 = Q0 + Q1 + Q2 by degree and
    M = M1 + M2.  Since m^3 = 0, phi0*M = M*phi1 reads P0*M1 = M1*Q0 in
    degree 1 and P0*M2 - M2*Q0 = M1*Q1 - P1*M1 in degree 2, and nothing
    in higher degrees; P2 and Q2 are free.  As P1 and Q1 range over all
    degree-1 matrices the right side of degree 2 fills the span of
    `correction_space(M)`.  So P0 lies in pi(E) iff some Q0 has
    P0*M1 = M1*Q0 and W*(P0*M2 - M2*Q0) = 0, for W the left kernel of
    that span: r*c*e equations (and W's rows when M2 != 0) on the
    r*r + c*c unknowns (P0, Q0), instead of the full endomorphism system.
    """
    A = M.algebra
    p, e, r = A.p, A.e, M.rows
    sys = _commutator_system(M.entries[:, :, 1:1 + e])
    M2 = M.entries[:, :, 1 + e:]
    if M2.any():
        W = linalg.nullspace(correction_space(M).T, p).T
        sys = np.concatenate([sys, W @ _commutator_system(M2)])
    P0 = linalg.nullspace(sys % p, p)[: r * r]
    return P0[:, linalg.independent_columns(P0, p)].T.reshape(-1, r, r)


def _endomorphism_kernel(M: PresentationMatrix) -> np.ndarray:
    """Kernel N of the endomorphism system: its columns span the pairs
    (phi0, phi1) of ring matrices with phi0*M = M*phi1, phi0 read from
    the first r*r*d rows in (row, column, coefficient) order."""
    A = M.algebra
    p = A.p
    d = A.dim
    r, c = M.rows, M.cols
    # Unknowns: phi0 (r*r*d) and phi1 (c*c*d), equations phi0*M - M*phi1 = 0
    # as ring matrices, i.e. r*c*d scalar equations.
    C = A.mult_table
    # Equation (i, j, f) is coordinate f of (phi0*M - M*phi1)[i, j]:
    # d/d phi0[i, l, dd] = sum_e C[dd, e, f] M[l, j, e] and
    # d/d phi1[l, j, e] = -sum_dd C[dd, e, f] M[i, l, dd].
    sys0 = np.einsum("ab,def,lje->ajfbld", np.eye(r, dtype=np.int64), C, M.entries)
    sys1 = np.einsum("jk,def,ild->ijflke", np.eye(c, dtype=np.int64), C, M.entries)
    sys = np.concatenate([sys0.reshape(r * c * d, r * r * d) % p,
                          -sys1.reshape(r * c * d, c * c * d) % p], axis=1)
    return linalg.nullspace(sys, p)


def _endomorphism_operators(cok: CokernelSpace, N: np.ndarray) -> np.ndarray:
    """The q x q operators on cok (the CokernelSpace of M) of the phi0 of
    the columns of N, columns of M's endomorphism kernel, as (k, q, q)."""
    M = cok.M
    A = M.algebra
    d = A.dim
    r = M.rows
    q, k = cok.length, N.shape[1]
    # every phi0 linearized on R^r; the columns at cok.coords of all of
    # them, side by side, projected in one call
    phi0 = PresentationMatrix(A, N[: r * r * d].T.reshape(k * r, r, d))
    big = linearize(phi0).reshape(k, r * d, r * d)[:, :, cok.coords]
    ops = cok.project(big.transpose(1, 0, 2).reshape(r * d, k * q))
    return ops.reshape(q, k, q).transpose(1, 0, 2)


def endomorphism_space(M: PresentationMatrix):
    """(cok, basis): cok the CokernelSpace of M and basis a k-basis of
    End(coker M) as q x q operators on it.

    Endomorphisms are pairs (phi0, phi1) with phi0*M = M*phi1, the
    kernel of one linear system; the induced operator on coker M depends
    only on phi0 modulo matrices whose columns land in im(M).  Each phi0
    of the kernel basis is linearized and its columns at the cokernel
    coordinates projected, and the independent operators are kept in
    kernel order.  `is_indecomposable` solves the same system, and
    builds these operators only for the kernel columns an idempotent of
    a module it finds decomposable is made of.
    """
    cok = CokernelSpace(M)
    ops = _endomorphism_operators(cok, _endomorphism_kernel(M))
    q = cok.length
    keep = linalg.independent_columns(ops.reshape(len(ops), q * q).T, M.algebra.p)
    return cok, ops[keep]


def _charpoly_coeffs(Mt: np.ndarray, p: int) -> np.ndarray:
    """Elementary symmetric functions e_1..e_n of the eigenvalues mod p,
    at indices 1..n (index 0 holds e_0 = 1).

    Newton's identities k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} tr(M^i),
    run over the integers: the e_k of an integer matrix are integers, so
    each division by k is exact, and they reduce mod p to those of M over
    F_p.  O(n^4) operations.
    """
    n = Mt.shape[0]
    X = np.asarray(Mt).astype(object) % p
    power = np.identity(n, dtype=object)
    traces, e = [], [1]
    for k in range(1, n + 1):
        power = power.dot(X)
        traces.append(power.trace())
        e.append(sum((-1) ** (i - 1) * e[k - i] * traces[i - 1]
                     for i in range(1, k + 1)) // k)
    return np.array([x % p for x in e], dtype=np.int64)


def _radical_of_matrix_algebra(basis: np.ndarray, p: int):
    """Jacobson radical of the algebra spanned by `basis` inside M_n(F_p).

    Descending chain of solution spaces of the characteristic-p radical
    conditions: level 0 uses the trace form, level i the elementary
    symmetric function e_{p^i} of the eigenvalues, each linear on the
    previous level.  Radical elements satisfy every condition, so the
    chain always contains the radical; the result is returned only if it
    verifies as a nilpotent two-sided ideal (which forces equality),
    otherwise None.
    """
    n = basis.shape[1]
    cur = basis % p
    i = 0
    while p ** i <= n and cur.shape[0]:
        prods = np.einsum("sab,jbc->jsac", cur, cur) % p  # [j, s]: cur[s] @ cur[j]
        T = (np.trace(prods, axis1=2, axis2=3) % p if i == 0 else np.array(
            [[_charpoly_coeffs(x, p)[p ** i] for x in row] for row in prods], dtype=np.int64))
        cur = np.tensordot(linalg.nullspace(T, p).T, cur, axes=(1, 0)) % p
        i += 1
    span = linalg.Subspace(n * n, p, cur.reshape(-1, n * n))
    sides = np.concatenate([np.einsum("bij,rjk->brik", basis, cur),
                            np.einsum("rij,bjk->brik", cur, basis)]) % p
    if span.reduce(sides.reshape(-1, n * n)).any():
        return None
    layer = cur
    for _ in range(n + 2):
        if layer.shape[0] == 0:
            return cur
        prods = np.einsum("aij,rjk->arik", layer, cur) % p
        layer = linalg.Subspace(n * n, p, prods.reshape(-1, n * n)).basis.reshape(-1, n, n)
    return None


# the largest quotient E/J that is_indecomposable sweeps, in elements
_QUOTIENT_BUDGET = 1 << 22


def _quotient_idempotent(act: np.ndarray, rad: np.ndarray, p: int):
    """(comp, x) for the algebra E spanned by the n0 x n0 matrices `act`
    and a nilpotent ideal J spanned by the rows of `rad` (flattened).

    comp indexes the elements of act outside J + span(earlier ones), a
    basis of E/J; x holds the coordinates on them of the first nontrivial
    idempotent of E/J in the order of itertools.product, or is None.
    Raises BudgetExceededError when E/J has more than _QUOTIENT_BUDGET
    elements.
    """
    m, n0 = rad.shape[0], act.shape[1]
    flat = act.reshape(len(act), n0 * n0)
    comp = linalg.independent_columns(np.concatenate([rad, flat]).T, p, skip=m)
    mc = len(comp)
    if mc == 0:
        raise AssertionError("identity endomorphism lost in the quotient")
    if mc == 1:
        return comp, None  # E/J is one-dimensional: E is local
    total = p ** mc
    if total > _QUOTIENT_BUDGET:
        raise BudgetExceededError(
            f"endomorphism quotient enumeration budget exceeded: {total} "
            f"E/J elements (p^mc = {p}^{mc}), at most {_QUOTIENT_BUDGET}",
            required=total, budget=_QUOTIENT_BUDGET,
        )
    # coordinates on [rad; comp] of every product comp[a] @ comp[b] and of
    # the identity, from one elimination: the columns of full are
    # independent, so each solution is unique
    products = np.einsum("aij,bjk->abik", act[comp], act[comp])
    rhs = np.concatenate([products.reshape(mc * mc, n0 * n0),
                          np.eye(n0, dtype=np.int64).reshape(1, -1)])
    full = np.concatenate([rad, flat[comp]])
    R, pivots = linalg.rref(np.concatenate([full, rhs]).T, p)
    if pivots != list(range(m + mc)):
        raise AssertionError("element outside the endomorphism algebra")
    coords = R[m:m + mc, m + mc:]
    struct = coords[:, :-1].T.reshape(mc, mc, mc)
    one_q = coords[:, -1]
    for combo in itertools.product(range(p), repeat=mc):
        x = np.array(combo, dtype=np.int64)
        if not x.any() or (x == one_q).all():
            continue
        if (np.einsum("a,b,abk->k", x, x, struct) % p == x).all():
            return comp, x
    return comp, None


def is_indecomposable(M: PresentationMatrix):
    """Idempotent search in End(coker M) through its semisimple quotient.

    Returns (True, None) or (False, idempotent_matrix).  A nilpotent
    ideal J of E = End(coker M) contains no idempotents, and idempotents
    lift along it, so E has a nontrivial idempotent iff E/J does; the
    quotient is small enough to sweep exhaustively.  A found idempotent
    is lifted back to an exact one and re-verified.  "Indecomposable"
    carries no certificate.

    The verdict is decided in the top algebra pi(E), the image of
    pi: E -> M_n0(F_p), the action on V/mV (n0 = M.rows).  pi is exact
    here: phi in ker pi maps V into mV, and phi(mV) = m phi(V) since phi
    is module-linear, so m^3 = 0 gives phi^3 = 0.  A nilpotent ideal lies
    in the Jacobson radical, so J(E) = pi^-1(J(pi E)) and
    E/J(E) = pi E / J(pi E).  M is minimal, so im(lin M) lies in m R^r
    and projecting to the cokernel leaves the r degree-0 coordinates
    alone: the top block of phi's operator is phi0[:, :, 0].

    Stage one (the verdict) reads pi(E) off the degree-0 system of
    `_top_algebra`: r*r + c*c unknowns (P0, Q0) instead of the full
    endomorphism system.  The verdict, dim pi(E), J(pi E), dim E/J and
    whether E/J has a nontrivial idempotent do not depend on the basis
    of pi(E), so a module found indecomposable (or too large to sweep)
    never solves the endomorphism system nor builds an operator.

    Stage two, only for an idempotent found, solves the endomorphism
    system for its kernel N and sweeps E/J once more on the tops
    phi0[:, :, 0] of all of N's columns, which picks the complement of J
    among them, the structure constants and the sweep's idempotent in
    the basis `endomorphism_space` keeps: a column it drops has its
    operator, and hence its top, in the span of earlier ones, so the
    complement lies among its columns.  Only those columns are
    linearized and projected to the cokernel, and the idempotent is
    lifted there.  J is shared between the stages: the complement and
    the comp-coordinates of the products and of 1 depend on span(J)
    only, not on its basis.
    """
    if not M.is_minimal:
        raise ValidationError("indecomposability requires a minimal matrix")
    if M.rows == 0:
        # minimal M: coker M / m coker M is F_p^rows
        raise ValidationError("cokernel is zero")
    A = M.algebra
    p = A.p
    r, d = M.rows, A.dim
    top = _top_algebra(M)
    if len(top) == 1:
        return True, None  # only scalars
    rad = _radical_of_matrix_algebra(top, p)
    if rad is None:
        # unverifiable chain: take J = ker pi, which is nilpotent; the
        # quotient sweep below stays correct, just larger
        rad = np.zeros((0, r, r), dtype=np.int64)
    rad = rad.reshape(-1, r * r)
    if _quotient_idempotent(top, rad, p)[1] is None:
        return True, None
    N = _endomorphism_kernel(M)
    tops = N[: r * r * d].reshape(r, r, d, -1)[:, :, 0].transpose(2, 0, 1) % p
    comp, found = _quotient_idempotent(tops, rad, p)
    if found is None:
        raise AssertionError("quotient idempotent lost in the kernel basis")
    cok = CokernelSpace(M)
    q = cok.length
    # lift the quotient idempotent to an exact one (error squares each step)
    e = np.einsum("t,tij->ij", found, _endomorphism_operators(cok, N[:, comp])) % p
    for _ in range(2 * q + 4):
        if ((e @ e) % p == e).all():
            break
        e = (3 * (e @ e) - 2 * (e @ e @ e)) % p
    if not ((e @ e) % p == e).all():
        raise AssertionError("idempotent lifting failed to converge")
    ident = np.eye(q, dtype=np.int64)
    if not e.any() or (e == ident).all():
        raise AssertionError("lifted idempotent degenerated")
    return False, e
