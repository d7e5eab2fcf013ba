"""Presentation matrices and their cokernel invariants.

A module is given as the cokernel of a rectangular matrix of ring
elements; everything here reduces to exact linear algebra over F_p via
the linearized map (each ring entry becomes a dim x dim multiplication
block).  Matrix equivalence is linear algebra too: for minimal matrices,
m^3 = 0 makes the scalar parts of the morphisms coker M1 -> coker M2
the kernel of one linear system (`_top_hom`), and the cokernels are
isomorphic iff some kernel vector has both scalar parts invertible
(`is_equivalent`).

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
in the span of `correction_space(M, M)`.  So the top algebra {P0},
which decides `is_indecomposable`, comes from r*r + c*c unknowns
(`_top_algebra`, from the Hom system of M with itself).  End(coker M)
itself is built on the module side: the images of the generators in
cokernel coordinates that every column of M kills, the kernel of
`CokernelSpace.hom_matrix(M)`, each read as a q x q operator with one
einsum over the cokernel's R-action (`endomorphism_space`).
`is_indecomposable` builds it only for a module it finds decomposable,
to lift the idempotent it found.
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
        return PresentationMatrix(self.algebra, np.swapaxes(self.entries, 0, 1))

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
    use; `mult_op` contracts it with an element's coefficients.  This is
    the one Hom engine: `hom_matrix(D)` is precomposition with D, whose
    kernel is Hom(coker D, coker M), End(coker M) for D = M
    (`endomorphism_space`), and the Hom complex of `ext.ext1`.
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

    def hom_matrix(self, D: PresentationMatrix) -> np.ndarray:
        """Precomposition with D as a matrix on coordinate vectors.

        D presents R^cols -> R^rows; the induced map sends a homomorphism
        phi in cok^rows to psi in cok^cols with psi_j = sum_i D[i,j] phi_i,
        so block (j, i) is the induced multiplication by D[i, j].
        """
        q = self.length
        H = np.einsum("ijs,skl->jkil", D.entries, self.action) % self.p
        return H.reshape(D.cols * q, D.rows * q)


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

    M must be minimal, and dropping rows and columns keeps it so: each
    kernel is `graded_nullspace`'s.  With rank L1 = c there is no such
    kernel vector: the degree-1 part of M*x is L1*x0, so x0 = 0 for
    every x in ker lin M.  The loop then ends without computing the
    kernel.  The first pass works on M itself, and M comes back as it is
    when nothing is dropped, so its recorded rank L1 serves the caller's
    later steps too.
    """
    _require_minimal(M, "prune_presentation")
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
        if _linear_rank(cur) == c:
            break  # every kernel vector has zero degree-0 coordinates
        ker = graded_nullspace(cur)
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


def correction_space(M1: PresentationMatrix, M2: PresentationMatrix) -> np.ndarray:
    """Span of {A*L1 + L2*B} with A, B degree-1 scalar-shape matrices, for
    L1 and L2 the linear parts of M1 (r1 x c) and M2 (r x c2).

    Returns an (r*c*s2, r*r1*e + c2*c*e) matrix whose columns are the
    degree-2 coefficient vectors of the generators: first A = E_il * x_m
    acting on L1 from the left, in (i, l, m) order, then B = E_lj * x_m
    acting on L2 from the right, in (l, j, m) order.
    """
    A = M1.algebra
    r, c = M2.rows, M1.cols
    e, s2 = A.e, A.s2
    L1, L2 = M1.linear_part(), M2.linear_part()
    # products x_m * x_f of degree-1 basis elements, in m^2 coordinates
    deg1_prod = A.mult_table[1:1 + e, 1:1 + e, 1 + e:]
    # (A*L1)[a, j] = x_m * L1[l, j] when a = i, and
    # (L2*B)[i, b] = L2[i, l] * x_m when b = j
    left = np.einsum("ai,ljf,mfs->ajsilm", np.eye(r, dtype=np.int64), L1, deg1_prod)
    right = np.einsum("bj,ilf,mfs->ibsljm", np.eye(c, dtype=np.int64), L2, deg1_prod)
    return np.concatenate([left.reshape(r * c * s2, r * M1.rows * e),
                           right.reshape(r * c * s2, M2.cols * c * e)], axis=1) % A.p


def _build_correction_matrices(M: PresentationMatrix, coeffs):
    """Rebuild degree-1 ring matrices (A, B) from correction coefficients,
    read in the column layout of `correction_space(M, M)`."""
    alg = M.algebra
    r, c, e = M.rows, M.cols, alg.e
    coeffs = np.asarray(coeffs) % alg.p
    Amat = np.zeros((r, r, alg.dim), dtype=np.int64)
    Bmat = np.zeros((c, c, alg.dim), dtype=np.int64)
    Amat[:, :, 1:1 + e] = coeffs[:r * r * e].reshape(r, r, e)
    Bmat[:, :, 1:1 + e] = coeffs[r * r * e:].reshape(c, c, e)
    return Amat, Bmat


@functools.cache
def _commutator_pattern(r1: int, c: int, t: int, r: int, c2: int) -> np.ndarray:
    """`_commutator_system`'s matrix for X (r1, c, t) and Z (r, c2, t) as a
    read-only array of indices into [0, X.ravel(), -Z.ravel()]: the
    system is the same pattern of X's and Z's entries at every call of
    one shape, so it is built once per shape and gathered."""
    nx = r1 * c * t
    X = np.arange(1, nx + 1).reshape(r1, c, t)
    Z = np.arange(nx + 1, nx + r * c2 * t + 1).reshape(r, c2, t)
    # left[i, j, f, a, l] = [i = a] * X[l, j, f]
    left = np.einsum("ia,ljf->ijfal", np.eye(r, dtype=np.int64), X)
    # right[i, j, f, l, b] = Z[i, l, f] * [j = b], negated by the gather
    right = np.einsum("ilf,jb->ijflb", Z, np.eye(c, dtype=np.int64))
    out = np.concatenate([left.reshape(r * c * t, r * r1),
                          right.reshape(r * c * t, c2 * c)], axis=1)
    out.flags.writeable = False
    return out


def _commutator_system(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The linear map (P0, Y0) -> P0*X - Z*Y0 for scalar P0 (r x r1) and
    Y0 (c2 x c), an (r1, c, t) coefficient array X and an (r, c2, t) one
    Z: an (r*c*t) x (r*r1 + c2*c) matrix, rows in (i, j, coordinate)
    order, unknowns P0 then Y0, each read row by row."""
    flat = np.concatenate([[0], X.ravel(), -Z.ravel()])
    return flat[_commutator_pattern(*X.shape, *Z.shape[:2])]


def _top_hom(M1: PresentationMatrix, M2: PresentationMatrix):
    """(K, corr): K the canonical kernel basis of the degree-0 Hom system
    of minimal M1 (r1 x c1) and M2 (r2 x c2), as columns (P0, Y0) read
    row by row, P0 r2 x r1 and Y0 c2 x c1; corr the `correction_space(M1,
    M2)` the system was built with, or None when it needed none.

    A morphism coker M1 -> coker M2 lifts to ring matrices (phi0, phi1)
    with phi0*M1 = M2*phi1.  Split phi0 = P0 + P1 + P2, phi1 = Y0 + Y1 +
    Y2, M1 = A1 + A2 and M2 = B1 + B2 by degree.  Since m^3 = 0 the
    equation reads P0*A1 = B1*Y0 in degree 1 and P0*A2 - B2*Y0 =
    B1*Y1 - P1*A1 in degree 2, and nothing in higher degrees; P2 and Y2
    are free.  As P1 and Y1 range over all degree-1
    matrices the right side of degree 2 fills the span of
    `correction_space(M1, M2)`.  So (P0, Y0) are the scalar parts of such
    a pair iff P0*A1 = B1*Y0 and W*(P0*A2 - B2*Y0) = 0, for W the left
    kernel of that span: r2*c1*e equations (and W's rows when a quadratic
    part is nonzero) on r2*r1 + c2*c1 unknowns.
    """
    A = M1.algebra
    p, e = A.p, A.e
    X, Z = M1.entries[:, :, 1:], M2.entries[:, :, 1:]
    sys = _commutator_system(X[:, :, :e], Z[:, :, :e])
    corr = None
    if X[:, :, e:].any() or Z[:, :, e:].any():
        corr = correction_space(M1, M2)
        W = linalg.nullspace(corr.T, p).T
        sys = np.concatenate([sys, W @ _commutator_system(X[:, :, e:], Z[:, :, e:])])
    return linalg.nullspace(sys % p, p), corr


def is_equivalent(
    M1: PresentationMatrix, M2: PresentationMatrix, budget: int = DEFAULT_BUDGET
):
    """Decide P*M1*Q = M2 for invertible ring matrices; witness or None.

    coker M1 and coker M2 are isomorphic iff some kernel vector (P0, Y0)
    of `_top_hom(M1, M2)` has both parts invertible.  Such a vector
    extends to (phi0, phi1) = (P0 + P1, Y0 + Y1) with phi0*M1 = M2*phi1,
    (P1, Y1) solving the degree-2 equation over `correction_space(M1,
    M2)` (see `_top_hom`); both are invertible, so P = phi0 and Q =
    phi1^-1 carry M1 to M2.  Conversely a witness (P, Q) gives the
    kernel vector (P[:, :, 0], (Q^-1)[:, :, 0]).  The search runs over
    the projective points of the kernel, since scalar multiples are
    invertible together: the vectors whose first nonzero coordinate is 1,
    in the order of itertools.product.  The first hit is lifted
    (`_lift_hom`) and verified; a hit that fails to lift is an internal
    error.  Raises BudgetExceededError before the sweep when the kernel
    has more than `budget` elements.
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
    K, corr = _top_hom(M1, M2)
    k = K.shape[1]
    if p ** k > budget:
        raise BudgetExceededError(
            f"equivalence search budget exceeded: {p ** k} Hom-kernel elements "
            f"({p}^{k}), at most {budget}", required=p ** k, budget=budget)
    for lead in range(k - 1, -1, -1):
        for tail in itertools.product(range(p), repeat=k - 1 - lead):
            v = K[:, lead:] @ ((1,) + tail) % p
            P0, Y0 = v[:r * r].reshape(r, r), v[r * r:].reshape(c, c)
            if linalg.det_nonzero(P0, p) and linalg.det_nonzero(Y0, p):
                return _lift_hom(M1, M2, P0, Y0, corr)
    return None


def _lift_hom(M1, M2, P0, Y0, corr) -> EquivalenceWitness:
    """The verified witness of a kernel vector (P0, Y0) of `_top_hom(M1,
    M2)` with both parts invertible, `corr` the correction space it
    returned.

    The degree-2 equation L*A1 + B1*R = P0*A2 - B2*Y0 is solved over
    `correction_space(M1, M2)` for degree-1 L and R, with the canonical
    solution 0 when the right side is 0.  With Q0 = Y0^-1 and
    P0^-1*B1 = A1*Q0 this reads A2 + A*A1 + A1*B = P0^-1*B2*Q0^-1 for
    A = -P0^-1*L and B = -Q0*R, the corrections `_lift_witness` takes.
    """
    alg = M1.algebra
    p, e, r, c = alg.p, alg.e, M1.rows, M1.cols
    Q0 = linalg.inv(Y0, p)
    rhs = (np.einsum("il,ljs->ijs", P0, M1.quadratic_part())
           - np.einsum("ils,lj->ijs", M2.quadratic_part(), Y0)) % p
    coeffs = np.zeros((r * r + c * c) * e, dtype=np.int64)
    if rhs.any():
        LR = linalg.solve(corr, rhs.reshape(-1), p)
        if LR is None:
            raise AssertionError("internal error: Hom kernel vector failed to lift")
        L, R = LR[:r * r * e].reshape(r, r, e), LR[r * r * e:].reshape(c, c, e)
        coeffs[:r * r * e] = np.einsum("ia,alm->ilm", linalg.inv(P0, p), L).reshape(-1)
        coeffs[r * r * e:] = np.einsum("lb,bjm->ljm", Q0, R).reshape(-1)
        coeffs = -coeffs % p
    return _lift_witness(M1, M2, P0, Q0, coeffs)


def _lift_witness(M1, M2, P0, Q0, coeffs) -> EquivalenceWitness:
    """P = P0*(I + A), Q = (I + B)*Q0 for the degree-1 corrections (A, B)
    read from `correction_space(M1, M1)` coefficients, verified to carry
    M1 to M2.

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


# -- indecomposability ---------------------------------------------------------


def _top_algebra(M: PresentationMatrix) -> np.ndarray:
    """A basis of pi(E) = {phi0[:, :, 0]} for the endomorphisms
    (phi0, phi1) of a minimal M, as an (n, r, r) array: the independent
    P0 parts of `_top_hom(M, M)`, r*r + c*c unknowns instead of the full
    endomorphism system."""
    r = M.rows
    P0 = _top_hom(M, M)[0][: r * r]
    return P0[:, linalg.independent_columns(P0, M.algebra.p)].T.reshape(-1, r, r)


def endomorphism_space(M: PresentationMatrix):
    """(cok, basis): cok the CokernelSpace of M and basis a k-basis of
    End(coker M) as (k, q, q) operators on it.

    An endomorphism is fixed by the images of the r generators, a vector
    phi in cok^r, and phi extends iff sum_i M[i, j] phi_i = 0 for every
    column j: the kernel of `cok.hom_matrix(M)`, read as F of shape
    (r, q, k).  Cokernel coordinate (generator j, basis element s) is
    s*e_j, sent to s*phi_j, so column (j, s) of operator t is
    action[s] @ F[j, :, t].  Distinct homomorphisms have distinct
    operators, so the k operators are independent as they come.
    """
    cok = CokernelSpace(M)
    r, d, q = M.rows, M.algebra.dim, cok.length
    N = linalg.nullspace(cok.hom_matrix(M), cok.p)
    k = N.shape[1]
    F = N.reshape(r, q, k)
    ops = np.einsum("sul,jlt->tujs", cok.action, F).reshape(k, q, r * d)
    return cok, ops[:, :, cok.coords] % cok.p


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
    never builds End(coker M) nor its cokernel model.

    Stage two, only for an idempotent found, lifts it through
    `endomorphism_space`.  Its target in pi(E) is the sweep's
    combination of the top-algebra basis; the operators' blocks at the
    degree-0 cokernel coordinates are their images under pi, so one
    solve gives an operator over the target.  That operator is
    idempotent modulo J(E) = pi^-1(J(pi E)), a nilpotent ideal, so
    Newton's iteration lifts it to an exact idempotent, nontrivial since
    its image in E/J is.  It is verified idempotent, nontrivial and
    R-linear (it commutes with every `cok.action[s]`).
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
    comp, found = _quotient_idempotent(top, rad.reshape(-1, r * r), p)
    if found is None:
        return True, None
    target = np.einsum("t,tij->ij", found, top[comp]) % p
    cok, ops = endomorphism_space(M)
    q = cok.length
    # the degree-0 coordinates, one per generator in order: the top V/mV
    at = [w for w, a in enumerate(cok.coords) if a % d == 0]
    y = linalg.solve(ops[:, at][:, :, at].reshape(len(ops), r * r).T, target.reshape(-1), p)
    if y is None:
        raise AssertionError("top idempotent outside the image of End")
    # lift the quotient idempotent to an exact one (error squares each step)
    e = np.einsum("t,tij->ij", y, ops) % p
    for _ in range(2 * q + 4):
        if ((e @ e) % p == e).all():
            break
        e = (3 * (e @ e) - 2 * (e @ e @ e)) % p
    if not ((e @ e) % p == e).all():
        raise AssertionError("idempotent lifting failed to converge")
    ident = np.eye(q, dtype=np.int64)
    if not e.any() or (e == ident).all():
        raise AssertionError("lifted idempotent degenerated")
    if ((cok.action @ e - e @ cok.action) % p).any():
        raise AssertionError("lifted idempotent is not R-linear")
    return False, e
