"""Saturated filtrations with cyclic layers.

An upper triangular presentation matrix encodes a chain of submodules:
the leading i x i blocks present T_1 c T_2 c ... c T_n with cyclic
quotients R/(t_ii).  This module extracts that chain, performs the
inverse step (peeling the last cyclic quotient off via the syzygy), and
searches for upper triangular forms of arbitrary square matrices, one
pair of scalar parts per pair of complete flags of F_p^n, up to the first
pair whose degree-2 correction system solves.  Only the pairs whose
conjugated quadratic part is nonzero below the diagonal reach that
system, and each is one `linalg.solve`.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .algebra import (
    GradedLocalAlgebra,
    RingElement,
    annihilator,
    exact_zero_divisor_partner,
    ideal_span,
    is_exact_zero_divisor,
)
from .errors import BudgetExceededError, ValidationError
from .modmat import (
    DEFAULT_BUDGET,
    _below_diagonal,
    _lift_witness,
    EquivalenceWitness,
    PresentationMatrix,
    coker_length,
    correction_space,
    divide,
    ring_identity,
    syzygy,
)


@dataclass
class Filtration:
    """Chain T_1 c ... c T_n given by leading blocks of an UT matrix."""

    matrix: PresentationMatrix
    blocks: list = dc_field(default_factory=list)     # leading i x i blocks
    quotients: list = dc_field(default_factory=list)  # diagonal entries t_ii
    lengths: list = dc_field(default_factory=list)
    log: list = dc_field(default_factory=list)

    def __len__(self):
        return len(self.blocks)


def _leading_block(M: PresentationMatrix, i: int) -> PresentationMatrix:
    return PresentationMatrix(M.algebra, np.ascontiguousarray(M.entries[:i, :i]))


def filtrate_ut(M: PresentationMatrix) -> Filtration:
    """Chain of leading principal blocks of an upper triangular matrix.

    Each diagonal entry must be an exact zero divisor (the triangular
    criterion for total reflexivity); the short exact sequences
    0 -> T_{i-1} -> T_i -> R/(t_ii) -> 0 are validated by length
    additivity, with each layer of length e.
    """
    A = M.algebra
    if not M.is_square:
        raise ValidationError("matrix must be square")
    if not M.is_minimal:
        raise ValidationError("matrix must be minimal")
    if not M.is_upper_triangular:
        raise ValidationError("matrix is not upper triangular")
    e = A.e
    quotients = []
    for i in range(M.rows):
        t = M.entry(i, i)
        if not is_exact_zero_divisor(A, t):
            raise ValidationError(
                f"diagonal entry ({i},{i}) = {t!r} is not an exact zero divisor; "
                "an upper triangular cokernel is totally reflexive only when "
                "every diagonal entry is one"
            )
        quotients.append(t)
    blocks = []
    lengths = []
    log = []
    prev_len = 0
    for i in range(1, M.rows + 1):
        blk = _leading_block(M, i)
        ln = coker_length(blk)
        if ln != prev_len + e:
            raise AssertionError(
                f"layer {i} has length {ln - prev_len}, expected {e}"
            )
        blocks.append(blk)
        lengths.append(ln)
        log.append(
            f"T_{i} = leading {i}x{i} block, length {ln}, "
            f"quotient T_{i}/T_{i - 1} = R/({A.format_element(quotients[i - 1].coeffs)})"
        )
        prev_len = ln
    return Filtration(matrix=M, blocks=blocks, quotients=quotients,
                      lengths=lengths, log=log)


def submodule_step(T: PresentationMatrix):
    """Peel the last cyclic layer off a presentation with last row (0,..,0,t).

    The syzygy of T is column-reduced until its last row is (0,..,0,s)
    with s the partner of t; that reduction is the certificate that
    deleting row and column n of T presents a submodule U with
    T/U = R/(t) and length(U) = length(T) - e.  Returns (U matrix, t).
    """
    A = T.algebra
    n = T.rows
    if not T.is_square or n == 0:
        raise ValidationError("matrix must be square and nonempty")
    if not T.is_minimal:
        raise ValidationError("matrix must be minimal")
    if T.entries[n - 1, :n - 1].any():
        raise ValidationError("last row must be (0, ..., 0, t)")
    t = T.entry(n - 1, n - 1)
    s = exact_zero_divisor_partner(A, t)
    if s is None:
        raise ValidationError(
            f"last diagonal entry {t!r} is not an exact zero divisor"
        )
    if n > 1:
        _isolate_partner(T, s)
    U = PresentationMatrix(A, np.ascontiguousarray(T.entries[:n - 1, :n - 1]))
    lt, lu = coker_length(T), coker_length(U)
    if lu != lt - A.e:
        raise ValidationError(
            f"length only dropped from {lt} to {lu}; submodule step failed"
        )
    return U, t


def _isolate_partner(T: PresentationMatrix, s: RingElement):
    """Column-reduce syzygy(T) so its last row becomes (0, ..., 0, s)."""
    A = T.algebra
    W = syzygy(T)
    n = W.rows
    last = [W.entries[n - 1, j] for j in range(W.cols)]
    pivot = None
    for j, w in enumerate(last):
        if not w.any():
            continue
        r = divide(A, w, s.coeffs)
        if r is not None and r[0] % A.p:  # unit multiple of s
            pivot = j
            break
    if pivot is None:
        raise ValidationError(
            "cannot isolate the partner in the last syzygy row; "
            "input is not a totally reflexive presentation of the stated shape"
        )
    for j, w in enumerate(last):
        if j == pivot or not w.any():
            continue
        if divide(A, w, last[pivot]) is None:
            raise ValidationError(
                "cannot isolate the partner in the last syzygy row; "
                "input is not a totally reflexive presentation of the stated shape"
            )


# -- upper triangular form search ---------------------------------------------

# flag pairs looked up at once
_GL_CHUNK = 1 << 16


def _gl_order(n: int, p: int) -> int:
    order = 1
    for i in range(n):
        order *= p**n - p**i
    return order


@functools.cache
def _all_vectors(n: int, p: int) -> np.ndarray:
    """F_p^n as a read-only (p^n, n) array, vector number k at row k."""
    table = np.arange(p ** n)[:, None] // p ** np.arange(n - 1, -1, -1) % p
    table.flags.writeable = False
    return table


@functools.cache
def flag_representatives(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(P0s, Q0s): one matrix of each coset B*g of GL_n(F_p) in P0s and
    one of each coset g*B in Q0s, B the invertible upper triangular
    matrices; read-only (F, n, n) arrays, F = [n]_p!.

    Q0s is built one Schubert cell at a time, the permutations w in
    itertools.permutations(range(n)) order.  Column j of a cell-w matrix
    has a 1 at row w(j), zeros at rows w(0), ..., w(j-1) and at the rows
    below w(j) that are not yet pivots, and free entries at the rows
    above w(j) that are not yet pivots.  Within a cell the free entries,
    read column by column from the top, run through
    itertools.product(range(p), ...).  Column operations by B reduce any
    invertible g to exactly one such matrix.  P0s[k] is J * Q0s[k]^T for
    J the antidiagonal permutation, since B*J*g^T = J*(g*B)^T.
    """
    cells = []
    for w in itertools.permutations(range(n)):
        free = [(r, j) for j in range(n) for r in range(w[j]) if r not in w[:j]]
        cell = np.zeros((p ** len(free), n, n), dtype=np.int64)
        cell[:, list(w), range(n)] = 1
        if free:
            rows, cols = zip(*free)
            cell[:, rows, cols] = _all_vectors(len(free), p)
        cells.append(cell)
    Q0s = np.concatenate(cells)
    P0s = Q0s.transpose(0, 2, 1)[:, ::-1].copy()
    P0s.flags.writeable = Q0s.flags.writeable = False
    return P0s, Q0s


@functools.cache
def _flag_vectors(n: int, p: int) -> tuple[np.ndarray, ...]:
    """(us, row_of, vs, col_of) for `flag_representatives(n, p)`: us
    holds the distinct rows lo_i[t] of the P0s and vs the distinct
    columns lo_j[t] of the Q0s, (lo_i, lo_j) the below-diagonal
    positions; row lo_i[t] of P0s[k] is us[row_of[k, t]] and column
    lo_j[t] of Q0s[k] is vs[col_of[k, t]].  Each holds at most
    [n]_p! * n(n-1)/2 vectors, however large p^n is.  Read-only."""
    P0s, Q0s = flag_representatives(n, p)
    lo_i, lo_j = _below_diagonal(n)
    out = []
    for X in (P0s[:, lo_i], Q0s.transpose(0, 2, 1)[:, lo_j]):
        vecs, of = np.unique(X.reshape(-1, n), axis=0, return_inverse=True)
        of = of.reshape(X.shape[:2])
        vecs.flags.writeable = of.flags.writeable = False
        out += [vecs, of]
    return tuple(out)


def find_ut_form(M: PresentationMatrix, budget: int = DEFAULT_BUDGET):
    """Upper triangular form of M under equivalence, if one exists.

    An upper triangular M is returned as it is, with the identity
    witness, at any size.  Otherwise the search runs over scalar parts
    (P0, Q0), one pair per flag pair: P0 from B\\GL_n and Q0 from GL_n/B
    (`flag_representatives`), B the invertible upper triangular
    matrices.  A pair whose transformed linear part is upper triangular
    is UT-compatible, and solvability of its below-diagonal quadratic
    system (over the correction space of M) decides whether a full UT
    form exists.  Both are constant on each coset pair: if P0*(I + A)
    and (I + B1)*Q0 carry M to a UT form N, then b*P0*(I + A) and
    (I + B1)*Q0*b' carry it to b*N*b', also UT, for any b, b' in B.  So
    the [n]_p!^2 flag pairs decide what all of GL_n x GL_n would.
    Returns (witness, UT form), or None after the certified-exhaustive
    sweep.  Raises BudgetExceededError when the flag pairs number more
    than `budget`.

    The UT-compatible pairs are picked out by one table lookup for a
    block of at most _GL_CHUNK pairs at a time, and the first solvable
    one in the order P0, then Q0, of `flag_representatives` gives the
    form, whatever the block size.  The right side of a pair's system is
    its conjugated quadratic part below the diagonal; a zero right side
    takes the solution 0.  Only a nonzero one reaches the correction
    system: `correction_space(M, M)` is built once per call, when the
    first of them appears, so linear inputs and inputs with no
    UT-compatible pair never build it.  The system is solved by
    `linalg.solve` on the independent columns of the correction space
    alone, scattered back into the full width: a dependent column is a
    combination of earlier ones, so is its image under the pair's
    conjugation, and the pivots of the RREF, hence the solution that
    `solve` reads off, are those of the full system.

    The witness is the lift of the winning pair, not the result of a
    second search.  For its solution `part`, (A, B) =
    `_build_correction_matrices(M, part)` has degree-1 entries, and
    since m^3 = 0, (I + A)*M*(I + B) = M + A*A1 + A1*B for A1 the linear
    part of M, whose degree-2 parts are exactly
    `correction_space(M, M) @ part`.  So P = P0*(I + A) and
    Q = (I + B)*Q0 carry M to P0*(M + corr @ part)*Q0, the form;
    EquivalenceWitness.verify checks them.
    """
    A = M.algebra
    p = A.p
    if not M.is_square:
        raise ValidationError("matrix must be square")
    if not M.is_minimal:
        raise ValidationError("matrix must be minimal")
    n = M.rows
    if M.is_upper_triangular:
        I = ring_identity(A, n)
        return EquivalenceWitness(A, I, I.copy()), M
    # [n]_p! = |GL_n| / |B| flags on each side
    pairs = (_gl_order(n, p) // ((p - 1) ** n * p ** (n * (n - 1) // 2))) ** 2
    if pairs > budget:
        raise BudgetExceededError(
            f"UT-form search budget exceeded: {pairs} flag pairs of "
            f"{n} x {n} matrices over F_{p}", required=pairs, budget=budget)
    e, s2 = A.e, A.s2
    # the quadratic part, one row per entry (l, j) of an n x n matrix
    A2 = M.quadratic_part().reshape(n * n, s2)
    corr = None  # built once a pair's quadratic part needs a correction
    A1 = M.linear_part()
    P0s, Q0s = flag_representatives(n, p)
    lo_i, lo_j = _below_diagonal(n)
    us, row_of, vs, col_of = _flag_vectors(n, p)
    # below-diagonal entry t of P0*A1*Q0 is u*A1*v for u row lo_i[t] of P0
    # and v column lo_j[t] of Q0; cleared[t, u] marks the Q0 that make it
    # vanish for that u.  Only the vectors that occur are evaluated, so
    # memory follows the flag pairs, not p^(2n)
    zero = ~(us @ (A1.transpose(2, 0, 1) @ vs.T) % p).any(axis=0)
    cleared = zero[:, col_of].transpose(2, 0, 1)
    terms = np.arange(len(lo_i))
    block = max(1, _GL_CHUNK // len(Q0s))  # P0 per lookup
    for a0 in range(0, len(P0s), block):
        pa, pq = np.nonzero(cleared[terms, row_of[a0:a0 + block]].all(axis=1))
        for a, q in zip(pa, pq):
            P0, Q0 = P0s[a0 + a], Q0s[q]
            # K[t] = (row lo_i[t] of P0) x (column lo_j[t] of Q0), so the
            # below-diagonal entry t of P0*X*Q0 is K[t] @ X, X read as an
            # n*n vector
            K = (P0[lo_i, :, None] * Q0[:, lo_j].T[:, None]).reshape(len(lo_i), n * n)
            # the conjugated quadratic part below the diagonal, which the
            # conjugated correction generators must clear
            rhs = -(K @ A2) % p
            part = np.zeros(2 * n * n * e, dtype=np.int64)
            if rhs.any():
                if corr is None:
                    corr = correction_space(M, M)
                    piv = linalg.independent_columns(corr, p)
                    # the independent generators, one row per entry (l, j)
                    gens = corr[:, piv].reshape(n * n, s2 * len(piv))
                x = linalg.solve((K @ gens).reshape(len(lo_i) * s2, len(piv)), rhs, p)
                if x is None:
                    continue
                part[piv] = x
            # the form P0*(M + corr @ part)*Q0
            X = M.entries.copy()
            if corr is not None:
                X[..., 1 + e:] += (corr @ part).reshape(n, n, s2)
            N = PresentationMatrix(A, np.einsum("ijd,jm->imd",
                                                np.einsum("il,ljd->ijd", P0, X), Q0))
            return _lift_witness(M, N, P0, Q0, part), N
    return None


# -- the alternating two-parameter family --------------------------------------


def mb_preconditions(s: RingElement, t: RingElement,
                     u: RingElement, v: RingElement) -> dict:
    """Check the hypotheses under which the alternating family is known
    indecomposable, totally reflexive and non-free."""
    A = s.algebra
    exact_pair = (
        is_exact_zero_divisor(A, s)
        and annihilator(A, s)[0] == ideal_span(A, t)
        and annihilator(A, t)[0] == ideal_span(A, s)
    )
    in_m_not_m2 = all(x.in_m and not x.in_m2 for x in (u, v))
    uv_zero = not A.mult_vectors(u.coeffs, v.coeffs).any()
    # (a): s, t, u linearly independent modulo m^2
    deg1 = np.stack([s.degree_one_part(), t.degree_one_part(),
                     u.degree_one_part()])
    cond_a = linalg.rank(deg1, A.p) == 3
    # (b): s in (t) + m^2 while u, v stay outside
    t_m2 = linalg.Subspace(A.e, A.p, t.degree_one_part().reshape(1, -1))
    cond_b = (
        t_m2.contains(s.degree_one_part())
        and not t_m2.contains(u.degree_one_part())
        and not t_m2.contains(v.degree_one_part())
    )
    return {
        "exact_pair": exact_pair,
        "u_v_in_m_not_m2": in_m_not_m2,
        "uv_zero": uv_zero,
        "condition_a": cond_a,
        "condition_b": cond_b,
        "satisfied": exact_pair and in_m_not_m2 and uv_zero
        and (cond_a or cond_b),
    }


def mb_matrix(b: int, s: RingElement, t: RingElement,
              u: RingElement, v: RingElement) -> PresentationMatrix:
    """b x b bidiagonal matrix: diagonal s,t,s,t,..., superdiagonal u,v,u,v,...

    Preconditions are checked and reported as warnings, never as errors;
    the matrix is always constructed.
    """
    if b < 1:
        raise ValidationError("b must be >= 1")
    A = s.algebra
    pre = mb_preconditions(s, t, u, v)
    for name in ("exact_pair", "u_v_in_m_not_m2", "uv_zero"):
        if not pre[name]:
            warnings.warn(f"family precondition violated: {name}", stacklevel=2)
    if not (pre["condition_a"] or pre["condition_b"]):
        warnings.warn(
            "neither independence condition (a) nor containment condition "
            "(b) holds", stacklevel=2,
        )
    ent = np.zeros((b, b, A.dim), dtype=np.int64)
    diag = [s.coeffs, t.coeffs]
    sup = [u.coeffs, v.coeffs]
    for i in range(b):
        ent[i, i] = diag[i % 2] % A.p
        if i + 1 < b:
            ent[i, i + 1] = sup[i % 2] % A.p
    return PresentationMatrix(A, ent)
