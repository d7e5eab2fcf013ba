"""Yoneda Ext^1 as explicit linear algebra.

Hom(R^n, coker M) is modeled by the CokernelSpace coordinates, so the
Hom complex of a minimal resolution becomes a pair of block matrices
whose blocks are induced multiplication operators.  Ext^1 is then
ker / im of those two matrices, with coset representatives kept both as
coordinate vectors and as ring-element lifts.  `gamma` builds none
of this: on cyclic modules it compares two linear parts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .algebra import (
    AlgebraSpec,
    GradedLocalAlgebra,
    RingElement,
    build_algebra,
    check_characteristic,
    exact_zero_divisor_partner,
    ideal_span,
    is_exact_zero_divisor,
    same_algebra,
)
from .errors import ValidationError
from .modmat import (
    CokernelSpace,
    PresentationMatrix,
    coker_length,
    is_equivalent,
    syzygy,
)


@dataclass
class ExtSpace:
    """Ext^1(coker N, coker M) with an explicit k-basis of cosets."""

    N: PresentationMatrix
    M: PresentationMatrix
    rank: int
    representatives: list = dc_field(default_factory=list)  # coordinate vectors
    cok: CokernelSpace | None = None
    _H1: np.ndarray | None = None
    _H2: np.ndarray | None = None

    def lift(self, w) -> PresentationMatrix:
        """Ring-matrix lift F_1 -> F_0(M) of a coordinate vector."""
        A = self.M.algebra
        amb = self.cok.section(np.reshape(w, (self.N.cols, self.cok.length)))
        return PresentationMatrix(A, np.ascontiguousarray(
            amb.reshape(self.N.cols, self.M.rows, A.dim).swapaxes(0, 1)))

    def is_cocycle(self, w) -> bool:
        return not (self._H2 @ (np.asarray(w) % self.M.algebra.p) % self.M.algebra.p).any()

    def is_coboundary(self, w) -> bool:
        return linalg.solve(self._H1, np.asarray(w) % self.M.algebra.p, self.M.algebra.p) is not None

    def class_of(self, lift: PresentationMatrix | RingElement) -> "ExtensionClass":
        """Wrap a ring lift as an extension class, checking the cocycle law."""
        A = self.M.algebra
        if isinstance(lift, RingElement):
            ent = lift.coeffs.reshape(1, 1, A.dim)
            lift = PresentationMatrix(A, ent.copy())
        n = self.N.cols
        # column j of the lift, as one vector of R^rows per column
        cols = lift.entries[:, :n].transpose(0, 2, 1).reshape(lift.rows * A.dim, n)
        w = self.cok.project(cols).T.reshape(-1)
        if not self.is_cocycle(w):
            raise ValidationError("extension class is not a cocycle")
        return ExtensionClass(space=self, coords=w, lifted=lift)


@dataclass
class ExtensionClass:
    space: ExtSpace
    coords: np.ndarray
    lifted: PresentationMatrix

    @property
    def is_zero(self) -> bool:
        return self.space.is_coboundary(self.coords)


def ext1(N: PresentationMatrix, M: PresentationMatrix) -> ExtSpace:
    """Ext^1(coker N, coker M) from the first two resolution differentials."""
    if not N.is_minimal:
        raise ValidationError("N must be a minimal presentation")
    if not same_algebra(N.algebra, M.algebra):
        raise ValidationError("mixed algebras")
    p = M.algebra.p
    cok = CokernelSpace(M)
    d2 = syzygy(N)
    H1 = cok.hom_matrix(N)
    H2 = cok.hom_matrix(d2)
    Z = linalg.nullspace(H2, p)
    # one RREF of [H1 | Z]: its pivots in H1 give rank H1, those in Z the
    # representatives, kernel vectors extending the coboundary space
    skip = H1.shape[1]
    _, pivots = linalg.rref(np.concatenate([H1, Z], axis=1), p)
    keep = [c - skip for c in pivots if c >= skip]
    rank = Z.shape[1] - (len(pivots) - len(keep))
    reps = [Z[:, t].copy() for t in keep]
    assert len(reps) == rank  # im H1 lies in ker H2
    return ExtSpace(N=N, M=M, rank=rank, representatives=reps,
                    cok=cok, _H1=H1, _H2=H2)


def ext1_rank_formula(p: int, b: int, c: int, d: int, f: int) -> int:
    """Closed form for rank Ext^1(S/(x+dy+fz), S/(x+by+cz)) over F_p, p != 2."""
    check_characteristic(p)
    if p == 2:
        raise ValidationError("formula requires char != 2")
    b, c, d, f = (v % p for v in (b, c, d, f))
    if not (b or c or d or f):
        return 3
    if (b == d and c == f) or ((b + d) % p == 0 and (c + f) % p == 0):
        return 2
    return 1


def _cyclic_generator(M: PresentationMatrix) -> RingElement:
    g = M.entry(0, 0) if (M.rows, M.cols) == (1, 1) else None
    if g is None or not is_exact_zero_divisor(M.algebra, g):
        raise ValidationError("non-cyclic or non-EZD input")
    return g


def _xyz_coeffs(A: GradedLocalAlgebra, g: RingElement):
    """(b, c) from a generator of the shape unit*(x + b y + c z), or None.

    x, y, z are the degree-1 basis elements at positions 1, 2, 3, as in
    the canonical ring, whatever the variables are called.
    """
    c1 = g.coeffs % A.p
    if g.degree_two_part().any() or c1[0] or not c1[1]:
        return None
    scale = pow(int(c1[1]), A.p - 2, A.p)
    return int(c1[2] * scale % A.p), int(c1[3] * scale % A.p)


@functools.cache
def _canonical_mult_table(p: int) -> np.ndarray:
    """Multiplication table of the canonical S over F_p (read-only)."""
    table = build_algebra(AlgebraSpec.canonical_s(p)).mult_table
    table.flags.writeable = False
    return table


def _point_rank(w: RingElement, v: RingElement) -> int:
    """r(w): the rank, 1 or 2, of the nonzero linear parts of w and v."""
    a, b = w.degree_one_part(), v.degree_one_part()
    return 2 if ((np.outer(a, b) - np.outer(b, a)) % w.algebra.p).any() else 1


def gamma(N: PresentationMatrix, T1: PresentationMatrix) -> int:
    """Extension count that excludes resolution segments.

    rank Ext^1(N, T1) minus the dimension of the unit-lift class span,
    for N = (u), T1 = (v) with u, v exact zero divisors.  Every unit
    lift is scalar * (1 + m), and [1 + m] = [1] + [m] with [m] a
    non-unit class, so the unit-lift span is that of the class of 1,
    the splice of the complete resolution (its pushout has free middle
    term); it counts when it is a cocycle and not a coboundary.

    R/(u) has the 2-periodic resolution R --u'--> R --u--> R, u' the
    partner of u, so with C = R/(v), Ext^1 = ker(u' on C) / im(u on C).
    An exact zero divisor v has (v) = k*v + m^2, so s2 = e - 1 and
    dim R = 2e, and (w) + (v) = k*w + k*v + m^2.  Writing r(w) = 1 when
    w and v have the same linear point and 2 otherwise, w acts on C,
    of length e, with rank r(w) - 1, and
    rank Ext^1 = e + 2 - r(u) - r(u').  The class of 1 is a cocycle iff
    u' lies in (v), iff r(u') = 1, and never a coboundary: u*C lies in
    m*C, and 1 does not, as v lies in m.  So gamma is two comparisons of
    linear parts, for every ring and every p.

    Cross-checked against the closed form (2 when b=c=d=f=0 or b=d,c=f,
    else 1) whenever char != 2, the ring has the multiplication table of
    the canonical S = k[x,y,z]/(x^2, y^2, z^2, yz) (variables may be
    renamed) and the inputs match that normal form.
    """
    u, v = _cyclic_generator(N), _cyclic_generator(T1)
    A = u.algebra
    if not same_algebra(A, T1.algebra):
        raise ValidationError("mixed algebras")
    r_u, r_partner = (_point_rank(w, v) for w in (u, exact_zero_divisor_partner(A, u)))
    value = A.e + 2 - r_u - r_partner - int(r_partner == 1)
    if A.p != 2 and np.array_equal(A.mult_table, _canonical_mult_table(A.p)):
        df = _xyz_coeffs(A, u)
        bc = _xyz_coeffs(A, v)
        if df is not None and bc is not None:
            d, f = df
            b, c = bc
            expected = 2 if (b == c == d == f == 0) or (b == d and c == f) else 1
            if value != expected:
                raise AssertionError(
                    f"unit-class count {value} disagrees with closed form {expected}"
                )
    return value


def pushout_middle(u: RingElement, v: RingElement, alpha) -> PresentationMatrix:
    """Presentation of the middle term of the extension of S/(u) by S/(v).

    alpha may be an ExtensionClass or a raw ring lift; the cocycle law
    (lift times the partner of u lands in (v)) is always checked.
    """
    A = u.algebra
    if isinstance(alpha, ExtensionClass):
        tilde = RingElement(alpha.lifted.algebra, alpha.lifted.entries[0, 0].copy())
    elif isinstance(alpha, RingElement):
        tilde = alpha
    else:
        tilde = A.element(alpha)
    if not all(same_algebra(A, w.algebra) for w in (v, tilde)):
        raise ValidationError("mixed algebras")
    u_partner = exact_zero_divisor_partner(A, u)
    v_partner = exact_zero_divisor_partner(A, v)
    if u_partner is None or v_partner is None:
        raise ValidationError("non-cyclic or non-EZD input")
    prod = A.mult_vectors(tilde.coeffs, u_partner.coeffs)
    if not ideal_span(A, v).contains(prod):
        raise ValidationError("extension class is not a cocycle")
    neg = (-tilde.coeffs) % A.p
    ent = np.zeros((2, 2, A.dim), dtype=np.int64)
    ent[0, 0] = v.coeffs % A.p
    ent[0, 1] = neg
    ent[1, 1] = u.coeffs % A.p
    out = PresentationMatrix(A, ent)
    return out


def les_rank_bound_check(C: PresentationMatrix, T_prev: PresentationMatrix,
                         T_cur: PresentationMatrix) -> dict:
    """Subadditivity of Ext^1 ranks along 0 -> T_prev -> T_cur -> C -> 0.

    Validates the extension structurally (T_prev as the leading block of
    an upper triangular T_cur with quotient block equivalent to C, or a
    split T_cur) plus length additivity, then computes the three ranks
    of the long-exact-sequence segment and both stated bounds.
    """
    lc = coker_length(C)
    lp = coker_length(T_prev)
    lt = coker_length(T_cur)
    if lt != lc + lp:
        raise ValidationError("inputs not forming an extension: lengths do not add")
    structural = _extension_structure_ok(C, T_prev, T_cur)
    if not structural:
        raise ValidationError("inputs not forming an extension: no chain map found")
    r_prev = ext1(C, T_prev).rank
    r_cur = ext1(C, T_cur).rank
    r_quot = ext1(C, C).rank
    n = T_cur.rows
    return {
        "rank_into_prev": r_prev,
        "rank_into_cur": r_cur,
        "rank_into_quot": r_quot,
        "subadditive": r_cur <= r_prev + r_quot,
        "bound": 2 * n,
        "within_bound": r_cur <= 2 * n,
    }


def _extension_structure_ok(C, T_prev, T_cur) -> bool:
    A = T_cur.algebra
    k = T_prev.rows
    if T_cur.rows >= k and T_cur.cols >= T_prev.cols:
        lead = T_cur.entries[:k, :T_prev.cols]
        lower_left = T_cur.entries[k:, :T_prev.cols]
        if not lower_left.any() and np.array_equal(lead % A.p, T_prev.entries % A.p):
            quot = PresentationMatrix(
                A, np.ascontiguousarray(T_cur.entries[k:, T_prev.cols:]))
            if quot.rows == C.rows and quot.cols == C.cols:
                if quot == C or is_equivalent(quot, C) is not None:
                    return True
    # split extension: T_cur equivalent to the block diagonal
    if T_cur.rows == k + C.rows and T_cur.cols == T_prev.cols + C.cols:
        ent = np.zeros((T_cur.rows, T_cur.cols, A.dim), dtype=np.int64)
        ent[:k, :T_prev.cols] = T_prev.entries
        ent[k:, T_prev.cols:] = C.entries
        diag = PresentationMatrix(A, ent)
        if T_cur == diag or is_equivalent(T_cur, diag) is not None:
            return True
    return False
