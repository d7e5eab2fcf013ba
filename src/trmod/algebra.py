"""Graded local k-algebras R = k + m/m^2 + m^2 with m^3 = 0.

An algebra is built from a characteristic, degree-1 generators, and
homogeneous degree-2 relations.  The build computes a monomial basis of
m^2, the full multiplication table, and validates the m^3 = 0 and
m^2 != 0 hypotheses.  Ring elements are coefficient vectors over the
basis (degree 0: the identity; degree 1: the generators; degree 2: the
surviving monomials).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import expr, linalg
from .errors import ValidationError


@dataclass
class AlgebraSpec:
    characteristic: int
    variables: list[str]
    relations: list[str]

    @staticmethod
    def canonical_s(p: int) -> "AlgebraSpec":
        """The ring k[x,y,z]/(x^2, y^2, z^2, yz) over F_p."""
        return AlgebraSpec(p, ["x", "y", "z"], ["x^2", "y^2", "z^2", "y*z"])


class GradedLocalAlgebra:
    """Finite-dimensional graded local algebra, immutable after build."""

    def __init__(self, spec, basis_labels, degrees, mult_table, monomials):
        self.spec = spec
        self.p = spec.characteristic
        self.variables = list(spec.variables)
        self.e = len(self.variables)
        self.basis_labels = basis_labels
        self.degrees = degrees  # int array, degree of each basis element
        self.dim = len(basis_labels)
        self.s2 = self.dim - 1 - self.e
        self.mult_table = mult_table  # C[i,j,k]: b_i * b_j = sum_k C[i,j,k] b_k
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        self._monomials = monomials  # see build_algebra
        # L[i] = matrix of multiplication by basis element i.
        self._mult_ops = np.ascontiguousarray(
            np.einsum("ijk->ikj", mult_table)
        )  # L[i][k, j] = C[i, j, k]
        self._partner_cache: dict[tuple, "RingElement | None"] = {}  # by point
        self._ann_cache: dict[bytes, tuple] = {}

    # -- element constructors -------------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, np.zeros(self.dim, dtype=np.int64))

    def one(self) -> "RingElement":
        v = np.zeros(self.dim, dtype=np.int64)
        v[0] = 1
        return RingElement(self, v)

    def gen(self, i: int) -> "RingElement":
        v = np.zeros(self.dim, dtype=np.int64)
        v[1 + i] = 1
        return RingElement(self, v)

    def element(self, coeffs) -> "RingElement":
        v = np.asarray(coeffs, dtype=np.int64) % self.p
        if v.shape != (self.dim,):
            raise ValidationError(
                f"coefficient vector has length {v.shape}, algebra dimension is {self.dim}"
            )
        return RingElement(self, v.copy())

    def parse_coeffs(self, text: str) -> list[int]:
        """Coefficients over the basis of an expression in the generators,
        reduced mod p.  A monomial of degree >= 3 is 0 (m^3 = 0) and is
        skipped without being built."""
        acc = [0] * self.dim
        monomials = self._monomials
        for coeff, factors in expr.terms(text, self._var_index):
            red = monomials.get(tuple(factors))
            if red is None:  # a power 0, or degree >= 3
                factors = tuple(f for f in factors if f[1])
                if sum(k for _, k in factors) > 2:
                    continue
                red = monomials[factors]
            for t, val in red:
                acc[t] += coeff * val
        p = self.p
        return [a % p for a in acc]

    def from_expr(self, text: str) -> "RingElement":
        """Parse an expression in the generators into a ring element."""
        return RingElement(self, np.array(self.parse_coeffs(text), dtype=np.int64))

    def format_element(self, coeffs) -> str:
        terms = [
            (int(c), self.basis_labels[i]) for i, c in enumerate(coeffs) if c % self.p
        ]
        return expr.format_poly(terms)

    # -- arithmetic -----------------------------------------------------------

    def mult_vectors(self, a, b) -> np.ndarray:
        return np.einsum("i,j,ijk->k", a, b, self.mult_table) % self.p

    def mult_op(self, a) -> np.ndarray:
        """dim x dim matrix of multiplication by the element with coeffs a."""
        return np.einsum("i,ikj->kj", np.asarray(a) % self.p, self._mult_ops) % self.p

    def maximal_ideal_indices(self):
        return list(range(1, self.dim))

    def m2_indices(self):
        return list(range(1 + self.e, self.dim))

    def all_elements(self, degree_one_only=False):
        """Iterate every element of m (or of the degree-1 span)."""
        import itertools

        idxs = (
            list(range(1, 1 + self.e)) if degree_one_only else self.maximal_ideal_indices()
        )
        for combo in itertools.product(range(self.p), repeat=len(idxs)):
            v = np.zeros(self.dim, dtype=np.int64)
            for i, c in zip(idxs, combo):
                v[i] = c
            yield RingElement(self, v)

    def __repr__(self):
        rels = ", ".join(self.spec.relations)
        return f"GradedLocalAlgebra(F_{self.p}[{', '.join(self.variables)}]/({rels}), dim={self.dim})"


class RingElement:
    """Coefficient vector over the algebra basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GradedLocalAlgebra, coeffs: np.ndarray):
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other):
        if other.algebra is not self.algebra and other.algebra.spec != self.algebra.spec:
            raise ValidationError("elements live in different algebras")

    def __add__(self, other):
        self._check(other)
        return RingElement(self.algebra, (self.coeffs + other.coeffs) % self.algebra.p)

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.algebra, (self.coeffs - other.coeffs) % self.algebra.p)

    def __neg__(self):
        return RingElement(self.algebra, (-self.coeffs) % self.algebra.p)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.algebra, (self.coeffs * other) % self.algebra.p)
        self._check(other)
        return RingElement(
            self.algebra, self.algebra.mult_vectors(self.coeffs, other.coeffs)
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __bool__(self):
        return bool(self.coeffs.any())

    @property
    def is_unit(self) -> bool:
        return self.coeffs[0] % self.algebra.p != 0

    @property
    def in_m(self) -> bool:
        return not self.is_unit

    @property
    def in_m2(self) -> bool:
        A = self.algebra
        return not self.coeffs[: 1 + A.e].any()

    def degree_one_part(self) -> np.ndarray:
        A = self.algebra
        return self.coeffs[1 : 1 + A.e].copy()

    def degree_two_part(self) -> np.ndarray:
        A = self.algebra
        return self.coeffs[1 + A.e :].copy()

    def inverse(self) -> "RingElement":
        """Ring inverse of a unit (local ring: unit iff scalar part nonzero)."""
        if not self.is_unit:
            raise ValidationError("cannot invert a non-unit")
        A = self.algebra
        one = np.zeros(A.dim, dtype=np.int64)
        one[0] = 1
        sol = linalg.solve(A.mult_op(self.coeffs), one, A.p)
        return RingElement(A, sol)

    def normalized(self) -> "RingElement":
        """Scale by a field unit so the first nonzero coordinate is 1."""
        nz = np.nonzero(self.coeffs)[0]
        if len(nz) == 0:
            return self
        c = int(self.coeffs[nz[0]])
        cinv = pow(c, self.algebra.p - 2, self.algebra.p)
        return self * cinv

    def order_key(self) -> tuple:
        """Deterministic total order matching the published listing order
        (x < x+y < x+z < x+y+z, y < z < y+z over the canonical ring)."""
        return tuple(int(c) for c in reversed(self.coeffs))

    def __repr__(self):
        return self.algebra.format_element(self.coeffs)


@dataclass(frozen=True)
class ExactZeroDivisorPair:
    a: RingElement
    b: RingElement


# -- build ---------------------------------------------------------------------


MAX_CHARACTERISTIC = 1 << 13


def check_characteristic(p: int) -> None:
    """Raise ValidationError unless p is a prime below MAX_CHARACTERISTIC.

    Ring arithmetic runs in int64 and must not overflow.  The widest
    accumulation is `ring_matmul`'s: its coefficient pair sums over the
    inner matrix size k are below k*p^2, and the multiplication table
    adds dim^2 of them, each times a residue, so k*dim^2 terms below p^3
    in all.  p < 2^13 keeps each term below 2^39 and leaves 2^24 terms of
    headroom.
    """
    if p >= MAX_CHARACTERISTIC:
        raise ValidationError(
            f"characteristic must be below {MAX_CHARACTERISTIC} "
            f"(int64 arithmetic), got {p}"
        )
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValidationError(f"characteristic must be prime, got {p}")


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _deg2_monomials(e: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(e) for j in range(i, e)]


def build_algebra(spec: AlgebraSpec) -> GradedLocalAlgebra:
    """Construct and validate the quotient algebra.

    Raises ValidationError on: fewer than 2 variables, non-homogeneous
    relations, m^2 = 0 after reduction, or m^3 != 0 after reduction.
    """
    check_characteristic(spec.characteristic)
    p = spec.characteristic
    e = len(spec.variables)
    if e < 2:
        raise ValidationError("need at least 2 variables")
    if len(set(spec.variables)) != e:
        raise ValidationError("duplicate variable names")
    bad = [v for v in spec.variables if not _NAME.fullmatch(str(v))]
    if bad:
        raise ValidationError(f"variable names must be identifiers, got {bad}")

    monos2 = _deg2_monomials(e)
    mono2_index = {m: i for i, m in enumerate(monos2)}
    n2 = len(monos2)

    def expo_to_mono2(expo):
        idxs = []
        for v, k in enumerate(expo):
            idxs.extend([v] * k)
        return (idxs[0], idxs[1])

    rel_rows = []
    for rel in spec.relations:
        poly = expr.parse_poly(rel, spec.variables)
        row = np.zeros(n2, dtype=np.int64)
        for expo, coeff in poly.items():
            if sum(expo) != 2:
                raise ValidationError(f"relation {rel!r} is not homogeneous of degree 2")
            row[mono2_index[expo_to_mono2(expo)]] = coeff % p
        rel_rows.append(row)
    R = (
        np.array(rel_rows, dtype=np.int64)
        if rel_rows
        else np.zeros((0, n2), dtype=np.int64)
    )
    Rrref, rel_pivots = linalg.rref(R, p)
    pivot_set = set(rel_pivots)
    basis2 = [m for i, m in enumerate(monos2) if i not in pivot_set]
    s2 = len(basis2)
    if s2 == 0:
        raise ValidationError("m^2 = 0 after reduction (need m^3 = 0 != m^2)")
    basis2_pos = {m: k for k, m in enumerate(basis2)}

    # Reduction of each degree-2 monomial onto the m^2 basis.
    mono_red = {}
    for i, m in enumerate(monos2):
        vec = np.zeros(s2, dtype=np.int64)
        if i not in pivot_set:
            vec[basis2_pos[m]] = 1
        else:
            row = Rrref[rel_pivots.index(i)]
            for j, mj in enumerate(monos2):
                if j != i and row[j]:
                    vec[basis2_pos[mj]] = (-row[j]) % p
        mono_red[m] = vec

    # m^3 = 0 check: every degree-3 monomial must lie in the span of
    # {variable * relation}.
    monos3 = sorted(
        {tuple(sorted((a, b, c))) for a in range(e) for b in range(e) for c in range(e)}
    )
    mono3_index = {m: i for i, m in enumerate(monos3)}
    deg3_rows = []
    for t in range(e):
        for row in rel_rows:
            v3 = np.zeros(len(monos3), dtype=np.int64)
            for i, (a, b) in enumerate(monos2):
                if row[i]:
                    v3[mono3_index[tuple(sorted((t, a, b)))]] = (
                        v3[mono3_index[tuple(sorted((t, a, b)))]] + row[i]
                    ) % p
            deg3_rows.append(v3)
    if deg3_rows:
        rank3 = linalg.rank(np.array(deg3_rows), p)
    else:
        rank3 = 0
    if rank3 != len(monos3):
        raise ValidationError("m^3 != 0 after reduction")

    # The parser's table: the (variable index, power) factors of every
    # monomial of degree <= 2, in any order, to its nonzero (basis index,
    # value) pairs.
    monomials = {(): ((0, 1),)}
    for i in range(e):
        monomials[((i, 1),)] = ((1 + i, 1),)
    for (a, b), vec in mono_red.items():
        red = tuple((1 + e + k, int(v)) for k, v in enumerate(vec) if v)
        monomials[((a, 1), (b, 1))] = monomials[((b, 1), (a, 1))] = red
        if a == b:
            monomials[((a, 2),)] = red

    dim = 1 + e + s2
    labels = ["1"] + list(spec.variables)
    for (a, b) in basis2:
        if a == b:
            labels.append(f"{spec.variables[a]}^2")
        else:
            labels.append(f"{spec.variables[a]}*{spec.variables[b]}")
    degrees = np.array([0] + [1] * e + [2] * s2, dtype=np.int64)

    C = np.zeros((dim, dim, dim), dtype=np.int64)
    C[0, :, :] = np.eye(dim, dtype=np.int64)
    C[:, 0, :] = np.eye(dim, dtype=np.int64)
    for i in range(e):
        for j in range(e):
            red = mono_red[(min(i, j), max(i, j))]
            C[1 + i, 1 + j, 1 + e :] = red
    # degree 1 * degree 2, degree 2 * anything in m: zero (m^3 = 0).

    A = GradedLocalAlgebra(spec, labels, degrees, C, monomials)
    _validate_table(A)
    return A


def _validate_table(A: GradedLocalAlgebra):
    """Commutativity and associativity on all basis triples."""
    C = A.mult_table
    if not np.array_equal(C, np.einsum("ijk->jik", C)):
        raise ValidationError("multiplication table is not commutative")
    left = np.einsum("ijm,mkl->ijkl", C, C) % A.p
    right = np.einsum("jkm,iml->ijkl", C, C) % A.p
    if not np.array_equal(left, right):
        raise ValidationError("multiplication table is not associative")


# -- reports and annihilators --------------------------------------------------


def hilbert_series(A: GradedLocalAlgebra) -> tuple[int, int, int]:
    return (1, A.e, A.s2)


def socle(A: GradedLocalAlgebra) -> linalg.Subspace:
    """(0 : m), computed as the joint kernel of multiplication by the
    degree-1 generators."""
    ops = [A.mult_op(A.gen(i).coeffs) for i in range(A.e)]
    stacked = np.concatenate(ops, axis=0)
    N = linalg.nullspace(stacked, A.p)
    return linalg.Subspace(A.dim, A.p, N.T)


def ring_preconditions(A: GradedLocalAlgebra) -> dict:
    """Necessary conditions for nontrivial totally reflexive modules:
    socle = m^2, dim m^2 = e - 1, total length 2e.  Pure report."""
    soc = socle(A)
    m2_vectors = [np.eye(A.dim, dtype=np.int64)[i] for i in A.m2_indices()]
    m2_space = linalg.Subspace(A.dim, A.p, m2_vectors)
    socle_is_m2 = soc == m2_space
    gorenstein = soc.dim == 1
    return {
        "hilbert_series": list(hilbert_series(A)),
        "embedding_dimension": A.e,
        "length": A.dim,
        "socle_dimension": soc.dim,
        "socle_is_m2": bool(socle_is_m2),
        "s2_equals_e_minus_1": A.s2 == A.e - 1,
        "length_equals_2e": A.dim == 2 * A.e,
        "gorenstein": bool(gorenstein),
        "admits_nontrivial_tr": bool(
            socle_is_m2 and A.s2 == A.e - 1 and A.dim == 2 * A.e and not gorenstein
        ),
    }


def ideal_span(A: GradedLocalAlgebra, a: RingElement) -> linalg.Subspace:
    """k-basis of the principal ideal (a) = column space of mult-by-a."""
    op = A.mult_op(a.coeffs)
    return linalg.Subspace(A.dim, A.p, op.T)


def annihilator(A: GradedLocalAlgebra, a: RingElement):
    """(0 : a) as a k-subspace, plus minimal ideal generators (Nakayama).

    Returns (subspace, generators, flagged_zero): for a = 0 the
    annihilator is all of A and flagged_zero is True.
    """
    key = a.coeffs.tobytes()
    cached = A._ann_cache.get(key)
    if cached is not None:
        return cached
    if not a:
        full = linalg.Subspace(A.dim, A.p, np.eye(A.dim, dtype=np.int64))
        result = (full, [A.one()], True)
        A._ann_cache[key] = result
        return result
    op = A.mult_op(a.coeffs)
    N = linalg.nullspace(op, A.p)
    sub = linalg.Subspace(A.dim, A.p, N.T)
    gens = _minimal_ideal_generators(A, sub)
    result = (sub, gens, False)
    A._ann_cache[key] = result
    return result


def _minimal_ideal_generators(A: GradedLocalAlgebra, I: linalg.Subspace):
    """Lift a k-basis of I/mI to minimal generators of the ideal I."""
    mI = [A._mult_ops[i] @ I.basis.T for i in A.maximal_ideal_indices()]
    keep = linalg.independent_columns(
        np.concatenate(mI + [I.basis.T], axis=1), A.p, skip=len(mI) * I.dim)
    return [RingElement(A, I.basis[t].copy()) for t in keep]


def exact_zero_divisor_partner(A: GradedLocalAlgebra, a: RingElement):
    """Partner b with (0:a) = (b) and (0:b) = (a), or None.

    b is normalized so its first nonzero coordinate is 1 (unique up to
    unit over a local ring).  Both depend only on the projective point
    of a's linear part l, and are computed once per point: m^3 = 0 gives
    (0:a) = (0:l) and (a) = k*a + l*m, of the length of (l), while
    (a) and (l) both lie in (0:b).  A nonzero a in m^2 has (0:a) = m,
    which needs e >= 2 generators, so it is never an exact zero divisor.
    """
    if a.is_unit:
        raise ValidationError("unit is not a zero divisor")
    if not a:
        raise ValidationError("zero is not an exact zero divisor")
    p = A.p
    lin = [c % p for c in a.coeffs[1 : 1 + A.e].tolist()]
    lead = next((c for c in lin if c), 0)
    if not lead:
        return None
    inv = pow(lead, p - 2, p)
    point = tuple(x * inv % p for x in lin)  # first nonzero coordinate 1
    if point in A._partner_cache:
        return A._partner_cache[point]
    ell = RingElement(A, np.array((0,) + point + (0,) * A.s2, dtype=np.int64))
    _, gens, _ = annihilator(A, ell)
    result = None
    if len(gens) == 1:
        b = gens[0].normalized()
        ann_b, _, _ = annihilator(A, b)
        if ann_b == ideal_span(A, ell):
            result = b
    A._partner_cache[point] = result
    return result


def is_exact_zero_divisor(A: GradedLocalAlgebra, a: RingElement) -> bool:
    if a.is_unit or not a:
        return False
    return exact_zero_divisor_partner(A, a) is not None


def enumerate_ezd(A: GradedLocalAlgebra) -> list[ExactZeroDivisorPair]:
    """All exact zero divisor pairs, one representative per ideal, in the
    order in which a sweep of m by `order_key` first meets each ideal.

    The sweep is not run.  Being an EZD, and the partner, depend only on
    the projective point l of the linear part (see
    `exact_zero_divisor_partner`), so each of the (p^e - 1)/(p - 1)
    points is tested once.  An EZD point gives one ideal, (l) = k*l + m^2:
    m^2 kills b, so it lies in (0:b) = (a) = k*a + a*m, and as a lies
    outside m^2, m^2 = a*m = l*m.  Its generators are the c*l + q with c
    in F_p^* and q in m^2, of which the sweep meets the least c*l first,
    normalized to l.
    """
    p, e = A.p, A.e
    found = []
    for lead in range(e):
        for tail in itertools.product(range(p), repeat=e - 1 - lead):
            point = (0,) * lead + (1,) + tail
            ell = RingElement(A, np.array((0,) + point + (0,) * A.s2, dtype=np.int64))
            b = exact_zero_divisor_partner(A, ell)
            if b is not None:
                first = min((ell * c).order_key() for c in range(1, p))
                found.append((first, ExactZeroDivisorPair(ell, b)))
    found.sort(key=lambda item: item[0])
    return [pair for _, pair in found]
