"""Graded local k-algebras R = k + m/m^2 + m^2 with m^3 = 0.

An algebra is built from a characteristic, degree-1 generators, and
homogeneous degree-2 relations.  The build computes a monomial basis of
m^2, the full multiplication table, and validates the m^3 = 0 and
m^2 != 0 hypotheses.  Ring elements are coefficient vectors over the
basis (degree 0: the identity; degree 1: the generators; degree 2: the
surviving monomials).
"""

from __future__ import annotations

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

    def __init__(self, spec, basis_labels, degrees, mult_table, mono_reduction):
        self.spec = spec
        self.p = spec.characteristic
        self.variables = list(spec.variables)
        self.e = len(self.variables)
        self.basis_labels = basis_labels
        self.degrees = degrees  # int array, degree of each basis element
        self.dim = len(basis_labels)
        self.s2 = self.dim - 1 - self.e
        self.mult_table = mult_table  # C[i,j,k]: b_i * b_j = sum_k C[i,j,k] b_k
        self._mono_reduction = mono_reduction  # degree-2 exponent tuple -> vector
        # L[i] = matrix of multiplication by basis element i.
        self._mult_ops = np.ascontiguousarray(
            np.einsum("ijk->ikj", mult_table)
        )  # L[i][k, j] = C[i, j, k]
        self._partner_cache: dict[bytes, "RingElement | None"] = {}
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

    def from_expr(self, text: str) -> "RingElement":
        """Parse an expression in the generators into a ring element."""
        poly = expr.parse_poly(text, self.variables)
        v = np.zeros(self.dim, dtype=np.int64)
        for expo, coeff in poly.items():
            deg = sum(expo)
            c = coeff % self.p
            if c == 0:
                continue
            if deg == 0:
                v[0] = (v[0] + c) % self.p
            elif deg == 1:
                i = expo.index(1)
                v[1 + i] = (v[1 + i] + c) % self.p
            elif deg == 2:
                red = self._mono_reduction[expo]
                v[1 + self.e :] = (v[1 + self.e :] + c * red) % self.p
            else:
                # m^3 = 0: any monomial of degree >= 3 is zero.
                continue
        return RingElement(self, v)

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

    # Exponent-tuple keyed reduction map for the parser.
    mono_red_by_expo = {}
    for (a, b), vec in mono_red.items():
        expo = [0] * e
        expo[a] += 1
        expo[b] += 1
        mono_red_by_expo[tuple(expo)] = vec

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

    A = GradedLocalAlgebra(spec, labels, degrees, C, mono_red_by_expo)
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
    unit over a local ring).
    """
    if a.is_unit:
        raise ValidationError("unit is not a zero divisor")
    if not a:
        raise ValidationError("zero is not an exact zero divisor")
    key = a.coeffs.tobytes()
    if key in A._partner_cache:
        return A._partner_cache[key]
    ann_a, gens, _ = annihilator(A, a)
    result = None
    if len(gens) == 1:
        b = gens[0].normalized()
        ann_b, _, _ = annihilator(A, b)
        if ann_b == ideal_span(A, a):
            result = b
    A._partner_cache[key] = result
    return result


def is_exact_zero_divisor(A: GradedLocalAlgebra, a: RingElement) -> bool:
    if a.is_unit or not a:
        return False
    return exact_zero_divisor_partner(A, a) is not None


def enumerate_ezd(A: GradedLocalAlgebra) -> list[ExactZeroDivisorPair]:
    """All exact zero divisor pairs, one representative per ideal.

    Candidates sweep m \\ m^2; dedup is by the generated ideal (unit
    multiples and m^2-perturbations that preserve the ideal collapse to
    one entry).  Representatives are leading-coefficient normalized and
    chosen minimal in the listing order.
    """
    seen: dict[bytes, ExactZeroDivisorPair] = {}
    order: list[bytes] = []
    candidates = [a for a in A.all_elements() if not a.in_m2 and a]
    candidates.sort(key=lambda a: a.order_key())
    for a in candidates:
        a = a.normalized()
        ideal_key = ideal_span(A, a).key()
        if ideal_key in seen:
            continue
        b = exact_zero_divisor_partner(A, a)
        if b is None:
            continue
        seen[ideal_key] = ExactZeroDivisorPair(a, b)
        order.append(ideal_key)
    return [seen[k] for k in order]
