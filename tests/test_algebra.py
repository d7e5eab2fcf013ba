import numpy as np
import pytest

from trmod.algebra import (
    MAX_CHARACTERISTIC,
    AlgebraSpec,
    RingElement,
    annihilator,
    build_algebra,
    enumerate_ezd,
    exact_zero_divisor_partner,
    hilbert_series,
    ideal_span,
    is_exact_zero_divisor,
    ring_preconditions,
    socle,
)
from trmod.errors import ValidationError
from trmod.modmat import ring_matmul


def S(p):
    return build_algebra(AlgebraSpec.canonical_s(p))


def test_canonical_ring_build():
    A = S(3)
    assert A.dim == 6
    assert A.basis_labels == ["1", "x", "y", "z", "x*y", "x*z"]
    assert hilbert_series(A) == (1, 3, 2)


def test_build_rejects_non_prime_characteristic():
    for bad in (0, 1, 4, 6, 9, 15, -3):
        with pytest.raises(ValidationError, match=f"characteristic must be prime, got {bad}$"):
            build_algebra(AlgebraSpec.canonical_s(bad))
    for p in (2, 3, 5, 7, 11, 13):
        assert build_algebra(AlgebraSpec.canonical_s(p)).p == p


def test_build_rejects_characteristic_beyond_int64_bound():
    for big in (MAX_CHARACTERISTIC, 2147483647):
        with pytest.raises(ValidationError, match=f"must be below {MAX_CHARACTERISTIC}"):
            build_algebra(AlgebraSpec.canonical_s(big))


def test_ring_matmul_exact_at_largest_characteristic():
    # 8191 = 2^13 - 1 is the largest prime accepted; at 2^31 - 1 the
    # x*y coefficient of entry (0, 0) below came out 2 instead of 6.  The
    # all p - 1 product of a 2 x 5 and a 5 x 3 matrix reaches the bound
    # k*dim^2*p^3 of the pair sums times the table with k = 5
    p = MAX_CHARACTERISTIC - 1
    A = S(p)
    T = A.mult_table.tolist()
    rng = np.random.default_rng(7)
    square = np.full((3, 3, A.dim), p - 1)
    drawn = rng.integers(0, p, (3, 3, A.dim))
    for X, Y in ((square, square), (drawn, drawn),
                 (np.full((2, 5, A.dim), p - 1), np.full((5, 3, A.dim), p - 1))):
        Xl, Yl = X.tolist(), Y.tolist()
        ref = [[[sum(Xl[i][k][d] * Yl[k][j][e] * T[d][e][f]
                     for k in range(len(Yl)) for d in range(A.dim) for e in range(A.dim)) % p
                 for f in range(A.dim)] for j in range(len(Yl[0]))] for i in range(len(Xl))]
        got = ring_matmul(A, X, Y)
        assert got.dtype == np.int64 and got.tolist() == ref


def test_build_rejects_m2_zero():
    with pytest.raises(ValidationError):
        build_algebra(AlgebraSpec(2, ["x", "y"], ["x^2", "y^2", "x*y"]))


def test_build_rejects_m3_nonzero():
    with pytest.raises(ValidationError):
        build_algebra(AlgebraSpec(2, ["x", "y"], ["x^2"]))


def test_build_rejects_non_homogeneous():
    with pytest.raises(ValidationError):
        build_algebra(AlgebraSpec(2, ["x", "y"], ["x^2 + x", "y^2"]))


def test_gorenstein_ring_flagged():
    A = build_algebra(AlgebraSpec(2, ["x", "y"], ["x^2", "y^2"]))
    assert A.dim == 4
    assert hilbert_series(A) == (1, 2, 1)
    rep = ring_preconditions(A)
    assert rep["gorenstein"] is True
    assert rep["admits_nontrivial_tr"] is False


def test_ring_preconditions_canonical():
    rep = ring_preconditions(S(2))
    assert rep["socle_is_m2"] is True
    assert rep["s2_equals_e_minus_1"] is True
    assert rep["length_equals_2e"] is True
    assert rep["gorenstein"] is False
    assert rep["admits_nontrivial_tr"] is True


def test_element_arithmetic_and_grading():
    A = S(3)
    x, y, z = (A.from_expr(v) for v in "xyz")
    assert x * x == A.zero()
    assert y * z == A.zero()
    assert (x * y).in_m2
    # m^3 = 0
    assert x * (x * y) == A.zero()
    assert repr(x + 2 * y) == "x + 2*y"


def test_unit_inverse():
    A = S(3)
    u = A.from_expr("1 + x + 2*y")
    v = u.inverse()
    assert u * v == A.one()


def test_annihilator_of_x_is_principal():
    A = S(2)
    x = A.from_expr("x")
    sub, gens, flagged = annihilator(A, x)
    assert not flagged
    assert sub.dim == 3  # span{x, xy, xz}
    assert len(gens) == 1
    assert gens[0].normalized() == x


def test_annihilator_of_y_not_principal():
    A = S(2)
    sub, gens, _ = annihilator(A, A.from_expr("y"))
    assert sub.dim == 4  # span{y, z, xy, xz}
    assert len(gens) == 2


def test_annihilator_of_zero_flagged():
    A = S(2)
    sub, gens, flagged = annihilator(A, A.zero())
    assert flagged
    assert sub.dim == A.dim


def test_partner_examples():
    # x is self-paired over any p; over p=3 partner of x+y is x-y = x+2y
    for p in (2, 3, 5):
        A = S(p)
        assert exact_zero_divisor_partner(A, A.from_expr("x")) == A.from_expr("x")
    A = S(3)
    assert exact_zero_divisor_partner(A, A.from_expr("x + y")) == A.from_expr("x + 2*y")
    assert exact_zero_divisor_partner(A, S(2).from_expr("y")) is None


def test_partner_of_unit_raises():
    A = S(2)
    with pytest.raises(ValidationError):
        exact_zero_divisor_partner(A, A.one())


def test_enumerate_ezd_f2():
    A = S(2)
    reps = [repr(pair.a) for pair in enumerate_ezd(A)]
    assert reps == ["x", "x + y", "x + z", "x + y + z"]


def test_enumerate_ezd_f3():
    A = S(3)
    pairs = enumerate_ezd(A)
    assert len(pairs) == 9
    for pair in pairs:
        d1 = pair.a.degree_one_part()
        assert d1[0] == 1  # normalized: x + a*y + b*z
        # partner is x - a*y - b*z
        expected = np.zeros(A.dim, dtype=np.int64)
        expected[1] = 1
        expected[2] = (-d1[1]) % 3
        expected[3] = (-d1[2]) % 3
        assert (pair.b.coeffs == expected).all()


def test_ezd_pair_properties_exhaustive():
    for p in (2, 3):
        A = S(p)
        for pair in enumerate_ezd(A):
            a, b = pair.a, pair.b
            assert a * b == A.zero()
            # symmetry: b is an EZD with partner generating (a)
            assert is_exact_zero_divisor(A, b)
            # rank-nullity on multiplication maps
            sub_a, _, _ = annihilator(A, a)
            assert sub_a.dim + ideal_span(A, a).dim == A.dim
            # representatives lie in m \ m^2 with nonzero x-coordinate
            assert a.in_m and not a.in_m2
            assert a.coeffs[1] % p != 0


def test_non_ezd_elements_exhaustive_f2():
    A = S(2)
    ezd_ideals = {ideal_span(A, pair.a).key() for pair in enumerate_ezd(A)}
    for a in A.all_elements():
        if not a or a.in_m2:
            continue
        if is_exact_zero_divisor(A, a):
            assert ideal_span(A, a).key() in ezd_ideals
        else:
            assert ideal_span(A, a).key() not in ezd_ideals


_EZD_RINGS = {
    "S:2": AlgebraSpec.canonical_s(2),
    "S:3": AlgebraSpec.canonical_s(3),
    "S:5": AlgebraSpec.canonical_s(5),
    "S:3 in x, a, b": AlgebraSpec(3, ["x", "a", "b"], ["x^2", "a^2", "b^2", "a*b"]),
    "F_3[x,y]/(x^2,y^2)": AlgebraSpec(3, ["x", "y"], ["x^2", "y^2"]),
}


def _partner_by_definition(A, a):
    """The normalized b with (0:a) = (b) and (0:b) = (a), from the
    annihilator and ideal of a itself, or None."""
    _, gens, _ = annihilator(A, a)
    if len(gens) != 1:
        return None
    b = gens[0].normalized()
    return b if annihilator(A, b)[0] == ideal_span(A, a) else None


@pytest.mark.parametrize("name", ["S:2", "S:3", "F_3[x,y]/(x^2,y^2)"])
def test_partner_depends_only_on_the_linear_point(name):
    A = build_algebra(_EZD_RINGS[name])
    for a in A.all_elements():
        if not a:
            continue
        got = exact_zero_divisor_partner(A, a)
        assert got == _partner_by_definition(A, a)
        if a.in_m2:
            assert got is None
            continue
        point = np.zeros(A.dim, dtype=np.int64)
        point[1 : 1 + A.e] = a.degree_one_part()
        assert exact_zero_divisor_partner(A, RingElement(A, point).normalized()) == got
    assert len(A._partner_cache) == (A.p**A.e - 1) // (A.p - 1)  # once per point


def _ezd_by_sweep(A):
    """The pairs met by a sweep of m \\ m^2 in order_key order, one per
    ideal, normalized, with partners by definition."""
    seen, pairs = set(), []
    for a in sorted((a for a in A.all_elements() if not a.in_m2), key=RingElement.order_key):
        a = a.normalized()
        ideal = ideal_span(A, a).key()
        if ideal in seen:
            continue
        b = _partner_by_definition(A, a)
        if b is not None:
            seen.add(ideal)
            pairs.append((a.coeffs.tolist(), b.coeffs.tolist()))
    return pairs


@pytest.mark.parametrize("name", sorted(_EZD_RINGS))
def test_enumerate_ezd_matches_sweep_of_m(name):
    A = build_algebra(_EZD_RINGS[name])
    got = [(pair.a.coeffs.tolist(), pair.b.coeffs.tolist()) for pair in enumerate_ezd(A)]
    assert got == _ezd_by_sweep(A)


def test_variable_names_must_be_identifiers():
    for names in (["x", "1"], ["x", "y z"], ["x", "α"]):
        with pytest.raises(ValidationError, match="identifiers"):
            build_algebra(AlgebraSpec(2, names, ["x^2"]))


def test_socle_of_canonical_is_m2():
    A = S(5)
    soc = socle(A)
    assert soc.dim == 2
    xy = A.from_expr("x*y")
    assert soc.contains(xy.coeffs)
