import itertools

import numpy as np
import pytest

from trmod import linalg
from trmod.algebra import (
    AlgebraSpec,
    GradedLocalAlgebra,
    RingElement,
    build_algebra,
    enumerate_ezd,
    exact_zero_divisor_partner,
    is_exact_zero_divisor,
)
from trmod.errors import ValidationError
from trmod.ext import (
    ext1,
    ext1_rank_formula,
    gamma,
    les_rank_bound_check,
    pushout_middle,
)
from trmod.modmat import PresentationMatrix, coker_length, is_equivalent, minimize


@pytest.fixture(scope="module")
def S2():
    return build_algebra(AlgebraSpec.canonical_s(2))


@pytest.fixture(scope="module")
def S3():
    return build_algebra(AlgebraSpec.canonical_s(3))


def M(A, rows):
    return PresentationMatrix.from_exprs(A, rows)


def cyc(A, b, c):
    """1x1 presentation of the cyclic module on x + b*y + c*z."""
    return M(A, [[f"x + {b}*y + {c}*z"]])


def test_ext1_rank_examples_f3(S3):
    assert ext1(cyc(S3, 0, 0), cyc(S3, 0, 0)).rank == 3
    assert ext1(cyc(S3, 1, 0), cyc(S3, 1, 0)).rank == 2
    # b=1, c=0, d=2, f=1: generic case
    assert ext1(cyc(S3, 1, 0), cyc(S3, 2, 1)).rank == 1


def test_ext1_rank_formula_examples():
    assert ext1_rank_formula(3, 0, 0, 0, 0) == 3
    assert ext1_rank_formula(5, 1, 2, -1, -2) == 2
    assert ext1_rank_formula(5, 1, 2, 4, 3) == 2
    assert ext1_rank_formula(5, 1, 0, 2, 1) == 1
    # arguments are residues mod p
    assert ext1_rank_formula(3, 3, -3, 6, 0) == 3
    assert ext1_rank_formula(3, 1, 0, 4, 3) == 2


def test_ext1_rank_formula_rejects_char2():
    with pytest.raises(ValidationError):
        ext1_rank_formula(2, 0, 0, 0, 0)
    for bad in (0, 1, 4, 9):
        with pytest.raises(ValidationError, match="characteristic must be prime"):
            ext1_rank_formula(bad, 0, 0, 0, 0)


def test_ext1_matches_formula_exhaustive_f3(S3):
    for b, c, d, f in itertools.product(range(3), repeat=4):
        computed = ext1(cyc(S3, d, f), cyc(S3, b, c)).rank
        expected = ext1_rank_formula(3, b, c, d, f)
        assert computed == expected, (b, c, d, f)


@pytest.mark.slow
def test_ext1_matches_formula_sample_f5():
    A = build_algebra(AlgebraSpec.canonical_s(5))
    cases = [(0, 0, 0, 0), (1, 2, 1, 2), (1, 2, 4, 3), (3, 0, 2, 0),
             (4, 4, 1, 1), (2, 3, 2, 3), (0, 1, 0, 4), (1, 0, 0, 0)]
    for b, c, d, f in cases:
        computed = ext1(cyc(A, d, f), cyc(A, b, c)).rank
        expected = ext1_rank_formula(5, b, c, d, f)
        assert computed == expected, (b, c, d, f)


def test_gamma_examples_f3(S3):
    assert gamma(cyc(S3, 0, 0), cyc(S3, 0, 0)) == 2
    assert gamma(cyc(S3, 1, 0), cyc(S3, 1, 0)) == 2
    assert gamma(cyc(S3, 2, 0), cyc(S3, 1, 0)) == 1


def test_gamma_unit_class_criterion_exhaustive_f3(S3):
    # gamma = rank - [b = -d and c = -f] on all 81 coefficient choices
    for b, c, d, f in itertools.product(range(3), repeat=4):
        rank = ext1(cyc(S3, d, f), cyc(S3, b, c)).rank
        drop = 1 if (b == (-d) % 3 and c == (-f) % 3) else 0
        assert gamma(cyc(S3, d, f), cyc(S3, b, c)) == rank - drop, (b, c, d, f)


_T4 = ["x^2", "y^2", "z^2", "w^2", "y*z", "y*w", "z*w"]


@pytest.mark.parametrize("spec", [
    AlgebraSpec.canonical_s(2),
    AlgebraSpec.canonical_s(3),
    AlgebraSpec.canonical_s(5),
    AlgebraSpec(3, ["x", "a", "b"], ["x^2", "a^2", "b^2", "a*b"]),
    AlgebraSpec(2, ["x", "y", "z", "w"], _T4),
    AlgebraSpec(3, ["x", "y", "z", "w"], _T4),
], ids=["S:2", "S:3", "S:5", "S:3 in x, a, b", "T_4 over F_2", "T_4 over F_3"])
def test_gamma_matches_ext1_less_the_class_of_one(spec):
    # gamma compares linear parts; ext1 builds the Hom complex, and the
    # class of 1 counts when it is a cocycle there, which both ways
    # occur.  Over F_2 the closed form is not checked, so this is
    # gamma's only reference.  rank Ext^1 = e + 2 - r(u) - r(u'), r(w)
    # the rank of the linear parts of w and v
    A = build_algebra(spec)

    def r(w, v):
        return linalg.rank(np.stack([w.degree_one_part(), v.degree_one_part()]), A.p)

    rng = np.random.default_rng(40 + A.p * A.e)
    one = np.zeros(A.dim, dtype=np.int64)
    one[0] = 1
    gens = []
    while len(gens) < 400:
        coeffs = rng.integers(0, A.p, A.dim)
        coeffs[0] = 0
        if is_exact_zero_divisor(A, u := RingElement(A, coeffs)):
            gens.append(PresentationMatrix(A, u.coeffs.reshape(1, 1, A.dim)))
    cocycles = set()
    for N, T1 in zip(gens[::2], gens[1::2]):
        ext = ext1(N, T1)
        cocycle = ext.is_cocycle(ext.cok.project(one))
        assert gamma(N, T1) == ext.rank - int(cocycle)
        u, v = N.entry(0, 0), T1.entry(0, 0)
        assert ext.rank == A.e + 2 - r(u, v) - r(exact_zero_divisor_partner(A, u), v)
        cocycles.add(cocycle)
    assert cocycles == {False, True}


@pytest.mark.parametrize("p", [3, 5])
def test_class_of_one_is_never_a_coboundary(p):
    # gamma counts the class of 1 by its cocycle law alone: H1 is
    # multiplication by u in m, so its image has degree-0 coordinate 0,
    # and the class of 1 has degree-0 coordinate 1
    A = build_algebra(AlgebraSpec.canonical_s(p))
    one = np.zeros(A.dim, dtype=np.int64)
    one[0] = 1
    pairs = 0
    for b, c, d, f in itertools.product(range(p), repeat=4):
        ext = ext1(cyc(A, d, f), cyc(A, b, c))
        assert not ext.is_coboundary(ext.cok.project(one)), (b, c, d, f)
        pairs += 1
    assert pairs == p ** 4  # 81 pairs over S:3, 625 over S:5


def test_gamma_builds_no_operator(monkeypatch):
    # with the partners cached, gamma compares linear parts: no
    # multiplication operator and no rank
    A = build_algebra(AlgebraSpec(3, ["x", "y", "z", "w"], _T4))
    enumerate_ezd(A)

    def spy(*args):
        raise AssertionError("gamma built an operator or took a rank")

    monkeypatch.setattr(linalg, "rank", spy)
    monkeypatch.setattr(GradedLocalAlgebra, "mult_op", spy)
    values = {gamma(M(A, [[u]]), M(A, [[v]]))
              for u, v in itertools.product(["x", "x + y", "2*x + y + x*y", "x + 2*y"], repeat=2)}
    assert values == {2, 3}


def test_mixed_rings_are_refused(S3):
    # same characteristic, different rings: refused before any arithmetic
    T4 = build_algebra(AlgebraSpec(3, ["x", "y", "z", "w"], _T4))
    x_s, x_t = S3.from_expr("x"), T4.from_expr("x")
    with pytest.raises(ValidationError, match="mixed algebras"):
        ext1(M(S3, [["x"]]), M(T4, [["x"]]))
    with pytest.raises(ValidationError, match="mixed algebras"):
        gamma(M(S3, [["x"]]), M(T4, [["x"]]))
    with pytest.raises(ValidationError, match="mixed algebras"):
        pushout_middle(x_s, x_t, S3.one())
    with pytest.raises(ValidationError, match="mixed algebras"):
        pushout_middle(x_s, x_s, T4.one())
    # equal specs are one ring, whichever object built them
    S3b = build_algebra(AlgebraSpec.canonical_s(3))
    assert gamma(M(S3, [["x"]]), M(S3b, [["x"]])) == 2


def test_gamma_rejects_bad_input(S3):
    with pytest.raises(ValidationError):
        gamma(M(S3, [["y"]]), cyc(S3, 0, 0))
    with pytest.raises(ValidationError):
        gamma(M(S3, [["x", "0"], ["0", "x"]]), cyc(S3, 0, 0))


def test_pushout_unit_lift_is_free(S2):
    x = S2.from_expr("x")
    mid = pushout_middle(x, x, S2.one())
    red = minimize(mid)
    assert (red.rows, red.cols) == (1, 0)  # free of rank 1


def test_pushout_zero_class_splits(S2):
    x = S2.from_expr("x")
    mid = pushout_middle(x, x, S2.zero())
    assert mid == M(S2, [["x", "0"], ["0", "x"]])


def test_pushout_nonsplit(S2):
    x = S2.from_expr("x")
    mid = pushout_middle(x, x, S2.from_expr("y"))
    assert mid == M(S2, [["x", "y"], ["0", "x"]])
    assert coker_length(mid) == 6
    assert is_equivalent(mid, M(S2, [["x", "0"], ["0", "x"]])) is None


def test_pushout_length_additivity(S3):
    x = S3.from_expr("x")
    for lift in ("0", "1", "y", "x + z", "x*y"):
        mid = pushout_middle(x, x, S3.from_expr(lift))
        assert coker_length(mid) == 2 * coker_length(M(S3, [["x"]]))


def test_pushout_rejects_non_cocycle(S3):
    # lift * partner(u) must land in (v): 1 * (x - y) is not in (x + y)
    u = S3.from_expr("x + y")
    with pytest.raises(ValidationError):
        pushout_middle(u, u, S3.one())


def test_class_of_and_extension_class(S2):
    N = M(S2, [["x"]])
    ext = ext1(N, N)
    cls = ext.class_of(S2.from_expr("y"))
    assert not cls.is_zero
    zero_cls = ext.class_of(S2.zero())
    assert zero_cls.is_zero


def test_les_rank_bound_i2_f3(S3):
    # T2 = pushout of two cyclic EZD modules; quotient C = T2/T1 cyclic
    C = cyc(S3, 1, 0)
    T1 = cyc(S3, 0, 0)
    T2 = M(S3, [["x", "y"], ["0", "x + y"]])
    rep = les_rank_bound_check(C, T1, T2)
    assert rep["subadditive"]
    assert rep["bound"] == 4
    assert rep["within_bound"]


def test_les_rank_bound_split_case(S3):
    C = cyc(S3, 1, 0)
    T1 = cyc(S3, 0, 0)
    split = M(S3, [["x", "0"], ["0", "x + y"]])
    rep = les_rank_bound_check(C, T1, split)
    assert rep["subadditive"]


def test_les_rank_bound_rejects_non_extension(S3):
    with pytest.raises(ValidationError):
        les_rank_bound_check(cyc(S3, 0, 0), cyc(S3, 0, 0), cyc(S3, 0, 0))


def test_gamma_over_renamed_variables_matches_canonical(S3):
    # x, a, b in place of x, y, z: same multiplication table, so the
    # closed-form cross-check applies by position instead of crashing
    R = build_algebra(AlgebraSpec(3, ["x", "a", "b"], ["x^2", "a^2", "b^2", "a*b"]))
    assert (R.mult_table == S3.mult_table).all()
    us = [(0, 1, b, c, 0, 0) for b in range(3) for c in range(3)]
    vs = [(0, 2, 1, 0, 0, 1), (0, 1, 0, 0, 0, 0), (0, 1, 2, 1, 1, 2)]
    for u, v in itertools.product(us, vs):
        expect = gamma(*(PresentationMatrix(S3, [[w]]) for w in (u, v)))
        assert gamma(*(PresentationMatrix(R, [[w]]) for w in (u, v))) == expect
