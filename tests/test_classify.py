import itertools
import warnings

import numpy as np
import pytest

from trmod.algebra import AlgebraSpec, build_algebra
from trmod.classify import (
    classify_ut2,
    enumerate_cyclic_tr,
    superdiagonal_candidates,
    swap_isomorphism_check,
)
from trmod.errors import BudgetExceededError
from trmod.modmat import PresentationMatrix, is_indecomposable
from trmod.totref import check_ut_tr


@pytest.fixture(scope="module")
def S2():
    return build_algebra(AlgebraSpec.canonical_s(2))


@pytest.fixture(scope="module")
def S3():
    return build_algebra(AlgebraSpec.canonical_s(3))


@pytest.fixture(scope="module")
def table2(S2):
    return classify_ut2(S2)


def test_enumerate_cyclic_tr(S2, S3):
    assert [repr(m.entry(0, 0)) for m in enumerate_cyclic_tr(S2)] == [
        "x", "x + y", "x + z", "x + y + z",
    ]
    assert len(enumerate_cyclic_tr(S3)) == 9


def test_enumerate_cyclic_tr_warns_on_gorenstein():
    G = build_algebra(AlgebraSpec(2, ["x", "y"], ["x^2", "y^2"]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enumerate_cyclic_tr(G)
    assert any("Gorenstein" in str(w.message) for w in caught)


def test_superdiagonal_candidates(S2, S3):
    x2, x3 = S2.from_expr("x"), S3.from_expr("x")
    assert [repr(a) for a in superdiagonal_candidates(S2, x2)] == ["y", "z", "y + z"]
    assert len(superdiagonal_candidates(S3, x3)) == 8
    # the dropped coordinate is the pivot of u's linear part
    R = build_algebra(AlgebraSpec(2, ["y", "x", "z"], ["x^2", "y^2", "z^2", "y*z"]))
    assert [repr(a) for a in superdiagonal_candidates(R, R.from_expr("y + x"))] == [
        "x", "z", "x + z"]


@pytest.mark.parametrize("p, counts", [(2, (24, 24)), (3, (108, 216))])
def test_classification_is_independent_of_variable_order(p, counts):
    # the same ring up to renaming: every listing of its variables gives
    # the same class and indecomposable counts at the default budget
    for order in itertools.permutations(["x", "y", "z"]):
        A = build_algebra(AlgebraSpec(p, list(order), ["x^2", "y^2", "z^2", "y*z"]))
        table = classify_ut2(A)
        assert (len(table.classes), table.total_indecomposable) == counts, order


def test_classification_count_f2(table2):
    assert len(table2.classes) == 24


def test_classification_table_f2(S2, table2):
    def cell(u, t):
        return [repr(a) for a in table2.cell(S2.from_expr(u), S2.from_expr(t))]

    gens = ["x", "x + y", "x + z", "x + y + z"]
    for g in gens:
        assert cell(g, g) == ["y", "z", "y + z"]
    expected_off = {
        ("x", "x + y"): ["z"],
        ("x", "x + z"): ["y"],
        ("x", "x + y + z"): ["y"],
        ("x + y", "x"): ["z"],
        ("x + y", "x + z"): ["y"],
        ("x + y", "x + y + z"): ["y"],
        ("x + z", "x"): ["y"],
        ("x + z", "x + y"): ["y"],
        ("x + z", "x + y + z"): ["z"],
        ("x + y + z", "x"): ["y"],
        ("x + y + z", "x + y"): ["y"],
        ("x + y + z", "x + z"): ["z"],
    }
    for (u, t), entries in expected_off.items():
        assert cell(u, t) == entries, (u, t)


def test_classification_partition(table2):
    assert sum(c.size for c in table2.classes) == table2.total_indecomposable


def test_class_representatives_are_ut_tr_indecomposable(table2):
    for cls in table2.classes:
        ok, _ = check_ut_tr(cls.representative)
        assert ok
        assert is_indecomposable(cls.representative)[0]


def test_classification_grid_renders(table2):
    grid = table2.grid()
    assert "u \\ t" in grid
    assert "y + z" in grid


def test_classification_budget(S2):
    with pytest.raises(BudgetExceededError):
        classify_ut2(S2, budget=10)


def test_order_key_is_total_order(S2):
    els = [a for a in S2.all_elements() if a]
    keys = [a.order_key() for a in els]
    assert len(set(keys)) == len(keys)  # antisymmetry: distinct elements differ
    # published listing order on the generators
    ordered = sorted(
        [S2.from_expr(g) for g in ("x + y + z", "x", "x + z", "x + y")],
        key=lambda a: a.order_key(),
    )
    assert [repr(a) for a in ordered] == ["x", "x + y", "x + z", "x + y + z"]


def test_swap_check_f2(S2):
    rep = swap_isomorphism_check(S2)
    assert rep["all_match_expected"]
    assert rep["total"] == 36
    for case in rep["cases"]:
        assert case["isomorphic"] == (case["u"] == case["t"])


@pytest.mark.slow
def test_swap_check_f3(S3):
    # the published claim expects all-true over F_3; the computation
    # finds every u != t case non-isomorphic, so deviations are reported
    rep = swap_isomorphism_check(S3)
    for case in rep["cases"]:
        assert case["isomorphic"] == (case["u"] == case["t"])
    assert not rep["all_match_expected"]
    assert all(case["u"] != case["t"] for case in rep["deviations"])


def _gl2(p):
    """GL_2(F_p), built here rather than taken from trmod.modmat so that
    the orbit check shares nothing with the equivalence engine."""
    mats = np.array(list(itertools.product(range(p), repeat=4))).reshape(-1, 2, 2)
    det = (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]) % p
    return mats[det != 0]


def _coeff_matrices(A, rows):
    """The x/y/z coefficient matrices (X, Y, Z) of a linear presentation."""
    lin = PresentationMatrix.from_exprs(A, rows).linear_part()
    return np.ascontiguousarray(np.moveaxis(lin, 2, 0))


def _linear_orbit(A, rows):
    """Every P0 (X, Y, Z) Q0 with P0, Q0 in GL_2(F_p), as byte strings.

    For minimal presentations with linear entries this orbit decides
    isomorphism of the cokernels: M' = P M Q over R forces M' = P0 M Q0
    on the degree-1 parts."""
    G = _gl2(A.p)
    coeffs = _coeff_matrices(A, rows)
    orbit = np.einsum("aij,vjk,bkl->abvil", G, coeffs, G) % A.p
    return {o.tobytes() for o in orbit.reshape(-1, *coeffs.shape)}


def test_swap_refutation_by_orbit_enumeration_f3(S3):
    # independent of is_equivalent: no swap [[x + y, b], [0, x]], whatever
    # the linear superdiagonal b, lies in the GL_2(F_3) x GL_2(F_3) orbit
    # of the indecomposable [[x, z], [0, x + y]]; the decomposable control
    # [[x, y], [0, x + y]] swaps within its orbit
    assert len(_gl2(3)) == 48
    M = [["x", "z"], ["0", "x + y"]]
    assert is_indecomposable(PresentationMatrix.from_exprs(S3, M))[0]
    orbit = _linear_orbit(S3, M)
    assert _coeff_matrices(S3, M).tobytes() in orbit
    swapped = _coeff_matrices(S3, [["x + y", "z"], ["0", "x"]])
    for b in itertools.product(range(3), repeat=3):
        swapped[:, 0, 1] = b
        assert swapped.tobytes() not in orbit, b

    control = [["x", "y"], ["0", "x + y"]]
    assert not is_indecomposable(PresentationMatrix.from_exprs(S3, control))[0]
    control_swapped = _coeff_matrices(S3, [["x + y", "y"], ["0", "x"]])
    assert control_swapped.tobytes() in _linear_orbit(S3, control)
