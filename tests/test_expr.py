import functools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from trmod.algebra import AlgebraSpec, build_algebra
from trmod.errors import ParseError
from trmod.expr import format_poly, parse_poly
from trmod.modmat import PresentationMatrix

VARS = ["x", "y", "z"]


def test_parse_monomials():
    assert parse_poly("x", VARS) == {(1, 0, 0): 1}
    assert parse_poly("x^2", VARS) == {(2, 0, 0): 1}
    assert parse_poly("x*y", VARS) == {(1, 1, 0): 1}
    assert parse_poly("3", VARS) == {(0, 0, 0): 3}


def test_parse_sums_and_signs():
    assert parse_poly("2*x - y", VARS) == {(1, 0, 0): 2, (0, 1, 0): -1}
    assert parse_poly("-x + x", VARS) == {}
    assert parse_poly("x + y + z", VARS) == {
        (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
    }


def test_parse_coefficient_merging():
    assert parse_poly("x + x", VARS) == {(1, 0, 0): 2}
    assert parse_poly("2*x*y + y*x", VARS) == {(1, 1, 0): 3}


def test_parse_powers_and_products():
    assert parse_poly("x^2*y", VARS) == {(2, 1, 0): 1}
    assert parse_poly("x*x", VARS) == {(2, 0, 0): 1}


def test_parse_errors():
    for bad in ("", "x +", "w", "x^", "x^y", "@", "x ~ y",
                "x*", "x*+y", "x* - y", "x**y", "*x", "2 3", "x y", "- - x"):
        with pytest.raises(ParseError):
            parse_poly(bad, VARS)


def test_format_poly():
    assert format_poly([]) == "0"
    assert format_poly([(1, "x")]) == "x"
    assert format_poly([(2, "x*y")]) == "2*x*y"
    assert format_poly([(3, "1"), (1, "z")]) == "3 + z"


def test_round_trip():
    for text in ("x", "x + 2*y", "x*y + x*z", "2 + x"):
        terms = parse_poly(text, VARS)
        # primitive round trip: reparse of a formatted normal form agrees
        labels = {(1, 0, 0): "x", (0, 1, 0): "y", (0, 0, 1): "z",
                  (0, 0, 0): "1", (1, 1, 0): "x*y", (1, 0, 1): "x*z"}
        out = format_poly([(coeff, labels[expo]) for expo, coeff in terms.items()])
        assert parse_poly(out, VARS) == terms


_RINGS = {
    "S:2": AlgebraSpec.canonical_s(2),
    "S:3": AlgebraSpec.canonical_s(3),
    "S:5": AlgebraSpec.canonical_s(5),
    "S:3 in x, a, b": AlgebraSpec(3, ["x", "a", "b"], ["x^2", "a^2", "b^2", "a*b"]),
}


@functools.cache
def _ring(name):
    return build_algebra(_RINGS[name])


def test_high_powers_are_zero_and_long_literals_parse():
    A = _ring("S:5")
    assert not A.from_expr("x^1000000000").coeffs.any()
    assert A.from_expr("y + x^1000000000*z") == A.from_expr("y")
    assert parse_poly("x^1000000000", VARS) == {(1000000000, 0, 0): 1}
    big = 123456789012345678901234567891
    assert len(str(big)) == 30
    v = A.from_expr(f"{big}*x - {big}*x*y + {big}")
    assert v.coeffs.tolist() == [big % 5, big % 5, 0, 0, -big % 5, 0]
    with pytest.raises(ParseError):  # still an error past a dead term
        A.from_expr("x^3*w")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_RINGS)), st.data())
def test_format_parse_round_trip(name, data):
    A = _ring(name)
    v = data.draw(st.lists(st.integers(0, A.p - 1), min_size=A.dim, max_size=A.dim))
    assert A.from_expr(A.format_element(v)).coeffs.tolist() == v


# -- a reference parser: the token grammar, one token at a time -----------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-)")


def _reference_poly(text, variables):
    """{exponent vector: coefficient} by a token-at-a-time reading of the
    grammar in trmod.expr, independent of its scanner."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character in {text!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ParseError("empty expression")
    index = {v: i for i, v in enumerate(variables)}
    poly, pos = {}, 0
    while pos < len(tokens):
        sign = 1
        if tokens[pos] in "+-":
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
        elif poly or pos:
            raise ParseError(f"expected a sign in {text!r}")
        coeff, expo = sign, [0] * len(variables)
        while True:  # factor ('*' factor)*
            tok = tokens[pos] if pos < len(tokens) else None
            if tok is not None and tok.isdigit():
                coeff *= int(tok)
                pos += 1
            elif tok in index:
                power, pos = 1, pos + 1
                if pos < len(tokens) and tokens[pos] == "^":
                    if pos + 1 == len(tokens) or not tokens[pos + 1].isdigit():
                        raise ParseError(f"expected integer power in {text!r}")
                    power, pos = int(tokens[pos + 1]), pos + 2
                expo[index[tok]] += power
            else:
                raise ParseError(f"expected a factor in {text!r}")
            if pos < len(tokens) and tokens[pos] == "*":
                pos += 1
                continue
            break
        poly[tuple(expo)] = poly.get(tuple(expo), 0) + coeff
    return poly


def _reference_vector(A, text):
    """The element, built by ring multiplication of the generators."""
    total = A.zero()
    for expo, coeff in _reference_poly(text, A.variables).items():
        if sum(expo) >= 3:  # m^3 = 0
            continue
        term = A.one() * (coeff % A.p)
        for i, k in enumerate(expo):
            for _ in range(k):
                term = term * A.gen(i)
        total = total + term
    return total.coeffs.tolist()


_NOISE = ["x", "a", "w", "xy", "2", "0", "^", "*", "+", "-", " ", "\t", "@", "x_",
          "٣", "12345678901234567890123456789"]


def _random_text(rng, variables):
    """A random expression, then with even odds a few random edits."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [rng.choice(["2", "13", "0", "٣", "12345678901234567890123456789"])
                   for _ in range(rng.randint(0, 1))]
        for _ in range(rng.randint(0 if factors else 1, 2)):
            factors.append(rng.choice(variables) + rng.choice(
                ["", "", "", "^0", "^1", "^2", " ^ 2", "^1000000000"]))
        rng.shuffle(factors)
        terms.append(rng.choice(["*", " * "]).join(factors))
    text = rng.choice(["", "-", "+ ", "- "]) + "".join(
        t if i == 0 else rng.choice([" + ", "-", " - ", "+"]) + t for i, t in enumerate(terms))
    while rng.random() < 0.5:
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(_NOISE) + text[i + rng.randint(0, 2):]
    return text


@pytest.mark.parametrize("seed", range(4))
def test_from_exprs_matches_reference_parser(seed):
    rng = random.Random(seed)
    errors = values = 0
    for _ in range(1000):
        A = _ring(rng.choice(sorted(_RINGS)))
        r, c = rng.randint(1, 2), rng.randint(1, 2)
        rows = [[_random_text(rng, A.variables) for _ in range(c)] for _ in range(r)]
        try:
            want = [[_reference_vector(A, t) for t in row] for row in rows]
        except ParseError:
            with pytest.raises(ParseError):
                PresentationMatrix.from_exprs(A, rows)
            errors += 1
            continue
        got = PresentationMatrix.from_exprs(A, rows).entries
        assert got.tolist() == want, rows
        values += 1
    assert errors > 100 and values > 100  # both outcomes are exercised
