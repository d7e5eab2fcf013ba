"""Independent answers for the benchmark's checks.

Nothing here imports trmod.  Everything is specific to the rings the
benchmark uses, S_p = F_p[x, y, z]/(x^2, y^2, z^2, yz) for p = 2, 3, 5,
possibly with its variables renamed.  An element is a length-6 integer
vector over the basis (1, x, y, z, xy, xz), where x is the first
variable.  Facts used, all derivable by hand:

* An element of m is an exact zero divisor iff its x-coefficient is
  nonzero.  Then (l) = span{l, xy, xz} and its partner is
  x - b*y - c*z for the normalised form x + b*y + c*z.
* By the paper's theorem, the cokernel of a minimal upper triangular
  presentation is totally reflexive iff every diagonal entry is an exact
  zero divisor; each layer R/(t) then has length 3.
* For a minimal presentation with linear entries, an equivalence
  P*M*Q = M' has scalar part with P0*M*Q0 = M'.  So isomorphism,
  decomposability and the existence of an upper triangular form are
  decided by the GL_n(F_p) x GL_n(F_p) orbit of the linear coefficients.
* The closed forms of the paper's last section for
  Ext^1(S/(x+dy+fz), S/(x+by+cz)) and Gamma, in characteristic != 2.
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np

DIM = 6  # 1, x, y, z, xy, xz
CANONICAL = ("x", "y", "z")
RENAMED = ("x", "a", "b")


class Mismatch(Exception):
    """A program answer disagrees with the oracle."""


# -- elements ------------------------------------------------------------------


def fmt(v, names=CANONICAL) -> str:
    """Expression string of an element vector, in the trmod input grammar."""
    x, y, z = names
    labels = ["1", x, y, z, f"{x}*{y}", f"{x}*{z}"]
    terms = []
    for c, lab in zip(v, labels):
        c = int(c)
        if not c:
            continue
        if lab == "1":
            terms.append(str(c))
        elif c == 1:
            terms.append(lab)
        else:
            terms.append(f"{c}*{lab}")
    return " + ".join(terms) if terms else "0"


_TERM = re.compile(r"^(?:(\d+)\*)?([A-Za-z_]\w*(?:\*[A-Za-z_]\w*)?|\d+)$")


def parse(text: str, p: int, names=CANONICAL) -> np.ndarray:
    """Element vector of an expression made of `c*m` terms joined by '+'."""
    index = {names[0]: 1, names[1]: 2, names[2]: 3}
    v = np.zeros(DIM, dtype=np.int64)
    text = text.strip()
    if text == "0":
        return v
    for term in text.split("+"):
        m = _TERM.match(term.strip())
        if not m:
            raise Mismatch(f"unreadable term {term!r} in {text!r}")
        coef, mono = int(m.group(1) or 1), m.group(2)
        if mono.isdigit():
            v[0] += coef * int(mono)
            continue
        factors = sorted(index[f] for f in mono.split("*"))
        if len(factors) == 1:
            v[factors[0]] += coef
        elif factors[0] == 1 and factors[1] in (2, 3):
            v[factors[1] + 2] += coef
        else:
            raise Mismatch(f"monomial {mono!r} is not a basis element")
    return v % p


def mult(a, b, p: int) -> np.ndarray:
    """Product in S_p: xy and xz survive, x^2 = y^2 = z^2 = yz = 0."""
    c = np.zeros(DIM, dtype=np.int64)
    c[0] = a[0] * b[0]
    c[1:4] = a[0] * b[1:4] + a[1:4] * b[0]
    c[4] = a[0] * b[4] + a[4] * b[0] + a[1] * b[2] + a[2] * b[1]
    c[5] = a[0] * b[5] + a[5] * b[0] + a[1] * b[3] + a[3] * b[1]
    return c % p


def is_ezd(v) -> bool:
    return v[0] == 0 and v[1] != 0


def normal_form(v, p: int) -> tuple[int, int]:
    """(b, c) with (v) = (x + b*y + c*z), for an exact zero divisor v."""
    inv = pow(int(v[1]), p - 2, p)
    return int(v[2]) * inv % p, int(v[3]) * inv % p


def ezd_representatives(p: int) -> set[tuple[int, ...]]:
    """One linear generator x + b*y + c*z per exact zero divisor ideal."""
    return {(0, 1, b, c, 0, 0) for b in range(p) for c in range(p)}


def partner(v, p: int) -> np.ndarray:
    b, c = normal_form(v, p)
    return np.array([0, 1, -b % p, -c % p, 0, 0], dtype=np.int64)


# -- closed forms --------------------------------------------------------------


def ext1_rank(d: int, f: int, b: int, c: int, p: int) -> int:
    """rank Ext^1(S/(x+dy+fz), S/(x+by+cz)), p != 2."""
    if p == 2:
        raise ValueError("closed form needs p != 2")
    if not (b or c or d or f):
        return 3
    if (b == d and c == f) or ((b + d) % p == 0 and (c + f) % p == 0):
        return 2
    return 1


def gamma_value(d: int, f: int, b: int, c: int, p: int) -> int:
    """Gamma(S/(x+dy+fz), S/(x+by+cz)), p != 2."""
    if p == 2:
        raise ValueError("closed form needs p != 2")
    return 2 if (b == d and c == f) else 1


def les_bound(n_diag, m_diag, p: int) -> int:
    """Long-exact-sequence bound for Ext^1 between two 2x2 UT TR modules:
    at most the sum of the four cyclic closed-form ranks."""
    return sum(ext1_rank(*normal_form(s, p), *normal_form(t, p), p)
               for s in n_diag for t in m_diag)


# -- GL_n(F_p) orbits of linear coefficients -----------------------------------


@functools.lru_cache(maxsize=None)
def general_linear(n: int, p: int) -> np.ndarray:
    """All invertible n x n matrices over F_p, n <= 3, as (g, n, n)."""
    M = np.array(list(itertools.product(range(p), repeat=n * n)),
                 dtype=np.int64).reshape(-1, n, n)
    if n == 1:
        det = M[:, 0, 0]
    elif n == 2:
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    elif n == 3:
        det = (M[:, 0, 0] * (M[:, 1, 1] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 1])
               - M[:, 0, 1] * (M[:, 1, 0] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 0])
               + M[:, 0, 2] * (M[:, 1, 0] * M[:, 2, 1] - M[:, 1, 1] * M[:, 2, 0]))
    else:
        raise ValueError("n <= 3 only")
    return M[det % p != 0]


def linear_part(mat, p: int, names=CANONICAL) -> np.ndarray:
    """(n, m, 3) linear coefficients of a matrix of expression strings."""
    return np.array([[parse(e, p, names)[1:4] for e in row] for row in mat],
                    dtype=np.int64)


def orbit(L: np.ndarray, p: int) -> np.ndarray:
    """All P0*L*Q0, P0, Q0 in GL_n(F_p), as (g, g, n, n, 3)."""
    n = L.shape[0]
    G = general_linear(n, p)
    g = G.shape[0]
    PL = np.einsum("aij,jkv->aivk", G, L) % p            # (g, n, 3, n)
    Y = G.transpose(1, 0, 2).reshape(n, g * n)           # Q0[k, l] per b
    O = (PL.reshape(g * n * 3, n) @ Y) % p               # (g*n*3, g*n)
    return O.reshape(g, n, 3, g, n).transpose(0, 3, 1, 4, 2)


def has_ut_form(L: np.ndarray, p: int) -> bool:
    O = orbit(L, p)
    n = L.shape[0]
    below = np.zeros(O.shape[:2], dtype=bool)
    for i in range(n):
        for j in range(i):
            below |= O[:, :, i, j].any(-1)
    return bool((~below).any())


def in_orbit(L: np.ndarray, target: np.ndarray, p: int) -> bool:
    O = orbit(L, p)
    return bool((O == target).all(axis=(2, 3, 4)).any())


def is_decomposable(L: np.ndarray, p: int) -> bool:
    """Some orbit element splits into blocks with nonempty row sets
    (a zero row is a free summand)."""
    O = orbit(L, p)
    n, m = L.shape[0], L.shape[1]
    nz = O.any(-1)  # (g, g, n, m)
    for k in range(1, n):
        for l in range(m + 1):
            split = ~(nz[:, :, :k, l:].any((2, 3)) | nz[:, :, k:, :l].any((2, 3)))
            if split.any():
                return True
    return False


def self_test():
    """Facts derivable by hand; raises Mismatch if the oracle is broken."""
    if len(general_linear(2, 3)) != 48:
        raise Mismatch("|GL_2(F_3)| != 48")
    if len(general_linear(3, 2)) != 168:
        raise Mismatch("|GL_3(F_2)| != 168")
    for p in (2, 3):
        if has_ut_form(linear_part([["x", "z"], ["y", "x"]], p), p):
            raise Mismatch(f"[[x, z], [y, x]] has a UT form over F_{p}")
        if not has_ut_form(linear_part([["y", "x"], ["x", "0"]], p), p):
            raise Mismatch(f"[[y, x], [x, 0]] has no UT form over F_{p}")
    for p in (2, 3, 5):
        for rep in ezd_representatives(p):
            v = np.array(rep, dtype=np.int64)
            if mult(v, partner(v, p), p).any():
                raise Mismatch("exact zero divisor times partner is nonzero")
        y, z = parse("y", p), parse("z", p)
        if mult(y, z, p).any() or not mult(parse("x", p), z, p)[5]:
            raise Mismatch("multiplication table")
    if not is_decomposable(linear_part([["x", "0"], ["0", "x + y"]], 3), 3):
        raise Mismatch("a diagonal matrix is decomposable")
    if is_decomposable(linear_part([["x", "y"], ["0", "x"]], 3), 3):
        raise Mismatch("[[x, y], [0, x]] is indecomposable")
    if ext1_rank(0, 0, 0, 0, 3) != 3 or gamma_value(1, 2, 1, 2, 5) != 2:
        raise Mismatch("closed forms")
