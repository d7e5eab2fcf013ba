"""Polynomial expression grammar shared by ring files and matrix files.

An expression is a sum of terms joined by ``+`` or ``-``, the first of
which may carry a sign of its own.  A term is a product of factors
joined by ``*``; a factor is an integer literal, a variable, or a
variable raised to an integer literal with ``^``.  Whitespace may stand
between any two symbols but not inside a literal or a name, so ``2 3``
and ``x y`` are errors, as are an empty term (``x +``, ``x + - y``) and
an empty factor (``x*``, ``x**y``).  E.g. ``x^2``, ``2*x*y - z``,
``x + y + z``.

`terms` is the one scanner: it splits on the operators with
`str.split`/`str.partition` and yields each term's coefficient and
(variable index, power) factors.  Interpretation into a specific
algebra happens elsewhere.
"""

from __future__ import annotations

from .errors import ParseError


def terms(text: str, var_index: dict[str, int]):
    """Yield (coefficient, [(variable index, power), ...]) per term of text.

    Coefficients are signed Python ints, so no literal can overflow.
    Raises ParseError on any text outside the grammar.
    """
    pieces = text.replace("-", "+-").split("+")
    # a blank first piece stands before a leading sign, or is the whole text
    if not pieces[0] or pieces[0].isspace():
        if len(pieces) == 1:
            raise ParseError("empty expression")
        del pieces[0]
    get = var_index.get
    try:
        for piece in pieces:
            coeff = 1
            if piece[:1] == "-":
                coeff = -1
                piece = piece[1:]
            piece = piece.strip()
            if not piece:
                raise ParseError(f"empty term in {text!r}")
            factors = []
            for f in piece.split("*"):
                v = get(f)
                if v is None:
                    f = f.strip()
                    v = get(f)
                if v is not None:
                    factors.append((v, 1))
                elif f.isdecimal():
                    coeff *= int(f)
                elif not f:
                    raise ParseError(f"empty factor in {text!r}")
                else:
                    name, hat, power = f.partition("^")
                    v = get(name.rstrip())
                    power = power.lstrip()
                    if v is None:
                        raise ParseError(f"unknown symbol {f!r} in {text!r}")
                    if not hat or not power.isdecimal():
                        raise ParseError(f"expected integer power in {text!r}")
                    factors.append((v, int(power)))
            yield coeff, factors
    except ValueError:  # an integer literal longer than int() accepts
        raise ParseError(f"integer literal too long in {text!r}") from None


def parse_poly(text: str, variables: list[str]) -> dict[tuple[int, ...], int]:
    """Parse an expression into {exponent vector: coefficient}.

    Coefficients are raw integers (may be negative); reduction mod p is
    the caller's job.  The zero polynomial is the empty dict.
    """
    var_index = {v: i for i, v in enumerate(variables)}
    result: dict[tuple[int, ...], int] = {}
    for coeff, factors in terms(text, var_index):
        expo = [0] * len(variables)
        for v, k in factors:
            expo[v] += k
        key = tuple(expo)
        result[key] = result.get(key, 0) + coeff
    return {k: v for k, v in result.items() if v != 0}


def format_poly(terms: list[tuple[int, str]]) -> str:
    """Join (coefficient, monomial label) pairs into an expression string.

    Coefficients are assumed already reduced to [0, p); zero-coefficient
    terms should be filtered by the caller.  Returns "0" for no terms.
    """
    parts = []
    for coeff, label in terms:
        if label == "1":
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(label)
        else:
            parts.append(f"{coeff}*{label}")
    return " + ".join(parts) if parts else "0"
