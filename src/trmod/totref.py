"""Total-reflexivity certification.

The certifier grows the minimal free resolution by repeated syzygy.  It
refutes early on any of:

  * a column inside m^2 (the next syzygy acquires a k-summand, which is
    fatal over a non-Gorenstein ring),
  * a non-square differential / changing Betti numbers,
  * failure of dual exactness at a completed spot (a nonvanishing
    Ext^i(M, R)).

It certifies when a later differential repeats an earlier one.  Each
new differential is first compared literally with the earlier ones (the
syzygy construction is deterministic, so over a finite field the
sequence of differentials eventually repeats exactly).  Only when the
depth bound is reached without a literal repeat is the last differential
compared with the earlier ones up to equivalence, nearest first; a match
is conjugated into a literally periodic window.  Either way the finished
certificate is replayed — products, forward exactness and dual exactness
over one full period plus the junctions — before the verdict is
returned.  If no repeat passes, the result is Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import exact_zero_divisor_partner
from .errors import BudgetExceededError, ValidationError
from .modmat import (
    PresentationMatrix,
    coker_length,
    graded_rank,
    has_m2_column,
    is_equivalent,
    prune_presentation,
    ring_matmul,
    syzygy,
)

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

DEFAULT_DEPTH = 32


@dataclass
class TRCertificate:
    verdict: str
    depth: int
    preperiod: int | None = None
    period: int | None = None
    prefix: list = dc_field(default_factory=list)  # d_1 .. d_preperiod
    window: list = dc_field(default_factory=list)  # periodic differentials
    witness: dict | None = None
    betti: list = dc_field(default_factory=list)
    log: list = dc_field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


def _dual_rank(d: PresentationMatrix) -> int:
    """rank(lin(d^T)), the rank of d's map on the dualized complex,
    computed once per matrix and recorded on d."""
    if d.rank_dual is None:
        d.rank_dual = graded_rank(d.transpose())
    return d.rank_dual


def _ranks(d: PresentationMatrix) -> tuple[int, int]:
    """(rank(lin d), rank(lin d^T)): exactness at a spot of the complex
    and of its dual are equations between these ranks of its two maps.
    Both are graded ranks, so a non-minimal d raises ValidationError.
    They come from d's record: a differential of a resolution built in
    this process was ranked as it was built, and a matrix made afresh
    (say, parsed from a certificate) is eliminated on first use."""
    return graded_rank(d), _dual_rank(d)


def _replays(chain: list[PresentationMatrix]) -> bool:
    """Replay a chain d_1, ..., d_m of differentials (a dumb-verifier
    check that reads only the matrices, whatever built them): at each
    spot between d_t and d_{t+1} the shapes match, d_t d_{t+1} = 0, and
    forward and dual exactness hold, im(lin d_{t+1}) = ker(lin d_t) and
    im(lin(d_t^T)) = ker(lin(d_{t+1}^T)) (the products of the transposes
    vanish since (d_t d_{t+1})^T = d_{t+1}^T d_t^T).

    Every product is checked before any rank is read, and the `_ranks`
    of each distinct matrix are read once, a cyclic window's first
    included.  The certifier's own differentials were ranked as the
    resolution was built, so their replay eliminates nothing again; a
    chain parsed fresh, as from a certificate file, is eliminated from
    scratch, once per matrix and kind.
    """
    A = chain[0].algebra
    pairs = list(zip(chain, chain[1:]))
    if any(a.cols != b.rows or ring_matmul(A, a.entries, b.entries).any() for a, b in pairs):
        return False
    ranks = {d: _ranks(d) for d in dict.fromkeys(chain)}
    return all(ranks[a][0] + ranks[b][0] == a.cols * A.dim
               and ranks[a][1] + ranks[b][1] == b.rows * A.dim for a, b in pairs)


def verify_periodic_window(window: list[PresentationMatrix]) -> bool:
    """Replay a periodic window: cyclic products vanish, forward and dual
    exactness hold at every spot of one full period (`_replays` on the
    window closed by its first differential)."""
    return bool(window) and _replays(window + window[:1])


def check_totally_reflexive(
    M: PresentationMatrix,
    depth: int = DEFAULT_DEPTH,
) -> TRCertificate:
    """Certify, refute, or give up on total reflexivity of coker M.

    Each of the `depth` resolution steps compares the new differential
    literally with the earlier ones, oldest first.  If none repeats, the
    last differential is compared with the earlier ones up to
    equivalence, nearest first, by `is_equivalent` at DEFAULT_BUDGET (a
    budget stop counts as no match), at most `depth` searches.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    A = M.algebra
    log: list[str] = []
    if not M.is_minimal:
        raise ValidationError("presentation matrix must be minimal (entries in m)")
    pruned, free_rank = prune_presentation(M)
    if free_rank or pruned.cols != M.cols:
        log.append(
            f"pruned presentation: dropped {M.cols - pruned.cols} "
            f"redundant relation(s), split off free rank {free_rank}; "
            "verdict refers to the same cokernel"
        )
        M = pruned
    if M.cols == 0 or M.rows == 0:
        # free module (or zero module): trivially totally reflexive
        return TRCertificate(
            verdict=CERTIFIED, depth=0, preperiod=0, period=0,
            log=log + ["free module: trivially totally reflexive"],
        )
    if has_m2_column(M):
        return TRCertificate(
            verdict=REFUTED, depth=1,
            witness={"kind": "k_summand", "step": 1, "matrix": M.to_exprs()},
            log=log + ["column in m^2 -> first syzygy has k-summand"],
        )
    if not M.is_square:
        return TRCertificate(
            verdict=REFUTED, depth=0,
            witness={"kind": "non_square", "rows": M.rows, "cols": M.cols},
            log=log + ["minimal presentation matrix is not square"],
        )

    n = M.rows
    ds = [M]
    # the step indices of each differential, oldest first, by its bytes
    seen = {M.key(): [0]}
    betti = [n]
    for step in range(1, depth + 1):
        d_cur = ds[-1]
        # step 1's d_cur is M, already checked above
        if step > 1 and has_m2_column(d_cur):
            return TRCertificate(
                verdict=REFUTED, depth=step, betti=betti,
                witness={"kind": "k_summand", "step": step,
                         "matrix": d_cur.to_exprs()},
                log=log + [f"step {step}: column in m^2 -> syzygy has k-summand"],
            )
        d_next = syzygy(d_cur)
        betti.append(d_next.cols)
        if d_next.rows != d_cur.cols or d_next.cols != n or d_next.rows != n:
            return TRCertificate(
                verdict=REFUTED, depth=step, betti=betti,
                witness={"kind": "betti", "step": step,
                         "shape": [d_next.rows, d_next.cols]},
                log=log + [f"step {step}: Betti number changed to {d_next.cols}"],
            )
        # a literal repeat goes on as the earlier differential itself,
        # whose ranks are recorded already
        earlier = seen.setdefault(d_next.key(), [])
        if earlier:
            d_next = ds[earlier[0]]
        # dual exactness: im(lin(d_cur^T)) = ker(lin(d_next^T))
        if _dual_rank(d_cur) + _dual_rank(d_next) != d_next.rows * A.dim:
            return TRCertificate(
                verdict=REFUTED, depth=step, betti=betti,
                witness={"kind": "ext_nonvanishing", "index": step},
                log=log + [f"step {step}: Ext^{step}(M, R) != 0"],
            )
        ds.append(d_next)
        log.append(f"step {step}: syzygy computed, Betti {d_next.cols}")
        for i in earlier:
            cert = _try_certify(ds, betti, log, i)
            if cert is not None:
                return cert
        earlier.append(len(ds) - 1)
    # no literal repeat: compare the last differential with the earlier
    # ones up to equivalence, nearest first
    for i in range(len(ds) - 2, -1, -1):
        try:
            w = is_equivalent(ds[i], ds[-1])
        except BudgetExceededError:
            continue
        if w is not None:
            cert = _try_certify(ds, betti, log, i, w.P)
            if cert is not None:
                return cert
    return TRCertificate(
        verdict=INCONCLUSIVE, depth=depth, betti=betti,
        log=log + [f"no repetition within depth {depth}, "
                   "literal or up to equivalence"],
    )


def _try_certify(ds, betti, log, i, P=None):
    """Splice and verify a periodic window from a repeat of the newest
    differential at ds[i]: a literal one, or P * ds[i] * Q = ds[-1]."""
    A = ds[0].algebra
    j = len(ds) - 1  # ds[j] is d_{j+1}
    L = j - i
    # window = d_{i+1} .. d_{i+L}, with the last differential
    # right-conjugated (P * d_{i+1} * Q = d_{j+1} implies
    # (d_{i+L} P) * d_{i+1} = 0 and the spliced loop stays exact).
    window = ds[i:j]
    if P is not None:
        window[-1] = PresentationMatrix(A, ring_matmul(A, window[-1].entries, P))
    # the window, then its junction with the preperiod
    if not verify_periodic_window(window) or (i > 0 and not _replays([ds[i - 1], window[0]])):
        return None
    n = ds[0].rows
    e = A.e
    length = coker_length(ds[0])
    how = "" if P is None else " up to equivalence"
    log = log + [
        f"periodic window found{how}: preperiod {i}, period {L}",
        f"Betti numbers constant = {n}",
        f"coker length {length} = n*e = {n * e}" if length == n * e
        else f"coker length {length} != n*e = {n * e}",
    ]
    return TRCertificate(
        verdict=CERTIFIED, depth=len(ds) - 1, preperiod=i, period=L,
        prefix=list(ds[:i]), window=window, betti=betti, log=log,
    )


def check_ut_tr(M: PresentationMatrix):
    """Upper-triangular fast path: totally reflexive iff every diagonal
    entry is an exact zero divisor.

    Returns (verdict, evidence) where evidence lists, per diagonal
    entry, the entry, its partner (or None) and the individual verdict.
    The theorem needs a minimal presentation, so a matrix with a column
    that `prune_presentation` drops (a ring combination of the others)
    raises ValidationError: [[x, 0], [0, 0]] presents R/(x) + R, which
    is TR over S.  With rank L1 = c that check is one rank and no kernel.
    A zero row alone splits off a free summand R and leaves a rest with
    fewer generators than minimal relations; over a non-Gorenstein ring
    with m^3 = 0 a TR module without free summands has as many of each
    (Yoshino), so the zero diagonal entry answers rightly: not TR.
    """
    if not M.is_upper_triangular:
        raise ValidationError("matrix is not upper triangular")
    if not M.is_minimal:
        raise ValidationError("matrix is not minimal")
    if prune_presentation(M)[0].cols != M.cols:
        raise ValidationError(
            "matrix is not a minimal presentation: a column is redundant")
    A = M.algebra
    evidence = []
    verdict = True
    for i in range(M.rows):
        t = M.entry(i, i)
        partner = exact_zero_divisor_partner(A, t) if t else None
        ok = partner is not None
        evidence.append(
            {
                "index": i,
                "entry": A.format_element(t.coeffs),
                "partner": A.format_element(partner.coeffs) if partner else None,
                "exact_zero_divisor": ok,
            }
        )
        verdict = verdict and ok
    return verdict, evidence


def _reversed_transpose(d: PresentationMatrix) -> PresentationMatrix:
    """J d^T J, with J the index reversal: upper triangular when d is,
    with d's diagonal reversed."""
    return PresentationMatrix(d.algebra, d.entries.transpose(1, 0, 2)[::-1, ::-1])


def complete_resolution(
    M: PresentationMatrix,
    window: int = 4,
    certificate: TRCertificate | None = None,
):
    """Doubly-infinite window of differentials around coker M.

    d_1 is M's pruned presentation, which the certificate starts from
    (its first differential, unless a period-1 window at d_1 was closed
    up to equivalence and carries the witness).  Positions 1, 2, ... are
    its minimal resolution by `syzygy`.  Positions 0, -1, ... dualize the
    minimal resolution of J d_1^T J, with J the index reversal: position
    pos is J back_{1-pos}^T J, where back_0 = J d_1^T J and back_{k+1} =
    syzygy(back_k).  Returns a dict {position: PresentationMatrix}
    covering [-window, window], empty for a free module, after one
    `_replays` of the whole chain.

    Lemma: if d is n x n upper triangular (UT) and minimal with every
    diagonal entry an exact zero divisor, so is syzygy(d).  Proof: the
    diagonal's linear parts make rank L1 = n, so `syzygy` keeps exactly
    the canonical kernel K of Lam, whose columns are ordered by their
    last nonzero coordinate.  A degree-1 syzygy supported on the first
    i coordinates is a syzygy of the leading i x i block T_i, which is
    UT with exact-zero-divisor diagonal, so totally reflexive with a
    linear syzygy on i generators.  So exactly one column of K ends in
    each row: syzygy(d) is UT, and its diagonal entry i kills d's, so it
    is a nonzero multiple of that entry's partner.  J d^T J is UT with
    d's diagonal reversed, so both resolutions stay UT.  A certified UT
    d_1 has such a diagonal (`check_ut_tr`), so it gives a UT window,
    and an AssertionError guards this.
    """
    if window < 1:
        raise ValidationError("window must be >= 1")
    cert = certificate or check_totally_reflexive(M)
    if not cert.certified:
        raise ValidationError("complete resolution requires a certified module")
    if not cert.window:  # free module
        return {}
    d1 = prune_presentation(M)[0]
    out = {1: d1}
    for pos in range(2, window + 1):
        out[pos] = syzygy(out[pos - 1])
    back = [_reversed_transpose(d1)]
    for _ in range(window + 1):
        back.append(syzygy(back[-1]))
    for pos in range(0, -window - 1, -1):
        out[pos] = _reversed_transpose(back[1 - pos])
    chain = [out[pos] for pos in sorted(out)]
    if not _replays(chain):
        raise AssertionError("complete resolution does not replay")
    if d1.is_upper_triangular and not all(d.is_upper_triangular for d in chain):
        raise AssertionError("syzygy of an upper triangular differential is not upper triangular")
    return out
