"""Command-line front-end: file I/O, reports, exit codes.

Exit codes: 0 success / certified / equivalent; 1 property refuted
(not totally reflexive, not equivalent, no upper triangular form);
2 inconclusive or budget exceeded; 3 input, parse, or validation error;
4 internal error (an uncaught exception, reported with its traceback).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
import traceback
import warnings
from importlib import metadata

from .algebra import (
    AlgebraSpec,
    build_algebra,
    enumerate_ezd,
    ring_preconditions,
)
from .classify import classify_ut2, enumerate_cyclic_tr, swap_isomorphism_check
from .errors import BudgetExceededError, ParseError, TrmodError, ValidationError
from .ext import ext1, gamma, pushout_middle
from .filtration import filtrate_ut, find_ut_form, mb_matrix, mb_preconditions
from .modmat import (
    DEFAULT_BUDGET,
    PresentationMatrix,
    coker_length,
    is_equivalent,
    minimize,
)
from .totref import DEFAULT_DEPTH, check_totally_reflexive, complete_resolution

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4

_BUILTIN_RING = re.compile(r"^S:(\d+)$")


def load_ring(arg: str):
    """Ring from a JSON file, or the builtin family via 'S:<p>'."""
    m = _BUILTIN_RING.match(arg)
    if m:
        return build_algebra(AlgebraSpec.canonical_s(int(m.group(1))))
    with open(arg) as fh:
        data = json.load(fh)
    try:
        spec = AlgebraSpec(
            characteristic=int(data["characteristic"]),
            variables=list(data["variables"]),
            relations=list(data["relations"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed ring file {arg}: {exc}")
    return build_algebra(spec)


def load_matrix(arg: str, A) -> PresentationMatrix:
    with open(arg) as fh:
        data = json.load(fh)
    try:
        entries = data["entries"]
        rows, cols = int(data["rows"]), int(data["cols"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed matrix file {arg}: {exc}")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValidationError(f"matrix file {arg}: shape does not match entries")
    return PresentationMatrix.from_exprs(A, entries)


def dump_matrix(M: PresentationMatrix) -> dict:
    return {"rows": M.rows, "cols": M.cols, "entries": M.to_exprs()}


def certificate_to_dict(cert) -> dict:
    return {
        "verdict": cert.verdict,
        "depth": cert.depth,
        "preperiod": cert.preperiod,
        "period": cert.period,
        "betti": list(cert.betti),
        "prefix": [dump_matrix(m) for m in cert.prefix],
        "window": [dump_matrix(m) for m in cert.window],
        "witness": cert.witness,
        "log": list(cert.log),
    }


def _warn_gorenstein(A, allow: bool):
    if ring_preconditions(A)["gorenstein"] and not allow:
        print(
            "warning: ring is Gorenstein; only free modules are totally "
            "reflexive (pass --allow-gorenstein to silence)",
            file=sys.stderr,
        )


# -- subcommand handlers: return (payload dict, exit code) ---------------------


def _cmd_ring(args, A):
    report = ring_preconditions(A)
    return report, EXIT_OK


def _cmd_ezd(args, A):
    pairs = enumerate_ezd(A)
    payload = {
        "count": len(pairs),
        "pairs": [
            {"element": repr(p.a), "partner": repr(p.b)} for p in pairs
        ],
    }
    return payload, EXIT_OK


def _cmd_tr(args, A):
    M = load_matrix(args.matrix, A)
    cert = check_totally_reflexive(M, depth=args.depth)
    payload = certificate_to_dict(cert)
    if cert.certified and cert.period:
        res = complete_resolution(M, window=args.window, certificate=cert)
        payload["complete_resolution"] = {
            str(pos): dump_matrix(res[pos]) for pos in sorted(res)
        }
    code = {"certified": EXIT_OK, "refuted": EXIT_REFUTED}.get(
        cert.verdict, EXIT_INCONCLUSIVE)
    return payload, code


def _cmd_ext(args, A):
    N = load_matrix(args.N, A)
    M = load_matrix(args.M, A)
    space = ext1(N, M)
    payload = {
        "rank": space.rank,
        "representatives": [
            dump_matrix(space.lift(w)) for w in space.representatives
        ],
    }
    try:
        payload["gamma"] = gamma(N, M)
    except ValidationError:
        payload["gamma"] = None
    return payload, EXIT_OK


def _cmd_pushout(args, A):
    u = A.from_expr(args.u)
    v = A.from_expr(args.v)
    alpha = A.from_expr(args.alpha)
    M = pushout_middle(u, v, alpha)
    if not M.is_minimal:  # a unit alpha: report the minimal presentation
        M = minimize(M)
    payload = {
        "matrix": dump_matrix(M),
        "length": coker_length(M),
    }
    return payload, EXIT_OK


def _cmd_filtrate(args, A):
    M = load_matrix(args.matrix, A)
    found = find_ut_form(M, budget=args.budget)
    if found is None:
        return {"ut_form": None,
                "message": "no UT form exists (exhaustive)"}, EXIT_REFUTED
    witness, ut = found
    # P * M * Q = ut_form
    reported = {"ut_form": dump_matrix(ut),
                "witness": {"P": dump_matrix(PresentationMatrix(A, witness.P)),
                            "Q": dump_matrix(PresentationMatrix(A, witness.Q))}}
    try:
        filt = filtrate_ut(ut)
    except ValidationError as exc:
        return {**reported, "filtration": None, "message": str(exc)}, EXIT_REFUTED
    payload = {
        **reported,
        "filtration": {
            "blocks": [dump_matrix(b) for b in filt.blocks],
            "quotients": [repr(q) for q in filt.quotients],
            "lengths": list(filt.lengths),
            "log": list(filt.log),
        },
    }
    return payload, EXIT_OK


def _cmd_classify(args, A):
    if args.size != 2:
        raise ValidationError("only --size 2 classification is implemented")
    # main has warned of a Gorenstein ring already, unless told not to
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="ring is Gorenstein")
        if args.cyclic:
            mats = enumerate_cyclic_tr(A)
            return {"cyclic": [dump_matrix(m) for m in mats]}, EXIT_OK
        table = classify_ut2(A, budget=args.budget)
        swap = swap_isomorphism_check(A)
    payload = {
        "characteristic": table.characteristic,
        "class_count": len(table.classes),
        "total_enumerated": table.total_enumerated,
        "total_indecomposable": table.total_indecomposable,
        "classes": [
            {
                "representative": dump_matrix(c.representative),
                "u": repr(c.rep_data[0]),
                "t": repr(c.rep_data[1]),
                "a": repr(c.rep_data[2]),
                "size": c.size,
                "members": [
                    [repr(u), repr(t), repr(a)] for u, t, a in c.members
                ],
            }
            for c in table.classes
        ],
        "grid": table.grid(),
        "swap_check": {
            "total": swap["total"],
            "deviations": swap["deviations"],
            "all_match_expected": swap["all_match_expected"],
        },
    }
    return payload, EXIT_OK


def _cmd_mb(args, A):
    s = A.from_expr(args.s)
    t = A.from_expr(args.t)
    u = A.from_expr(args.u)
    v = A.from_expr(args.v)
    pre = mb_preconditions(s, t, u, v)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        M = mb_matrix(args.b, s, t, u, v)
    payload = {"matrix": dump_matrix(M), "preconditions": pre}
    return payload, EXIT_OK


def _cmd_equiv(args, A):
    M1 = load_matrix(args.m1, A)
    M2 = load_matrix(args.m2, A)
    witness = is_equivalent(M1, M2, budget=args.budget)
    if witness is None:
        return {"equivalent": False}, EXIT_REFUTED
    return {
        "equivalent": True,
        "P": dump_matrix(PresentationMatrix(A, witness.P)),
        "Q": dump_matrix(PresentationMatrix(A, witness.Q)),
    }, EXIT_OK


def _human(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _human(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _human(v, indent + 1)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{payload}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trmod",
        description="Exact computation with totally reflexive modules "
        "over Artinian local algebras with m^3 = 0.",
    )
    ap.add_argument("--json", action="store_true", help="emit a JSON report")
    ap.add_argument("--allow-gorenstein", action="store_true")
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="search budget: Hom-kernel elements (equiv), pairwise "
                    "comparisons (classify) or flag pairs (filtrate)")
    sub = ap.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring-level reports")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    ring_check = ring_sub.add_parser("check")
    ring_check.add_argument("ring")
    ring_check.set_defaults(func=_cmd_ring)

    ezd = sub.add_parser("ezd", help="enumerate exact zero divisors")
    ezd.add_argument("ring")
    ezd.set_defaults(func=_cmd_ezd)

    tr = sub.add_parser("tr", help="total reflexivity certificate")
    tr.add_argument("ring")
    tr.add_argument("matrix")
    tr.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    tr.add_argument("--window", type=int, default=3,
                    help="complete resolution half-window on success")
    tr.set_defaults(func=_cmd_tr)

    ext = sub.add_parser("ext", help="Ext^1 rank and basis")
    ext.add_argument("ring")
    ext.add_argument("N")
    ext.add_argument("M")
    ext.set_defaults(func=_cmd_ext)

    push = sub.add_parser("pushout", help="extension middle term")
    push.add_argument("ring")
    push.add_argument("--u", required=True)
    push.add_argument("--v", required=True)
    push.add_argument("--alpha", required=True)
    push.set_defaults(func=_cmd_pushout)

    filt = sub.add_parser("filtrate", help="UT form search + filtration")
    filt.add_argument("ring")
    filt.add_argument("matrix")
    filt.set_defaults(func=_cmd_filtrate)

    cls = sub.add_parser("classify", help="classify small UT presentations")
    cls.add_argument("ring")
    cls.add_argument("--size", type=int, default=2)
    cls.add_argument("--cyclic", action="store_true",
                     help="only list cyclic totally reflexive modules")
    cls.set_defaults(func=_cmd_classify)

    mb = sub.add_parser("mb", help="alternating bidiagonal family")
    mb.add_argument("ring")
    mb.add_argument("--b", type=int, required=True)
    mb.add_argument("--s", required=True)
    mb.add_argument("--t", required=True)
    mb.add_argument("--u", required=True)
    mb.add_argument("--v", required=True)
    mb.set_defaults(func=_cmd_mb)

    eq = sub.add_parser("equiv", help="presentation matrix equivalence")
    eq.add_argument("ring")
    eq.add_argument("m1")
    eq.add_argument("m2")
    eq.set_defaults(func=_cmd_equiv)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.monotonic()
    try:
        A = load_ring(args.ring)
        _warn_gorenstein(A, args.allow_gorenstein)
        payload, code = args.func(args, A)
    except BudgetExceededError as exc:
        payload, code = {"error": str(exc), "required": exc.required,
                         "budget": exc.budget}, EXIT_INCONCLUSIVE
    except (ParseError, ValidationError, OSError,
            json.JSONDecodeError) as exc:
        payload, code = {"error": str(exc)}, EXIT_INVALID
    except TrmodError as exc:
        payload, code = {"error": str(exc)}, EXIT_INVALID
    except Exception as exc:  # a defect, not a verdict: keep it off exit 1
        traceback.print_exc()
        payload = {"error": f"internal error: {type(exc).__name__}: {exc}"}
        code = EXIT_INTERNAL
    try:
        version = metadata.version("trmod")
    except metadata.PackageNotFoundError:
        version = "unknown"
    report = {
        "command": args.command,
        "inputs": {
            k: v for k, v in vars(args).items()
            if k not in ("func", "json") and not callable(v)
        },
        "result": payload,
        "timing_seconds": round(time.monotonic() - t0, 6),
        "version": version,
    }
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        if "error" in payload:
            print(f"error: {payload['error']}", file=sys.stderr)
        elif args.command == "classify" and "grid" in payload:
            small = dict(payload)
            grid = small.pop("grid")
            small.pop("classes", None)
            _human(small)
            print(grid)
        else:
            _human(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
