"""trmod benchmark: one workload per run, closed loop, one process, one thread.

    python3 perfbench/run.py --workload tr_certify --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; trmod is imported from its `src/`.
With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a fixed traced sample.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  An
oracle disagreement or an unexpected exception ends the run with a
nonzero exit and no result.  --workload all runs every workload, each in
its own process.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import oracle
import workloads
from hostspeed import REF_S, HostClock
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
SETUP_SAMPLES = 10  # reference samples on each side of a set-up
TRACE_SEED = 0  # the traced sample is fixed, so call counts compare exactly
WARM_SEED = 1_000_003  # so is the warm-up round, so set-up work is too


def fresh_trmod():
    """Import trmod from the checkout, discarding any earlier import and
    with it every module-level cache."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "trmod" or n.startswith("trmod.")]:
        del sys.modules[name]
    import trmod
    if not os.path.abspath(trmod.__file__).startswith(SRC + os.sep):
        raise ImportError(f"trmod imported from {trmod.__file__}, not from {SRC}")
    return trmod


def setup(wl, rounds, tracer=None, clock=None):
    """Import, ring builds, enumerate_ezd, parsing and the warm-up round
    (round 0, the same in every run and never timed).  Returns (seconds, state); with a HostClock,
    reference samples are taken between the steps and the seconds, less
    the samples' own time, are at reference host speed."""
    tick = clock.maybe_sample if clock is not None else lambda: None
    if clock is not None:
        clock.sample(SETUP_SAMPLES)
        spent = clock.spent
    t0 = time.perf_counter()
    api = fresh_trmod()
    if tracer is not None:
        tracer.install()
    tick()
    algs, ezd = {}, {}
    for key in wl.rings:
        algs[key] = workloads.build_ring(api, key)
        ezd[key] = api.enumerate_ezd(algs[key])
        tick()
    parsed = []
    for rnd in rounds:
        parsed.append([workloads.parse_op(api, algs, op) for op in rnd])
        tick()
    warm = run_rounds(wl, api, rounds[:1], parsed[:1], clock=clock)
    t1 = time.perf_counter()
    if clock is None:
        return t1 - t0, (api, ezd, parsed, warm)
    own = t1 - t0 - (clock.spent - spent)
    clock.sample(SETUP_SAMPLES)
    return own / clock.factor(t0, t1), (api, ezd, parsed, warm)


def run_rounds(wl, api, rounds, parsed, seconds=None, clock=None):
    """Closed loop over whole rounds; with `seconds`, stops at the first
    round boundary after that long.  Failures are counted only for
    operations marked may_fail and only as ValueError.  With a HostClock,
    reference samples are taken between operations."""
    st = {"attempted": 0, "failed": 0, "errors": collections.Counter(),
          "ops": [], "results": [], "exhausted": True}
    now = time.perf_counter
    start = now()
    for rnd, args in zip(rounds, parsed):
        for op, a in zip(rnd, args):
            st["attempted"] += 1
            t0 = now()
            try:
                res = wl.run(api, op, a)
            except ValueError as exc:
                if not op.may_fail:
                    raise
                st["ops"].append((t0, now(), False))
                st["failed"] += 1
                st["errors"][type(exc).__name__] += 1
            else:
                st["ops"].append((t0, now(), True))
                st["results"].append((op, res))
            if clock is not None:
                clock.maybe_sample()
        if seconds is not None and now() - start >= seconds:
            st["exhausted"] = False
            break
    st["elapsed"] = now() - start
    return st


def op_seconds(st, clock):
    """Per-operation durations at reference host speed, and which succeeded."""
    return [(clock.scaled(t0, t1), ok) for t0, t1, ok in st["ops"]]


def check_ezd(ezd):
    """enumerate_ezd gives one x + b*y + c*z per ideal, with its partner."""
    for key, pairs in ezd.items():
        p, names = workloads.RINGS[key]
        got = {(tuple(oracle.parse(repr(P.a), p, names)),
                tuple(oracle.parse(repr(P.b), p, names))) for P in pairs}
        want = {(r, tuple(oracle.partner(np.array(r), p)))
                for r in oracle.ezd_representatives(p)}
        if got != want or len(pairs) != len(want):
            raise oracle.Mismatch(f"enumerate_ezd over {key}: {sorted(got)}")


def check_all(wl, *states):
    for st in states:
        for op, res in st["results"]:
            wl.check(op, res)


def percentile_ms(values, q):
    return float(np.percentile(np.array(values), q)) * 1e3


def _report(st, metrics):
    return {"correct": True, "attempted": st["attempted"], "failed": st["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "errors": dict(st["errors"])}


def make_rounds(wl, seed, count):
    """The fixed warm-up round, then `count` rounds from `seed`, all distinct."""
    idx = list(workloads.WORKLOADS).index(wl.name)
    unique = workloads.Unique()
    warm = wl.generate(np.random.default_rng([WARM_SEED, idx]), 1, 0, unique)
    return warm + wl.generate(np.random.default_rng([seed, idx]), count, 1, unique)


def timed_run(wl, seed, seconds):
    """End-to-end metrics of an untraced run, at reference host speed."""
    rounds = make_rounds(wl, seed, wl.pool_rounds)
    clock = HostClock()
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous import before the next is built
        secs, state = setup(wl, rounds, clock=clock)
        setups.append(secs)
    api, ezd, parsed, warm = state
    st = run_rounds(wl, api, rounds[1:], parsed[1:], seconds, clock)
    clock.sample()
    check_ezd(ezd)
    check_all(wl, warm, st)
    if st["exhausted"]:
        print(f"warning: {wl.name} ran out of inputs after {st['elapsed']:.1f} s",
              file=sys.stderr)
    timed = op_seconds(st, clock)
    lat = [d for d, ok in timed if ok]
    raw = [t1 - t0 for t0, t1, ok in st["ops"] if ok]
    print(f"{wl.name}: {len(lat)} operations in {st['elapsed']:.2f} s wall; "
          f"unscaled throughput {len(raw) / sum(t1 - t0 for t0, t1, _ in st['ops']):.6g}/s, "
          f"p50 {percentile_ms(raw, 50):.6g} ms, p95 {percentile_ms(raw, 95):.6g} ms; "
          f"host factor {statistics.median(clock.dur) / REF_S:.4g}")
    return _report(st, {
        "throughput_ops_s": (len(lat) / sum(d for d, _ in timed), "1/s"),
        "latency_p50_ms": (percentile_ms(lat, 50), "ms"),
        "latency_p95_ms": (percentile_ms(lat, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    })


def traced_run(wl):
    """Per-layer metrics of a fixed sample, run once traced and once not,
    each after its own fresh set-up."""
    rounds = make_rounds(wl, TRACE_SEED, wl.trace_rounds)
    tracer, clock = Tracer(), HostClock()
    _, (api, ezd, parsed, warm) = setup(wl, rounds, tracer)
    clock.sample()
    traced = run_rounds(wl, api, rounds[1:], parsed[1:], clock=clock)
    tracer.uninstall()
    check_ezd(ezd)
    check_all(wl, warm, traced)
    api = parsed = None
    _, (api, _, parsed, warm) = setup(wl, rounds)
    plain = run_rounds(wl, api, rounds[1:], parsed[1:], clock=clock)
    clock.sample()
    check_all(wl, warm, plain)
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"spans-{wl.name}.npz"))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (
        sum(d for d, _ in op_seconds(traced, clock))
        / sum(d for d, _ in op_seconds(plain, clock)), "ratio")
    return _report(traced, metrics)


def run_all(args):
    """Every workload, each in a child process; one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    if status:
        return status
    print(json.dumps(total))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "trmod", "__init__.py")):
        print(f"no trmod sources under {SRC}", file=sys.stderr)
        return 2
    oracle.self_test()
    wl = workloads.WORKLOADS[args.workload]
    try:
        report = traced_run(wl) if args.trace else timed_run(wl, args.seed, args.seconds)
    except oracle.Mismatch as exc:
        print(f"{wl.name}: answer disagrees with the oracle: {exc}", file=sys.stderr)
        return 3
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    for name, m in report["metrics"].items():
        print(f"{wl.name:10s} {name:44s} {m['value']:14.6g} {m['unit']}")
    errors = ", ".join(f"{k} x{v}" for k, v in report.pop("errors").items()) or "none"
    print(f"{wl.name}: attempted {report['attempted']}, failed {report['failed']} "
          f"({errors})")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
