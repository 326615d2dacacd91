"""Benchmark for bowl: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ablation --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced then traced
    python3 perfbench/run.py --smoke             # every workload at a tiny size

One invocation measures one workload in this process. With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run (see tracing.py). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A result file with
the environment lands in ``perfbench/_work/results/``. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small and the runs share a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from tracing import RoundClock, Tracer, layer_metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SETUP_REPEATS = 7
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("round_p50_ms", "ms"),
              ("round_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("final_accuracy", "fraction"),
              ("odp", "samples"), ("auroc_eta1", "fraction"))


def import_bowl():
    """Import bowl from this checkout's ``src``, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bowl", "__init__.py")):
        sys.exit(f"perfbench: no bowl sources under {src}")
    sys.path.insert(0, src)
    import bowl
    if not os.path.abspath(bowl.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported bowl from {bowl.__file__}, not {src}")
    return bowl


def git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def blas_threads(np) -> dict:
    """Threads the bundled OpenBLAS reports, else the environment's setting."""
    import ctypes
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"threads": fn(), "source": symbol}
    return {"threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "source": "environment"}


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"seed": seed, "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(np), "nproc": os.cpu_count()}


def measure(op, seconds: float, before=None, after=None, at_least: int = 1) -> list:
    """Whole operations until the next one would end past ``seconds``, and at
    least ``at_least`` of them.

    ``before`` and ``after``, if given, run untimed around every operation, and
    their time counts against ``seconds``. ``after`` gets the operation's result
    and returns what to keep of it. Returns [(duration, kept result)] in order.
    """
    done = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        if before is not None:
            before()
        t0 = time.perf_counter()
        result = op()
        dt = time.perf_counter() - t0
        done.append((dt, result if after is None else after(result)))
        now = time.perf_counter()
        if len(done) >= at_least and now - begin + (now - start) > seconds:
            return done


def percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def slower_half(times: list[float]) -> list[int]:
    """Indices of the slower half of ``times``; of one or two, the slowest.

    The operations (or set-ups) of one run do identical work, which the run
    checks, so their times differ only by the machine's speed while each ran.
    A shared machine switches between a slower and a faster state, in spells
    of seconds to several minutes. A median over the whole run moves with the
    share of fast spells the run caught; the slower half stays in the slower
    state unless the whole run fell in a fast spell.
    """
    order = sorted(range(len(times)), key=times.__getitem__)
    return sorted(order[len(times) // 2:])


def run_untraced(wl, seed, seconds, work, repeats, failures) -> tuple[dict, int, int, dict]:
    clock = RoundClock()
    clock.install()
    current, setup_digests, op_digests = {}, set(), set()
    setups, op_marks = [], []  # (seconds, first stamp, end stamp); (first, end)

    def set_up():
        first, t0 = len(clock.stamps), time.perf_counter()
        current["state"] = wl.setup(work, seed)
        setups.append((time.perf_counter() - t0, first, len(clock.stamps)))
        setup_digests.add(wl.setup_digest(current["state"]))

    def op():
        first = len(clock.stamps)
        result = wl.op(current["state"])
        op_marks.append((first, len(clock.stamps)))
        return result

    def keep(result):
        # Digest each operation's outputs before the next one overwrites them,
        # and hold on to the first result only, so that memory does not grow
        # with the number of operations.
        op_digests.add(wl.outputs_digest(current["state"], result))
        current.setdefault("first", result)
        return {"attempted": result["attempted"], "failed": result["failed"]}

    if wl.rounds_from == "setup":
        # Set-up runs the loop whose rounds are timed. Setting up again ahead
        # of every operation spreads those rounds over the whole run instead
        # of its first seconds, where one slow spell would move them all.
        done = measure(op, seconds, before=set_up, after=keep, at_least=repeats)
    else:
        for _ in range(repeats):
            set_up()
        done = measure(op, seconds, after=keep, at_least=2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.uninstall()
    state = current["state"]
    setup_times = [dt for dt, _, _ in setups]
    op_times = [dt for dt, _ in done]
    if wl.rounds_from == "setup":
        round_marks = [(setups[i][1], setups[i][2]) for i in slower_half(setup_times)]
    else:
        round_marks = [op_marks[i] for i in slower_half(op_times)]
    rounds = [ms for first, end in round_marks for ms in clock.spacings_ms(first, end)]
    if not rounds:
        failures.append("no acquisition round was timed")
        rounds = [0.0]

    first = current["first"]
    attempted = sum(r["attempted"] for _, r in done)
    failed = sum(r["failed"] for _, r in done)
    try:
        workloads.require(len(setup_digests) == 1, "set-up outputs differ between repeats")
        workloads.require(len(op_digests) == 1, "program outputs differ between operations")
        wl.check(state, first)
    except workloads.CheckFailed as exc:
        failures.append(str(exc))
    quality = wl.quality(state, first)
    metrics = {
        "setup_s": statistics.median(setup_times[i] for i in slower_half(setup_times)),
        "run_s": statistics.median(op_times[i] for i in slower_half(op_times)),
        "round_p50_ms": percentile(rounds, 50),
        "round_p90_ms": percentile(rounds, 90),
        "peak_rss_mb": peak_rss_mb,
        **quality,
    }
    detail = {"setup_times_s": setup_times, "op_times_s": op_times,
              "rounds": len(rounds), "outputs_digest": sorted(op_digests)}
    if len(rounds) < 100:
        detail["note"] = f"round_p90_ms rests on {len(rounds)} rounds (< 100)"
    units = dict(END_TO_END)
    return ({k: (metrics[k], units[k]) for k, _ in END_TO_END}, attempted, failed, detail)


def run_traced(wl, seed, seconds, work, failures) -> tuple[dict, int, int, dict]:
    state = wl.setup(work, seed)
    t0 = time.perf_counter()
    plain = wl.op(state)
    untraced_s = time.perf_counter() - t0
    plain_digest = wl.outputs_digest(state, plain)

    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        with setup_tracer.span("bench.setup"):
            state = wl.setup(work, seed)
    finally:
        setup_tracer.uninstall()

    op_tracer = Tracer()
    capture = wl.capture()
    op_tracer.install()
    if capture:
        capture.install()  # outermost, so its copies fall outside the layer spans

    def traced_op():
        with op_tracer.span("bench.op"):
            return wl.op(state)

    try:
        done = measure(traced_op, seconds)
    finally:
        if capture:
            capture.uninstall()
        op_tracer.uninstall()
    setup_tracer.save(os.path.join(work, "trace-setup.npz"))
    op_tracer.save(os.path.join(work, "trace-ops.npz"))

    metrics, absent = layer_metrics(setup_tracer, op_tracer, len(done))
    traced_s = statistics.median(dt for dt, _ in done)
    metrics["trace.untraced_op_s"] = (untraced_s, "s")
    metrics["trace.traced_op_s"] = (traced_s, "s")
    attempted = plain["attempted"] + sum(r["attempted"] for _, r in done)
    failed = plain["failed"] + sum(r["failed"] for _, r in done)
    try:
        traced_digests = {wl.outputs_digest(state, r) for _, r in done}
        workloads.require(traced_digests == {plain_digest},
                          "traced program outputs differ from the untraced run's")
        wl.check(state, plain)
        if capture:
            wl.check_capture(capture, [r for _, r in done])
    except workloads.CheckFailed as exc:
        failures.append(str(exc))
    detail = {"absent": absent, "spans": len(op_tracer.start), "traced_ops": len(done),
              "overhead_s": traced_s - untraced_s, "outputs_digest": plain_digest}
    return metrics, attempted, failed, detail


def run_one(args) -> int:
    import_bowl()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = fresh_dir(os.path.join(WORK, tag))
    wl = workloads.build(args.workload, args.smoke)
    if not args.smoke:
        # The first process after an idle spell runs slowly; a tiny pass of the
        # same code absorbs that before anything is timed.
        warm = workloads.build(args.workload, smoke=True)
        warm.op(warm.setup(fresh_dir(os.path.join(work, "warmup")), args.seed))
    failures: list[str] = []
    if args.trace:
        metrics, attempted, failed, detail = run_traced(wl, args.seed, args.seconds, work,
                                                        failures)
    else:
        repeats = 2 if args.smoke else SETUP_REPEATS
        metrics, attempted, failed, detail = run_untraced(wl, args.seed, args.seconds, work,
                                                          repeats, failures)
    correct = not failures
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {key:28s} {value:14.6g} {unit}")
    print(f"{args.workload:12s} attempted={attempted} failed={failed} correct={correct}")
    if detail.get("absent"):
        print(f"{args.workload:12s} absent: {' '.join(detail['absent'])}")
    if detail.get("note"):
        print(f"{args.workload:12s} note: {detail['note']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                   "smoke": args.smoke, "environment": environment(args.seed),
                   "failures": failures, "detail": detail, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced, one at a time."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                continue
            rows.append((name, trace, json.loads(lines[-1])))
    print("\nworkload     trace attempted failed correct")
    for name, trace, res in rows:
        print(f"{name:12s} {trace:5d} {res['attempted']:9d} {res['failed']:6d} {res['correct']}")
    for name, trace, res in rows:
        m = res["metrics"]
        if trace and "trace.traced_op_s" in m:
            plain, traced = m["trace.untraced_op_s"]["value"], m["trace.traced_op_s"]["value"]
            print(f"{name:12s} tracing overhead {traced - plain:+.3f} s "
                  f"({100 * (traced - plain) / plain:+.1f} % of {plain:.3f} s)")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="ablation, large-pool, ood-scoring or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, fewest operations; with no --workload runs all")
    args = parser.parse_args()
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required without --smoke")
        args.workload = "all"
    if args.smoke:
        args.seconds = 0.0
    if args.workload == "all":
        import_bowl()
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
