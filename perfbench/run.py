"""Benchmark entry point: one workload per process, or all four in turn.

    python3 perfbench/run.py --workload paraphrase --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from a checkout of the repository; the library is imported from its
``src/`` directory and nowhere else. With ``--trace 0`` the last line of
stdout is the end-to-end result: {"correct", "attempted", "failed",
"metrics"} with setup_s, items_per_s and peak_rss_mb. With ``--trace 1`` the
same line carries every per-layer metric of ``trace.PER_LAYER`` instead, and
the spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("paraphrase", "train", "evaluate", "corpus")
# rounds in a traced run: fixed, so counts repeat exactly on one seed
TRACE_ROUNDS = {"paraphrase": 3, "train": 16, "evaluate": 12, "corpus": 24}
MAX_ERRORS_SHOWN = 5


def _import_library() -> float:
    """Import smclm from this checkout's src/ and return the seconds the import
    took; exit 1 without a result when the library is not there."""
    src = ROOT / "src"
    if not (src / "smclm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {src}/smclm; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    start = time.perf_counter()
    import smclm

    seconds = time.perf_counter() - start
    if Path(smclm.__file__).resolve().parent != (src / "smclm").resolve():
        sys.exit(f"perfbench: smclm imported from {smclm.__file__}, not from {src}")
    return seconds


def environment(smclm_threads: str | None) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "SMCLM_THREADS": smclm_threads,
        "src_lines": src_lines,
    }


class Tally:
    """Items attempted and failed; the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, items: int, where: str, messages: list[str]) -> None:
        self.failed += items
        for m in messages:
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"{where}: {m}")


def run_round(w, inp, label: str, tally: Tally, tracer=None):
    """Time one call of the workload; check its outputs untimed and untraced.

    Returns (seconds, outputs), with outputs None when the round failed.
    """
    items = w.items(inp)
    tally.attempted += items
    gc.collect()  # start every round from the same heap, so collections land alike
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        out = w.run_round(inp)
    except Exception:  # noqa: BLE001 - a failing round is counted, the run goes on
        tally.fail(items, label, [traceback.format_exc().strip().splitlines()[-1]])
        return time.perf_counter() - start, None
    finally:
        if tracer is not None:
            tracer.active = False
    seconds = time.perf_counter() - start
    errors = w.check(inp, out)
    if errors:
        tally.fail(items, label, errors)
        return seconds, None
    return seconds, out


def _digest(parts: list) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def measure(w, seconds: float, import_s: float) -> tuple[dict, Tally, dict]:
    """Untraced run: set-up, one warm-up item, then rounds until ``seconds``
    have passed.

    setup_s is the library import, the median of SETUP_REPEATS set-ups and
    the warm-up item. items_per_s is the items of all passing rounds over
    the seconds their calls took.
    """
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - start)
    tally = Tally()
    warm_in = w.make_warmup()
    warm_s, warm_out = run_round(w, warm_in, "warm-up", tally)
    digest_parts = [w.canonical(warm_in, warm_out) if warm_out is not None else None]
    done, busy, rates = 0, 0.0, []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        inp = w.make_round(index)
        dt, out = run_round(w, inp, f"round {index}", tally)
        if out is not None:
            done += w.items(inp)
            busy += dt
            rates.append(w.items(inp) / dt)
            if index == 0:
                digest_parts.append(w.canonical(inp, out))
        index += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": {"value": import_s + statistics.median(setup_times) + warm_s, "unit": "s"},
        "items_per_s": {"value": done / busy if busy else 0.0, "unit": "items/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    detail = {
        "rounds": index,
        "round_rates": rates,
        "import_s": import_s,
        "setup_times_s": setup_times,
        "warmup_s": warm_s,
        "output_digest": _digest(digest_parts),
    }
    return metrics, tally, detail


def measure_traced(w, name: str) -> tuple[dict, Tally, dict]:
    """Traced run over a fixed number of rounds, then the same rounds untraced
    for the overhead ratio. Set-up and warm-up are traced too (checkpoint
    save and load happen there)."""
    from perfbench import trace

    tracer = trace.Tracer()
    tally = Tally()
    rounds = TRACE_ROUNDS[name]
    traced_s = 0.0
    trace.instrument(tracer)
    try:
        tracer.start()
        w.setup()
        tracer.active = False
        run_round(w, w.make_warmup(), "warm-up", tally, tracer)
        for index in range(rounds):
            tracer.item = index
            inp = w.make_round(index)
            dt, _ = run_round(w, inp, f"traced round {index}", tally, tracer)
            traced_s += dt
        tracer.stop()
    finally:
        tracer.uninstall()
    untraced_s = 0.0
    for index in range(rounds):
        dt, _ = run_round(w, w.make_round(index), f"untraced round {index}", tally)
        untraced_s += dt
    metrics = trace.layer_metrics(tracer, traced_s / untraced_s)
    detail = {"rounds": rounds, "traced_s": traced_s, "untraced_s": untraced_s,
              "untraced_targets": tracer.missing, "tracer": tracer}
    return metrics, tally, detail


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import_s = _import_library()
    smclm_threads = os.environ.pop("SMCLM_THREADS", None)  # runs are serial
    from perfbench.workloads import WORKLOADS

    env = environment(smclm_threads)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    w = None
    try:
        w = WORKLOADS[name](seed, str(workdir))
        if traced:
            metrics, tally, detail = measure_traced(w, name)
        else:
            metrics, tally, detail = measure(w, seconds, import_s)
    finally:
        if w is not None:
            w.close()
        shutil.rmtree(workdir, ignore_errors=True)
    tag = f"{name}-seed{seed}-trace{int(traced)}"
    tracer = detail.pop("tracer", None)
    if tracer is not None:
        tracer.dump(str(OUT / f"spans-{tag}.json"), {"workload": name, "seed": seed, "env": env})
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "env": env,
                   "errors": tally.errors, **detail, **result}, f, indent=1)
    for e in tally.errors:
        print(f"perfbench: {name}: {e}", file=sys.stderr)
    print("perfbench env " + json.dumps(env, sort_keys=True))
    print(f"perfbench {name} " + json.dumps({k: v for k, v in detail.items() if k != "round_rates"}))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own process; print every metric with its unit."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        results[name] = result
        status |= 0 if result["correct"] else 1
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        rows = dict(result["metrics"])
        rows["failed_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        for metric, m in rows.items():
            print(f"  {metric:<42} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
