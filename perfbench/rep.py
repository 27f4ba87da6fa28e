"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, because the canonical-key
LRU and the module memos of wordgraphs live for the whole process: a second
repetition in the same interpreter would measure the first one's caches.

Phases: set-up (imports and the workload's inputs), then the timed
operations, then the correctness checks with tracing removed.  The host-speed
readings of ``speed.py`` are taken after set-up and after every operation,
and in an untraced repetition also from a timer signal during set-up and the
operations; ``run_s``, ``cpu_s`` and ``setup_scale`` turn the raw times into
reference seconds with them.  (A traced repetition takes no signal readings,
so that the spans hold only the program's time.)  The last line of stdout is
one JSON object; ``ready`` is the ``time.monotonic()`` reading when set-up
ended, which the parent subtracts from its own reading taken just before it
started this process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SUBCOMMANDS = ("age", "bounds", "jonsson", "word", "graph", "prime", "detect",
               "realizer", "catalogue")
CALL_COUNTED = ("graphs.embedding", "graphs.canonical_key", "graphs.Graph",
                "graphs.add_vertex", "graphs.induced_subgraph",
                "graphs.canonical_form", "primes.find_nontrivial_module",
                "primes.is_prime", "wordgraph.graph_of_word")


def _error_text(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def run_op(op: workloads.Op, state: dict):
    """Run one operation and return its output."""
    from wordgraphs import cli

    if op.argv is None:
        return op.call(state)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
    return workloads.CliResult(code, out.getvalue(), err.getvalue())


def run_ops(ops: list[workloads.Op], tracer: spans.Tracer | None = None,
            sampler: speed.Sampler | None = None) -> dict:
    """Time each operation, then check every output with tracing removed.

    A calibration pass runs before the first operation and after each one;
    an operation's reference time is its raw time, less the sampler's
    handler time, scaled by the mean of the passes around it and the
    sampler's readings inside it.  The sampler, if any, is stopped here.
    """
    from wordgraphs import graphs

    cache = graphs._canonical_cached
    state: dict = {}
    records, values = [], []
    calibrations = [speed.calibrate()]
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            before = cache.cache_info()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            error = None
            try:
                value = run_op(op, state)
            except Exception as exc:  # an operation failure is a result, not a crash
                value, error = None, _error_text(exc)
            wall1, cpu1 = time.perf_counter(), time.process_time()
            after = cache.cache_info()
            calibrations.append(speed.calibrate())
            inside = sampler.window(wall0, wall1) if sampler is not None else []
            values.append(value)
            records.append({
                "name": op.name, "subcommand": op.subcommand,
                **speed.scaled(wall1 - wall0, cpu1 - cpu0, inside, calibrations[-2:]),
                "cache_hits": after.hits - before.hits,
                "cache_misses": after.misses - before.misses,
                "error": error,
            })
    finally:
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for op, value, rec in zip(ops, values, records):
        if rec["error"] is None:
            try:
                rec["error"] = op.check(value)
            except Exception as exc:  # a malformed output fails its check
                rec["error"] = f"check raised {_error_text(exc)}"
    return {
        "run_s": sum(r["ref_wall_s"] for r in records),
        "cpu_s": sum(r["ref_cpu_s"] for r in records),
        "raw_run_s": sum(r["wall_s"] for r in records),
        "raw_cpu_s": sum(r["cpu_s"] for r in records),
        "first_pass": calibrations[0],
        "calibration_ratios": [wall for wall, _ in calibrations],
        "peak_rss_mib": peak_kib / 1024,
        "ops": records,
    }


def layer_metrics(tracer: spans.Tracer, rep: dict) -> dict:
    """Per-layer numbers of one traced repetition (without trace.overhead_s)."""
    m: dict[str, float] = {}
    for name, _, _ in spans.TARGETS:
        m[f"{name}.self_s"] = tracer.self_seconds(name)
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = tracer.calls(name)
    searches = m["graphs.embedding.calls"]
    m["graphs.embedding.found_ratio"] = (
        tracer.found.get("graphs.embedding", 0) / searches if searches else 0.0)
    hits = sum(r["cache_hits"] for r in rep["ops"])
    misses = sum(r["cache_misses"] for r in rep["ops"])
    m["graphs.canon_cache.hits"] = hits
    m["graphs.canon_cache.misses"] = misses
    m["graphs.canon_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["ages.age_enumerate.candidates"] = tracer.calls("graphs.add_vertex", "ages.age_enumerate")
    m["ages.age_enumerate.searches"] = tracer.calls("graphs.embedding", "ages.age_enumerate")
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = sum(r["wall_s"] for r in rep["ops"] if r["subcommand"] == sub)
    self_total = sum(tracer.self_seconds(name) for name, _, _ in spans.TARGETS)
    m["trace.run_s"] = rep["raw_run_s"]
    m["trace.unattributed_s"] = rep["raw_run_s"] - self_total
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True,
                    help="directory for generated input files")
    args = ap.parse_args()
    sampler = None if args.trace else speed.Sampler()
    if sampler is not None:
        sampler.start()
    setup_start = time.perf_counter()

    import wordgraphs.cli  # noqa: F401  (imports every module of the package)

    ops = workloads.build(args.workload, args.seed, args.work)
    ready, setup_end = time.monotonic(), time.perf_counter()
    tracer = spans.Tracer() if args.trace else None
    rep = run_ops(ops, tracer, sampler)
    # set-up is scaled by the readings during it and the first pass after it
    inside = sampler.window(setup_start, setup_end) if sampler is not None else []
    rep["setup_handler_s"] = speed.handler_seconds(inside)
    rep["setup_scale"] = speed.wall_ratio(inside, [rep.pop("first_pass")])
    rep["ready"] = ready
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer, rep)
        rep["spans"] = tracer.as_json()
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
