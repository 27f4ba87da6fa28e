"""wordgraphs benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload word-ages --seed 1 --seconds 36 --trace 0

Run from the repository root.  Each repetition is a fresh interpreter running
``rep.py`` (set-up, timed operations, checks); repetitions are started until
the next one would end after ``--seconds``, with a minimum count so that a
median exists.  With ``--trace 1`` untraced and traced repetitions
alternate; the per-layer numbers come from the traced repetition with the
median run time, and ``trace.overhead_s`` is its run time minus the median
untraced run time.

The times are in reference seconds: each repetition times a fixed
calibration loop (``speed.py``) around its operations and scales its raw
times by it, because the shared host's speed drifts by tens of percent.
The raw times are kept in the summary and the run record.

Standard error gets a summary of every metric by name and unit, including
``error_rate``; a run record with the git revision, Python version,
``nproc`` and the load average before and after each repetition goes to
``perfbench/out/``.  The last line of standard output is the result object.
``--workload all`` runs every workload in turn, one result line each.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("word-ages", "graph-census", "long-words")
END_TO_END = ("run_s", "cpu_s", "setup_s", "peak_rss_mib")
RAW_TIMES = ("raw_run_s", "raw_cpu_s", "raw_setup_s")
HARD_LIMIT_S = 165.0  # a run must exit within 180 s
MIN_ROUNDS = {0: 3, 1: 2}


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record_header() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def spawn(workload: str, seed: int, traced: bool, work: Path, deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its record."""
    cmd = [sys.executable, "-I", str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--work", str(work)]
    load_before = os.getloadavg()
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += "\nrepetition killed at the run's time limit"
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    rec = {"traced": traced, "wall_s": time.monotonic() - started,
           "loadavg_before": load_before, "loadavg_after": os.getloadavg()}
    if proc.returncode != 0:
        rec["crash"] = f"exit {proc.returncode}: {err.strip()[-400:]}"
        return rec
    rep = json.loads(out.strip().splitlines()[-1])
    rep["raw_setup_s"] = rep.pop("ready") - started
    rep["setup_s"] = (rep["raw_setup_s"] - rep["setup_handler_s"]) * rep["setup_scale"]
    rec.update(rep)
    return rec


def measure(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    modes = (False, True) if trace else (False,)
    start = time.monotonic()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        reps: list[dict] = []
        rounds = 0
        while True:
            for traced in modes:
                reps.append(spawn(workload, seed, traced, Path(work), start + HARD_LIMIT_S))
            rounds += 1
            elapsed = time.monotonic() - start
            limit = seconds if rounds >= MIN_ROUNDS[trace] else HARD_LIMIT_S
            if any("crash" in r for r in reps) or elapsed + elapsed / rounds > limit:
                return reps


def metric_values(reps: list[dict], trace: int) -> dict[str, float]:
    plain = [r for r in reps if not r["traced"]]
    if not trace:
        return {name: statistics.median(r[name] for r in plain) for name in END_TO_END}
    traced = sorted((r for r in reps if r["traced"]), key=lambda r: r["run_s"])
    chosen = traced[(len(traced) - 1) // 2]  # the median, or the lower of two
    values = dict(chosen["layers"])
    values["trace.overhead_s"] = chosen["run_s"] - statistics.median(
        r["run_s"] for r in plain)
    return values


def summarize(workload: str, reps: list[dict], values: dict, units: dict,
              attempted: int, failed: int) -> None:
    plain = [r for r in reps if not r["traced"]]
    print(f"{workload}: {len(plain)} untraced and {len(reps) - len(plain)} traced "
          f"repetitions", file=sys.stderr)
    for name, value in values.items():
        samples = [r[name] for r in plain] if name in END_TO_END else []
        spread = ""
        if len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = f"  (median of {len(samples)}; quartiles {q1:.4g} .. {q3:.4g})"
        print(f"  {name:40s} {value:12.6g} {units[name]}{spread}", file=sys.stderr)
    for name in RAW_TIMES:
        if plain and all(name in r for r in plain):
            raw = statistics.median(r[name] for r in plain)
            print(f"  {name:40s} {raw:12.6g} s (raw, not scaled; median)", file=sys.stderr)
    print(f"  {'error_rate':40s} {failed / attempted:12.6g} ratio  "
          f"({failed} failed of {attempted} operations)", file=sys.stderr)
    for r in reps:
        for op in r.get("ops", []):
            if op["error"]:
                print(f"  FAILED {op['name']}: {op['error']}", file=sys.stderr)
        if "crash" in r:
            print(f"  FAILED repetition: {r['crash']}", file=sys.stderr)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    header = run_record_header()
    reps = measure(workload, seed, seconds, trace)
    attempted = failed = 0
    for r in reps:
        if "crash" in r:
            attempted += 1
            failed += 1
        else:
            attempted += len(r["ops"])
            failed += sum(1 for op in r["ops"] if op["error"])
    good = [r for r in reps if "crash" not in r]
    if not any(not r["traced"] for r in good) or (trace and not any(r["traced"] for r in good)):
        summarize(workload, reps, {}, units, attempted, failed)
        print(f"{workload}: no repetition completed", file=sys.stderr)
        return None
    values = metric_values(good, trace)
    if set(values) != set(units):
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    summarize(workload, reps, values, units, attempted, failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = dict(header, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  result=result, repetitions=reps)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = OUT / f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"  run record: {path.relative_to(ROOT)}", file=sys.stderr)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "wordgraphs" / "cli.py").is_file():
        print("error: src/wordgraphs not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for tree in (ROOT / "src", HERE):  # byte-compile once, outside every timing
        compileall.compile_dir(tree, quiet=1)
    status = 0
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            status = 1
        else:
            print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
