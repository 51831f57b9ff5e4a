"""postlie benchmark: one command, four workloads, cold and warm passes.

Run from the repository root:

    python3 perfbench/run.py --workload coeff-identities --seed 0 --seconds 12 --trace 0

Workloads: coeff-identities, word-identities, bea-series, so3-experiments
(see README.md in this directory).  The command repeats rounds until
``--seconds`` have passed.  A round is one fresh interpreter
(worker.py) that imports the program, runs a cold pass with the seed, a
warm pass with the next seed, and checks both passes' outputs.  The
end-to-end metrics are medians over the rounds; ``setup_s`` is the median
over at least five interpreter starts.

With ``--trace 1`` the first half of the time runs untraced rounds and
the second half traced rounds, which run only the cold pass; the
per-layer metrics come from the traced rounds and ``trace.overhead_s`` is
the traced minus the untraced ``cold_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (machine,
versions, seeds, per-round figures) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("coeff-identities", "word-identities", "bea-series", "so3-experiments")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, started: float, *flags: str) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before the round started")
    launched = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--launched", repr(launched), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"round failed ({proc.returncode}): {' '.join(cmd)}\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": sys.platform,
        "git_revision": git_revision(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "postlie", "__init__.py")):
        print(f"error: no postlie sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    def elapsed() -> float:
        return time.monotonic() - started

    untraced, traced = [], []
    plain_until = args.seconds / 2 if args.trace else args.seconds
    try:
        while not untraced or elapsed() < plain_until:
            untraced.append(worker(args.workload, args.seed, started))
        while args.trace and (not traced or elapsed() < args.seconds):
            traced.append(worker(args.workload, args.seed, started, "--trace"))
        setups = [r["setup_s"] for r in untraced + traced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(worker(args.workload, args.seed, started, "--probe")["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = untraced + traced
    problems = [p for r in rounds for p in r["problems"]]
    if args.trace:
        layers = {name: statistics.median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median([r["cold_s"] for r in traced])
                                      - statistics.median([r["cold_s"] for r in untraced]))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setups)}
        for key in ("cold_s", "warm_s", "peak_rss_mb"):
            values[key] = statistics.median([r[key] for r in untraced])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_seeds": untraced[0]["seeds"],
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine(), **rounds[0]["versions"]},
        "setup_samples": setups,
        "rounds": [{k: v for k, v in r.items() if k not in ("layers", "versions")}
                   for r in rounds],
        "metrics": metrics,
    }
    path = os.path.join(tracing.out_dir(ROOT), f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for e in {e for r in rounds for e in r["errors"]}:
        print(f"operation failed: {e}", file=sys.stderr)
    print(f"# {len(rounds)} rounds in {elapsed():.1f} s; record {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
