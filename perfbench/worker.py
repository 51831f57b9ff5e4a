"""One round of a workload in a fresh interpreter.

Started by run.py with the monotonic time at which it launched this
interpreter.  Imports the program, which ends set-up, then runs the
cold pass, the warm pass and the checks, and prints one JSON line.

    --probe   stop after set-up (extra set-up samples)
    --trace   run only the cold pass, traced, and report per-layer metrics
"""

import os
import sys
import time

launched = float(sys.argv[sys.argv.index("--launched") + 1])
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402  (imports postlie and its dependencies)

setup_s = time.monotonic() - launched

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import uuid  # noqa: E402


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    result = {"setup_s": setup_s, "versions": _versions()}
    if args.probe:
        print(json.dumps(result))
        return 0

    wl = workloads.WORKLOADS[args.workload]
    result["seeds"] = [args.seed]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(uuid.uuid4().hex)
        tracer.install()
    t0 = time.perf_counter()
    cold = wl.run(args.seed)
    result["cold_s"] = time.perf_counter() - t0
    passes = [cold]
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.span_metrics(),
                                                 tracing.cache_metrics())
        result["run_id"] = tracer.run_id
        tracer.write(os.path.join(tracing.out_dir(workloads.ROOT), f"spans-{wl.name}"))
    else:
        warm_seed = wl.warm_seed(args.seed)
        t0 = time.perf_counter()
        warm = wl.run(warm_seed)
        result["warm_s"] = time.perf_counter() - t0
        result["seeds"].append(warm_seed)
        passes.append(warm)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = sum(p.attempted for p in passes)
    result["failed"] = sum(p.failed for p in passes)
    result["errors"] = [e for p in passes for e in p.errors]
    result["problems"] = wl.check(passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
