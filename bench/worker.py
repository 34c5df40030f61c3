"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with the BLAS thread variables already set to 1 in its
environment and the checkout's ``src`` on PYTHONPATH. With ``--probe`` it
stops once mlda is imported and the configs are built; otherwise it runs an
untimed warm-up pass, then timed passes until ``--seconds`` have gone by,
then the correctness checks, and prints one JSON record as its last line.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import workloads

# Modules needed only after set-up are imported where they are used, so that
# set-up time stays that of importing mlda and building the configs.


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True, help="directory for this run's files")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--quick", action="store_true")
    return p.parse_args(argv)


def _configs(args):
    from mlda.harness import build_config, validate_options

    reports = os.path.join(args.out, "reports")
    configs = []
    for name in workloads.WORKLOADS[args.workload]:
        cfg = build_config(name, seed=workloads.mlda_seed(args.seed), out_dir=reports, threads=1)
        if args.quick:
            options = {**cfg.options, **workloads.QUICK[name]}
            validate_options(name, options)
            cfg = dataclasses.replace(cfg, options=options)
        configs.append(cfg)
    return configs


def _csv_files(configs):
    return {cfg.experiment: os.path.join(cfg.out_dir, f"{cfg.experiment}.csv") for cfg in configs}


def run_pass(configs):
    """One pass over the workload's experiments, reports written as `mlda` does.

    An operation is one experiment; it fails if it raises or returns a false
    pass flag. Returns the wall time and the per-operation outcomes.
    """
    import traceback

    from mlda import harness

    for path in _csv_files(configs).values():
        if os.path.exists(path):
            os.remove(path)
    outcomes = {}
    start = time.perf_counter()
    for cfg in configs:
        try:
            report = harness.run(cfg)
            harness.write_report(report, cfg.out_dir)
            outcomes[cfg.experiment] = {"passed": report.all_passed, "passes": dict(report.passes)}
        except Exception:  # an operation failure is counted, not fatal
            outcomes[cfg.experiment] = {"passed": False, "error": traceback.format_exc()}
        outcomes[cfg.experiment]["experiment"] = cfg.experiment
    return time.perf_counter() - start, outcomes


def csv_digests(configs):
    """sha256 and size of each experiment's CSV (None when it was not written)."""
    import hashlib

    out = {}
    for name, path in _csv_files(configs).items():
        if not os.path.exists(path):
            out[name] = None
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        out[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return out


def openblas_threads():
    """Thread count of every loaded OpenBLAS, read back through its own API."""
    import ctypes

    paths = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path not in paths:
                paths.append(path)
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def environment(args):
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "openblas_threads": openblas_threads(),
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": args.seed,
        "mlda_seed": workloads.mlda_seed(args.seed),
    }


def measure(args, configs):
    """Warm-up, timed passes and checks; the record run.py turns into metrics."""
    import resource
    from statistics import median

    import checks
    import tracer
    from mlda import Seed

    warm_wall, warm_ops = run_pass(configs)
    reference = csv_digests(configs)
    walls, traced, digests_seen, outcomes = [], [], [], []
    trace = tracer.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        wall, ops = run_pass(configs)
        walls.append(wall)
        outcomes.extend(ops.values())
        digests_seen.append(csv_digests(configs))
        if trace is not None:
            with trace.patched():
                wall, ops = run_pass(configs)
            outcomes.extend(ops.values())
            digests_seen.append(csv_digests(configs))
            traced.append((wall, sum(d["bytes"] for d in digests_seen[-1].values() if d)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [op for op in outcomes if not op["passed"]]
    record = {
        "passes_s": walls,
        "warmup_s": warm_wall,
        "warmup_ops": warm_ops,
        "attempted": len(outcomes),
        "failed": len(failures),
        "first_failures": failures[:3],
        "peak_rss_mb": peak_rss_mb,
        "csv": reference,
    }
    found = checks.run_checks(args.workload, Seed(workloads.mlda_seed(args.seed)))
    found["csv_repeat"] = {"ok": all(d == reference for d in digests_seen)}
    if trace is not None:
        per_pass = [
            tracer.layer_metrics(trace.names, [s for s in trace.spans if s[0] == i], wall, nbytes)
            for i, (wall, nbytes) in enumerate(traced)
        ]
        counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_pass]
        layers = dict(counts[0])
        for key in {k for m in per_pass for k in m if k.endswith("_s")}:
            layers[key] = median([m.get(key, 0.0) for m in per_pass])
        layers["trace.overhead_s"] = median([w for w, _ in traced]) - median(walls)
        record["layers"] = layers
        record["traced_passes_s"] = [w for w, _ in traced]
        found["trace_restored"] = {"ok": tracer.restored()}
        found["trace_counts_repeat"] = {"ok": all(c == counts[0] for c in counts)}
        spans_path = os.path.join(args.out, "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["pass", "name", "start", "duration", "self", "depth", "counts"],
                       "spans": trace.spans}, fh)
        record["spans_file"] = spans_path
    record["environment"] = environment(args)
    threads = record["environment"]["openblas_threads"]
    found["openblas_one_thread"] = {"ok": all(t == 1 for t in threads.values()), "threads": threads}
    record["checks"] = found
    return record


def main(argv=None):
    args = _parse(argv)
    import mlda

    configs = _configs(args)
    setup_done = time.perf_counter()
    if args.probe:
        print(json.dumps({"setup_done": setup_done, "mlda_file": mlda.__file__}))
        return 0
    record = measure(args, configs)
    record["setup_done"] = setup_done
    record["mlda_file"] = mlda.__file__
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
