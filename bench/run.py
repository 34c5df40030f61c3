"""Benchmark of the `mlda all` experiments, one workload per run.

    python3 bench/run.py --workload tall --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src``. Each run starts fresh interpreters with OpenBLAS, OpenMP
and MKL pinned to one thread before numpy loads:

* set-up probes that only import mlda and build the workload's configs,
  whose median start-up time is ``setup_s``;
* one worker that runs an untimed warm-up pass, then timed passes through
  ``mlda.harness.run`` for ``--seconds``, then the correctness checks.

With ``--trace 1`` the worker alternates plain and traced passes and the run
reports the per-layer metrics instead. The
last line of standard output is the result as JSON; the full record (every
pass time, the environment, CSV digests, check details) is written to
``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PROBES = 9
TIME_LIMIT_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="selects the experiments' base seed (see workloads.py)")
    p.add_argument("--seconds", type=float, default=20.0, help="how long the timed passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="small trial counts, for the self-test")
    return p.parse_args(argv)


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(argv, env, timeout):
    """Start a worker; return (start time, its JSON record)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return start, json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mlda", "__init__.py")):
        print(f"bench: no mlda sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _metric_specs()
    deadline = time.perf_counter() + TIME_LIMIT_S
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-quick" if args.quick else "")
    out = os.path.join(ROOT, ".bench_out", name)
    os.makedirs(out, exist_ok=True)
    env = _child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
              "--seconds", str(args.seconds), "--out", out] + (["--quick"] if args.quick else [])

    setups = []
    for _ in range(PROBES):
        start, probe = _child(common + ["--probe"], env, deadline - time.perf_counter())
        setups.append(probe["setup_done"] - start)
    start, record = _child(common, env, deadline - time.perf_counter())
    setups.append(record["setup_done"] - start)
    expected_src = os.path.join(ROOT, "src", "mlda")
    if os.path.dirname(os.path.abspath(record["mlda_file"])) != expected_src:
        print(f"bench: worker imported mlda from {record['mlda_file']}", file=sys.stderr)
        return 2

    if args.trace:
        values = record["layers"]
        specs = per_layer
    else:
        values = {
            "pass_s": statistics.median(record["passes_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        specs = end_to_end
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    record["setups_s"] = setups
    with open(os.path.join(out, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    checks = record["checks"]
    for check, result in sorted(checks.items()):
        if not result["ok"]:
            print(f"bench: check {check} failed: {json.dumps(result)}", file=sys.stderr)
    result = {
        "correct": all(c["ok"] for c in checks.values()),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
