"""Quick self-test of the benchmark; not part of the repository's test suite.

    python3 -m pytest bench/selftest.py -q

Runs every workload with small trial counts and checks that the traced run
restores every patched mlda function, that its CSV digests equal the plain
run's, and that its count metrics repeat exactly from one run to the next.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, timeout=170, check=True)
    result = json.loads(proc.stdout.decode("utf-8").splitlines()[-1])
    name = f"{workload}-seed{SEED}-trace{trace}-quick"
    with open(os.path.join(ROOT, ".bench_out", name, "record.json"), encoding="utf-8") as fh:
        return result, json.load(fh)


def test_tracer_patches_every_importer_and_restores():
    import mlda
    import mlda.harness.experiments as experiments
    import mlda.population as population
    import mlda.synth as synth

    originals = (mlda.sym_eig, population.sym_eig, synth.build_dataset, experiments.write_report,
                 synth.Seed.stream)
    trace = tracer.Tracer()
    with trace.patched():
        patched = (mlda.sym_eig, population.sym_eig, synth.build_dataset,
                   experiments.write_report, synth.Seed.stream)
        assert all(p.__wrapped__ is o for p, o in zip(patched, originals))
        assert not tracer.restored()
        mlda.Seed(1).stream("x", 0, "y")
    assert tracer.restored()
    assert (mlda.sym_eig, population.sym_eig, synth.build_dataset, experiments.write_report,
            synth.Seed.stream) == originals
    assert [s[1] for s in trace.spans] == ["synth.stream"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_matches_plain_run(workload):
    _, plain = _run(workload, 0)
    first, traced = _run(workload, 1)
    assert traced["checks"]["trace_restored"]["ok"]
    assert traced["checks"]["csv_repeat"]["ok"]
    assert traced["csv"] == plain["csv"]
    assert all(traced["csv"].values())

    second, _ = _run(workload, 1)
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if not k.endswith("_s")}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["scatter.build_scatter.calls"] > 0
