"""Tests of the benchmark itself:  python3 -m pytest bench"""
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Tracer, metric_specs  # noqa: E402


def test_smoke_runs_one_checked_op_per_workload():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line == {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs()


def test_tracer_counts_calls_and_restores_originals():
    from abelianj import hermitian, lab, linalg, serialize
    inst = serialize.load_instance(
        os.path.join(ROOT, "src", "abelianj", "fixtures", "aff_c_j1.json"))
    conn = hermitian.levi_civita(inst.algebra, inst.metric)
    originals = (hermitian.curvature, lab.curvature, linalg.Matrix.__matmul__)
    tracer = Tracer()
    tracer.install()
    try:
        # the name lab imported from hermitian is wrapped as well
        assert lab.curvature is hermitian.curvature is not originals[0]
        hermitian.curvature(inst.algebra, conn)
    finally:
        tracer.uninstall()
    assert (hermitian.curvature, lab.curvature, linalg.Matrix.__matmul__) == originals
    m = tracer.metrics(1)
    assert m["hermitian.curvature.calls"] == 1
    assert m["linalg.Matrix.matmul.calls"] == 4 * 3      # two per pair i < j
    assert m["hermitian.levi_civita.calls"] == 0
    assert m["hermitian.self_s"] == m["hermitian.curvature.self_s"] > 0
    assert m["linalg.Matrix.matmul.self_s"] > 0
