"""The benchmark's own test: every workload at reduced size on two seeds.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py

Every correctness check must pass and exactly the known-defect probes must
fail.  The sparse eigenvalue counts of the largest ids-windows window are
compared with dense eigvalsh here (about 12 s), not in each repetition.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run_bench  # noqa: E402
import workloads  # noqa: E402
from randtile import (KernelSpec, PunctureSet, Region, SupertileSystem,  # noqa: E402
                      SymbolSequence, build_operator, builtin_families,
                      eigenvalue_counts, generate_patch, schrodinger)

SEEDS = (3, 11)
KNOWN_DEFECTS = {"deviation-overflow", "deviate-1d", "sparse-singular",
                 "cli-deviate-1d"}


@pytest.fixture(scope="module")
def families():
    return {f.name: f for f in builtin_families()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_library_workload_checks_pass(families, workload, seed):
    rec = workloads.Recorder(True, "test")
    with rec.root(workload):
        workloads.PASSES[workload](rec, families, seed, "small")
    assert rec.failed == []
    assert len(rec.spans) == len(rec.ops) + 1
    assert all(s["end"] >= s["start"] for s in rec.spans)


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_cold_checks_pass(tmp_path, seed):
    rec = workloads.Recorder(True, "test")
    assert workloads.cli_measure_startup(rec) > 0
    workloads.cli_cold(rec, seed, tmp_path)
    assert rec.failed == []
    assert {s["name"] for s in rec.spans} == {
        "cli.interp", "cli.import", "cli.dk", "cli.decompose",
        "cli.patch_svg", "cli.schrod", "cli.config"}


def test_exactly_the_known_defect_probes_fail(families, tmp_path):
    outcomes = {name: probe(families, tmp_path)
                for workload in workloads.WORKLOADS
                for name, probe in workloads.PROBES[workload]}
    failing = {name for name, (ok, _) in outcomes.items() if not ok}
    assert failing == KNOWN_DEFECTS, outcomes


def test_sparse_counts_match_dense_off_lattice(families):
    fam = families["half-hex-classical"]
    x = SymbolSequence.constant(1, 64)
    base = Region.box(*workloads.CLI_WINDOW)
    src = base.dilated(32)
    patch = generate_patch(fam, x, src, system=SupertileSystem(fam, x))
    punctures = PunctureSet.from_patch(patch, window=src)
    op = build_operator(KernelSpec.laplacian(workloads.LAPLACIAN_RANGE),
                        punctures, base.dilated(28))
    assert op.size > schrodinger._DENSE_LIMIT
    energies = np.linspace(-1.0, 9.0, 41) + workloads.ENERGY_SHIFT
    dense = np.searchsorted(np.linalg.eigvalsh(op.matrix.toarray()), energies,
                            side="right")
    assert eigenvalue_counts(op.matrix, energies).tolist() == dense.tolist()


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run_bench.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "cpu_s", "peak_rss_mb", "ops_failed_ratio"}
    layers = run_bench.layer_metrics([], 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **{name: unit for name, (_, unit) in layers.items()},
        "bench.trace_overhead_s": "s"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
