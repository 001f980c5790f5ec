"""randtile benchmark: one command, four workloads, end-to-end and per-layer
metrics.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is a fresh interpreter
(bench/worker.py) against src/ of the checkout (PYTHONPATH=src, nothing
installed), with BLAS and OpenMP pinned to one thread.  Repetitions run one
after another, closed loop with one client, as many as fit in S seconds (at
least MIN_REPS of them), after two set-up-only spawns and before one spawn
for the workload's known-defect probes.  Every time is scaled to a reference
machine speed with a calibration kernel run beside it (see CAL_REF_S).

--trace 0 prints the end-to-end metrics, each a median over repetitions.
--trace 1 alternates traced and untraced repetitions, prints the per-layer
metrics derived from the traced ones' spans plus the tracing overhead, and
writes the spans to bench/out/trace-WORKLOAD-seedN.jsonl.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("lyapunov-deviation", "tiling-large", "ids-windows", "cli-cold")
MIN_REPS = 3
SETUP_SPAWNS = 2         # set-up-only spawns on top of one per repetition
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170         # a run must end within 180 s
# Times are scaled to a reference machine speed: measured × the reference
# time of the workload's calibration kernel / the time it took next to the
# measurement.  The references are about what the kernels take on the 2-vCPU
# virtual machine the baselines come from: worker.calibrate() for the library
# workloads, worker.calibrate_spawn() for cli-cold.
CAL_REF_S = {"lyapunov-deviation": 0.40, "tiling-large": 0.40,
             "ids-windows": 0.40, "cli-cold": 0.70}
TIME_UNITS = ("s", "ms", "us")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def spawn_worker(env, deadline, workload, seed, mode, trace=False):
    """Run one worker to completion; its whole process group is killed if it
    would outlive the deadline, so no CLI child it started is left behind."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed),
         repr(spawned_at), mode, "1" if trace else "0"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - spawned_at, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {mode} did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# per-layer metrics, derived from the spans of one traced repetition

ANY = object()


def layer_metrics(spans, families_s):
    def pick(name, tag=ANY):
        return [s for s in spans
                if s["name"] == name and (tag is ANY or s["tag"] == tag)]

    def dur(name, tag=ANY):
        return sum(s["end"] - s["start"] for s in pick(name, tag))

    def count(name, key, tag=ANY):
        return sum(s["units"].get(key, 0) for s in pick(name, tag))

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    bern = ("symbolic.sample_sequence", "bernoulli")
    markov = ("symbolic.sample_sequence", "markov")
    lyap = "cocycle.lyapunov_spectrum"
    vec = ("ergodic.ergodic_vectors", None)
    patch = "tiling.generate_patch"
    dec = "tiling.decompose_region"
    approx = "bratteli.approximant"
    build = "schrodinger.build_operator"
    counts = "schrodinger.eigenvalue_counts"
    cli = {tag: dur(f"cli.{tag}") for tag in
           ("dk", "decompose", "patch_svg", "schrod", "config")}
    commands = [v for v in cli.values() if v]
    return {
        "symbolic.bernoulli_us_per_symbol":
            (per(dur(*bern), count(bern[0], "symbols", bern[1]), 1e6), "us"),
        "symbolic.markov_us_per_symbol":
            (per(dur(*markov), count(markov[0], "symbols", markov[1]), 1e6),
             "us"),
        "symbolic.symbols": (count(bern[0], "symbols"), "count"),
        "cocycle.lyapunov_s": (dur(lyap), "s"),
        "cocycle.steps": (count(lyap, "steps"), "count"),
        "cocycle.us_per_step": (per(dur(lyap), count(lyap, "steps"), 1e6),
                                "us"),
        "ergodic.vectors_s": (dur(*vec), "s"),
        "ergodic.vector_levels": (count(vec[0], "levels", None), "count"),
        "ergodic.us_per_level":
            (per(dur(*vec), count(vec[0], "levels", None), 1e6), "us"),
        "ergodic.path_observable_s": (dur(vec[0], "path"), "s"),
        "ergodic.sequence_s": (dur("ergodic.special_averaging_sequence"), "s"),
        "ergodic.regions_s": (dur("ergodic.deviation_over_regions"), "s"),
        "ergodic.deviation_s": (dur("ergodic.deviation_along_sequence"), "s"),
        "substitution.families_s": (families_s, "s"),
        "tiling.anchor_s": (dur("tiling.anchor"), "s"),
        "tiling.anchors": (count("tiling.anchor", "anchors"), "count"),
        "tiling.patch_s": (dur(patch), "s"),
        "tiling.patch_tiles": (count(patch, "tiles"), "count"),
        **{f"tiling.patch_us_per_tile.{tag}":
           (per(dur(patch, tag), count(patch, "tiles", tag), 1e6), "us")
           for tag in ("half_hex", "solenoid", "disk")},
        "tiling.decompose_s": (dur(dec), "s"),
        "tiling.decompose_supertiles": (count(dec, "supertiles"), "count"),
        "tiling.decompose_us_per_supertile":
            (per(dur(dec), count(dec, "supertiles"), 1e6), "us"),
        "bratteli.approximant_s": (dur(approx), "s"),
        "bratteli.approximant_tiles": (count(approx, "tiles"), "count"),
        "bratteli.us_per_tile":
            (per(dur(approx), count(approx, "tiles"), 1e6), "us"),
        "schrodinger.punctures_s":
            (dur("schrodinger.PunctureSet.from_patch"), "s"),
        "schrodinger.points":
            (count("schrodinger.PunctureSet.from_patch", "points"), "count"),
        "schrodinger.assemble_s": (dur(build), "s"),
        "schrodinger.assemble_us_per_point":
            (per(dur(build), count(build, "points"), 1e6), "us"),
        "schrodinger.nnz": (count(build, "nnz"), "count"),
        "schrodinger.count_dense_s": (dur(counts, "dense"), "s"),
        "schrodinger.count_sparse_s": (dur(counts, "sparse"), "s"),
        "schrodinger.sparse_ms_per_energy":
            (per(dur(counts, "sparse"), count(counts, "energies", "sparse"),
                 1e3), "ms"),
        "schrodinger.trace_s": (dur("schrodinger.windowed_trace"), "s"),
        "cli.interp_s": (dur("cli.interp"), "s"),
        "cli.import_s": (dur("cli.import"), "s"),
        "cli.import_share":
            (per(dur("cli.import"), statistics.median(commands), 1)
             if commands else 0.0, "1"),
        **{f"cli.{tag}_s": (value, "s") for tag, value in cli.items()},
    }


# ---------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def speed(r, ref):
    """Reference-speed factor of a pass, from the calibrations beside it."""
    return ref / statistics.fmean((r["cal_before_s"], r["cal_after_s"]))


def setup_speed(r, ref):
    """The same for a set-up, which only the first calibration follows."""
    return ref / r["cal_before_s"]


def run(workload, seed, seconds, trace):
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    # set-up-only spawns first: the first one also fills the bytecode caches
    # of a fresh checkout, and one slow sample does not move the median
    setups = [spawn_worker(env, deadline, workload, seed, "setup")
              for _ in range(SETUP_SPAWNS)]
    start = time.monotonic()
    reps = []
    min_reps = MIN_REPS + 1 if trace else MIN_REPS
    # start another repetition only while it is expected to end in time
    while len(reps) < min_reps or (time.monotonic() - start) * (
            len(reps) + 1) / len(reps) <= seconds:
        traced = trace and len(reps) % 2 == 0
        reps.append((traced, spawn_worker(env, deadline, workload, seed,
                                          "pass", traced)))
    probes = spawn_worker(env, deadline, workload, seed, "probes")["probes"]
    return setups, reps, probes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "randtile" / "__init__.py").is_file():
        print(f"no randtile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, reps, probes = run(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    setups += [r for _, r in reps]          # every pass measures a set-up too
    ref = CAL_REF_S[args.workload]
    probe_failed = sum(not p["ok"] for p in probes.values())
    ratios = [(len(r["failed"]) + probe_failed) / (r["ops"] + len(probes))
              for _, r in reps]
    failures = sorted({f for _, r in reps for f in r["failed"]})
    errors = sorted({r["error"] for _, r in reps if r["error"]})
    env = {
        "versions": setups[0]["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: str(THREADS) for var in THREAD_VARS},
        "loaded_before_setup": setups[0]["preloaded"],
        "workload": args.workload, "seed": args.seed,
        "repetitions": len(reps), "setup_samples": len(setups),
    }
    print("env " + json.dumps(env, sort_keys=True))
    for name, p in sorted(probes.items()):
        state = "ok" if p["ok"] else "FAILED (known defect)"
        print(f"probe {name}: {state}: {p['detail']}")
    for line in failures + errors:
        print(f"FAILED {line}")

    untraced = [r for traced, r in reps if not traced]
    if args.trace:
        traced = [r for t, r in reps if t]
        per_rep = [{name: (value * speed(r, ref) if unit in TIME_UNITS
                           else value,
                           unit)
                    for name, (value, unit) in layer_metrics(
                        r["spans"], r.get("families_s", 0.0)).items()}
                   for r in traced]
        metrics = {name: (median([m[name][0] for m in per_rep]), unit)
                   for name, (_, unit) in per_rep[0].items()}
        metrics["bench.trace_overhead_s"] = (
            median([r["run_s"] * speed(r, ref) for r in traced])
            - median([r["run_s"] * speed(r, ref) for r in untraced]), "s")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with path.open("w") as fh:
            for r in traced:
                for span in r["spans"]:
                    fh.write(json.dumps(span) + "\n")
        print(f"spans: {path.relative_to(ROOT)} ({len(traced)} traced, "
              f"{len(untraced)} untraced repetitions)")
    else:
        metrics = {
            "setup_s": (median([r["setup_s"] * setup_speed(r, ref)
                                for r in setups]), "s"),
            "run_s": (median([r["run_s"] * speed(r, ref)
                              for r in untraced]), "s"),
            "cpu_s": (median([r["cpu_s"] * speed(r, ref)
                              for r in untraced]), "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in untraced]), "MB"),
            "ops_failed_ratio": (median(ratios), "1"),
        }
        for key, rows in (("run_s", untraced), ("setup_s", setups)):
            print(f"{key} as measured: "
                  + " ".join(f"{r[key]:.3f}" for r in rows))
        print("calibration s: " + " ".join(
            f"{r[k]:.3f}" for r in setups
            for k in ("cal_before_s", "cal_after_s") if k in r))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not failures and not errors,
        "attempted": sum(r["ops"] for _, r in reps),
        "failed": sum(len(r["failed"]) for _, r in reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
