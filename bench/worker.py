"""One repetition of a workload, in a fresh interpreter.

run_bench.py spawns this with PYTHONPATH=src and BLAS/OpenMP thread counts
pinned.  Nothing outside the standard library is imported before the set-up
it measures, so an import made cheaper (or dearer) shows in setup_s.

    worker.py WORKLOAD SEED SPAWNED_AT MODE TRACE

SPAWNED_AT is the parent's time.monotonic() just before the spawn.  MODE is
`setup` (import randtile and build the built-in families, then stop; for
cli-cold, time a cold `import randtile.cli` in a child), `pass` (one timed
pass of the workload) or `probes` (its known-defect probes).  Set-up and
pass are followed by a calibration, and a pass also by a second one.  The
result is one JSON object on the last line of stdout.
"""

import sys
import time

# Modules that, loaded before set-up, would hide part of the import cost.
HIDDEN_IMPORTS = ("numpy", "scipy", "pytest", "randtile")


def loaded_outside_stdlib():
    names = {name.split(".")[0] for name in sys.modules}
    return sorted(n for n in names if n not in sys.stdlib_module_names
                  and n not in sys.builtin_module_names and n != "__main__")


def setup():
    """Import randtile and build the families; returns the timings."""
    before = loaded_outside_stdlib()
    hidden = [n for n in before if n in HIDDEN_IMPORTS]
    if hidden:
        raise RuntimeError(f"imported before set-up: {hidden}")
    import randtile
    start = time.perf_counter()
    families = {f.name: f for f in randtile.builtin_families()}
    families_s = time.perf_counter() - start
    return families, families_s, before


def calibrate():
    """Seconds taken by a fixed pure-Python kernel (integer loop, Fraction
    arithmetic, sort).  It calls no randtile code, so no change to the library
    moves it; it measures how fast this machine is running just now."""
    from fractions import Fraction
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    sorted((Fraction(i, 3) + half, Fraction(i, 7) + quarter)
           for i in range(30_000))
    return time.perf_counter() - start


def calibrate_spawn():
    """Seconds for a cold child interpreter to import numpy and the scipy
    modules randtile uses: the reference for cli-cold, whose work is mostly
    interpreter start-up and imports, which calibrate() does not follow."""
    import subprocess
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.sparse, "
                    "scipy.sparse.linalg, scipy.spatial"], check=True)
    return time.perf_counter() - start


def versions():
    import platform
    from importlib import metadata
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def run_pass(name, seed, trace, families, workdir):
    import resource
    import workloads

    rec = workloads.Recorder(trace, f"{name}-{seed}-{time.time_ns()}")
    result = {}
    if name == "cli-cold":
        result["setup_s"] = workloads.cli_measure_startup(rec)
    first_op = len(rec.ops)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    error = None
    try:
        with rec.root(f"pass.{name}"):
            if name == "cli-cold":
                workloads.cli_cold(rec, seed, workdir)
            else:
                workloads.PASSES[name](rec, families, seed, "full")
    except Exception as exc:                # reported as a failed pass
        error = f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if name == "cli-cold":                  # the CLI children's, one by one
        children = [op.counts for op in rec.ops[first_op:]]
        cpu_s = sum(c.get("cpu_s", 0.0) for c in children)
        peak_kb = max((c.get("maxrss_kb", 0) for c in children), default=0)
    else:
        cpu_s = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        peak_kb = ru1.ru_maxrss
    result.update(run_s=run_s, cpu_s=cpu_s, peak_rss_mb=peak_kb / 1024.0,
                  ops=len(rec.ops), failed=rec.failed, error=error,
                  spans=rec.spans)
    return result


def run_probes(name, families, workdir):
    import workloads
    out = {}
    for probe, fn in workloads.PROBES[name]:
        ok, detail = fn(families, workdir)
        out[probe] = {"ok": ok, "detail": detail}
    return {"probes": out}


def main(argv):
    import json
    import os
    import shutil
    from pathlib import Path
    name, seed, spawned_at, mode, trace = argv
    seed, trace = int(seed), trace == "1"
    result = {}
    families = None
    if not (name == "cli-cold" and mode == "pass"):
        families, families_s, before = setup()
        result.update(setup_s=time.monotonic() - float(spawned_at),
                      families_s=families_s, preloaded=before,
                      versions=versions())
    cal = calibrate_spawn if name == "cli-cold" else calibrate
    if mode != "probes":
        result["cal_before_s"] = cal()
    if name == "cli-cold" and mode == "setup":
        import workloads
        result["setup_s"] = workloads.cli_import_s()
    if mode != "setup":
        workdir = Path(__file__).resolve().parent / "out" / f"work-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            if mode == "pass":
                result.update(run_pass(name, seed, trace, families, workdir))
                result["cal_after_s"] = cal()
            else:
                result.update(run_probes(name, families, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
