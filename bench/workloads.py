"""The benchmark's workloads: one timed pass each, with correctness checks,
plus the known-defect probes that run once per invocation outside the pass.

Every call into the library is wrapped in `Recorder.op`, which times it from
outside and, when tracing, records one span carrying the call's unit counts.
Checks run after the call returns, so they are not part of any span.  A failed
check marks its operation failed; an exception ends the pass.

Everything random is drawn from the workload seed: Bernoulli and Markov
sequences through `sample_sequence(..., seed, worker_id)`, observables and
sampled check levels through `rng_stream(seed, worker_id)` with worker ids
that no sequence uses.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())

WORKLOADS = ("lyapunov-deviation", "tiling-large", "ids-windows", "cli-cold")

# Workload sizes.  "full" is what the benchmark measures; "small" keeps the
# same operations and checks at a size the benchmark's own test can afford.
SIZES = {
    "full": {
        "steps": 20_000, "grid": 11, "sas_count": 200, "vec_depth": 1000,
        "path_depth": 5,
        "patch_t": 256, "decompose_t": 512, "disk_t": 64, "approx_depth": 7,
        "region_grid": (4, 8, 16, 32, 64, 128, 256), "ids_sas_count": 25,
        "source_t": 32, "windows": (4, 8, 16, 28),
    },
    "small": {
        "steps": 2_000, "grid": 3, "sas_count": 40, "vec_depth": 300,
        "path_depth": 3,
        "patch_t": 32, "decompose_t": 64, "disk_t": 16, "approx_depth": 4,
        "region_grid": (4, 8, 16, 32), "ids_sas_count": 10,
        "source_t": 12, "windows": (4, 8),
    },
}

# λ_i estimates must lie within this many batch-means standard errors of
# the closed form.  Over 40 seeds of the 11-point grid at 20,000 steps the
# largest deviation seen was 3.3 standard errors.
SE_MULTIPLE = 5.0
LOG2, LOG4, LOG16 = math.log(2.0), math.log(4.0), math.log(16.0)
ENDPOINT_SPECTRA = {
    1.0: (LOG4, LOG2, 0.0, 0.0, 0.0, 0.0),
    0.0: (LOG16, 0.5 * math.log(52.0), 0.5 * math.log(52.0), LOG2, LOG2, LOG2),
}
MARKOV = ((0.7, 0.3), (0.4, 0.6))
MARKOV_INITIAL = (4 / 7, 3 / 7)
# Dilations of the matrix-only averaging sequence grow like 4^k; float(T)
# overflows past 2^1024, so the timed deviation fit uses the entries with
# k <= 500 and the overflow itself is the `deviation-overflow` probe.
DEVIATION_MAX_LEVEL = 500
LAPLACIAN_RANGE = 1.8
ENERGY_SHIFT = 0.125   # off the integer lattice, where Laplacian spectra sit
CLI_WINDOW = ((-1, -1), (2, 2))


class Op:
    """One timed call into the library: its span, unit counts and checks."""

    def __init__(self, name, tag):
        self.name = name
        self.tag = tag
        self.counts = {}
        self.failures = []

    def units(self, **counts):
        self.counts.update(counts)

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)


class Recorder:
    """Times each library call; keeps spans in memory only when tracing."""

    def __init__(self, trace: bool, run_id: str):
        self.trace = trace
        self.run_id = run_id
        self.spans = []
        self.ops = []
        self._root = None
        self._origin = time.perf_counter()

    def _span(self, name, tag, start, end, parent, counts):
        span = {"run": self.run_id, "id": len(self.spans), "parent": parent,
                "name": name, "tag": tag, "start": start - self._origin,
                "end": end - self._origin, "units": counts}
        self.spans.append(span)
        return span["id"]

    @contextmanager
    def root(self, name):
        start = time.perf_counter()
        if self.trace:
            self._root = self._span(name, None, start, start, None, {})
        try:
            yield
        finally:
            if self.trace:
                self.spans[self._root]["end"] = time.perf_counter() - self._origin

    @contextmanager
    def op(self, name, tag=None):
        op = Op(name, tag)
        self.ops.append(op)
        start = time.perf_counter()
        try:
            yield op
        except BaseException:
            op.failures.append("raised")
            raise
        finally:
            end = time.perf_counter()
            if self.trace:
                self._span(name, tag, start, end, self._root, op.counts)

    @property
    def failed(self):
        return [f"{op.name}[{op.tag}]: {', '.join(op.failures)}"
                if op.tag else f"{op.name}: {', '.join(op.failures)}"
                for op in self.ops if op.failures]


def tile_digest(tiles) -> str:
    """Order-independent digest of an exact tile set."""
    lines = sorted(f"{t} " + " ".join(f"{c.numerator}/{c.denominator}"
                                      for c in off) for t, off in tiles)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def log_abs_exact(value) -> float:
    """log|q| of a rational q of any size, without going through float(q)."""
    q = Fraction(value)

    def log_int(n):
        shift = max(n.bit_length() - 60, 0)
        return math.log(n >> shift) + shift * LOG2

    return log_int(abs(q.numerator)) - log_int(q.denominator)


def random_fractions(gen, count, lo=-20, hi=21, den=7):
    return tuple(Fraction(int(a), den) for a in gen.integers(lo, hi, count))


def all_paths(family, x, depth):
    """Every length-`depth` diagram path, edges in the canonical order
    (level, parent, child, branch index among equal children)."""
    paths = {v: [()] for v in range(family.n_prototiles)}
    for level in range(1, depth + 1):
        rule = family.rule(x[level])
        nxt = {v: [] for v in range(family.n_prototiles)}
        for parent in range(family.n_prototiles):
            seen = {}
            for b in rule.children_of(parent):
                idx = seen.get(b.child, 0)
                seen[b.child] = idx + 1
                nxt[parent].extend(p + ((level, parent, b.child, idx),)
                                   for p in paths[b.child])
        paths = nxt
    return [p for v in sorted(paths) for p in paths[v]]


# ---------------------------------------------------------------------------
# lyapunov-deviation: symbolic, cocycle, ergodic (combinatorial route)


def lyapunov_deviation(rec, families, seed, size):
    from randtile import (MeasureSpec, Region, SymbolSequence, TLCObservable,
                          deviation_along_sequence, ergodic_vectors,
                          lyapunov_spectrum, make_zero_trace_observable,
                          matrix_only_family, rng_stream, sample_sequence,
                          special_averaging_sequence, substitution_matrix)

    z = SIZES[size]
    fam = families["half-hex-pair"]
    n = fam.n_prototiles
    mats = [substitution_matrix(rule, n) for rule in fam.rules]
    steps = z["steps"]
    grid = [i / (z["grid"] - 1) for i in range(z["grid"])]
    samples = {}
    for i, p in enumerate(grid):
        measure = MeasureSpec.bernoulli_p(p)
        with rec.op("symbolic.sample_sequence", "bernoulli") as op:
            x = sample_sequence(measure, steps, seed, worker_id=i)
        op.units(symbols=steps)
        samples[p] = x
        with rec.op("cocycle.lyapunov_spectrum") as op:
            rep = lyapunov_spectrum(fam, measure, steps, seed, x=x)
        op.units(steps=steps)
        lam, se = rep.raw_exponents[0], rep.raw_stderrs[0]
        op.check(abs(lam - (p * LOG4 + (1 - p) * LOG16)) <= SE_MULTIPLE * se,
                 f"lambda_1 at p={p}")
        if p in ENDPOINT_SPECTRA:
            op.check(all(abs(l - t) <= SE_MULTIPLE * s for l, s, t in zip(
                rep.raw_exponents, rep.raw_stderrs, ENDPOINT_SPECTRA[p])),
                f"endpoint spectrum at p={p}")

    markov = MeasureSpec.markov(MARKOV, MARKOV_INITIAL)
    with rec.op("symbolic.sample_sequence", "markov") as op:
        xm = sample_sequence(markov, steps, seed, worker_id=len(grid))
    op.units(symbols=steps)
    with rec.op("cocycle.lyapunov_spectrum") as op:
        rep = lyapunov_spectrum(fam, markov, steps, seed, x=xm)
    op.units(steps=steps)
    # the volume vector is a common left eigenvector (eigenvalue 4 or 16),
    # so lambda_1 is the mean log expansion over the sampled symbols
    ones = xm.positive.count(1)
    expected = (ones * LOG4 + (steps - ones) * LOG16) / steps
    op.check(abs(rep.raw_exponents[0] - expected)
             <= SE_MULTIPLE * rep.raw_stderrs[0], "markov lambda_1")

    x = samples[grid[len(grid) // 2]]
    with rec.op("ergodic.make_zero_trace_observable") as op:
        f0 = make_zero_trace_observable(fam, x, 40)
    weights = [float(w) for w in f0.weights]
    op.check(len(weights) == n and abs(math.hypot(*weights) - 1) < 1e-5,
             "unit-norm weights")
    exact = f0 if f0.is_exact() else TLCObservable(0, tuple(
        Fraction(w).limit_denominator(10 ** 6) for w in f0.weights))

    # matrix-only copy of the family, so the averaging sequence always takes
    # the combinatorial route whatever the first symbols of x are
    matrix_family = matrix_only_family(
        "half-hex-pair-matrices", mats, thetas=[r.theta for r in fam.rules])
    count = z["sas_count"]
    with rec.op("ergodic.special_averaging_sequence") as op:
        seq = special_averaging_sequence(matrix_family, x, Region.unit_square(),
                                         0.05, count, seed=seed)
    op.units(entries=len(seq.entries))
    op.check(len(seq.entries) == count, "entry count")
    op.check(all(x.positive[k:k + seq.window] == x.positive[:seq.window]
                 for k, _, _ in seq.entries), "entries are recurrence times")
    theta_inv = [Fraction(1)]
    for k in range(1, max(k for k, _, _ in seq.entries) + 1):
        theta_inv.append(theta_inv[-1] / fam.rule(x[k]).theta)
    op.check(all(t == theta_inv[k] for k, t, _ in seq.entries),
             "T_i = theta_(k_i)^-1")

    depth = z["vec_depth"]
    with rec.op("ergodic.ergodic_vectors") as op:
        vecs = ergodic_vectors(exact, fam, x, depth)
    op.units(levels=depth)
    gen = rng_stream(seed, worker_id=1001)
    levels = sorted(set(int(k) for k in gen.integers(0, depth, 20)))
    op.check(all((vecs[k + 1].values == mats[x[k + 1] - 1].astype(object)
                  @ vecs[k].values).all() for k in levels),
             "V^(k+1) = A_(k+1) V^k")

    short = replace(seq, entries=[e for e in seq.entries
                                  if e[0] <= min(DEVIATION_MAX_LEVEL, depth)])
    with rec.op("ergodic.deviation_along_sequence") as op:
        fit = deviation_along_sequence(exact, short, fam, x, vectors=vecs)
    op.units(entries=len(short.entries))
    want = []
    for k, _, _ in short.entries:
        total = sum(m * vecs[k].values[t] for t, m in seq.base_multiset.items())
        want.append(log_abs_exact(total) if total else None)
    op.check(len(fit.entries) == len(want) and all(
        (g is None and w is None) or (g is not None and w is not None
                                      and abs(g - w) <= 1e-9 * max(1, abs(w)))
        for (_, g), w in zip(fit.entries, want)), "log|integral| per entry")
    op.check(math.isfinite(fit.slope), "finite slope")

    classical = families["half-hex-classical"]
    xc = SymbolSequence.constant(1, 64)
    m = z["path_depth"]
    paths = all_paths(classical, xc, m)
    w = random_fractions(rng_stream(seed, worker_id=1002), len(paths))
    f_path = TLCObservable(m, tuple(zip(paths, w)))
    with rec.op("ergodic.ergodic_vectors", "path") as op:
        pv = ergodic_vectors(f_path, classical, xc, m + 1)
    op.units(paths=len(paths))
    vols = classical.volumes()
    op.check(sum(pv[m].values) == sum(wt * vols[p[0][2]]
                                      for p, wt in zip(paths, w)),
             "sum of V^m = path integral")
    a = substitution_matrix(classical.rule(1), classical.n_prototiles)
    op.check((pv[m + 1].values == a.astype(object) @ pv[m].values).all(),
             "V^(m+1) = A V^m")


# ---------------------------------------------------------------------------
# tiling-large: tiling, bratteli (and geometry through them)


def tiling_large(rec, families, seed, size):
    from randtile import (MeasureSpec, Region, SupertileSystem, SymbolSequence,
                          approximant, decompose_region,
                          decomposition_tile_multiset, generate_patch,
                          path_counts, sample_sequence, spanning_system)

    z = SIZES[size]
    t1, t2 = z["patch_t"], z["decompose_t"]
    half_hex = families["half-hex-classical"]
    xh = SymbolSequence.constant(1, 64)
    solenoid = families["solenoid-2x3-2d"]
    xs = sample_sequence(MeasureSpec.bernoulli_p(0.5), 64, seed)
    cases = (("half_hex", half_hex, xh), ("solenoid", solenoid, xs))
    systems = {tag: SupertileSystem(fam, x) for tag, fam, x in cases}

    def lattice_tiles(t):
        # unit cubes centred on Z^2 (the tile at the origin is the seed of
        # the hierarchy), entirely inside [0, t]^2
        return [(0, (Fraction(i), Fraction(j)))
                for i in range(1, t) for j in range(1, t)]

    for tag, fam, x in cases:
        system = systems[tag]
        window = Region.unit_square(t1)
        with rec.op("tiling.anchor") as op:
            anchor = system.anchor(window)
        op.units(anchors=1)
        with rec.op("tiling.generate_patch", tag) as op:
            patch = generate_patch(fam, x, window, system=system, anchor=anchor)
        op.units(tiles=len(patch))
        want = (EXPECTED["tiles"][f"half-hex-patch-T{t1}"] if tag == "half_hex"
                else tile_digest(lattice_tiles(t1)))
        op.check(tile_digest(patch.tiles) == want, "tile set digest")
        with rec.op("tiling.decompose_region") as op:
            rep = decompose_region(fam, x, Region.unit_square(), t1,
                                   system=system, anchor=anchor)
        op.units(supertiles=sum(map(sum, rep.counts.values()))
                 + rep.boundary_skipped)
        op.check(decomposition_tile_multiset(rep, fam, x) == patch.multiset(),
                 "decomposition and patch tile multisets")
        op.check(rep.volume_covered == patch.total_volume(), "covered volume")

    for tag, fam, x in cases:
        system = systems[tag]
        with rec.op("tiling.anchor") as op:
            anchor = system.anchor(Region.unit_square(t2))
        op.units(anchors=1)
        with rec.op("tiling.decompose_region") as op:
            rep = decompose_region(fam, x, Region.unit_square(), t2,
                                   system=system, anchor=anchor)
        op.units(supertiles=sum(map(sum, rep.counts.values()))
                 + rep.boundary_skipped)
        got = decomposition_tile_multiset(rep, fam, x)
        want = (EXPECTED["multisets"][f"half-hex-decompose-T{t2}"]
                if tag == "half_hex" else {"0": (t2 - 1) ** 2})
        op.check({str(k): v for k, v in got.items() if v} == want,
                 "tile multiset")

    disk = Region.disk((Fraction(1, 2), Fraction(1, 2)), 0.5, z["disk_t"])
    with rec.op("tiling.anchor") as op:
        anchor = systems["half_hex"].anchor(disk)
    op.units(anchors=1)
    with rec.op("tiling.generate_patch", "disk") as op:
        patch = generate_patch(half_hex, xh, disk, system=systems["half_hex"],
                               anchor=anchor)
    op.units(tiles=len(patch))
    from randtile.geometry import embed_point
    centre = tuple(c * float(disk.dilation)
                   for c in embed_point(disk.center, half_hex.embedding))
    radius = disk.radius * float(disk.dilation)
    op.check(all(math.dist(embed_point(v, half_hex.embedding), centre)
                 <= radius * (1 + 1e-12)
                 for s in patch.shapes() for v in s.vertices_list()),
             "tiles inside the disk")
    op.check(tile_digest(patch.tiles)
             == EXPECTED["tiles"][f"half-hex-disk-T{z['disk_t']}"],
             "tile set digest")

    depth = z["approx_depth"]
    with rec.op("bratteli.spanning_system") as op:
        path = spanning_system(half_hex, xh, depth).anchor(depth, 0)
    with rec.op("bratteli.approximant") as op:
        approx = approximant(half_hex, xh, path, system=systems["half_hex"])
    op.units(tiles=len(approx))
    op.check(len(approx) == path_counts(half_hex, xh, depth)[path.range],
             "tile count = path count")
    op.check(tile_digest(approx.tiles)
             == EXPECTED["tiles"][f"half-hex-approximant-{depth}"],
             "tile set digest")


# ---------------------------------------------------------------------------
# ids-windows: schrodinger, ergodic (geometric route), tiling through windows


def ids_windows(rec, families, seed, size):
    import numpy as np
    from randtile import (KernelSpec, PunctureSet, Region, SupertileSystem,
                          SymbolSequence, TLCObservable, build_operator,
                          decompose_region, deviation_along_sequence,
                          deviation_over_regions, eigenvalue_counts,
                          ergodic_vectors, generate_patch,
                          make_zero_trace_observable, rng_stream,
                          special_averaging_sequence, windowed_trace)
    from randtile import schrodinger

    z = SIZES[size]
    fam = families["half-hex-classical"]
    x = SymbolSequence.constant(1, 64)
    system = SupertileSystem(fam, x)
    unit = Region.unit_square()

    with rec.op("ergodic.make_zero_trace_observable") as op:
        f = make_zero_trace_observable(fam, x, 40)
    count = z["ids_sas_count"]
    with rec.op("ergodic.special_averaging_sequence") as op:
        seq = special_averaging_sequence(fam, x, unit, 0.05, count, seed=seed,
                                         system=system)
    op.units(entries=len(seq.entries))
    op.check(len(seq.entries) == count, "entry count")
    op.check(seq.hausdorff is not None and seq.hausdorff <= 0.05,
             "base patch within eps of B")
    grid = z["region_grid"]
    with rec.op("ergodic.deviation_over_regions") as op:
        fit = deviation_over_regions(f, fam, x, unit, grid, system=system)
    op.units(dilations=len(grid))
    op.check([t for t, _ in fit.entries] == [float(t) for t in grid]
             and math.isfinite(fit.slope), "one finite entry per dilation")
    with rec.op("ergodic.deviation_along_sequence") as op:
        fit = deviation_along_sequence(f, seq, fam, x)
    op.units(entries=len(seq.entries))
    op.check(math.isfinite(fit.slope), "finite slope")

    base = Region.box(*CLI_WINDOW)
    src = base.dilated(z["source_t"])
    with rec.op("tiling.anchor") as op:
        anchor = system.anchor(src)
    op.units(anchors=1)
    with rec.op("tiling.generate_patch", "half_hex") as op:
        patch = generate_patch(fam, x, src, system=system, anchor=anchor)
    op.units(tiles=len(patch))
    with rec.op("schrodinger.PunctureSet.from_patch") as op:
        punctures = PunctureSet.from_patch(patch, window=src)
    op.units(points=len(punctures))
    op.check(len(punctures) == len(patch), "one puncture per tile")

    laplacian = KernelSpec.laplacian(LAPLACIAN_RANGE)
    energies = np.linspace(-1.0, 9.0, 41) + ENERGY_SHIFT
    dense_limit = getattr(schrodinger, "_DENSE_LIMIT", 4000)
    diag = random_fractions(rng_stream(seed, worker_id=1003),
                            fam.n_prototiles, -30, 31, 9)
    with rec.op("schrodinger.build_operator", "typewise") as op:
        typewise = build_operator(KernelSpec.typewise(diag), punctures, src)
    op.units(points=typewise.size, nnz=typewise.matrix.nnz)
    vols = fam.volumes()
    observable = TLCObservable(0, tuple(diag[t] / vols[t]
                                        for t in range(fam.n_prototiles)))
    reports = {}
    for t in z["windows"]:
        window = base.dilated(t)
        with rec.op("schrodinger.build_operator", "laplacian") as op:
            lap = build_operator(laplacian, punctures, window)
        op.units(points=lap.size, nnz=lap.matrix.nnz)
        op.check(np.abs(np.asarray(lap.matrix.sum(axis=1))).max() == 0.0,
                 f"Laplacian row sums at T={t}")
        path = "sparse" if lap.size > dense_limit else "dense"
        with rec.op("schrodinger.eigenvalue_counts", path) as op:
            counts = eigenvalue_counts(lap.matrix, energies)
        op.units(energies=len(energies), points=lap.size)
        ids = counts / lap.size
        op.check(bool((np.diff(ids) >= 0).all() and ids.min() >= 0
                      and ids.max() <= 1), f"IDS monotone in [0,1] at T={t}")
        with rec.op("schrodinger.windowed_trace", "raw") as op:
            trace = windowed_trace(lap, window, mode="raw")
        off_diagonal = lap.matrix.sum() - lap.matrix.diagonal().sum()
        op.check(trace == -off_diagonal, f"Laplacian trace at T={t}")
        with rec.op("tiling.decompose_region") as op:
            reports[t] = decompose_region(fam, x, base, t, system=system,
                                          anchor=anchor)
        op.units(supertiles=sum(map(sum, reports[t].counts.values()))
                 + reports[t].boundary_skipped)
    top = max(max(r.counts) for r in reports.values())
    with rec.op("ergodic.ergodic_vectors") as op:
        vecs = ergodic_vectors(observable, fam, x, top)
    op.units(levels=top)
    for t, rep in reports.items():
        with rec.op("schrodinger.windowed_trace", "interior-supertile") as op:
            trace = windowed_trace(typewise, base.dilated(t),
                                   mode="interior-supertile")
        integral = sum(kappa * vecs[level].values[j]
                       for level, counts in rep.counts.items()
                       for j, kappa in enumerate(counts))
        op.check(trace == integral, f"trace = ergodic integral at T={t}")


# ---------------------------------------------------------------------------
# cli-cold: interpreter start-up, imports and each subcommand at defaults


def python_cmd(*args):
    return [sys.executable, *args]


def cli_cmd(*args):
    return python_cmd("-m", "randtile.cli", *args)


def timed_spawn(rec, name, argv, tag=None):
    """Run one child; its own CPU time and peak RSS (from wait4) become the
    op's units, so no other child of this process is counted with it."""
    with rec.op(name, tag) as op:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    op.units(cpu_s=usage.ru_utime + usage.ru_stime, maxrss_kb=usage.ru_maxrss)
    op.check(proc.returncode == 0,
             f"exit {proc.returncode}: {err.strip()[-200:]}")
    return op


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_dk_csv(op, path, rows_expected):
    import csv
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    op.check(len(rows) == rows_expected, "dk row count")
    for row in rows:
        gap = Fraction(row["gap_exact"])
        holds = gap <= Fraction(row["variation_exact"])
        ok = (gap == abs(Fraction(row["S_n_exact"])
                         - Fraction(row["target_exact"]))
              and row["bound_holds"] == str(int(holds)))
        if not ok:
            op.check(False, f"dk row {row['trial']}/{row['n']}")
            return


def cli_import_s():
    """Wall time of a cold `python -c "import randtile.cli"`: cli-cold's set-up."""
    start = time.monotonic()
    subprocess.run(python_cmd("-c", "import randtile.cli"), check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.monotonic() - start


def cli_measure_startup(rec):
    """Bare interpreter and cold `import randtile.cli`, outside the pass."""
    timed_spawn(rec, "cli.interp", python_cmd("-c", "pass"))
    start = time.monotonic()
    timed_spawn(rec, "cli.import", python_cmd("-c", "import randtile.cli"))
    return time.monotonic() - start


def cli_cold(rec, seed, workdir):
    """The timed pass: each subcommand at its defaults, then a config run."""
    digests = EXPECTED["cli"]
    runs = (
        ("dk", ("dk",), ("dk.csv",)),
        ("decompose", ("decompose",), ("decompose.csv",)),
        ("patch_svg", ("patch", "--svg"), ("patch.csv", "patch.svg")),
        ("schrod", ("schrod", "--t-grid", "4"),
         ("schrod_trace.csv", "schrod_ids.csv")),
    )
    for tag, args, files in runs:
        out = workdir / tag
        op = timed_spawn(rec, f"cli.{tag}", cli_cmd(*args, "--out", str(out)))
        for name in files:
            op.check(sha256_file(out / name) == digests[name], f"{name} digest")
    out = workdir / "config"
    config = workdir / "config.json"
    config.write_text(json.dumps({
        "seed": seed, "out_dir": str(out),
        "blocks": {"dk": {}, "decompose": {}, "patch": {"svg": True}}}))
    op = timed_spawn(rec, "cli.config", cli_cmd("--config", str(config)))
    manifest = json.loads((out / "manifest.json").read_text())
    outputs = manifest.get("outputs", {})
    op.check(sorted(outputs) == ["decompose.csv", "dk.csv", "patch.csv",
                                 "patch.svg"], "manifest lists every output")
    op.check(all(sha256_file(out / name) == h for name, h in outputs.items()),
             "manifest hashes match the files")
    for name in ("decompose.csv", "patch.csv", "patch.svg"):
        op.check(sha256_file(out / name) == digests[name], f"{name} digest")
    check_dk_csv(op, out / "dk.csv", 20 * 9)


# ---------------------------------------------------------------------------
# known-defect probes: each returns (ok, detail); run outside the timed pass


def _outcome(call):
    from randtile import RandtileError
    try:
        return call()
    except RandtileError as exc:          # a typed, documented refusal
        return True, f"typed {type(exc).__name__}: {exc}"
    except Exception as exc:              # the defect: untyped failure
        return False, f"untyped {type(exc).__name__}: {exc}"


def probe_deviation_overflow(families, workdir):
    """deviation_along_sequence converts T_i to float; on a 600-entry
    sequence of the θ=1/4 rule, T_i reaches 4^600 and float() overflows."""
    from randtile import (Region, SymbolSequence, TLCObservable,
                          deviation_along_sequence, ergodic_vectors,
                          matrix_only_family, special_averaging_sequence,
                          substitution_matrix)
    fam = families["half-hex-pair"]
    mats = [substitution_matrix(r, fam.n_prototiles) for r in fam.rules]
    matrix_family = matrix_only_family(
        "half-hex-pair-matrices", mats, thetas=[r.theta for r in fam.rules])
    x = SymbolSequence.constant(2, 700)
    f = TLCObservable(0, (1, -1, 0, 0, 0, 0))

    def call():
        seq = special_averaging_sequence(matrix_family, x,
                                         Region.unit_square(), 0.05, 600)
        vecs = ergodic_vectors(f, fam, x, max(k for k, _, _ in seq.entries))
        fit = deviation_along_sequence(f, seq, fam, x, vectors=vecs)
        return len(fit.entries) == 600, "fit over 600 entries"
    return _outcome(call)


def probe_deviate_1d(families, workdir):
    """The averaging-sequence search of `randtile deviate` on a d=1 family:
    geometry.point_segment_distance assumes d=2."""
    from randtile import (MeasureSpec, Region, make_zero_trace_observable,
                          sample_sequence, special_averaging_sequence,
                          deviation_along_sequence)
    fam = families["one-d-pair"]
    x = sample_sequence(MeasureSpec.bernoulli_p(0.5), 64, 0)

    def call():
        f = make_zero_trace_observable(fam, x, 40)
        seq = special_averaging_sequence(fam, x, Region.box((0,), (1,)),
                                         0.05, 12, seed=0)
        fit = deviation_along_sequence(f, seq, fam, x)
        return math.isfinite(fit.slope), "finite slope"
    return _outcome(call)


def probe_sparse_singular(families, workdir):
    """Sparse inertia counting above _DENSE_LIMIT on the default energy grid,
    which contains E=0, an exact eigenvalue of every Laplacian."""
    import numpy as np
    from randtile import (KernelSpec, PunctureSet, Region, SupertileSystem,
                          SymbolSequence, build_operator, eigenvalue_counts,
                          generate_patch)
    fam = families["half-hex-classical"]
    x = SymbolSequence.constant(1, 64)
    base = Region.box(*CLI_WINDOW)
    src = base.dilated(32)
    patch = generate_patch(fam, x, src, system=SupertileSystem(fam, x))
    punctures = PunctureSet.from_patch(patch, window=src)
    op = build_operator(KernelSpec.laplacian(LAPLACIAN_RANGE), punctures,
                        base.dilated(28))

    def call():
        counts = eigenvalue_counts(op.matrix, np.linspace(-1.0, 9.0, 41))
        ok = bool((np.diff(counts) >= 0).all() and counts.min() >= 0
                  and counts.max() <= op.size)
        return ok, f"{op.size} points, counts monotone and in range"
    return _outcome(call)


def probe_cli_deviate_1d(families, workdir):
    """`randtile deviate --family one-d-pair --p 0.5 --window box:0,1`:
    a typed error exits 2, 3 or 4; the defect is a traceback (exit 1)."""
    proc = subprocess.run(
        cli_cmd("deviate", "--family", "one-d-pair", "--p", "0.5",
                "--window", "box:0,1", "--out", str(workdir / "probe")),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120)
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    return proc.returncode in (0, 2, 3, 4), f"exit {proc.returncode}: {tail[0]}"


PROBES = {
    "lyapunov-deviation": (("deviation-overflow", probe_deviation_overflow),),
    "tiling-large": (("deviate-1d", probe_deviate_1d),),
    "ids-windows": (("sparse-singular", probe_sparse_singular),),
    "cli-cold": (("cli-deviate-1d", probe_cli_deviate_1d),),
}

PASSES = {
    "lyapunov-deviation": lyapunov_deviation,
    "tiling-large": tiling_large,
    "ids-windows": ids_windows,
}
