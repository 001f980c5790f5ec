"""Batch command-line front end: experiments in, CSV/SVG + manifest out.

Every run is reproducible: all randomness flows from the seed on the command
line or in the config file, floats are printed with 17 significant digits,
and the manifest records a sha256 per output file.

Run as the program (`randtile`, `python -m randtile.cli`), `main` freezes
the garbage collector's view of the import-time heap (`gc.freeze`): the
objects numpy, scipy and randtile leave tracked live until exit anyway, so
no collection during the run or at interpreter shutdown walks them.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, geometry
from .errors import (ConfigError, ConvergenceError, DegenerateObservableError,
                     IncompletePatternError, InsufficientDataError,
                     MinimalityError, PartialCoverError, StructuralError,
                     UnsupportedOperationError)
from .cocycle import lyapunov_spectrum
from .ergodic import (TLCObservable, deviation_along_sequence, deviation_cap,
                      deviation_over_regions, make_zero_trace_observable,
                      special_averaging_sequence)
from .schrodinger import (KernelSpec, PunctureSet, ids_estimate,
                          windowed_trace)
from .solenoid import (SolenoidSpec, dk_check, grid_cells,
                       random_observable)
from .substitution import builtin_family, load_family
from .symbolic import MeasureSpec, SymbolSequence, sample_sequence
from .tiling import (Region, SupertileSystem, decompose_region, generate_patch,
                     lattice_images)

_CAP_STEPS = 20000        # least cocycle steps behind `deviate`'s cap
# the most symbols one sequence flag may ask for (--length, spectrum --steps)
_SYMBOL_BUDGET = 10 ** 6
# the most work one `dk` run may ask for: trials × (n_max + 1) × d × cells
_DK_BUDGET = 2 ** 24
_ENERGY_BUDGET = 10 ** 4   # the most energies of one `schrod` (--e-count)
_PALETTE = ("#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
            "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd")


def fmt(value) -> str:
    """Canonical float formatting: 17 significant digits."""
    return format(float(value), ".17g")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(out: Path, written, **fields) -> dict:
    """Write manifest.json: code version, `fields`, and a sha256 per output."""
    manifest = {"code_version": __version__, **fields,
                "outputs": {p.name: _sha256(p) for p in sorted(set(written))}}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a batch run bit-identically."""

    family: str = "half-hex-pair"
    seed: int = 0
    out_dir: str = "."
    blocks: dict = field(default_factory=dict)   # subcommand -> params dict

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {"family", "seed", "out_dir", "blocks"}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        return ExperimentConfig(**data)

    def to_json(self) -> str:
        return json.dumps(
            {"family": self.family, "seed": self.seed, "out_dir": self.out_dir,
             "blocks": self.blocks},
            indent=2, sort_keys=True)


def _resolve_family(ref: str):
    if ref.endswith(".json"):
        return load_family(ref)
    return builtin_family(ref)


def parse_region(text: str) -> Region:
    """Region syntax: box:x0,y0,w,h | disk:cx,cy,r | square (unit square)."""
    if text == "square":
        return Region.unit_square()
    kind, _, rest = text.partition(":")
    try:
        nums = [Fraction(part) for part in rest.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad region numbers in {text!r}")
    if kind == "box" and len(nums) == 4:
        return Region.box((nums[0], nums[1]), (nums[2], nums[3]))
    if kind == "box" and len(nums) == 2:
        return Region.box((nums[0],), (nums[1],))
    if kind == "disk" and len(nums) == 3:
        return Region.disk((nums[0], nums[1]), nums[2])
    raise ConfigError(f"bad region spec {text!r}")


def _number(flag: str, item: str, kind):
    """`kind(item)` (int, float or Fraction) for a flag's value; an item
    that does not parse is a `ConfigError` naming the flag and the item."""
    try:
        return kind(item)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{flag}: cannot read {item!r} as "
                          f"{kind.__name__}") from None


def _numbers(flag: str, text: str, kind) -> list:
    """The comma-separated items of a flag's value, each by `_number`."""
    return [_number(flag, item, kind) for item in text.split(",")]


def _check_symbols(flag: str, count: int):
    """A `ConfigError` naming `flag` when its `count` symbols are past the
    symbol budget; called before anything is sampled."""
    if count > _SYMBOL_BUDGET:
        raise ConfigError(f"{flag} {count} is past the budget of 10^6 symbols")


def _sequence(args) -> SymbolSequence:
    """Bernoulli(--p) sample of --length symbols, or all 1s without --p."""
    _check_symbols("--length", args.length)
    if args.p is None:
        return SymbolSequence.constant(1, args.length)
    return sample_sequence(MeasureSpec.bernoulli_p(args.p), args.length,
                           args.seed)


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def render_svg(patch) -> str:
    """Deterministic SVG: one polygon per tile, colored by prototile type."""
    fam = patch.family
    if len(patch) == 0:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="1" height="1">'
                "<!-- empty patch -->"
                "</svg>\n")
    verts = [p.shape.vertices_list() for p in fam.prototiles]
    scale, corners = patch.placed(verts)
    sizes = [len(v) if fam.dim == 2 else 4 for v in verts]
    if fam.dim == 2:   # `placed` pads short vertex lists: slice them off
        xy = lattice_images(corners, scale, fam.embedding)
    else:   # x-extents a quarter tile high; corners 0, 1 are lo, hi (Gray)
        xy = np.dstack([lattice_images(corners[:, [0, 1, 1, 0], 0], scale),
                        np.tile([0.0, 0.0, 0.25, 0.25], (len(patch), 1))])
    # the padding repeats real vertices, and `round` is monotone, so these
    # are the extremes of the rounded vertices; `.6f` prints x as round(x, 6)
    lo = [round(c, 6) for c in xy.min(axis=(0, 1)).tolist()]
    hi = [round(c, 6) for c in xy.max(axis=(0, 1)).tolist()]
    polys = []
    for t, node in zip(patch.types.tolist(), xy.tolist()):
        coords = " ".join(f"{a:.6f},{b:.6f}" for a, b in node[:sizes[t]])
        polys.append(f'<polygon points="{coords}" '
                     f'fill="{_PALETTE[t % len(_PALETTE)]}"/>')
    pad = 0.05 * max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
    view = (lo[0] - pad, lo[1] - pad,
            (hi[0] - lo[0]) + 2 * pad, (hi[1] - lo[1]) + 2 * pad)
    out = ['<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="{view[0]:.6f} {view[1]:.6f} '
           f'{view[2]:.6f} {view[3]:.6f}">',
           f'<g transform="scale(1,-1) translate(0,{-(view[1]*2+view[3]):.6f})"'
           ' stroke="#222222" stroke-width="0.02">', *polys]
    out.append("</g></svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args, out: Path):
    _check_symbols("--steps", args.steps)
    family = _resolve_family(args.family)
    grid = _numbers("--p-grid", args.p_grid, float)
    rows = []
    for p in grid:
        measure = MeasureSpec.bernoulli_p(p)
        rep = lyapunov_spectrum(family, measure, args.steps, args.seed,
                                reorth_every=args.reorth_every)
        idx = 0
        for lam, mult, se in zip(rep.exponents, rep.multiplicities,
                                 rep.stderrs):
            for _ in range(mult):
                rows.append((fmt(p), idx, fmt(lam) if math.isfinite(lam)
                             else "-inf", fmt(se), mult))
                idx += 1
    path = out / "spectrum.csv"
    _write_csv(path, ["p", "exponent_index", "estimate_nats_per_level",
                      "stderr_nats_per_level", "multiplicity"], rows)
    return [path]


def _deterministic_patch(args, family):
    window = parse_region(args.window).dilated(
        _number("--dilation", args.dilation, Fraction))
    return generate_patch(family, _sequence(args), window)


def cmd_patch(args, out: Path):
    family = _resolve_family(args.family)
    patch = _deterministic_patch(args, family)
    images = lattice_images(patch.offsets, patch.scale, family.embedding)
    rows = [(t, *map(fmt, p))
            for t, p in zip(patch.types.tolist(), images.tolist())]
    path = out / "patch.csv"
    _write_csv(path, ["prototile_type"] +
               [f"offset_{ax}_tile_lengths" for ax in "xyz"[:family.dim]],
               rows)
    written = [path]
    if args.svg:
        svg_path = out / "patch.svg"
        svg_path.write_text(render_svg(patch))
        written.append(svg_path)
    return written


def cmd_render(args, out: Path):
    family = _resolve_family(args.family)
    patch = _deterministic_patch(args, family)
    path = out / "render.svg"
    path.write_text(render_svg(patch))
    return [path]


def cmd_decompose(args, out: Path):
    family = _resolve_family(args.family)
    x = _sequence(args)
    region = parse_region(args.window)
    system = SupertileSystem(family, x)
    rep = decompose_region(family, x, region,
                           _number("--dilation", args.dilation, Fraction),
                           system=system)
    rows = [(level, j, kappa, fmt(system.volume(level, j)))
            for level in sorted(rep.counts)
            for j, kappa in enumerate(rep.counts[level]) if kappa]
    path = out / "decompose.csv"
    _write_csv(path, ["level", "prototile_type", "count",
                      "supertile_volume_tile_lengths"], rows)
    return [path]


def cmd_deviate(args, out: Path):
    family = _resolve_family(args.family)
    x = _sequence(args)
    if args.observable == "volume":
        f = TLCObservable.constant(1, family.n_prototiles)
    elif args.observable == "zero-trace":
        f = make_zero_trace_observable(family, x, args.direction_depth)
    else:   # a weights file: one rational weight per prototile
        try:
            with open(args.observable, newline="") as fh:
                weights = [Fraction(row[0]) for row in csv.reader(fh)
                           if row and not row[0].startswith("#")]
        except (OSError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(
                f"observable file {args.observable}: {exc}") from None
        if len(weights) != family.n_prototiles:
            raise ConfigError(
                f"observable file {args.observable}: {len(weights)} weights "
                f"for the {family.n_prototiles} prototiles of {family.name}")
        f = TLCObservable(0, tuple(weights))
    region = parse_region(args.window)
    grid = (_numbers("--t-grid", args.t_grid, Fraction)
            if args.mode == "regions" else None)
    # the paper's cap from the spectrum along x: the Bernoulli draw is
    # prefix-stable, so x is the first --length symbols of this sequence
    rep = lyapunov_spectrum(family, MeasureSpec.bernoulli_p(
        1.0 if args.p is None else args.p), max(_CAP_STEPS, args.length),
        args.seed)
    if args.mode == "regions":
        fit = deviation_over_regions(f, family, x, region, grid)
    else:
        seq = special_averaging_sequence(family, x, region, args.eps,
                                         args.entries, seed=args.seed)
        fit = deviation_along_sequence(f, seq, family, x)
    rows = []
    run_best = -math.inf
    for t, li in fit.entries:
        if li is not None:
            run_best = max(run_best, li)
        slope = (run_best / math.log(t)
                 if li is not None and t not in (0, 1) else "")
        rows.append((fmt(t), fmt(li) if li is not None else "-inf",
                     fmt(slope) if slope != "" else ""))
    path = out / "deviate.csv"
    _write_csv(path, ["T_tile_lengths", "log_abs_integral_nats",
                      "running_slope"], rows)
    cap, cap_se = deviation_cap(rep, family.dim)
    summary = out / "deviate_summary.json"
    summary.write_text(json.dumps(
        {"slope": fmt(fit.slope), "running_max_slope":
         fmt(fit.running_max_slope), "cap": fmt(cap),
         "cap_stderr": None if cap_se is None else fmt(cap_se),
         "slope_minus_cap": fmt(fit.slope - cap),
         "lambda": [fmt(v) for v in rep.raw_exponents]},
        indent=2, sort_keys=True))
    return [path, summary]


def cmd_dk(args, out: Path):
    for flag, value, least in (("--trials", args.trials, 1),
                               ("--n-max", args.n_max, 0),
                               ("--depth", args.depth, 0)):
        if value < least:
            raise ConfigError(f"{flag} {value} is below {least}")
    qs = _numbers("--q", args.q, int)
    spec = SolenoidSpec.periodic(qs, dim=args.d)
    # trials × (n_max + 1) × d × q_(depth)^d axis-cell sums, refused before
    # any draw; `grid_cells` refuses a grid past the tile budget first
    cells, power = grid_cells(spec, args.depth)
    if args.trials * (args.n_max + 1) * args.d * cells > _DK_BUDGET:
        raise ConfigError(
            f"{args.trials} trials × {args.n_max + 1} sums × d = {args.d} × "
            f"{power} cells is past the budget of 2^24; lower --trials, "
            f"--n-max, --depth or --d")
    gen_rows = []
    rng = np.random.Generator(np.random.Philox(key=(args.seed, 99)))
    violations = 0
    for trial in range(args.trials):
        f = random_observable(spec, args.depth, args.seed, worker_id=trial)
        y = tuple(Fraction(int(rng.integers(0, 64)), 64)
                  for _ in range(args.d))
        path_digits = [tuple(int(rng.integers(0, spec.q_at(k + 1)))
                             for _ in range(args.d))
                       for k in range(args.depth)]
        rep = dk_check(spec, f, y, path_digits, range(args.n_max + 1))
        for e in rep.entries:
            ok = e.gap <= rep.var
            violations += 0 if ok else 1
            gen_rows.append((trial, e.n, str(e.integral), str(e.target),
                             str(e.gap), str(rep.var), int(ok)))
    path = out / "dk.csv"
    _write_csv(path, ["trial", "n", "S_n_exact", "target_exact", "gap_exact",
                      "variation_exact", "bound_holds"], gen_rows)
    if violations:
        raise ConvergenceError(f"{violations} Denjoy-Koksma violations")
    return [path]


def cmd_schrod(args, out: Path):
    if args.e_count < 1:
        raise ConfigError(f"--e-count {args.e_count} is not a positive count "
                          "of energies")
    if args.e_count > _ENERGY_BUDGET:
        raise ConfigError(f"--e-count {args.e_count} is past the budget of "
                          "10^4 energies")
    for flag, value in (("--e-min", args.e_min), ("--e-max", args.e_max)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} {value!r} is not a finite number")
    _check_symbols("--length", args.length)
    family = _resolve_family(args.family)
    try:   # a kernel file holds exactly the KernelSpec fields
        kernel = (KernelSpec(**json.loads(Path(args.kernel).read_text()))
                  if args.kernel else KernelSpec.laplacian(1.8))
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"kernel file {args.kernel}: {exc}") from None
    dilations = _numbers("--t-grid", args.t_grid, Fraction)
    windows = [parse_region(args.window).dilated(t) for t in dilations]
    # the source box: the windows' bounding box, max(2, 4·range) wider per side
    margin = 2 * Fraction(max(1.0, 2 * kernel.range)).limit_denominator(16)
    lows, highs = zip(*(w.bbox(family.embedding) for w in windows))
    lo = [min(c) - margin for c in zip(*lows)]
    hi = [max(c) + margin for c in zip(*highs)]
    src = Region.box(lo, geometry.vsub(hi, lo))
    patch = generate_patch(family, SymbolSequence.constant(1, args.length), src)
    punctures = PunctureSet.from_patch(patch, window=src)
    energies = np.linspace(args.e_min, args.e_max, args.e_count)
    ids = ids_estimate(kernel, punctures, windows, energies)
    trace_rows = [(fmt(t), op.size, fmt(windowed_trace(op, window, mode="raw")))
                  for t, window, op in zip(dilations, windows, ids.operators)]
    tpath = out / "schrod_trace.csv"
    _write_csv(tpath, ["T_tile_lengths", "points", "trace"], trace_rows)
    ids_rows = [(fmt(t), fmt(e), fmt(v)) for t, curve in zip(dilations, ids.curves)
                for e, v in zip(energies, curve)]
    ipath = out / "schrod_ids.csv"
    _write_csv(ipath, ["T_tile_lengths", "energy", "ids"], ids_rows)
    return [tpath, ipath]


# ---------------------------------------------------------------------------
# dispatcher


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="randtile",
        description="Random substitution tilings: spectra, patches, "
                    "deviations, Denjoy-Koksma, windowed operators.")
    ap.add_argument("--config", help="JSON experiment config")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=".")
    sub = ap.add_subparsers(dest="command")

    def add(name, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--family", default="half-hex-pair")
        # duplicated global flags: SUPPRESS keeps the pre-command value
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        p.add_argument("--out", default=argparse.SUPPRESS)
        return p

    p = add("spectrum", "Lyapunov spectrum sweep over Bernoulli p")
    p.add_argument("--p-grid", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--reorth-every", type=int, default=5)

    for name in ("patch", "render"):
        p = add(name, "generate a patch covering a window")
        p.add_argument("--window", default="box:-1,-1,2,2")
        p.add_argument("--dilation", default="4")
        p.add_argument("--length", type=int, default=64)
        p.add_argument("--p", type=float, default=None)
        if name == "patch":
            p.add_argument("--svg", action="store_true")

    p = add("decompose", "supertile decomposition of a dilated region")
    p.add_argument("--window", default="square")
    p.add_argument("--dilation", default="16")
    p.add_argument("--length", type=int, default=64)
    p.add_argument("--p", type=float, default=None)

    p = add("deviate", "deviation slopes of ergodic integrals")
    p.add_argument("--window", default="square")
    p.add_argument("--observable", default="zero-trace")
    p.add_argument("--mode", choices=("regions", "sequence"),
                   default="sequence")
    p.add_argument("--t-grid", default="4,8,16,32,64,128")
    p.add_argument("--entries", type=int, default=12)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--length", type=int, default=64)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--direction-depth", type=int, default=40)

    p = add("dk", "Denjoy-Koksma checks on solenoids")
    p.add_argument("--q", default="2")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--n-max", type=int, default=8)

    p = add("schrod", "windowed operators: traces and IDS")
    p.add_argument("--kernel", default=None)
    p.add_argument("--window", default="box:-1,-1,2,2")
    p.add_argument("--t-grid", default="4,8")
    p.add_argument("--length", type=int, default=64)
    p.add_argument("--e-min", type=float, default=-1.0)
    p.add_argument("--e-max", type=float, default=9.0)
    p.add_argument("--e-count", type=int, default=41)
    return ap


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "patch": cmd_patch,
    "render": cmd_render,
    "decompose": cmd_decompose,
    "deviate": cmd_deviate,
    "dk": cmd_dk,
    "schrod": cmd_schrod,
}


def run(config: ExperimentConfig):
    """Execute every block in the config; returns the manifest dict."""
    if not config.blocks:
        raise ConfigError("config has no subcommand blocks")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    parser = _build_parser()
    written = []
    for name in sorted(config.blocks):
        if name not in _COMMANDS:
            raise ConfigError(f"unknown subcommand block {name!r}")
        argv = [name]
        params = dict(config.blocks[name])
        params.setdefault("family", config.family)
        params.setdefault("seed", config.seed)
        for key, value in sorted(params.items()):
            flag = f"--{key.replace('_', '-')}"
            if isinstance(value, bool):
                if value:
                    argv.append(flag)
            else:
                argv += [flag, str(value)]
        written += _COMMANDS[name](parser.parse_args(argv), out)
    return _write_manifest(out, written, seed=config.seed,
                           family=config.family)


def main(argv=None) -> int:
    if argv is None:
        # Run as the program, whatever is imported by now (about 43,000
        # GC-tracked objects from numpy, scipy and randtile) lives until
        # exit.  Frozen, it is skipped by every full collection of the run
        # and by the interpreter's collections at shutdown.  From the end
        # of `main` to the exit of the process, a `randtile dk` spawn took
        # 68 ms and `schrod --t-grid 4` 78 ms unfrozen, 12 and 14 ms frozen
        # (medians of 7 spawns each).  Callers that pass argv keep their
        # GC state.
        gc.freeze()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            config = ExperimentConfig.from_file(args.config)
            if args.out != ".":
                config.out_dir = args.out
            run(config)
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_manifest(out, _COMMANDS[args.command](args, out),
                        seed=args.seed)
        return 0
    except (ConfigError, StructuralError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, InsufficientDataError,
            DegenerateObservableError, PartialCoverError,
            MinimalityError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedOperationError, IncompletePatternError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
