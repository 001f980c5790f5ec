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
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, geometry
from .errors import (ConfigError, ConvergenceError, DegenerateObservableError,
                     IncompletePatternError, InsufficientDataError,
                     MinimalityError, PartialCoverError, StructuralError,
                     UnsupportedOperationError)
from .cocycle import MIN_STEPS, lyapunov_spectrum
from .ergodic import (TLCObservable, deviation_along_sequence, deviation_cap,
                      deviation_over_regions, make_zero_trace_observable,
                      special_averaging_sequence)
from .schrodinger import (KernelSpec, PunctureSet, ids_estimate,
                          windowed_trace)
from .solenoid import (SolenoidSpec, dk_check, grid_cells,
                       random_observable)
from .substitution import builtin_family, load_family
from .symbolic import MeasureSpec, SymbolSequence, rng_stream, sample_sequence
from .tiling import (Region, SupertileSystem, decompose_region, generate_patch,
                     lattice_images)

_CAP_STEPS = 20000        # least cocycle steps behind `deviate`'s cap
# the most symbols one sequence flag may ask for (--length, spectrum --steps)
_SYMBOL_BUDGET = 10 ** 6
# the most work one `dk` run may ask for: trials × (n_max + 1) × d × cells
_DK_BUDGET = 2 ** 24
_ENERGY_BUDGET = 10 ** 4   # the most energies of one `schrod` (--e-count)
_GRID_BUDGET = 10 ** 3     # the most items of --p-grid and --t-grid
_PALETTE = ("#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
            "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd")


def fmt(value) -> str:
    """Canonical float formatting: 17 significant digits."""
    return format(float(value), ".17g")


def _write_manifest(out: Path, written, **fields) -> dict:
    """Write manifest.json: code version, `fields`, and a sha256 per output."""
    manifest = {"code_version": __version__, **fields, "outputs": {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(set(written))}}
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
        extra = set(data) - {"family", "seed", "out_dir", "blocks"}
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        return ExperimentConfig(**data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _resolve_family(ref: str):
    return load_family(ref) if ref.endswith(".json") else builtin_family(ref)


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


def _number(flag: str, kind):
    """The argparse `type=` reading a flag's value, or an item of it, as
    `kind` (int, float, Fraction or `parse_region`).  Readers bound every
    flag while argv is parsed, before any command runs; argparse passes a
    refusal's `ConfigError`, naming the flag, through to `main` (exit 2)."""
    def read(item: str):
        try:
            return kind(item)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{flag}: cannot read {item!r} as "
                              f"{kind.__name__}") from None
        except (ConfigError, StructuralError) as exc:   # a region's
            raise ConfigError(f"{flag}: {exc}") from None
    return read


def _count(flag: str, least: int, budget=None, unit=""):
    """Reader of an int flag: below `least`, or past `budget` (a power of
    ten) `unit`, is refused."""
    def read(text: str) -> int:
        value = _number(flag, int)(text)
        if value < least:
            raise ConfigError(f"{flag} {value} is below {least}")
        if budget is not None and value > budget:
            raise ConfigError(f"{flag} {value} is past the budget of "
                              f"10^{len(str(budget)) - 1} {unit}".rstrip())
        return value
    return read


def _items(flag: str, kind, budget=None, unit=""):
    """Reader of a comma-separated list flag; past `budget` items, refused."""
    def read(text: str) -> list:
        items = text.split(",")
        if budget is not None and len(items) > budget:
            raise ConfigError(f"{flag} has {len(items)} {unit}, past the "
                              f"budget of {budget}")
        return list(map(_number(flag, kind), items))
    return read


def _finite(flag: str):
    """Reader of a float flag that must be a finite number."""
    def read(text: str) -> float:
        value = _number(flag, float)(text)
        if not math.isfinite(value):
            raise ConfigError(f"{flag} {value!r} is not a finite number")
        return value
    return read


def _sequence(args) -> SymbolSequence:
    """Bernoulli(--p) sample of --length symbols, or all 1s without --p."""
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
    family = _resolve_family(args.family)
    rows = []
    for p in args.p_grid:
        rep = lyapunov_spectrum(family, MeasureSpec.bernoulli_p(p), args.steps,
                                args.seed, reorth_every=args.reorth_every)
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
    return generate_patch(family, _sequence(args),
                          args.window.dilated(args.dilation))


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
    system = SupertileSystem(family, x)
    rep = decompose_region(family, x, args.window, args.dilation,
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
    # the paper's cap from the spectrum along x: the Bernoulli draw is
    # prefix-stable, so x is the first --length symbols of this sequence
    rep = lyapunov_spectrum(family, MeasureSpec.bernoulli_p(
        1.0 if args.p is None else args.p), max(_CAP_STEPS, args.length),
        args.seed)
    if args.mode == "regions":
        fit = deviation_over_regions(f, family, x, args.window, args.t_grid)
    else:
        seq = special_averaging_sequence(family, x, args.window, args.eps,
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
    spec = SolenoidSpec.periodic(args.q, dim=args.d)
    # trials × (n_max + 1) × d × q_(depth)^d axis-cell sums, refused before
    # any draw; `grid_cells` refuses a grid past the tile budget first
    cells, power = grid_cells(spec, args.depth)
    if args.trials * (args.n_max + 1) * args.d * cells > _DK_BUDGET:
        raise ConfigError(
            f"{args.trials} trials × {args.n_max + 1} sums × d = {args.d} × "
            f"{power} cells is past the budget of 2^24; lower --trials, "
            f"--n-max, --depth or --d")
    gen_rows = []
    rng = rng_stream(args.seed, 99)
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
    family = _resolve_family(args.family)
    try:   # a kernel file holds exactly the KernelSpec fields
        kernel = (KernelSpec(**json.loads(Path(args.kernel).read_text()))
                  if args.kernel else KernelSpec.laplacian(1.8))
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"kernel file {args.kernel}: {exc}") from None
    dilations = args.t_grid
    windows = [args.window.dilated(t) for t in dilations]
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
    seed = _count("--seed", 0, 10 ** 18)   # a Philox key word is 64 bits
    ap.add_argument("--seed", type=seed, default=0)
    ap.add_argument("--out", default=".")
    sub = ap.add_subparsers(dest="command")
    t_grid = _items("--t-grid", Fraction, _GRID_BUDGET, "dilations")

    def add(name, helptext, window=None, dilation=None, bernoulli=False):
        """A subcommand with --family, --seed, --out and, given defaults,
        --window and --length, --dilation, and --p if `bernoulli`."""
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--family", default="half-hex-pair")
        # duplicated global flags: SUPPRESS keeps the pre-command value
        cmd.add_argument("--seed", type=seed, default=argparse.SUPPRESS)
        cmd.add_argument("--out", default=argparse.SUPPRESS)
        if window:
            cmd.add_argument("--window", default=window,
                             type=_number("--window", parse_region))
            cmd.add_argument("--length", default=64, type=_count(
                "--length", 1, _SYMBOL_BUDGET, "symbols"))
        if dilation:
            cmd.add_argument("--dilation", default=dilation,
                             type=_number("--dilation", Fraction))
        if bernoulli:
            cmd.add_argument("--p", type=float, default=None)
        return cmd

    cmd = add("spectrum", "Lyapunov spectrum sweep over Bernoulli p")
    cmd.add_argument("--p-grid", type=_items("--p-grid", float, _GRID_BUDGET,
                                             "points"),
                     default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    cmd.add_argument("--steps", default=20000, type=_count(
        "--steps", MIN_STEPS, _SYMBOL_BUDGET, "symbols"))
    cmd.add_argument("--reorth-every", type=_count("--reorth-every", 1),
                     default=5)

    add("patch", "generate a patch covering a window", "box:-1,-1,2,2", "4",
        bernoulli=True).add_argument("--svg", action="store_true")
    add("render", "generate a patch covering a window", "box:-1,-1,2,2", "4",
        bernoulli=True)
    add("decompose", "supertile decomposition of a dilated region", "square",
        "16", bernoulli=True)

    cmd = add("deviate", "deviation slopes of ergodic integrals", "square",
              bernoulli=True)
    cmd.add_argument("--observable", default="zero-trace")
    cmd.add_argument("--mode", choices=("regions", "sequence"),
                     default="sequence")
    cmd.add_argument("--t-grid", type=t_grid, default="4,8,16,32,64,128")
    cmd.add_argument("--entries", type=_count("--entries", 1), default=12)
    cmd.add_argument("--eps", type=float, default=0.05)
    cmd.add_argument("--direction-depth", type=_count("--direction-depth", 1),
                     default=40)

    cmd = add("dk", "Denjoy-Koksma checks on solenoids")
    cmd.add_argument("--q", type=_items("--q", int), default="2")
    cmd.add_argument("--d", type=_count("--d", 1), default=1)
    cmd.add_argument("--depth", type=_count("--depth", 0), default=2)
    cmd.add_argument("--trials", type=_count("--trials", 1), default=20)
    cmd.add_argument("--n-max", type=_count("--n-max", 0), default=8)

    cmd = add("schrod", "windowed operators: traces and IDS", "box:-1,-1,2,2")
    cmd.add_argument("--kernel", default=None)
    cmd.add_argument("--t-grid", type=t_grid, default="4,8")
    cmd.add_argument("--e-min", type=_finite("--e-min"), default=-1.0)
    cmd.add_argument("--e-max", type=_finite("--e-max"), default=9.0)
    cmd.add_argument("--e-count", default=41, type=_count(
        "--e-count", 1, _ENERGY_BUDGET, "energies"))
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
    """Execute every block in the config; returns the manifest dict.  Every
    block is parsed before any runs, so a bad block writes nothing."""
    if not config.blocks:
        raise ConfigError("config has no subcommand blocks")
    parser = _build_parser()
    blocks = []
    for name in sorted(config.blocks):
        if name not in _COMMANDS:
            raise ConfigError(f"unknown subcommand block {name!r}")
        argv = [name]
        params = dict(config.blocks[name])
        params.setdefault("family", config.family)
        params.setdefault("seed", config.seed)
        for key, value in sorted(params.items()):
            flag = f"--{key.replace('_', '-')}"
            if value is not False:   # true passes the bare flag
                argv += [flag] if value is True else [flag, str(value)]
        blocks.append(parser.parse_args(argv))
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for args in blocks:
        written += _COMMANDS[args.command](args, out)
    return _write_manifest(out, written, seed=config.seed,
                           family=config.family)


def main(argv=None) -> int:
    if argv is None:
        # Run as the program, whatever is imported by now (about 43,000
        # GC-tracked objects of numpy, scipy and randtile) lives until exit:
        # frozen, no full collection of the run or at shutdown walks it.
        # From the end of `main` to exit, a `dk` spawn took 68 → 12 ms and
        # `schrod --t-grid 4` 78 → 14 ms (medians of 7).  Callers with argv
        # keep their GC state.
        gc.freeze()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
