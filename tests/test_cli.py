import csv
import gc
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from randtile.bratteli import approximant, spanning_system
from randtile import cli, ergodic, tiling
from randtile.cocycle import lyapunov_spectrum
from randtile.cli import (ExperimentConfig, _build_parser, _resolve_family,
                          fmt, main, parse_region, render_svg)
from randtile.errors import ConfigError, StructuralError
from randtile.schrodinger import KernelSpec
from randtile.substitution import (builtin_family, family_to_json, one_d_pair,
                                   save_family)
from randtile.symbolic import SymbolSequence
from randtile.tiling import Patch, Region, generate_patch


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_fmt_round_trips():
    for x in (0.1, math.pi, 1e-17, 123456.789, -2.5):
        assert float(fmt(x)) == x
    assert fmt(2) == "2"


def test_parse_region():
    assert parse_region("square").shape().volume() == 1
    box = parse_region("box:-1,-2,3,4")
    assert box.shape().volume() == 12
    seg = parse_region("box:-1,2")
    assert seg.shape().volume() == 2
    disk = parse_region("disk:0,0,1.5")
    assert disk.radius == 1.5
    for bad in ("box:1,2,3", "disk:1,2", "wedge:1", "box:a,b,c,d"):
        with pytest.raises(ConfigError):
            parse_region(bad)
    for bad, named in (("disk:0,0,-1", "radius -1.0"),
                       ("disk:0,0,0", "radius 0.0")):
        with pytest.raises(StructuralError, match=named):
            parse_region(bad)


@pytest.mark.parametrize("argv, named", [
    (["patch", "--window", "disk:0,0,-1"], "disk radius -1.0 is not"),
    (["patch", "--window", "disk:0,0,0"], "disk radius 0.0 is not"),
    (["patch", "--window", "disk:0,0,1", "--dilation", "-4"],
     "dilation -4 is not positive"),
    (["decompose", "--dilation", "0"], "dilation 0 is not positive"),
    (["schrod", "--t-grid", "4,-8"], "dilation -8 is not positive"),
    (["patch", "--window", "disk:0,0,1e400"], "disk radius (about 2^1329)"),
    (["patch", "--window", "box:1e400,0,1,1"],
     "dilated box corner coordinate (about 2^1329)"),
    (["patch", "--window", "disk:1e400,0,1"],
     "dilated disk center coordinate (about 2^1329)"),
    (["patch", "--window", "disk:0,0,1e300", "--dilation", "1e10"],
     "dilated disk radius inf"),
    (["patch", "--dilation", "1e400"], "dilation (about 2^1329)"),
    (["decompose", "--dilation", "1e400"], "dilation (about 2^1329)"),
    (["schrod", "--t-grid", "1e400"], "dilation (about 2^1329)"),
])
def test_bad_window_exits_2(tmp_path, capsys, argv, named):
    """A non-positive disk radius or dilation, or a window value whose float
    image is not finite, exits 2 naming the value.  A disk with a negative
    radius used to meet nodes as if it were positive, and each run wrote a
    header-only CSV with exit 0; a value past the float range ended in an
    untyped OverflowError."""
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


def test_render_svg_level2_approximant(hh):
    x = SymbolSequence.constant(1, 2)
    path = spanning_system(hh, x, 2).anchor(2, 0)
    patch = approximant(hh, x, path)
    svg = render_svg(patch)
    assert svg.count("<polygon") == 16
    assert render_svg(patch) == svg          # byte determinism


def test_render_svg_empty(hh):
    svg = render_svg(Patch([], np.zeros((0, 2), dtype=np.int64), 1, hh))
    assert "empty patch" in svg
    assert svg.startswith("<svg")


def test_render_svg_one_d(odp):
    patch = Patch([0, 1], [[0], [1]], 1, odp)
    svg = render_svg(patch)
    assert svg.count("<polygon") == 2


def test_render_svg_three_d(sol3):
    """A 3-D patch is drawn like a 1-D one: the x-extent of each tile from
    its corners 0 and 1, a quarter tile high.  The digest pins the bytes."""
    patch = generate_patch(sol3, SymbolSequence.constant(1, 30),
                           Region.box((-1, -1, -1), (2, 2, 2), 2))
    assert len(patch) == 27
    assert hashlib.sha256(render_svg(patch).encode()).hexdigest() == (
        "05b0ba1a46f3a265cb58db385320a5cb496dedcbdd84197b44d2eb2098e18293")


@pytest.mark.parametrize("cmd", [
    "patch --family one-d-pair --window box:-1,2 --svg",
    "patch --family solenoid-2x3-2d --p 0.5 --svg",
])
def test_line_and_box_patch_match_golden_digests(tmp_path, cmd):
    """Patch rows and SVG on the line (d = 1, drawn as x-extents) and on
    random box tiles without an embedding; tests/golden_cli.json pins the
    bytes."""
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    assert main([*cmd.split(), "--out", str(tmp_path)]) == 0
    for name, digest in golden[cmd].items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_no_command_usage_error(capsys):
    assert main([]) == 2


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2


def test_bad_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"familly": "x"}))
    assert main(["--config", str(cfg)]) == 2


def test_decompose_past_the_node_budget_exits_3(tmp_path, capsys,
                                                monkeypatch):
    """The decomposition descent refuses a frontier past the tile budget
    (here 10^3 nodes) with exit 3, before it is built."""
    monkeypatch.setattr(tiling, "DEFAULT_TILE_BUDGET", 10 ** 3)
    assert main(["decompose", "--window", "square", "--dilation", "256",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "box:0,0,1,1 dilated by 256 needs more than 10^3 nodes" in err
    assert not (tmp_path / "decompose.csv").exists()


def test_decompose_command(tmp_path):
    rc = main(["decompose", "--family", "half-hex-classical",
               "--window", "square", "--dilation", "16",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "decompose.csv")
    assert rows[0] == ["level", "prototile_type", "count",
                       "supertile_volume_tile_lengths"]
    assert len(rows) > 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_default_outputs_match_golden_digests(tmp_path):
    """`decompose`, `patch --svg`, `render`, `dk` and `schrod --t-grid 4`
    at their defaults write the bytes whose SHA-256 digests
    bench/expected.json records; `render` writes the `patch.svg` bytes."""
    golden = json.loads((Path(__file__).parents[1] / "bench" /
                         "expected.json").read_text())["cli"]
    assert main(["decompose", "--out", str(tmp_path / "decompose")]) == 0
    assert main(["patch", "--svg", "--out", str(tmp_path / "patch")]) == 0
    assert main(["render", "--out", str(tmp_path / "render")]) == 0
    assert main(["dk", "--out", str(tmp_path / "dk")]) == 0
    assert main(["schrod", "--t-grid", "4",
                 "--out", str(tmp_path / "schrod")]) == 0
    for path, name in [(p, Path(p).name) for p in (
            "decompose/decompose.csv", "patch/patch.csv", "patch/patch.svg",
            "dk/dk.csv", "schrod/schrod_trace.csv", "schrod/schrod_ids.csv")
    ] + [("render/render.svg", "patch.svg")]:
        data = (tmp_path / path).read_bytes()
        assert hashlib.sha256(data).hexdigest() == golden[name], path


def test_geometric_deviate_matches_golden_digest(tmp_path):
    """`deviate --family half-hex-classical` picks T_* through the boundary
    distance loop of `special_averaging_sequence`; tests/golden_cli.json pins
    its CSV bytes, and the summary's Lyapunov floats from the QR loop (the
    same bytes under 1 and 2 BLAS threads)."""
    cmd = "deviate --family half-hex-classical"
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    assert main([*cmd.split(), "--out", str(tmp_path)]) == 0
    for name, digest in golden[cmd].items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.mark.parametrize("cmd", [
    "spectrum",
    "spectrum --family one-d-pair --reorth-every 1 --steps 5000",
])
def test_spectrum_matches_golden_digest(tmp_path, cmd):
    """The QR loop of `lyapunov_spectrum` over the default p-grid, in words
    of 5 symbols, and one factor per QR on a family with a dead (-inf)
    direction; tests/golden_cli.json pins the CSV bytes."""
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    assert main([*cmd.split(), "--out", str(tmp_path)]) == 0
    for name, digest in golden[cmd].items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.mark.parametrize("cmd", [
    "deviate --mode regions",
    "deviate --family half-hex-pair --p 0.5 --length 2000 --entries 40",
])
def test_exact_chain_deviate_matches_golden_digest(tmp_path, cmd):
    """Both integrals come from the exact ergodic vectors: over supertile
    decompositions of T·B, and along a 40-entry averaging sequence whose
    vectors run 229 levels deep.  tests/golden_cli.json pins the CSV bytes."""
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    assert main([*cmd.split(), "--out", str(tmp_path)]) == 0
    for name, digest in golden[cmd].items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_sparse_schrod_matches_golden_digest(tmp_path):
    """At T=28 the window has 4,144 points, above `_DENSE_LIMIT`, so no
    refused energy could fall back to `eigvalsh`; the energies avoid the
    lattice of Laplacian eigenvalues, so every count is an inertia count.
    tests/golden_cli.json pins the bytes."""
    cmd = "schrod --t-grid 28 --e-min -0.875 --e-max 9.125 --e-count 41"
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    assert main([*cmd.split(), "--out", str(tmp_path)]) == 0
    assert _read_csv(tmp_path / "schrod_trace.csv")[1][1] == "4144"
    for name, digest in golden[cmd].items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_kernel_file_schrod_matches_golden_digest(tmp_path, monkeypatch):
    """`schrod --kernel` with a typewise kernel file writes the bytes whose
    digests tests/golden_cli.json records."""
    cmd = "schrod --kernel kernel.json --t-grid 4"
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    monkeypatch.chdir(tmp_path)
    Path("kernel.json").write_text(json.dumps(
        {"range": 1.8, "diagonal": [1, 2, 3, 4, 5, 6], "offdiagonal": -1}))
    assert main([*cmd.split(), "--out", "out"]) == 0
    for name, digest in golden[cmd].items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.mark.parametrize("cmd", [
    "schrod --family solenoid-2x3-2d --t-grid 4,8",
    "schrod --family solenoid-2-1d --window box:-1,2 --t-grid 4,8",
])
def test_box_and_line_schrod_match_golden_digests(tmp_path, cmd):
    """Laplacians on box tiles without an embedding (d = 2) and on the line
    (d = 1); tests/golden_cli.json pins the CSV bytes."""
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    assert main([*cmd.split(), "--out", str(tmp_path)]) == 0
    for name, digest in golden[cmd].items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.mark.parametrize("cmd", [
    "dk --q 2,3 --d 2 --depth 3 --n-max 6",
    "dk --q 2 --d 3 --depth 2 --n-max 5",
])
def test_multidimensional_dk_matches_golden_digest(tmp_path, cmd):
    """Denjoy-Koksma sums on a mixed-radix plane (36^2 cells, q_(n) below,
    equal to and past q_(m)) and in three dimensions (4^3 cells);
    tests/golden_cli.json pins the CSV bytes."""
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    assert main([*cmd.split(), "--out", str(tmp_path)]) == 0
    for name, digest in golden[cmd].items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def _src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(__file__).parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_cli_import_loads_no_scipy_spatial():
    """Neighbour pairs come from a numpy cell search, so a cold CLI start
    does not import scipy.spatial."""
    code = ("import randtile.cli, sys; "
            "print([m for m in sys.modules if m.startswith('scipy.spatial')])")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         check=True, capture_output=True, text=True,
                         timeout=120)
    assert out.stdout.strip() == "[]"


def test_main_freezes_the_heap_only_as_the_program(tmp_path, monkeypatch):
    """`main(argv)` leaves the caller's GC state alone; `main()`, as the
    program, freezes the import-time heap once, before it parses."""
    frozen = gc.get_freeze_count()
    argv = ["dk", "--trials", "1", "--out", str(tmp_path / "argv")]
    assert main(argv) == 0
    assert gc.get_freeze_count() == frozen
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(sys.argv[1:]))
    assert main(argv) == 0
    assert calls == []
    argv[-1] = str(tmp_path / "program")
    monkeypatch.setattr(sys, "argv", ["randtile", *argv])
    assert main() == 0
    assert calls == [argv]
    assert ((tmp_path / "program" / "dk.csv").read_bytes()
            == (tmp_path / "argv" / "dk.csv").read_bytes())


@pytest.mark.parametrize("cmd", ["dk", "schrod --t-grid 4"])
def test_spawned_program_writes_the_in_process_bytes(tmp_path, cmd):
    """`python -m randtile.cli`, which freezes its heap, writes the bytes of
    an in-process `main(argv)`, and the digests bench/expected.json pins."""
    golden = json.loads((Path(__file__).parents[1] / "bench" /
                         "expected.json").read_text())["cli"]
    spawn, call = tmp_path / "spawn", tmp_path / "call"
    subprocess.run([sys.executable, "-m", "randtile.cli", *cmd.split(),
                    "--out", str(spawn)], env=_src_env(), check=True,
                   capture_output=True, timeout=300)
    assert main([*cmd.split(), "--out", str(call)]) == 0
    names = sorted(p.name for p in spawn.iterdir())
    assert names == sorted(p.name for p in call.iterdir())
    assert "manifest.json" in names and len(names) > 1
    for name in names:
        data = (spawn / name).read_bytes()
        assert data == (call / name).read_bytes(), name
        if name != "manifest.json":
            assert hashlib.sha256(data).hexdigest() == golden[name], name


@pytest.mark.parametrize("spec, named", [
    ({"range": 1.8, "diag": "degree", "offdiagonal": -1}, "'diag'"),
    ({"range": 1.8, "diagonal": "degre", "offdiagonal": -1}, "'degre'"),
    ({"range": 1.8, "diagonal": ["one"] * 6}, "'one'"),
    ({"range": 1.8, "diagonal": [1, 2, 3]}, "(1, 2, 3) needs 6 values"),
    ({"range": 1.8, "offdiagonal": [[[1, 0]]]}, "entry [[1, 0]] is not"),
    ({"range": 1.8, "offdiagonal": [[[1, "a"], -1]]}, "entry [[1, 'a'], -1]"),
    ({"range": 1.8, "offdiagonal": [[1, -1]]}, "entry [1, -1] is not"),
    ({"range": 1.8, "offdiagonal": [[[math.inf, 0], -1]]}, "[[inf, 0], -1]"),
])
def test_kernel_file_rejects_unknown_keys_and_values(tmp_path, capsys, spec,
                                                     named):
    """An unknown key, diagonal value or off-diagonal entry exits 2 naming
    it; it used to run the identity kernel (or fail with an IndexError, or
    an untyped TypeError for an off-diagonal entry)."""
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(spec))
    assert main(["schrod", "--kernel", str(path), "--t-grid", "4",
                 "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--e-count", "-1"], "--e-count -1 is below 1"),
    (["--e-count", "0"], "--e-count 0 is below 1"),
    (["--e-min", "nan"], "--e-min nan is not a finite number"),
    (["--e-max", "inf"], "--e-max inf is not a finite number"),
    (["--e-count", "10001"], "--e-count 10001 is past the budget of 10^4 "
     "energies"),
    (["--e-count", "100000000"], "--e-count 100000000 is past the budget"),
])
def test_schrod_rejects_a_bad_energy_grid(tmp_path, capsys, monkeypatch,
                                          flags, named):
    """A bad energy grid exits 2 naming the flag and writes nothing, before
    any patch or energy grid is built.  It used to end in an untyped
    ValueError (a negative count), an empty schrod_ids.csv (0 energies),
    rows with a NaN energy, or, for --e-count 100000000, a 0.8 GB energy
    grid and hours of counting."""
    for name in ("generate_patch", "ids_estimate"):
        monkeypatch.setattr(cli, name, None)
    monkeypatch.setattr(cli.np, "linspace", None)
    out = tmp_path / "out"
    assert main(["schrod", *flags, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "schrod_ids.csv").exists()


def test_energy_budget_admits_its_edge(tmp_path, monkeypatch):
    """10^4 energies, the budget exactly, reach the counting (stubbed here:
    the budget check alone is under test), and every golden and the
    default ask for fewer."""
    counted = []
    monkeypatch.setattr(cli, "ids_estimate",
                        lambda k, p, w, energies: counted.append(
                            len(energies)) or 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["schrod", "--e-count", "10000", "--t-grid", "4",
              "--out", str(tmp_path)])
    assert counted == [cli._ENERGY_BUDGET]
    parser = _build_parser()
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    asked = [parser.parse_args(shlex.split(cmd)).e_count
             for cmd in [*golden, "schrod"] if cmd.startswith("schrod")]
    assert asked and max(asked) < cli._ENERGY_BUDGET


def test_kernel_file_offdiagonal_per_displacement(tmp_path, monkeypatch):
    """A kernel file spells a per-displacement off-diagonal as
    [[displacement, value], ...]; the run gets the KernelSpec built in
    Python with exact displacements.  It used to die with an untyped
    TypeError (a JSON list is not a hashable displacement)."""
    entries = [[[0, 1], -1], [[0, -1], -1], [[1.5, 0.5], 2], [[-1.5, -0.5], 2]]
    want = KernelSpec(range=1.8, diagonal="degree", offdiagonal=tuple(
        ((Fraction(x), Fraction(y)), v) for (x, y), v in entries))
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"range": 1.8, "diagonal": "degree",
                                "offdiagonal": entries}))
    seen, ids_estimate = [], cli.ids_estimate

    def spy(kernel, *args):
        seen.append(kernel)
        seen.append(ids_estimate(kernel, *args))
        return seen[-1]
    monkeypatch.setattr(cli, "ids_estimate", spy)
    assert main(["schrod", "--kernel", str(path), "--t-grid", "4",
                 "--out", str(tmp_path / "out")]) == 0
    [kernel, report] = seen
    assert kernel == want
    [op] = report.operators
    hopping = op.matrix - sp.diags(op.matrix.diagonal())
    assert sorted(set(hopping.data.tolist())) == [-1.0, 2.0]


def test_kernel_file_without_diagonal_keeps_range_and_offdiagonal(tmp_path):
    """No `diagonal` key means the identity diagonal, with the file's range
    and off-diagonal kept: the trace is the point count, and the -1 hopping
    puts eigenvalues below 1, where the identity kernel has none."""
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"range": 1.5, "offdiagonal": -1}))
    assert main(["schrod", "--kernel", str(path), "--t-grid", "4",
                 "--out", str(tmp_path)]) == 0
    [_, (t, points, trace)] = _read_csv(tmp_path / "schrod_trace.csv")
    assert (t, trace) == ("4", points)
    ids = {float(e): float(v) for _, e, v in
           _read_csv(tmp_path / "schrod_ids.csv")[1:]}
    assert ids[0.75] > 0 and ids[9.0] == 1


@pytest.mark.parametrize("window", ["square", "disk:1,1,1", "box:1,1,1,1"])
def test_schrod_runs_on_windows_off_the_origin(tmp_path, window):
    """The source patch pads the windows' bounding box on every side; it
    used to pad the dilation, so only the far side of an off-centre window
    had room for the kernel range."""
    assert main(["schrod", "--window", window, "--t-grid", "1,4",
                 "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "schrod_trace.csv")[1:]
    assert [r[0] for r in rows] == ["1", "4"]
    assert 0 < int(rows[0][1]) < int(rows[1][1])


def test_patch_svg_determinism(tmp_path):
    args = ["patch", "--family", "half-hex-classical", "--svg",
            "--window", "box:-1,-1,2,2", "--dilation", "2"]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a_dir)]) == 0
    assert main(args + ["--out", str(b_dir)]) == 0
    assert (a_dir / "patch.svg").read_bytes() == (b_dir / "patch.svg").read_bytes()
    assert (a_dir / "patch.csv").read_bytes() == (b_dir / "patch.csv").read_bytes()
    ma = json.loads((a_dir / "manifest.json").read_text())
    mb = json.loads((b_dir / "manifest.json").read_text())
    assert ma["outputs"] == mb["outputs"]


def test_spectrum_command_shape(tmp_path):
    rc = main(["spectrum", "--family", "half-hex-pair", "--steps", "2000",
               "--p-grid", "0,1", "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "spectrum.csv")
    assert rows[0][0] == "p"
    assert len(rows) == 1 + 2 * 6            # 6 exponents per p value
    assert {r[0] for r in rows[1:]} == {"0", "1"}


def test_dk_command(tmp_path):
    rc = main(["dk", "--q", "2,3", "--d", "1", "--depth", "2",
               "--trials", "5", "--n-max", "5", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "dk.csv")
    assert len(rows) == 1 + 5 * 6
    assert all(r[-1] == "1" for r in rows[1:])   # every bound holds


@pytest.mark.parametrize("flag, value, named", [
    ("--trials", "0", "--trials 0 is below 1"),
    ("--n-max", "-1", "--n-max -1 is below 0"),
    ("--depth", "-1", "--depth -1 is below 0"),
    ("--depth", "40", "a depth-40 observable has 1099511627776 cells, past "
     "the budget of 10000000"),
    ("--d", "100000000", "a depth-2 observable has 4^100000000 cells, "
     "past the budget of 10000000"),
    ("--d", "2000", "a depth-2 observable has 4^2000 cells"),
    ("--depth", "20000", "a depth-20000 observable has (about 2^20001) "
     "cells"),
    ("--depth", "10000000", "a depth-10000000 observable has (about "
     "2^10000001) cells"),
    ("--q 2,3 --depth", "100000000", "a depth-100000000 observable has "
     "(about 2^129248126) cells"),
])
def test_dk_rejects_bad_counts(tmp_path, capsys, flag, value, named):
    """The first three used to exit 0: a header-only dk.csv for --trials 0
    and --n-max -1, and 180 meaningless rows for --depth -1.  Depth 40 on
    q = 2 (2^40 cells) exited 1 failing to allocate 8 TiB; it is refused
    before any allocation.  --d 100000000 exited 1 formatting the count as a
    decimal past Python's 4,300-digit limit, and --d 2000 printed a count of
    over 3,000 digits: the count is now written as q_(m)^d.  --depth 20000
    exited 1 the same way: past 64 bits, q_(m) is written as a power of 2.
    --depth 10000000 ran for over 90 s building q_(m) before comparing
    it: the budget is now decided on log2 q_(m), so both deep cases are
    refused at once."""
    start = time.perf_counter()
    assert main(["dk", *flag.split(), value, "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "dk.csv").exists()


@pytest.mark.parametrize("argv, named", [
    (["--d", "1", "--depth", "23"],
     "20 trials × 9 sums × d = 1 × 2^23 cells is past the budget of 2^24"),
    (["--n-max", "100000000"], "20 trials × 100000001 sums × d = 1 × 2^2"),
    (["--trials", "100000000", "--depth", "0"],
     "100000000 trials × 9 sums × d = 1 × 1 cells"),
    (["--d", "100000000", "--depth", "0"], "× d = 100000000 × 1 cells"),
    (["--q", "2,3", "--d", "2", "--depth", "5", "--n-max", "1000"],
     "20 trials × 1001 sums × d = 2 × 2^6·3^4 cells"),
    (["--depth", "16", "--n-max", "15", "--trials", "17"],
     "17 trials × 16 sums × d = 1 × 2^16 cells"),
], ids=["depth-23", "n-max", "trials", "d", "mixed-q", "edge-plus-one"])
def test_dk_refuses_work_past_its_budget(tmp_path, capsys, monkeypatch,
                                         argv, named):
    """trials × (n_max + 1) × d × q_(depth)^d past 2^24 is refused before
    any observable is drawn; `--d 1 --depth 23` ran for minutes before."""
    monkeypatch.setattr(cli, "random_observable", None)
    assert main(["dk", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "--trials, --n-max, --depth or --d" in err
    assert not (tmp_path / "dk.csv").exists()


def test_dk_budget_admits_its_edge(tmp_path, monkeypatch):
    """16 trials × 16 sums × 2^16 cells is 2^24 exactly, so it runs (the
    draws are stubbed: the budget check alone is under test)."""
    drawn = []
    monkeypatch.setattr(cli, "random_observable",
                        lambda *a, **kw: drawn.append(a) or 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["dk", "--depth", "16", "--n-max", "15", "--trials", "16",
              "--out", str(tmp_path)])
    assert len(drawn) == 1


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "--steps", "100000000"], "--steps 100000000"),
    (["patch", "--length", "100000000"], "--length 100000000"),
    (["render", "--length", "1000001"], "--length 1000001"),
    (["decompose", "--length", "100000000"], "--length 100000000"),
    (["deviate", "--length", "100000000"], "--length 100000000"),
    (["deviate", "--mode", "regions", "--length", "100000000"],
     "--length 100000000"),
    (["schrod", "--length", "100000000"], "--length 100000000"),
], ids=["spectrum", "patch", "render", "decompose", "deviate",
        "deviate-regions", "schrod"])
def test_sequence_lengths_past_the_budget_exit_2(tmp_path, capsys,
                                                 monkeypatch, argv, named):
    """Every sequence flag is checked against 10^6 symbols before anything
    is sampled; --length 100000000 ran past 4 s on every subcommand."""
    for name in ("sample_sequence", "lyapunov_spectrum", "SymbolSequence"):
        monkeypatch.setattr(cli, name, None)
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert f"{named} is past the budget of 10^6 symbols" in \
        capsys.readouterr().err


def test_symbol_budget_sits_above_every_default_and_golden():
    """The defaults, the goldens, deviate's cap steps and the benchmark's
    20,000-step chains all ask for fewer symbols than the budget."""
    parser = _build_parser()
    asked = [cli._CAP_STEPS, 20_000]
    for name in ("spectrum", "patch", "render", "decompose", "deviate",
                 "schrod"):
        args = parser.parse_args([name])
        asked.append(args.steps if name == "spectrum" else args.length)
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
    for cmd in golden:
        args = parser.parse_args(shlex.split(cmd))
        asked += [getattr(args, flag) for flag in ("steps", "length")
                  if hasattr(args, flag)]
    assert max(asked) <= cli._SYMBOL_BUDGET


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "--steps", "10"], "--steps 10 is below 1000"),
    (["spectrum", "--reorth-every", "0"], "--reorth-every 0 is below 1"),
    (["deviate", "--entries", "0"], "--entries 0 is below 1"),
    (["deviate", "--direction-depth", "0"], "--direction-depth 0 is below 1"),
    (["dk", "--d", "0"], "--d 0 is below 1"),
    (["patch", "--length", "0"], "--length 0 is below 1"),
], ids=["steps", "reorth-every", "entries", "direction-depth", "d", "length"])
def test_a_count_below_its_least_names_the_flag(tmp_path, capsys, argv,
                                                named):
    """Each is refused as argv is parsed, naming the flag.  The first five
    exited 2 naming the library's parameter ("steps must be >= 1000",
    "reorth_every", "count", "depth", "dimension"); `patch --length 0`
    exited 3, the sequence too short to cover the window."""
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {named}\n"
    assert not (tmp_path / "out").exists()


def test_least_steps_is_the_cocycle_floor():
    """The reader's least --steps is the library's own floor."""
    from randtile import cocycle
    with pytest.raises(ConfigError, match="--steps 999 is below 1000"):
        _build_parser().parse_args(["spectrum", "--steps", "999"])
    with pytest.raises(StructuralError, match="steps must be >= 1000"):
        lyapunov_spectrum(one_d_pair(), None, cocycle.MIN_STEPS - 1, 0)
    assert _build_parser().parse_args(
        ["spectrum", "--steps", str(cocycle.MIN_STEPS)]).steps == 1000


def _grid(count, item="4"):
    return ",".join([item] * count)


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "--p-grid", _grid(2001, "0.5")],
     "--p-grid has 2001 points, past the budget of 1000"),
    (["spectrum", "--p-grid", _grid(1001, "0.5")],
     "--p-grid has 1001 points, past the budget of 1000"),
    (["deviate", "--mode", "regions", "--t-grid", _grid(1001)],
     "--t-grid has 1001 dilations, past the budget of 1000"),
    (["deviate", "--t-grid", _grid(1001)],
     "--t-grid has 1001 dilations, past the budget of 1000"),
    (["deviate", "--t-grid", "4,x"], "--t-grid: cannot read 'x' as Fraction"),
    (["schrod", "--t-grid", _grid(1001)],
     "--t-grid has 1001 dilations, past the budget of 1000"),
], ids=["p-grid-2001", "p-grid", "deviate-regions", "deviate-sequence",
        "deviate-sequence-malformed", "schrod"])
def test_list_flags_past_their_budget_exit_2(tmp_path, capsys, monkeypatch,
                                             argv, named):
    """A list flag past 10^3 items is refused before anything is sampled
    (the samplers are stubbed out, so reaching one would fail).  `deviate
    --mode sequence` reads its --t-grid too, though it does not use it."""
    for name in ("sample_sequence", "lyapunov_spectrum", "SymbolSequence",
                 "generate_patch"):
        monkeypatch.setattr(cli, name, None)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {named}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--p-grid", _grid(1000, "0.5")], "p_grid"),
    (["deviate", "--mode", "regions", "--t-grid", _grid(1000)], "t_grid"),
    (["schrod", "--t-grid", _grid(1000)], "t_grid"),
])
def test_grid_budget_admits_its_edge(tmp_path, monkeypatch, argv, flag):
    """10^3 items, the budget exactly, reach the command (stubbed here)."""
    reached = []
    monkeypatch.setitem(cli._COMMANDS, argv[0],
                        lambda args, out: reached.append(args) or [])
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(getattr(reached[0], flag)) == cli._GRID_BUDGET


@pytest.mark.parametrize("seed, named", [
    (2 ** 64, "--seed 18446744073709551616 is past the budget of 10^18"),
    (-1, "--seed -1 is below 0"),
])
def test_a_seed_out_of_range_exits_2(tmp_path, capsys, seed, named):
    """A seed past 10^18 is refused as argv is parsed, before or after any
    subcommand and in a config, where 2^64 ended in numpy's untyped
    OverflowError from the Philox key (exit 1); a negative seed ran."""
    out = tmp_path / "out"
    for command in cli._COMMANDS:
        for argv in ([f"--seed={seed}", command], [command, f"--seed={seed}"]):
            assert main([*argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"config error: {named}\n"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": seed, "blocks": {"dk": {}}}))
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {named}\n"
    assert not out.exists()


def test_grid_budget_sits_above_every_default_golden_and_documented_run():
    """--p-grid and --t-grid at their defaults, in the goldens and in the
    README and PAPER.md command blocks all hold fewer items than 10^3."""
    root = Path(__file__).resolve().parents[1]
    cmds = list(json.loads((root / "tests" / "golden_cli.json").read_text()))
    cmds += ["spectrum", "deviate", "schrod", "schrod --t-grid 4"]
    for doc in ("README.md", "PAPER.md"):
        block = (root / doc).read_text().split("## Command line", 1)[1]
        cmds += [line.split("#", 1)[0][len("randtile "):]
                 for line in block.split("```sh", 1)[1].split("```", 1)[0]
                 .splitlines() if line.startswith("randtile ")]
    parser = _build_parser()
    sizes = [len(getattr(args, flag)) for args in
             (parser.parse_args(shlex.split(cmd)) for cmd in cmds)
             for flag in ("p_grid", "t_grid") if hasattr(args, flag)]
    assert len(sizes) > 10 and max(sizes) < cli._GRID_BUDGET


@pytest.mark.parametrize("command", [["deviate"],
                                     ["deviate", "--mode", "regions"],
                                     ["patch"], ["decompose"], ["schrod"]])
def test_window_of_another_dimension_exits_2(tmp_path, capsys, command):
    """`deviate` used to exit 1 with an IndexError in geometry: its
    averaging search anchored the window past the dimension check."""
    assert main([*command, "--window", "box:1,1", "--out", str(tmp_path)]) == 2
    assert ("1-D window for the 2-D family half-hex-pair"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, named", [
    (["schrod", "--t-grid", "4,x"], "--t-grid: cannot read 'x' as Fraction"),
    (["deviate", "--mode", "regions", "--t-grid", "4,y"],
     "--t-grid: cannot read 'y' as Fraction"),
    (["spectrum", "--p-grid", "0.5,x"], "--p-grid: cannot read 'x' as float"),
    (["dk", "--q", "2,x"], "--q: cannot read 'x' as int"),
    (["patch", "--dilation", "x"], "--dilation: cannot read 'x' as Fraction"),
    (["decompose", "--dilation", "1/0"],
     "--dilation: cannot read '1/0' as Fraction"),
], ids=["schrod", "deviate", "spectrum", "dk", "patch", "decompose"])
def test_bad_list_flag_exits_2(tmp_path, capsys, argv, named):
    """Each used to exit 1 with a ValueError or ZeroDivisionError
    traceback."""
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "--p-grid", "nan", "--steps", "1000"],
     "probabilities must be finite"),
    (["deviate", "--p", "nan"], "probabilities must be finite"),
    (["patch", "--p", "nan"], "probabilities must be finite"),
    (["deviate", "--eps", "0"], "eps 0.0 is not a positive finite number"),
    (["deviate", "--eps", "nan"], "eps nan is not a positive finite number"),
    (["deviate", "--eps", "-0.05"],
     "eps -0.05 is not a positive finite number"),
], ids=["spectrum-p-nan", "deviate-p-nan", "patch-p-nan", "eps-0", "eps-nan",
        "eps-negative"])
def test_non_finite_measure_or_eps_exits_2(tmp_path, capsys, monkeypatch,
                                           argv, named):
    """A NaN --p ended in numpy's 'Probabilities contain NaN' traceback
    (exit 1).  A bad --eps searched anchors for seconds and exited 3 with
    'tile budget exhausted'; now no supertile system is ever built."""
    def no_search(*args, **kwargs):
        raise AssertionError("an anchor search started")
    monkeypatch.setattr(ergodic, "SupertileSystem", no_search)
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_deviate_insufficient_is_numeric_error(tmp_path, capsys):
    rc = main(["deviate", "--family", "half-hex-classical",
               "--mode", "sequence", "--entries", "500", "--length", "16",
               "--direction-depth", "12", "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "--family", "half-hex-classical"],
     "symbol 2 has no rule in family 'half-hex-classical'"),
    (["deviate", "--family", "half-hex-classical", "--p", "0.5"],
     "symbol 2 has no rule in family 'half-hex-classical'"),
    (["deviate", "--length", "30"],
     r"depth 40 is longer than the sequence \(30 symbols\)"),
], ids=["spectrum-one-rule", "deviate-one-rule", "deviate-depth"])
def test_cocycle_sequence_errors_are_config_errors(tmp_path, capsys, argv,
                                                   named):
    """Each used to exit 1 with an IndexError traceback."""
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert re.search(named, capsys.readouterr().err)


def test_deviate_one_d_command(tmp_path):
    rc = main(["deviate", "--family", "one-d-pair", "--p", "0.5",
               "--window", "box:0,1", "--entries", "5", "--out", str(tmp_path)])
    assert rc == 0
    assert len(_read_csv(tmp_path / "deviate.csv")) == 1 + 5


def test_deviate_observable_file_matches_volume(tmp_path):
    """A weights file of six 1s, with a comment and a blank line skipped, is
    the volume observable of half-hex-classical: the same bytes."""
    weights = tmp_path / "weights.csv"
    weights.write_text("# one weight per prototile\n1\n1\n\n1\n1\n1\n1\n")
    for name, observable in (("file", str(weights)), ("volume", "volume")):
        assert main(["deviate", "--family", "half-hex-classical",
                     "--observable", observable,
                     "--out", str(tmp_path / name)]) == 0
    for name in ("deviate.csv", "deviate_summary.json"):
        assert ((tmp_path / "file" / name).read_bytes()
                == (tmp_path / "volume" / name).read_bytes())


@pytest.mark.parametrize("weights, named", [
    (None, "No such file"),
    ("1\n1\n1/2\nhalf\n1\n1\n", "Invalid literal for Fraction: 'half'"),
    ("1\n1\n", "2 weights for the 6 prototiles of half-hex-classical"),
], ids=["missing", "not-rational", "too-few"])
def test_deviate_observable_file_errors_exit_2(tmp_path, capsys, weights,
                                               named):
    """A weights file that is missing, holds a weight that is not rational
    or holds a weight count other than the family's prototile count exits
    2 naming the file and the fault.  Each used to end in a traceback: a
    FileNotFoundError, a ValueError and an IndexError."""
    path = tmp_path / "weights.csv"
    if weights is not None:
        path.write_text(weights)
    assert main(["deviate", "--family", "half-hex-classical",
                 "--observable", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"observable file {path}" in err and named in err


def test_deviate_summary_reports_cap(tmp_path):
    """The summary adds the paper's cap from the spectrum along the run's
    own sequence; one-d-pair has a kernel direction, so the cap is d - 1."""
    rc = main(["deviate", "--family", "one-d-pair", "--p", "0.5",
               "--window", "box:0,1", "--entries", "5", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "deviate_summary.json").read_text())
    assert summary["cap"] == "0" and summary["cap_stderr"] is None
    assert summary["lambda"][1] == "-inf"
    assert float(summary["lambda"][0]) > 0
    assert summary["slope_minus_cap"] == summary["slope"]


def test_deviate_cap_spectrum_covers_long_sequences(tmp_path, monkeypatch):
    """With --length beyond 20,000 the spectrum behind the cap still runs
    along all of x, not a prefix of it."""
    steps = []

    def spy(family, measure, n, seed, **kw):
        steps.append(n)
        return lyapunov_spectrum(family, measure, n, seed, **kw)

    monkeypatch.setattr(cli, "lyapunov_spectrum", spy)
    rc = main(["deviate", "--family", "one-d-pair", "--p", "0.5",
               "--window", "box:0,1", "--entries", "5", "--length", "20500",
               "--out", str(tmp_path)])
    assert rc == 0 and steps == [20500]


def test_matrix_only_geometry_is_unsupported(tmp_path, capsys):
    # p=0 drives the matrix-only rule, which has no geometry to render
    rc = main(["patch", "--family", "half-hex-pair", "--p", "0",
               "--out", str(tmp_path)])
    assert rc == 4


def test_deviate_regions_command(tmp_path):
    rc = main(["deviate", "--family", "half-hex-classical",
               "--mode", "regions", "--observable", "volume",
               "--t-grid", "4,8,16,32,64", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "deviate_summary.json").read_text())
    assert float(summary["slope"]) == pytest.approx(2.0, abs=0.1)
    # one rule: lambda = (log 4, log 2, 0, ...), cap 2·log 2/log 4 = d - 1
    assert float(summary["cap"]) == pytest.approx(1.0, abs=1e-3)
    assert float(summary["slope_minus_cap"]) == pytest.approx(
        float(summary["slope"]) - float(summary["cap"]), abs=1e-15)
    assert len(summary["lambda"]) == 6
    rows = _read_csv(tmp_path / "deviate.csv")
    assert rows[0] == ["T_tile_lengths", "log_abs_integral_nats",
                       "running_slope"]
    assert len(rows) == 6


def test_config_run_reproducible(tmp_path):
    cfg = {
        "family": "half-hex-classical",
        "seed": 11,
        "blocks": {
            "decompose": {"window": "square", "dilation": "8"},
            "dk": {"q": "2", "d": 1, "depth": 1, "trials": 3, "n_max": 3},
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", str(path), "--out", str(out1)]) == 0
    assert main(["--config", str(path), "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    assert m1["code_version"] == "0.1.0"
    assert set(m1["outputs"]) == {"decompose.csv", "dk.csv"}


@pytest.mark.parametrize("svg", [True, False])
def test_config_boolean_flag(tmp_path, svg):
    """A true config value passes the bare flag; false leaves it out."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"blocks": {"patch": {"svg": svg}}}))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "patch.svg").exists() == svg
    assert (tmp_path / "out" / "patch.csv").exists()


def test_config_rejects_threads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"threads": 4, "blocks": {"dk": {}}}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_documented_commands_parse(doc):
    """Every `randtile ...` line of the command block parses, and names a
    family that resolves."""
    text = (Path(__file__).resolve().parents[1] / doc).read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [line.split("#", 1)[0] for line in block.split("```", 1)[0]
             .splitlines() if line.startswith("randtile ")]
    assert len(lines) == 8
    for line in lines:
        args = _build_parser().parse_args(shlex.split(line)[1:])
        if args.command is not None:
            assert _resolve_family(args.family).name == args.family


def test_config_requires_blocks(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "half-hex-classical"}))
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("config, named", [
    ([{"blocks": {"dk": {}}}], "config must be a JSON object"),
    ({"blocks": {"dk": {}, "tile": {}}}, "unknown subcommand block 'tile'"),
])
def test_bad_config_exits_2(tmp_path, capsys, config, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


def test_config_refuses_a_bad_block_before_writing(tmp_path, capsys):
    """Every block is parsed before any runs: a bad `schrod` block used to
    exit 2 only after dk.csv and decompose.csv were written, with no
    manifest."""
    path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    path.write_text(json.dumps({"out_dir": str(out), "blocks": {
        "dk": {}, "decompose": {}, "schrod": {"e_count": 0}}}))
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: --e-count 0 is below 1\n"
    assert not out.exists()


def _family_file(tmp_path, case):
    """A family file that `load_family` refuses, and the words that name
    its fault."""
    path = tmp_path / f"{case}.json"
    if case == "missing":
        return path, "No such file"
    if case == "not-json":
        path.write_text("{not json")
        return path, "is not JSON"
    if case == "no-prototiles":
        data = family_to_json(one_d_pair())
        del data["prototiles"]
        path.write_text(json.dumps(data))
        return path, "missing key 'prototiles'"
    if case == "off-volume":
        # one of parent 0's 16 branches in the matrix-only rule 2 dropped
        data = family_to_json(builtin_family("half-hex-pair"))
        del data["rules"][1]["branches"][0]
        path.write_text(json.dumps(data))
        return path, ("rule 2 breaks the volume identity: parent 0 has "
                      "A·vol = 45/4, not θ^-d·vol = 12")
    # rule 1's first branch moved from -1/3 to 1/6: parent 0's images
    # overlap by 1/6, and their volumes still add up
    data = family_to_json(one_d_pair())
    data["rules"][0]["branches"][0]["tau"] = ["1/6"]
    path.write_text(json.dumps(data))
    return path, "rule 1 does not tile its parents: images overlap by 1/6"


@pytest.mark.parametrize("case", ["missing", "not-json", "no-prototiles",
                                  "invalid-rule", "off-volume"])
def test_bad_family_file_exits_2(tmp_path, capsys, case):
    path, named = _family_file(tmp_path, case)
    assert main(["patch", "--family", str(path), "--window", "box:0,1",
                 "--dilation", "9", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"family file {path}" in err and named in err
    assert not (tmp_path / "out" / "patch.csv").exists()


def test_saved_builtin_family_file_writes_the_builtin_patch(tmp_path):
    path = tmp_path / "family.json"
    save_family(builtin_family("half-hex-classical"), path)
    argv = ["patch", "--window", "box:-1,-1,2,2", "--dilation", "8"]
    for family, out in ((str(path), "file"), ("half-hex-classical", "named")):
        assert main([*argv, "--family", family,
                     "--out", str(tmp_path / out)]) == 0
    assert ((tmp_path / "file" / "patch.csv").read_bytes()
            == (tmp_path / "named" / "patch.csv").read_bytes())


def test_config_round_trip():
    cfg = ExperimentConfig(family="one-d-pair", seed=9, out_dir="x",
                           blocks={"dk": {"q": "2"}})
    back = json.loads(cfg.to_json())
    assert back["family"] == "one-d-pair"
    assert back["seed"] == 9
