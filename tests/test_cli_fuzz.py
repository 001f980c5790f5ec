"""Fuzz of the command-line parser: every flag's edge values, in process.

Each subcommand is replaced by a recorder, so nothing heavy runs.  The
bounds under test are README's list of them ("## Command line"); the
invariant: a run either exits 2 with one message naming a flag whose value
is at fault, or reaches its command with every bounded value inside its
bounds.
"""

import contextlib
import io
import math
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randtile import cli


def _readme_bounds():
    """{subcommand: {flag: (least, budget)}} from README's table; least is
    an int, "finite" or None, budget an int or None."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bounds = {}
    for line in text.split("## Command line", 1)[1].splitlines():
        if not line.startswith("| `--"):
            continue
        flags, commands, least, budget = (
            cell.strip() for cell in line.strip("|").split("|"))
        least = int(least) if least.isdigit() else (least or None)
        budget = (10 ** int(budget.split()[0].split("^")[1]) if budget
                  else None)
        for command in commands.split(", "):
            for flag in re.findall(r"`(--[a-z-]+)`", flags):
                bounds.setdefault(command, {})[flag] = (least, budget)
    return bounds


_BOUNDS = _readme_bounds()
# how each flag's value, or each item of a list flag, is read
_KINDS = {"--p-grid": float, "--t-grid": Fraction, "--q": int,
          "--dilation": Fraction, "--seed": int, "--p": float,
          "--eps": float, "--e-min": float, "--e-max": float}
_LISTS = {"--p-grid", "--t-grid", "--q"}
# parsed flags with no bound of the CLI's own, per subcommand
_UNBOUNDED = {"spectrum": ["--seed"],
              "patch": ["--seed", "--window", "--dilation", "--p"],
              "render": ["--seed", "--window", "--dilation", "--p"],
              "decompose": ["--seed", "--window", "--dilation", "--p"],
              "deviate": ["--seed", "--window", "--p", "--eps"],
              "dk": ["--seed", "--q"],
              "schrod": ["--seed", "--window"]}
_COMMON = ["0", "-1", "100000000", "nan", "inf", "-inf", "1e400", "", "x"]
_WINDOWS = ["square", "box:-1,-1,2,2", "box:1,1", "disk:0,0,-1",
            "disk:0,0,1e400", "box:nan,0,1,1", "disk:0,0", "wedge:1"]


def _edges(flag, least, budget):
    """least - 1, least, budget, budget + 1 and the common edge values;
    for a list flag, also a malformed item and lists at and past the
    budget and of 2,001 items."""
    if flag == "--window":
        return _WINDOWS + ["", "x"]
    values = list(_COMMON)
    if isinstance(least, int):
        values += [str(least - 1), str(least)]
    if flag in _LISTS:
        values += ["2,x", ",".join(["2"] * 2001)]
        if budget:
            values += [",".join(["2"] * n) for n in (budget, budget + 1)]
    elif budget:
        values += [str(budget), str(budget + 1)]
    return values


def _flags(command):
    """{flag: (least, budget)} of every parsed flag of `command`."""
    flags = {flag: (None, None) for flag in _UNBOUNDED[command]}
    flags.update(_BOUNDS[command])
    return flags


def _at_fault(flag, text, least, budget):
    """True if the CLI must refuse `text` for `flag`; None if only the
    reader can tell (a window)."""
    if flag == "--window":
        return None
    kind = _KINDS.get(flag, int)
    items = text.split(",") if flag in _LISTS else [text]
    if flag in _LISTS and budget is not None and len(items) > budget:
        return True
    try:
        values = [kind(item) for item in items]
    except (ValueError, ZeroDivisionError):
        return True
    if flag in _LISTS:
        return False
    if least == "finite":
        return not math.isfinite(values[0])
    return ((least is not None and values[0] < least)
            or (budget is not None and values[0] > budget))


class _Reached(Exception):
    """Raised by the recorder that stands in for every subcommand."""


def _record(args, out):
    raise _Reached(args)


def _check(command, drawn, out):
    """Run `randtile command --flag=value ...` and check the invariant."""
    flags = _flags(command)
    argv = [command, *(f"{flag}={text}" for flag, text in drawn.items()),
            "--out", str(out)]
    err = io.StringIO()
    with mock.patch.dict(cli._COMMANDS,
                         {name: _record for name in cli._COMMANDS}), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except _Reached as reached:
            args = reached.args[0]
            code = None
        except SystemExit as exc:   # argparse's own refusal
            code = exc.code
    faults = {flag: _at_fault(flag, text, *flags[flag])
              for flag, text in drawn.items()}
    if code is None:
        assert err.getvalue() == ""
        assert not any(faults.values()), (argv, faults)
        for flag, (least, budget) in flags.items():
            value = getattr(args, flag[2:].replace("-", "_"))
            if least == "finite":
                assert math.isfinite(value), (argv, flag)
            elif isinstance(least, int):
                assert least <= value, (argv, flag)
            if budget is not None:
                size = len(value) if flag in _LISTS else value
                assert size <= budget, (argv, flag)
        return
    assert code == 2, (argv, code, err.getvalue())
    lines = [line for line in err.getvalue().splitlines() if "error" in line]
    assert len(lines) == 1, (argv, err.getvalue())
    named = re.match(r"(?:config error: |.*error: argument )(--[a-z-]+)[: ]",
                     lines[0])
    assert named, (argv, lines[0])
    assert faults.get(named.group(1), False) is not False, (argv, lines[0])


def test_every_edge_value_of_every_flag(tmp_path):
    """Each flag of each subcommand alone, at each of its edge values."""
    assert set(_BOUNDS) == set(_UNBOUNDED)
    runs = 0
    for command in sorted(_UNBOUNDED):
        for flag, (least, budget) in _flags(command).items():
            for text in _edges(flag, least, budget):
                _check(command, {flag: text}, tmp_path)
                runs += 1
    assert runs > 400


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_UNBOUNDED)))
    flags = _flags(command)
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), min_size=2,
                           max_size=4, unique=True))
    return command, {flag: draw(st.sampled_from(_edges(flag, *flags[flag])))
                     for flag in chosen}


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(drawn=_argvs())
def test_drawn_edge_values_together(out, drawn):
    """Several flags at edge values at once: a refusal names one at fault."""
    _check(*drawn, out)
