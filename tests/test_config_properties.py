"""Property test of parse_config: a config either fails at parse time or runs."""

import cmath
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from jcdrive.cli import main
from jcdrive.config import SCENARIOS, ConfigError, parse_config

_NUMBER_FAULTS = ("nan", "inf", "-inf", "ten", "")


def _number(lo, hi, *faults):
    """(a float in [lo, hi], values off that range or not numbers at all)."""
    return st.floats(lo, hi).map(repr), faults + _NUMBER_FAULTS


def _choice(*values):
    return st.sampled_from(values), ("bogus", "")


def _signed(lo, hi, *faults, log=False):
    """(a float of either sign with magnitude in [lo, hi], log-uniform if ``log``; faults)."""
    magnitude = (st.floats(math.log(lo), math.log(hi)).map(math.exp) if log
                 else st.floats(lo, hi))
    signed = st.builds(lambda sign, x: repr(sign * x), st.sampled_from((1, -1)), magnitude)
    return signed, faults + _NUMBER_FAULTS


# Valid values span either sign of omega_c (0 included), g and lambda
# (|lambda| down to 1e-6), omega_q on either side of the default omega_c,
# |epsilon| up to 1, alpha_sq up to 16 and omega_drive within 1e3.  Each key
# also lists values off those ranges, most of which its parser or the
# dispersive-regime and lab-phase checks refuse.  Valid values can still
# combine into a refused config (omega_q against lambda, a zero alpha_sq
# where the pulse length derives from it, a readout amplitude |epsilon|
# pi/|chi| beyond the cutoff cap).  An n_max below the truncation rule at
# the largest amplitude the scenario drives to is a config error on the
# n_max line.
_KEYS = {
    "scenario": _choice(*SCENARIOS),
    "g": _signed(0.9, 1.5, "0"),
    "lambda": _signed(1e-6, 0.29, "0", "1", "-1.5", log=True),
    "omega_c": (st.just("0") | st.floats(-150.0, 150.0).map(repr), ("1e17",) + _NUMBER_FAULTS),
    "omega_q": (st.sampled_from(("110", "105", "90", "95", "-90")), ("100",) + _NUMBER_FAULTS),
    "epsilon": (
        st.builds(cmath.rect, st.floats(0.01, 1.0), st.floats(-math.pi, math.pi)).map(repr),
        ("0", "nan+0.1j", "1+"),
    ),
    "drive_form": _choice("rwa", "cosine"),
    "phase_correction": _choice("on", "off"),
    "initial": _choice("dressed", "bare"),
    "basis": _choice("exact", "first_order"),
    "sweep_values": (
        st.lists(st.floats(0.05, 0.29).map(repr), min_size=1, max_size=3).map(",".join),
        (",", "0.2,0", "-1", "0.2,nan"),
    ),
    "alpha_sq": _number(0.0, 16.0, "-1"),
    "eta_abs": _number(0.05, 6.0, "0", "-1"),
    "eta_phase": _number(-7.0, 7.0),
    "omega_drive": _number(-1e3, 1e3, "1e14"),
    "time_points": _choice("2", "50"),
    "n_max": (st.sampled_from(("24", "30")), ("3", "1", "2.5", "ten", "")),
    "workers": _choice("1"),
    "check_convergence": _choice("on", "off"),
}


@st.composite
def config_texts(draw, scenarios=SCENARIOS):
    """A scenario of ``scenarios`` and up to five more key=value lines, in any
    order, with blank and comment lines between; at most one value is off its
    range, or one key unknown."""
    others = [k for k in _KEYS if k != "scenario"]
    keys = ["scenario"] + draw(st.lists(st.sampled_from(others), max_size=5, unique=True))
    keys = draw(st.permutations(keys))
    faulty = draw(st.none() | st.sampled_from(["no_such_key"] + keys))
    lines = []
    for key in keys + (["no_such_key"] if faulty == "no_such_key" else []):
        lines += draw(st.lists(st.sampled_from(["", "# comment"]), max_size=1))
        if key == "no_such_key":
            lines.append("no_such_key=1")
        else:
            valid, faults = _KEYS[key]
            if key == "scenario":
                valid = st.sampled_from(scenarios)
            lines.append(f"{key}={draw(st.sampled_from(faults) if key == faulty else valid)}")
    return "\n".join(lines) + "\n"


def _fails_with_a_line_or_runs(text):
    """parse_config refuses ``text`` with a line, or sim check does not fail
    numerically; a fig4 config also runs, storing at least time_points + 1 rows."""
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert exc.line is not None, (text, str(exc))
        return
    # parse_config has no cost budget yet, and a readout amplitude |epsilon|
    # pi/|chi| of 31 (|epsilon| = 1) needs 1,198 levels, whose
    # eigendecompositions take tens of seconds: beyond 200 levels
    # (|alpha|^2 of about 120) a config is held to its parse
    if max(point.cutoff().n_max for point in cfg.points()) > 200:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "point.cfg", Path(tmp) / "out.csv"
        path.write_text(text)
        assert main(["check", "--config", str(path)]) != 2, text
        if cfg.scenario == "fig4":
            # the traces' grid and stored rows show only in a run
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0, text
            assert len(out.read_text().splitlines()) - 2 >= cfg.time_points + 1, text


_SETTINGS = dict(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=100, **_SETTINGS)
@given(config_texts())
@example("scenario=custom\ndrive_form=cosine\nsweep_values=0.3\n")  # periodic path
@example("scenario=readout\ndrive_form=cosine\nlambda=0.25\n")      # periodic path, big chi
@example("scenario=fig2c\nsweep_values=0.2,1\n")                     # swept lambda >= 1
@example("scenario=readout\nomega_q=90\n")                            # chi < 0
@example("scenario=readout\ng=0\nomega_q=110\n")                      # chi = 0
@example("scenario=fig2b\nn_max=3\n")                                 # n_max below the rule
@example("omega_c=-1e17\n")                                            # |omega_c| bounds rho
def test_config_fails_with_a_line_or_checks(text):
    _fails_with_a_line_or_runs(text)


@settings(max_examples=60, **_SETTINGS)
@given(config_texts(scenarios=("fig4",)))
@example("scenario=fig4\n\n# beta = 0\nalpha_sq=0\n")
@example("scenario=fig4\nomega_c=-100\neta_abs=1\n")  # a positive dt_bound below omega_c = 0
@example("scenario=fig4\nomega_drive=1e14\n")           # H_F's eigenvalues reach |omega| n_max
@example("scenario=fig4\ng=-1\nlambda=-0.1\n")
def test_fig4_config_fails_with_a_line_or_runs(text):
    # fig4's own draws: the traces' grid and the drive frequency show only in a run
    _fails_with_a_line_or_runs(text)
