"""Property test of parse_config: a config either fails at parse time or runs."""

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


# Valid values span the ranges of a desk-scale run: chi >= 0.08 and
# |epsilon| <= 0.08, so that the readout amplitude needs n_max <= 40, and
# alpha_sq <= 2.  Each key also lists values off those ranges, most of which
# its parser or the dispersive-regime checks refuse.  Valid values can still
# combine into a refused config (omega_q against lambda, a zero alpha_sq
# where the pulse length derives from it).
# An n_max below the truncation rule at the largest amplitude the
# scenario drives to is a config error on the n_max line.
_KEYS = {
    "scenario": _choice(*SCENARIOS),
    "g": _number(0.9, 1.5, "0"),
    "lambda": _number(0.1, 0.29, "0", "1", "-1.5"),
    "omega_c": _number(60.0, 150.0, "0", "110"),
    "omega_q": (st.sampled_from(("110", "105", "90", "95")), ("100",) + _NUMBER_FAULTS),
    "epsilon": (st.sampled_from(("0.05", "0.05j", "0.03-0.04j", "-0.08")), ("0", "nan+0.1j", "1+")),
    "drive_form": _choice("rwa", "cosine"),
    "phase_correction": _choice("on", "off"),
    "initial": _choice("dressed", "bare"),
    "basis": _choice("exact", "first_order"),
    "sweep_values": (
        st.lists(st.floats(0.05, 0.29).map(repr), min_size=1, max_size=3).map(",".join),
        (",", "0.2,0", "-1", "0.2,nan"),
    ),
    "alpha_sq": _number(0.0, 2.0, "-1"),
    "eta_abs": _number(0.05, 6.0, "0", "-1"),
    "eta_phase": _number(-7.0, 7.0),
    "omega_drive": _number(100.0, 120.0),
    "time_points": _choice("2", "50"),
    "n_max": (st.sampled_from(("24", "30")), ("3", "1", "2.5", "ten", "")),
    "workers": _choice("1"),
    "check_convergence": _choice("on", "off"),
}


@st.composite
def config_texts(draw):
    """A scenario and up to five more key=value lines, in any order, with blank
    and comment lines between; at most one value is off its range, or one key unknown."""
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
            lines.append(f"{key}={draw(st.sampled_from(faults) if key == faulty else valid)}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_texts())
@example("scenario=custom\ndrive_form=cosine\nsweep_values=0.3\n")  # periodic path
@example("scenario=readout\ndrive_form=cosine\nlambda=0.25\n")      # periodic path, big chi
@example("scenario=fig2c\nsweep_values=0.2,1\n")                     # swept lambda >= 1
@example("scenario=readout\nomega_q=90\n")                            # chi < 0
@example("scenario=readout\ng=0\nomega_q=110\n")                      # chi = 0
@example("scenario=fig4\n\n# beta = 0\nalpha_sq=0\n")
@example("scenario=fig2b\nn_max=3\n")                                 # n_max below the rule
def test_config_fails_with_a_line_or_checks(text):
    try:
        parse_config(text)
    except ConfigError as exc:
        assert exc.line is not None, (text, str(exc))
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "point.cfg"
        path.write_text(text)
        assert main(["check", "--config", str(path)]) != 2, text
