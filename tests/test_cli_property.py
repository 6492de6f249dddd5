"""Hostile command lines end in a named exit code (0, 2, 3 or 4), never in a traceback.

A command line that sets a key its command does not read (`UNREAD`, listed
here apart from the program's own table) is a configuration error, exit 2.

Argument lists are drawn from the real subcommands, flags and configuration
keys. Each value is either an ordinary one or one from a pool of hostile
strings: NaN, infinities, signed zero, a negative, an overflowing 1e308, a
huge but finite 1e300, an empty string and a non-number; a --set may come
twice. Values that only scale the work are left out: the cutoff is at most 2,
a preset always gets --points, point counts are at most 3 and the worker count
at most 2. No ordinary dt is drawn and no ordinary time above 1, so the only
large times are 1e308, whose step count overflows, and 1e300, whose step count
is beyond `dynamics.MAX_STEPS`; both are rejected before a step is taken.
"""

import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noisycav.cli import _KEY_TYPES, main
from noisycav.sweep import PRESETS, SWEEPABLE

HOSTILE = st.sampled_from(("nan", "inf", "-inf", "-0", "0", "-1", "1e308", "1e300", "", "x"))
ORDINARY = {"dt": (), "t_max": ("0", "0.5"), "cutoff": ("1", "2"), "record_stride": ("1", "3"),
            "format": ("csv", "json"), "g_a": ("0", "1"), "g_b": ("0.5", "1")}
COUNTS = ("1", "2", "3")
UNREAD = {"evolve": set(), "steady": {"dt", "t_max", "record_stride"}, "sweep": {"t_max", "record_stride"}}


def value(*ordinary):
    """An ordinary value three times in four, else a hostile one."""
    if not ordinary:
        return HOSTILE
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(ordinary) if k else HOSTILE)


AXES = st.one_of(
    st.tuples(st.sampled_from(SWEEPABLE), value("0", "0.5"), value("1"), value(*COUNTS)).map(":".join),
    HOSTILE,
)
COMMON = {"--out": value("out.csv"), "--format": value("csv", "json"), "--config": value("missing.conf")}
FLAGS = {
    "evolve": COMMON,
    "steady": {**COMMON, "--cavity-only": None},
    "sweep": {**COMMON, "--axis2": AXES, "--at-time": value("0.5"), "--workers": value("1", "2")},
}


@st.composite
def command_lines(draw, commands=sorted(FLAGS)):
    command = draw(st.sampled_from(commands))
    args = [command, "--cutoff", draw(value("1", "2"))]
    for key in draw(st.lists(st.sampled_from(sorted(_KEY_TYPES) + ["gama"]), max_size=3)):
        args += ["--set", f"{key}={draw(value(*ORDINARY.get(key, ('0', '0.5', '2'))))}"]
    if len(args) > 3 and draw(st.booleans()):
        args += args[3:5]  # the first --set again
    if command == "sweep":
        if draw(st.booleans()):  # the default 31 points only scale the work, so --points comes along
            args += ["--preset", draw(value(*PRESETS)), "--points", draw(value(*COUNTS))]
        else:
            args += ["--axis1", draw(AXES)]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS[command])), max_size=2, unique=True)):
        args += [flag] if FLAGS[command][flag] is None else [flag, draw(FLAGS[command][flag])]
    return args


def exit_code(args):
    """`main(args)`'s exit code, run in a temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True):
        # an overflowing input warns before a gate stops it; here the exit code is what counts
        warnings.simplefilter("always", RuntimeWarning)
        os.chdir(tmp)  # outputs land here, named by --out or by default
        try:
            return main(args)
        except SystemExit as exit_:  # argparse rejects a malformed list with exit 2
            return exit_.code
        finally:
            os.chdir(cwd)


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_every_command_line_ends_in_a_named_exit_code(args):
    code = exit_code(args)
    assert code in (0, 2, 3, 4)
    keys = {assignment.split("=", 1)[0] for flag, assignment in zip(args, args[1:]) if flag == "--set"}
    if keys & UNREAD[args[0]]:
        assert code == 2


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(command_lines(commands=sorted(command for command, keys in UNREAD.items() if keys)), st.data())
def test_a_key_the_command_does_not_read_is_exit_2(args, data):
    # the same lines, each given one more --set of an unread key with an ordinary value
    key = data.draw(st.sampled_from(sorted(UNREAD[args[0]])))
    raw = data.draw(st.sampled_from(ORDINARY[key] or ("0.001",)))
    assert exit_code([*args, "--set", f"{key}={raw}"]) == 2
