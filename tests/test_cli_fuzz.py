"""Fuzzed command lines: the distribution grammar, every subcommand's flags,
and malformed tokens in any of them. Whatever the input, `prstirling` exits
0, 1 or 2 without a traceback; on 0 or 1 stdout is strict JSON (CSV under
`--format csv`), and on 2 stdout is empty and stderr holds one `error:` line."""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prstirling.cli import main

JUNK = st.text(alphabet="()[]{},/-+ .0123456789abegilmnopstuxz", max_size=10)


@st.composite
def _mostly(draw, good, bad):
    """A draw from good, or from bad about one time in ten (Hypothesis
    favours 0, so the rare branch is the top value)."""
    return draw(bad if draw(st.integers(0, 9)) == 9 else good)


# "p" or "p/q"; zero or negative denominators are among the malformed ones
RATIONALS = _mostly(
    st.builds(
        lambda p, q: str(p) if q is None else f"{p}/{q}", st.integers(-2, 4), st.none() | st.integers(1, 4)
    ),
    st.sampled_from(["1/0", "1/-2", "1/2/3", "abc", "", "-", "-x"]),
)


def _listed(open_, close):
    return st.lists(RATIONALS, min_size=1, max_size=4).map(lambda vs: open_ + ",".join(vs) + close)


DISTS = _mostly(
    st.one_of(
        RATIONALS.map("point({})".format),
        RATIONALS.map("bernoulli({})".format),
        st.builds("binomial({},{})".format, st.integers(-1, 20), RATIONALS),
        _listed("uniform{", "}"),
        st.builds("uniform[{},{}]".format, RATIONALS, RATIONALS),
        RATIONALS.map("poisson({})".format),
        RATIONALS.map("geometric({})".format),
        _listed("moments[", "]"),
    ),
    JUNK,
)
SIZES = _mostly(st.integers(0, 6).map(str), st.sampled_from(["-1", "abc", "2.5", ""]))
SHIFTS = _mostly(st.integers(0, 3).map(str), st.sampled_from(["-1", "x", "1/2"]))
FORMATS = _mostly(st.sampled_from(["json", "csv"]), st.just("xml"))
X_FLOATS = _mostly(st.sampled_from(["0", "1", "2.5", "10"]), st.sampled_from(["-1", "nan", "inf", "abc"]))
TOLERANCES = _mostly(st.sampled_from(["1e-9", "1e-6"]), st.sampled_from(["0", "-1", "nan", "abc"]))
SUITES = _mostly(
    st.sampled_from(["all", "T2_4", "T2_4,T2_9_paper_form", "ReductionY1, ClassicalLambda0"]),
    st.sampled_from(["T9_99", ""]),
)
# verify's default max-n (6) takes seconds, so max-n is always given and small
MAX_NS = _mostly(st.integers(0, 1).map(str), st.sampled_from(["-1", "abc"]))
REPORTS = _mostly(st.sampled_from(["json", "summary"]), st.just("full"))


@st.composite
def _flag(draw, flag, values, required=False):
    """[] (half the time, unless required), [flag, value] or [flag=value]."""
    if not required and draw(st.booleans()):
        return []
    value = draw(values)
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["table", "bell", "moments", "verify"]))
    # a required flag is present nine times in ten
    required = draw(st.integers(0, 9)) < 9
    lam = draw(st.sampled_from(["--lambda", "--lam", "--l"]))  # abbreviations the CLI accepts
    if command == "table":
        flags = [
            draw(_flag("--n-max", SIZES, required)),
            draw(_flag("--r", SHIFTS)),
            draw(_flag(lam, RATIONALS)),
            draw(_flag("--dist", DISTS, required)),
            draw(_flag("--format", FORMATS)),
        ]
    elif command == "bell":
        flags = [
            draw(_flag("--n", SIZES, required)),
            draw(_flag("--r", SHIFTS)),
            draw(_flag(lam, RATIONALS)),
            draw(_flag("--dist", DISTS, required)),
            draw(_flag("--x", RATIONALS)),
            draw(st.sampled_from([[], ["--dobinski"]])),
            draw(_flag("--x-float", X_FLOATS)),
            draw(_flag("--tol", TOLERANCES)),
        ]
    elif command == "moments":
        flags = [
            draw(_flag("--dist", DISTS, required)),
            draw(_flag("--upto", SIZES, required)),
            draw(_flag("--sum", SIZES)),
            draw(_flag("--format", FORMATS)),
        ]
    else:
        flags = [
            draw(_flag("--suite", SUITES)),
            draw(_flag("--max-n", MAX_NS, required=True)),
            draw(_flag("--report", REPORTS)),
        ]
    flags = draw(st.permutations(flags))
    argv = [command] + [token for flag in flags for token in flag]
    if draw(st.integers(0, 9)) == 9:  # a stray token somewhere
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_csv(text):
    for row in csv.reader(io.StringIO(text)):
        if row and not row[0].startswith("#"):
            for value in row:
                Fraction(value)


@settings(deadline=None, max_examples=80)
@given(command_lines())
def test_every_command_line_exits_cleanly(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    elif "--format=csv" in argv or ("--format" in argv and argv[argv.index("--format") + 1] == "csv"):
        check_csv(out)
    else:
        json.loads(out, parse_constant=pytest.fail)
