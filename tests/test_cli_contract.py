"""The CLI's exit-code contract as a property over drawn argv.

Exit 0 means success, 1 "validation failed" (only from ``validate``, whose
report then ends in ``result: FAIL``), 2 bad arguments, 3 an i/o error and
4 a numerical error. A nonzero exit other than 1 prints nothing on stdout
and one line on stderr with its code's prefix; a success prints nothing on
stderr but ``optimize-dt``'s bracket-edge note. The suite turns a
``RuntimeWarning`` into an error, so a numpy warning on any input fails too.
"""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdcascade import cli

PREFIX = {
    cli.EXIT_BAD_ARGUMENTS: "error: ",
    cli.EXIT_IO_ERROR: "i/o error: ",
    cli.EXIT_NUMERICAL_ERROR: "numerical error: ",
}
EDGE_NOTE = re.compile(r"note: the optimum lies at the bracket edge dt = \S+\n")


def mix(*strategies):
    """One of ``strategies``, each drawn as often; a strategy listed twice is drawn twice as often."""
    return st.sampled_from(strategies).flatmap(lambda values: values)


# most draws are in the domain, so that a command with several flags gets
# past its checks often; the others are edge values and any value
IN_DOMAIN = st.floats(1e-3, 10.0)
FLOATS = mix(*[IN_DOMAIN] * 3,
             st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-320, 1.7e308, -1.0, 0.5, 2.0, 40.0]),
             st.floats(allow_nan=True, allow_infinity=True))
INTS = mix(st.integers(0, 10), st.integers(-3, 10), st.sampled_from([0, -1, -(10**20), 10**20]))
CHANNELS = mix(st.integers(1, 7), st.integers(1, 7), INTS)
# sizes that would run long are drawn up to a bound: points at most 64; trials
# at most 1000, or above oracle.MAX_TRIALS = 10**10, which is refused before any block
POINTS = mix(st.integers(2, 64), st.integers(2, 64), st.sampled_from([0, -1, 1, 2, 64]))
TRIALS = mix(st.integers(1, 1000), st.integers(1, 1000),
             st.sampled_from([0, -1, -(10**20), 1, 1000, 10**10 + 1, 10**20]))
# mode lists: valid ones, and any list of tokens (empty, repeated or unknown)
TOKENS = st.sampled_from(["eb", "ex", "lb", "lx", "early-b", "Late_X", "zz", "", " "])
MODES = mix(st.sampled_from(["eb", "eb,ex", "lx", "ex,lb"]), st.lists(TOKENS, max_size=5).map(",".join))


def arg(name, value):
    """``--name=value``: the ``=`` form keeps a value such as "-inf" from reading as a flag."""
    return f"--{name}={value if isinstance(value, str) else repr(value)}"


def required(name, values):
    return values.map(lambda v: [arg(name, v)])


def flag(name, values):
    return mix(st.just([]), required(name, values))


def both(first, second):
    return st.tuples(first, second).map(lambda pair: pair[0] + pair[1])


def command(name, *flags):
    return st.tuples(*flags).map(lambda drawn: [name, *(a for args in drawn for a in args)])


# --ratio with --gamma-b is a conflict, drawn one time in seven so that it does not mask the rest
GB, RATIO = required("gamma-b", FLOATS), required("ratio", FLOATS)
GAMMA_B_OR_RATIO = mix(*[st.just([]), GB, RATIO] * 2, both(GB, RATIO))
RATES = (GAMMA_B_OR_RATIO, flag("gamma-x", FLOATS))
# an ordered in-domain bracket half the time, any two floats the other half
BRACKET = mix(st.tuples(IN_DOMAIN, IN_DOMAIN).map(sorted), st.tuples(FLOATS, FLOATS)).map(
    lambda ends: [arg("dt-min", ends[0]), arg("dt-max", ends[1])])
SPLIT = mix(required("alice", MODES), both(required("alice", MODES), required("eve", MODES)))
FORMAT = flag("format", st.sampled_from(["csv", "json"]))
ARGV = mix(
    command("amplitudes", *RATES, flag("dt", FLOATS), FORMAT),
    command("state", *RATES, flag("dt", FLOATS), FORMAT),
    command("sweep", *RATES, BRACKET, required("points", POINTS), flag("scale", st.sampled_from(["linear", "log"])),
            flag("dephase", FLOATS), st.lists(CHANNELS, max_size=3).map(lambda ids: [arg("channel", i) for i in ids]),
            st.sampled_from([[], ["--ghz"]]), mix(st.just([]), SPLIT, SPLIT, required("eve", MODES)), FORMAT),
    command("secure-rate", *RATES, flag("dt", FLOATS), SPLIT, flag("dephase", FLOATS), FORMAT),
    command("optimize-dt", *RATES, SPLIT, mix(st.just([]), BRACKET, flag("dt-min", FLOATS), flag("dt-max", FLOATS)),
            flag("dephase", FLOATS), FORMAT),
    command("validate", *RATES, flag("dt", FLOATS), required("trials", TRIALS), flag("seed", INTS),
            flag("step", FLOATS)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(argv=ARGV)
# inputs that broke the contract: step counts that overflowed (exit 4), a
# waiting time that overflowed with a numpy warning, and huge rates with a
# coarse step, whose step map h A overflowed with a numpy warning
@example(argv=["validate", "--step=5e-324", "--trials=10"])
@example(argv=["validate", "--dt=1.7e308", "--trials=10"])
@example(argv=["validate", "--ratio=1e-320", "--trials=10"])
@example(argv=["validate", "--gamma-b=1e300", "--gamma-x=1.0", "--dt=1e10", "--step=1e9", "--trials=10"])
@example(argv=["validate", "--gamma-b=1e308", "--dt=20.0", "--step=2.0", "--trials=10"])
@example(argv=["validate", "--ratio=1e300", "--gamma-x=1e5", "--dt=1e5", "--step=1e4", "--trials=10"])
def test_every_command_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == cli.EXIT_OK:
        assert out and (err == "" or (argv[0] == "optimize-dt" and EDGE_NOTE.fullmatch(err))), err
    elif code == cli.EXIT_VALIDATION_FAILURE:
        assert argv[0] == "validate" and out.endswith("result: FAIL\n") and err == "", (out, err)
    else:
        assert code in PREFIX and out == "", (code, out)
        assert err.startswith(PREFIX[code]) and err.count("\n") == 1 and err.endswith("\n"), err
