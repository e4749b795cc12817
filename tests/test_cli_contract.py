"""The CLI's exit-code contract as a property over drawn argv.

Exit 0 means success, 1 "validation failed" (only from ``validate``, whose
report then ends in ``result: FAIL``), 2 bad arguments, 3 an i/o error and
4 a numerical error. A nonzero exit other than 1 prints nothing on stdout
and one line on stderr with its code's prefix; a success writes its table
either on stdout or to the one file ``--out`` names, and prints nothing on
stderr but ``optimize-dt``'s bracket-edge note. The suite turns a
``RuntimeWarning`` into an error, so a numpy warning on any input fails too.

argparse's own errors are the contract's one exception: an unknown flag, a
malformed number and a missing required flag (one that only a ``--config``
file gives included) raise ``SystemExit(2)`` out of ``main``, with nothing on
stdout and argparse's usage text on stderr, whose last line is
``qdcascade[ <cmd>]: error: ...``.

The argv are drawn from ``cli.COMMANDS``: each flag by the domain of its
dest where it has one, else by its choices, action or type, so a new flag is
drawn without an edit here. Each draw runs in a temp directory that holds
the ``--config`` file drawn with it.
"""

import io
import json
import math
import os
import re
import tempfile
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
USAGE_ERROR = re.compile(r"qdcascade(?: (\S+))?: error: .+")
CONFIG = "config.json"


def mix(*strategies):
    """One of ``strategies``, each drawn as often; a strategy listed twice is drawn twice as often."""
    return st.sampled_from(strategies).flatmap(lambda values: values)


# most draws are in the domain, so that a command with several flags gets
# past its checks often; the others are edge values and any value. The edge
# values include malformed tokens: no number, or no integer
MALFORMED = ["", "x", "1e", "1.5.2", "2.5", "0x10", "--"]
IN_DOMAIN = st.floats(1e-3, 10.0)
FLOATS = mix(*[IN_DOMAIN] * 3,
             st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-320, 1.7e308, -1.0, 0.5, 2.0, 40.0,
                              *MALFORMED]),
             st.floats(allow_nan=True, allow_infinity=True))
INTS = mix(st.integers(0, 10), st.integers(-3, 10), st.sampled_from([0, -1, -(10**20), 10**20, *MALFORMED]))
CHANNELS = mix(st.integers(1, 7), st.integers(1, 7), INTS)
# sizes that would run long are drawn up to a bound: points at most 64; trials
# at most 1000, or above oracle.MAX_TRIALS = 10**10, which is refused before any block
POINTS = mix(st.integers(2, 64), st.integers(2, 64), st.sampled_from([0, -1, 1, 2, 64, *MALFORMED]))
TRIALS = mix(st.integers(1, 1000), st.integers(1, 1000),
             st.sampled_from([0, -1, -(10**20), 1, 1000, 10**10 + 1, 10**20, *MALFORMED]))
# mode lists: valid ones, and any list of tokens (empty, repeated or unknown)
TOKENS = st.sampled_from(["eb", "ex", "lb", "lx", "early-b", "Late_X", "zz", "", " "])
MODES = mix(st.sampled_from(["eb", "eb,ex", "lx", "ex,lb"]), st.lists(TOKENS, max_size=5).map(",".join))
# paths relative to the temp directory: a file, a missing parent, a directory, and "" (stdout)
OUT = st.sampled_from(["out.csv", "out.csv", "missing/out.csv", ".", ""])
CONFIG_PATH = st.sampled_from([CONFIG, CONFIG, CONFIG, "missing.json", "."])
# flags always given, by dest: validate's default of 10**6 trials would run long
ALWAYS = {"trials"}
# values by dest, for the flags whose domain is narrower than their type
DOMAIN = {"points": POINTS, "trials": TRIALS, "channel": CHANNELS, "alice": MODES, "eve": MODES,
          "out": OUT, "config": CONFIG_PATH}
BY_TYPE = {float: FLOATS, int: INTS}
# JSON values of each type, right for some flags and wrong for the others
ANY_JSON = st.sampled_from([None, True, 1.5, 2, "x", [1], ["x"], {}])
NOT_AN_OBJECT = st.sampled_from(["[1, 2]", "3", '"x"', "null"])
NOT_JSON = st.sampled_from(["", "{", "{'dt': 1}", '{"dt": }', "\x00", "[" * 10**4 + "]" * 10**4])
# unknown flags, a flag of another command, and a stray token
UNKNOWN = st.sampled_from([[]] * 60 + [["--no-such-flag"], ["--no-such-flag=1"], ["-x"], ["extra"], ["--trials=10"],
                                        ["--dt=1"]])
ALL_DESTS = sorted({cli._dest(name) for command in cli.COMMANDS.values() for name, _ in command.flags})


def arg(name, value):
    """``name=value``: the ``=`` form keeps a value such as "-inf" from reading as a flag."""
    return f"{name}={value if isinstance(value, str) else repr(value)}"


def values(name, kwargs):
    """The values drawn for one flag: its domain's, else its choices, else any of its type."""
    dest = cli._dest(name)
    if dest in DOMAIN:
        return DOMAIN[dest]
    return st.sampled_from(kwargs["choices"]) if "choices" in kwargs else BY_TYPE[kwargs["type"]]


def given_flag(name, kwargs):
    """The argv tokens of one flag that is given: a switch, a repeatable flag 0-3 times, else once."""
    if kwargs.get("action") == "store_true":
        return st.just([name])
    if kwargs.get("action") == "append":
        return st.lists(values(name, kwargs), max_size=3).map(lambda vs: [arg(name, v) for v in vs])
    return values(name, kwargs).map(lambda v: [arg(name, v)])


def flag(name, kwargs):
    """One flag's argv tokens; a required flag is left out one time in
    twenty, for argparse to refuse, and one in ``ALWAYS`` never."""
    given = given_flag(name, kwargs)
    if cli._dest(name) in ALWAYS:
        return given
    return mix(*[given] * 19, st.just([])) if kwargs.get("required") else mix(st.just([]), given)


def both(first, second):
    return st.tuples(first, second).map(lambda pair: pair[0] + pair[1])


# flags drawn together, by dest. --ratio with --gamma-b is a conflict, drawn
# one time in seven so that it does not mask the rest; a bracket is ordered
# and in the domain half the time
JOINT = {
    ("gamma_b", "ratio"): lambda gb, ratio: mix(
        *[st.just([]), given_flag(*gb), given_flag(*ratio)] * 2, both(given_flag(*gb), given_flag(*ratio))),
    ("dt_min", "dt_max"): lambda lo, hi: mix(
        st.tuples(IN_DOMAIN, IN_DOMAIN).map(sorted).map(lambda ends: [arg(lo[0], ends[0]), arg(hi[0], ends[1])]),
        both(flag(*lo), flag(*hi))),
}


def config_text(flags):
    """The text of a --config file for a command of ``flags``: mostly an
    object of known keys, named as flag or dest, with values of the right or
    the wrong JSON type, and unknown keys; else JSON that is not an object,
    or text that is not JSON."""
    dests = {cli._dest(name) for name, _ in flags}

    def known(name, kwargs):
        action = kwargs.get("action")
        right = (st.booleans() if action == "store_true"
                 else st.lists(values(name, kwargs), max_size=3) if action == "append" else values(name, kwargs))
        return st.tuples(st.sampled_from([name[2:], cli._dest(name)]), mix(right, right, ANY_JSON))

    pairs = mix(*[st.sampled_from(flags).flatmap(lambda row: known(*row))] * 3,
                st.tuples(st.sampled_from(["help", "no-such-flag"] + [d for d in ALL_DESTS if d not in dests]),
                          ANY_JSON))
    objects = st.lists(pairs, max_size=3).map(lambda kv: json.dumps(dict(kv)))
    return mix(*[objects] * 4, NOT_AN_OBJECT, NOT_JSON)


def command(name, flags):
    """A command's argv, drawn flag by flag from its rows, and the text of
    its --config file, drawn only when --config is."""
    rows = {cli._dest(row[0]): row for row in flags}
    config = rows.pop("config", None)
    parts = [joint(*(rows.pop(d) for d in dests)) for dests, joint in JOINT.items() if set(dests) <= set(rows)]
    parts += [flag(*row) for row in rows.values()] + [UNKNOWN]
    argv = st.tuples(*parts).map(lambda drawn: [name, *(token for tokens in drawn for token in tokens)])
    if config is None:
        return st.tuples(argv, st.just(""))
    file = mix(st.just(([], "")), st.tuples(given_flag(*config), config_text(flags)))
    return st.tuples(argv, file).map(lambda drawn: (drawn[0] + drawn[1][0], drawn[1][1]))


CASES = mix(*[command(name, c.flags) for name, c in cli.COMMANDS.items()])


def run(argv, config):
    """``main``'s exit code (argparse's ``SystemExit`` if it raises one),
    stdout, stderr and the size of each file it wrote, run in a temp
    directory that holds ``config`` as config.json."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open(CONFIG, "w") as fh:
                fh.write(config)
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc
            written = {name: os.path.getsize(name) for name in os.listdir() if name != CONFIG}
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), written


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(case=CASES)
# inputs that broke the contract: step counts that overflowed (exit 4), a
# waiting time that overflowed with a numpy warning, and huge rates with a
# coarse step, whose step map h A overflowed with a numpy warning
@example(case=(["validate", "--step=5e-324", "--trials=10"], ""))
@example(case=(["validate", "--dt=1.7e308", "--trials=10"], ""))
@example(case=(["validate", "--ratio=1e-320", "--trials=10"], ""))
@example(case=(["validate", "--gamma-b=1e300", "--gamma-x=1.0", "--dt=1e10", "--step=1e9", "--trials=10"], ""))
@example(case=(["validate", "--gamma-b=1e308", "--dt=20.0", "--step=2.0", "--trials=10"], ""))
@example(case=(["validate", "--ratio=1e300", "--gamma-x=1e5", "--dt=1e5", "--step=1e4", "--trials=10"], ""))
# a config file nested too deep to decode and a value "--" that argparse
# dropped to an empty list, which a number or a string then met (tracebacks
# with exit 1), and a bracket-edge note printed before a failed write (two
# stderr lines)
@example(case=(["amplitudes", f"--config={CONFIG}"], "[" * 10**4 + "]" * 10**4))
@example(case=(["amplitudes", "--ratio=--"], ""))
@example(case=(["sweep", "--dt-min=0", "--dt-max=1", "--points=2", "--channel=--"], ""))
@example(case=(["optimize-dt", "--alice=eb", "--dt-min=1.0", "--dt-max=2.0", "--out=missing/out.csv"], ""))
# argparse's own errors: a required flag that only the file gives, and an unknown flag
@example(case=(["sweep", f"--config={CONFIG}"], '{"dt-min": 0.1, "dt-max": 1.0, "points": 3}'))
@example(case=(["validate", "--trials=10", "--format=csv"], ""))
def test_every_command_keeps_the_exit_code_contract(case):
    argv, config = case
    code, out, err, written = run(argv, config)
    if isinstance(code, SystemExit):
        last = USAGE_ERROR.fullmatch(err.splitlines()[-1])
        assert code.code == cli.EXIT_BAD_ARGUMENTS and out == "" and last and last[1] in (None, argv[0]), err
    elif code == cli.EXIT_OK:
        assert bool(out) + len(written) == 1 and all(written.values()), (out, written)
        assert err == "" or (argv[0] == "optimize-dt" and EDGE_NOTE.fullmatch(err)), err
    elif code == cli.EXIT_VALIDATION_FAILURE:
        assert argv[0] == "validate" and out.endswith("result: FAIL\n") and err == "", (out, err)
    else:
        assert code in PREFIX and out == "", (code, out)
        assert err.startswith(PREFIX[code]) and err.count("\n") == 1 and err.endswith("\n"), err
