"""Generated argv lists for cli.main: every run ends in a documented exit
code (0, 1, 2 or 3) and prints no traceback.  Skipped without
hypothesis.

Moduli and sizes are drawn small, so every run is quick and allocates
little; int64-edge and larger values go only where they cost nothing:
residues, offsets, coefficients, the rational x, and sizes that are
refused before any allocation (below 1).  accept is not drawn: it runs
for seconds."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab.cli import main  # noqa: E402
from test_cli import DEGENERATE_ARGV  # noqa: E402

EDGES = [0, 1, -1, 2 ** 31 - 1, 2 ** 31, 2 ** 62, 2 ** 63 - 1, 2 ** 63,
         -2 ** 63, -2 ** 63 - 1, -2 ** 63 - 2, 2 ** 64, 10 ** 30, -10 ** 30]


def mostly(common, rare):
    """common four draws in five, rare in the fifth."""
    return st.integers(0, 4).flatmap(lambda i: common if i else rare)


#: residues, offsets and coefficients: any integer at all, the edges
#: first, since hypothesis draws the first strategy of one_of most often
big = st.one_of(st.sampled_from(EDGES), st.integers(-50, 50),
                st.integers(-2 ** 70, 2 ** 70)).map(str)
#: moduli and sizes: small, or refused (below 1) before any allocation
size = mostly(st.integers(1, 40), st.integers(-3, 0) | st.sampled_from(
    [-2 ** 63, -2 ** 63 - 1, -10 ** 30])).map(str)
#: p/q rationals, decimals and malformed text
rational = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", big, big),
    st.sampled_from(["0.1", "1/3", "3/10", "-2.5", "1/0", "x", "", "1e400",
                     "9223372036854775808/3"]))
weight = st.one_of(st.integers(-1, 4).map(lambda w: f"fejer:{w}"),
                   st.sampled_from(["gauss:2", "fejer:", "fejer:x"]))

#: each leaf command with the strategy of each of its options' values
LEAVES = {
    ("sqrt",): {"--m": big, "--r": size},
    ("energy",): {"--kind": st.sampled_from(["e2", "e4", "f2"]),
                  "--R": size, "--j": big, "--r": size,
                  "--h": st.one_of(st.none(), big),
                  "--method": st.sampled_from(["conv", "brute"])},
    ("expsum", "jh"): {"--l": big, "--n": big, "--j": big, "--h": big,
                       "--r": size,
                       "--form": st.sampled_from(["paired", "bare"])},
    ("expsum", "gauss"): {"--q": size, "--a": big, "--b": big},
    ("expsum", "gcal"): {"--q": size, **{f: big for f in (
        "--a", "--b", "--j", "--k", "--u", "--s")}},
    ("sieve", "lhs"): {"--Q": size, "--N": size, "--M": big,
                       "--moduli": st.sampled_from(["classical", "squares"]),
                       "--seed": big},
    ("px",): {"--x": rational, "--Q": size, "--N": size},
    ("approx",): {"--x": rational, "--N": size},
    ("charsum", "s4"): {"--r": size, "--j": big,
                        "--h": st.lists(big, min_size=3, max_size=5)
                        .map(",".join)},
    ("charsum", "cubic"): {"--r": size,
                           "--M": st.integers(-1, 2).map(str),
                           "--weight": weight},
    ("charsum", "energy"): {"--r": size, "--R": size, "--j": big,
                            "--weight": weight},
}

#: scan parameters by kind, one value each
SCAN = {
    "gauss": {"q": size, "a": big, "b": big},
    "esum": {"l": big, "n": big, "j": big, "h": big, "r": size},
    "e2": {"r": size, "j": big, "R": size},
    "e4": {"r": size, "j": big, "R": size},
    "f2": {"r": size, "j": big, "R": size, "h": big},
    "bombieri": {"p": size,
                 "numerator": st.lists(big, min_size=1, max_size=3)
                 .map(";".join),
                 "denominator": st.lists(big, min_size=1, max_size=3)
                 .map(";".join)},
    "px": {"x": rational, "Q": size, "N": size},
}


@st.composite
def argvs(draw):
    """A scan, or a leaf command with drawn values and one option dropped
    in ten draws."""
    if draw(st.booleans()):
        op = draw(st.sampled_from(sorted(SCAN)))
        argv = ["scan", "--op", op]
        for name, values in SCAN[op].items():
            argv += ["--param", f"{name}={draw(values)}"]
        return argv
    cmd = draw(st.sampled_from(sorted(LEAVES)))
    options = LEAVES[cmd]
    argv = list(cmd)
    for name, values in options.items():
        value = draw(values)
        if value is not None:
            argv += [name, value]
    if cmd in (("expsum", "gauss"), ("charsum", "s4")) and draw(st.booleans()):
        argv.append("--closed")
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.sampled_from([i for i, a in enumerate(argv)
                                  if a in options]))
        del argv[i:i + 2]
    return argv


def run_main(argv):
    """(exit code, stderr) of cli.main on argv, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=1000, deadline=None, derandomize=True,
          database=None)
@given(argv=argvs())
def test_generated_argv_exits_with_a_documented_code(argv):
    code, err = run_main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


for _argv in [*DEGENERATE_ARGV,
              ["sieve", "lhs", "--Q", "2", "--N", "3",
               "--M", str(2 ** 63 - 1)]]:
    test_generated_argv_exits_with_a_documented_code = example(argv=_argv)(
        test_generated_argv_exits_with_a_documented_code)
