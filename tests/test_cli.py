import argparse
import csv
import io
import json
import runpy
import shlex
from pathlib import Path

import pytest

from sievelab import cli
from sievelab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sqrt_command(capsys):
    code, out = run_cli(capsys, "sqrt", "--m", "4", "--r", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["roots"] == [2, 7, 8, 13]


def test_energy_command(capsys):
    code, out = run_cli(capsys, "energy", "--kind", "e2", "--R", "1",
                        "--j", "1", "--r", "7")
    assert code == 0
    assert json.loads(out)["energy"] == 6


def test_energy_at_a_large_prime_modulus(capsys):
    # the fast kernel's memory does not grow with r: exact at r ~ 1e9
    code, out = run_cli(capsys, "energy", "--kind", "f2", "--R", "4",
                        "--j", "1", "--h", "1", "--r", "1000000007")
    assert code == 0
    assert json.loads(out)["energy"] == 492


def test_expsum_gauss_closed(capsys):
    code, out = run_cli(capsys, "expsum", "gauss", "--q", "5", "--a", "1",
                        "--b", "0", "--closed")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(5 ** 0.5)
    assert payload["value_im"] == pytest.approx(0.0)


def test_expsum_jh_and_gcal(capsys):
    code, out = run_cli(capsys, "expsum", "jh", "--l", "1", "--n", "2",
                        "--j", "1", "--h", "1", "--r", "45")
    assert code == 0
    assert "margin" in json.loads(out)
    code, out = run_cli(capsys, "expsum", "gcal", "--q", "9", "--a", "1",
                        "--b", "2", "--j", "1", "--k", "3", "--u", "2",
                        "--s", "1")
    assert code == 0
    assert json.loads(out)["terms"] == 6


def test_sieve_lhs(capsys):
    code, out = run_cli(capsys, "sieve", "lhs", "--Q", "4", "--N", "16",
                        "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] <= payload["classical"] * payload["Z"] * (1 + 1e-12)


def test_px_and_approx(capsys):
    code, out = run_cli(capsys, "px", "--x", "3/10", "--Q", "8", "--N", "512")
    assert code == 0
    assert json.loads(out)["count"] == 4
    code, out = run_cli(capsys, "approx", "--x", "3/10", "--N", "10")
    assert code == 0
    payload = json.loads(out)
    assert (payload["b"], payload["r"]) == (1, 3)
    assert sorted(payload) == ["N", "b", "j", "r", "x", "z"]


def test_charsum_commands(capsys):
    code, out = run_cli(capsys, "charsum", "s4", "--r", "7", "--j", "1",
                        "--h", "0,0,0,0", "--closed")
    assert code == 0
    assert json.loads(out)["value_re"] == pytest.approx(343)
    code, out = run_cli(capsys, "charsum", "energy", "--r", "13", "--R", "5",
                        "--j", "2", "--weight", "fejer:3")
    assert code == 0
    assert json.loads(out)["rel_error"] < 1e-6
    code, out = run_cli(capsys, "charsum", "cubic", "--r", "11", "--M", "2",
                        "--weight", "fejer:2")
    assert code == 0
    assert "margin" in json.loads(out)


def test_scan_command_writes_file(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _ = run_cli(capsys, "scan", "--op", "e2", "--param", "r=3:9:2",
                      "--param", "j=1", "--param", "R=2", "--format", "csv",
                      "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("operation,")
    assert "summary" in text


def test_scan_determinism_bytes(tmp_path, capsys):
    args = ("scan", "--op", "gauss", "--param", "q=3:15:2", "--param", "a=1",
            "--param", "b=0", "--format", "csv")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, *args, "--out", str(p1))
    run_cli(capsys, *args, "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_budget_refusal_exit_code(capsys):
    code, _ = run_cli(capsys, "charsum", "cubic", "--r", "101", "--M", "50",
                      "--weight", "fejer:5", "--budget", "10")
    assert code == 3


def test_out_of_memory_is_a_budget_refusal(monkeypatch, capsys):
    # sqrt --m 0 --r 2^62 asks for 2^31 roots; under an address-space
    # limit the solver raises MemoryError, which exits 3 with one line
    def out_of_memory(m, r):
        raise MemoryError

    monkeypatch.setattr(cli, "sqrt_mod_all", out_of_memory)
    code = main(["sqrt", "--m", "0", "--r", str(2 ** 62)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "budget refusal: out of memory\n"


def test_value_error_exit_code(capsys):
    code, _ = run_cli(capsys, "sqrt", "--m", "1", "--r", "0")
    assert code == 2


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_path_exits_2_with_one_line(where, tmp_path, capsys):
    # the value is computed, then open() raises FileNotFoundError or
    # IsADirectoryError; both are usage errors, not test failures
    out = tmp_path / "missing" / "x.json" if where == "missing directory" \
        else tmp_path
    code = main(["sqrt", "--m", "4", "--r", "15", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ")
    assert captured.err.count("\n") == 1 and str(out) in captured.err
    assert "Traceback" not in captured.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--kind", "nope", "--R", "1", "--j", "1", "--r", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize("weight, reason", [
    ("fejer:0", "width must be >= 1"),
    ("fejer:-1", "width must be >= 1"),
    ("fejer:", "invalid literal for int() with base 10: ''"),
    ("fejer:x", "invalid literal for int() with base 10: 'x'"),
])
def test_weight_refusal_shows_its_reason(weight, reason, capsys):
    # the usage error names the reason, not a private parser's name
    with pytest.raises(SystemExit) as exc:
        main(["charsum", "energy", "--r", "3", "--R", "3", "--j", "1",
              "--weight", weight])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --weight: {reason}\n")
    assert "_parse_weight" not in err


def test_accept_suite_smoke(capsys):
    # the full criteria run lives in test_acceptance; this only checks the
    # runner wiring and per-criterion reporting on the fastest suite
    code, out = run_cli(capsys, "accept", "constants")
    assert code == 0
    for n in (6, 7, 9):
        assert f"criterion {n}" in out
    assert "[PASS]" in out


def test_f2_without_h_is_a_usage_error(capsys):
    code = main(["energy", "--kind", "f2", "--R", "2", "--j", "1", "--r", "7"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "--h" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", ["e2", "e4"])
def test_h_without_f2_is_a_usage_error(kind, capsys):
    # only F2 reads --h, so E2 and E4 refuse it instead of ignoring it
    code = main(["energy", "--kind", kind, "--R", "3", "--j", "1",
                 "--r", "35", "--h", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: energy --kind {kind} does not read --h\n"


def test_s4_wrong_h_count_is_a_usage_error(capsys):
    code = main(["charsum", "s4", "--r", "7", "--j", "1", "--h", "0,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "four" in err
    assert err.count("\n") == 1


def test_scan_param_without_values_is_a_usage_error(capsys):
    code = main(["scan", "--op", "e2", "--param", "r"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_missing_grid_parameter_is_a_usage_error(capsys):
    for argv in (("--op", "e2", "--param", "r=7"),
                 ("--op", "bombieri", "--param", "p=5")):
        code = main(["scan", *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "needs grid parameters" in err
        assert err.count("\n") == 1


def test_scan_unread_grid_parameter_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "e2.csv"
    # refused by name, whatever the form of its values
    for spec in ("foo=1,2", "foo=1:3", "foo=one"):
        code = main(["scan", "--op", "e2", "--param", "r=5", "--param", "j=1",
                     "--param", "R=4", "--param", spec, "--format", "csv",
                     "--out", str(out_path)])
        err = capsys.readouterr().err
        assert code == 2, spec
        assert err == "error: operation 'e2' reads no grid parameters foo\n"
        assert not out_path.exists()


@pytest.mark.parametrize("r_params", [("r=5", "r=7"), ("r=11:5:-3",),
                                      ("r=5:11:0",), ("r=5:11:3:99",)],
                         ids=" ".join)
def test_scan_malformed_range_is_a_usage_error(tmp_path, capsys, r_params):
    out_path = tmp_path / "e2.csv"
    params = [a for p in (*r_params, "j=1", "R=4") for a in ("--param", p)]
    code = main(["scan", "--op", "e2", *params, "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_gcal_beyond_int64_is_refused(capsys):
    code = main(["expsum", "gcal", "--q", "3037000501", "--a", "1", "--b", "1",
                 "--j", "1", "--k", "1", "--u", "1", "--s", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "2^63" in err
    assert err.count("\n") == 1


def test_scan_bombieri_coefficient_grid(capsys):
    code, out = run_cli(capsys, "scan", "--op", "bombieri", "--param",
                        "p=5,7,11", "--param", "numerator=0;1", "--param",
                        "denominator=1")
    assert code == 0
    rows = json.loads(out)
    assert [r["parameters"]["numerator"] for r in rows[:3]] == ["0;1"] * 3
    assert rows[-1]["outputs"]["count"] == 3
    # a coefficient tuple has no range form
    code = main(["scan", "--op", "bombieri", "--param", "p=5",
                 "--param", "numerator=0:1", "--param", "denominator=1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_px_rational_grid(capsys):
    code, out = run_cli(capsys, "scan", "--op", "px", "--param", "x=1/3,2/7",
                        "--param", "Q=4", "--param", "N=64", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["param_x"] for r in rows[:2]] == ["2/7", "1/3"]
    assert rows[2]["out_count"] == "2"
    # a rational has no range form; a malformed one is a usage error too
    for spec in ("x=1:3", "x=1/0", "x=one"):
        code = main(["scan", "--op", "px", "--param", spec, "--param", "Q=4",
                     "--param", "N=64"])
        err = capsys.readouterr().err
        assert code == 2, spec
        assert err.startswith("error: ") and err.count("\n") == 1, spec


def test_decimal_x_is_parsed_exactly(capsys):
    # 0.1 is 1/10, not the double 3602879701896397/36028797018963968
    code, out = run_cli(capsys, "px", "--x", "0.1", "--Q", "4", "--N", "64")
    assert code == 0
    assert json.loads(out)["x"] == "1/10"
    code, out = run_cli(capsys, "scan", "--op", "px", "--param", "x=0.1",
                        "--param", "Q=4", "--param", "N=64", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["param_x"] == "1/10"


def test_px_zero_denominator_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["px", "--x", "1/0", "--Q", "4", "--N", "64"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, line", [
    (["px", "--x", "1/0", "--Q", "4", "--N", "64"],
     "sievelab px: error: argument --x: '1/0' has a zero denominator"),
    (["approx", "--x", "one", "--N", "10"],
     "sievelab approx: error: argument --x: "
     "Invalid literal for Fraction: 'one'"),
])
def test_malformed_x_names_the_reason(argv, line, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == line


def test_gauss_direct_beyond_int64_is_refused(capsys):
    code = main(["expsum", "gauss", "--q", "3037000500", "--a", "1", "--b", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "2^63" in err
    assert err.count("\n") == 1


def test_energy_beyond_int64_certificate_is_refused(capsys):
    # 55109 is prime and R = r puts every residue in the multiset, so the
    # mass is 55109 and 55109^4 >= 2^63: refused before any convolution
    code = main(["energy", "--kind", "e4", "--R", "55109", "--j", "1",
                 "--r", "55109"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "2^63" in err
    assert err.count("\n") == 1


def test_brute_energy_at_a_huge_modulus_is_refused(capsys):
    # brute squares every residue mod r: refused at once, not run for ever
    code = main(["energy", "--kind", "f2", "--R", "12", "--j", "1", "--h", "3",
                 "--r", str(2 ** 63), "--method", "brute"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: r = 9223372036854775808 too large for the squaring oracle: "
        "it squares every residue mod r, so r must be <= 1048576\n")


def test_bare_root_difference_sum_at_a_huge_modulus_is_refused(capsys):
    # the bare oracle squares every residue mod r: refused at once
    code = main(["expsum", "jh", "--l", "1", "--n", "2", "--j", "1", "--h", "1",
                 "--r", "1048577", "--form", "bare"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: r = 1048577 too large for the squaring oracle: it squares "
        "every residue mod r, so r must be <= 1048576\n")


def test_paired_and_bare_root_difference_sums_count_the_same_terms(capsys):
    terms = set()
    for form in ("paired", "bare"):
        code, out = run_cli(capsys, "expsum", "jh", "--l", "1", "--n", "2",
                            "--j", "1", "--h", "1", "--r", "45", "--form", form)
        assert code == 0
        terms.add(json.loads(out)["terms"])
    assert len(terms) == 1


@pytest.mark.parametrize("r, energy", [(2 ** 63 - 25, 44), (2 ** 63, 45056)])
def test_energy_near_2_63_is_exact(r, energy, capsys):
    # a + b of two roots passes 2^63 here, and r = 2^63 is not an int64;
    # the values are tests/test_energies.py's literal counts
    code, out = run_cli(capsys, "energy", "--kind", "f2", "--R", "12",
                        "--j", "1", "--h", "3", "--r", str(r))
    assert code == 0
    assert json.loads(out)["energy"] == energy


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_lines():
    block = README.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.strip().startswith("sievelab ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = readme_cli_lines()
    assert len(examples) >= 10
    for argv in examples:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert (tmp_path / "e2.csv").read_text().startswith("operation,")


#: the one small invocation of every leaf command used below
LEAVES = {
    ("sqrt",): ["--m", "4", "--r", "15"],
    ("energy",): ["--kind", "e2", "--R", "1", "--j", "1", "--r", "7"],
    ("scan",): ["--op", "gauss", "--param", "q=3:9:2", "--param", "a=1",
                "--param", "b=0"],
    ("expsum", "jh"): ["--l", "1", "--n", "2", "--j", "1", "--h", "1",
                       "--r", "45"],
    ("expsum", "gauss"): ["--q", "5", "--a", "1", "--b", "0"],
    ("expsum", "gcal"): ["--q", "9", "--a", "1", "--b", "2", "--j", "1",
                         "--k", "3", "--u", "2", "--s", "1"],
    ("sieve", "lhs"): ["--Q", "3", "--N", "20"],
    ("px",): ["--x", "3/10", "--Q", "8", "--N", "512"],
    ("approx",): ["--x", "3/10", "--N", "10"],
    ("charsum", "s4"): ["--r", "7", "--j", "1", "--h", "0,0,0,0"],
    ("charsum", "cubic"): ["--r", "11", "--M", "2", "--weight", "fejer:2"],
    ("charsum", "energy"): ["--r", "13", "--R", "5", "--j", "2"],
    ("accept",): ["constants"],
}

#: the shared options each leaf command takes; group parsers take none
OPTIONS = {
    ("sqrt",): {"--out"},
    ("energy",): {"--out"},
    ("scan",): {"--out", "--budget", "--format"},
    ("expsum", "jh"): {"--out"},
    ("expsum", "gauss"): {"--out"},
    ("expsum", "gcal"): {"--out"},
    ("sieve", "lhs"): {"--out", "--budget", "--seed"},
    ("px",): {"--out", "--budget"},
    ("approx",): {"--out"},
    ("charsum", "s4"): {"--out"},
    ("charsum", "cubic"): {"--out", "--budget"},
    ("charsum", "energy"): {"--out", "--budget"},
    ("accept",): set(),
    ("expsum",): set(),
    ("sieve",): set(),
    ("charsum",): set(),
}


def parser_tree(parser, path=()):
    """(command path, parser) of every subcommand parser, depth first."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield path + (name,), sub
                yield from parser_tree(sub, path + (name,))


def test_shared_options_only_on_the_commands_that_read_them():
    shared = {"--seed", "--budget", "--out", "--format"}
    found = {path: {s for a in sub._actions for s in a.option_strings} & shared
             for path, sub in parser_tree(build_parser())}
    assert found == OPTIONS
    assert set(OPTIONS) - set(LEAVES) == {("expsum",), ("sieve",), ("charsum",)}
    assert sum(len(opts) for opts in found.values()) == 19


@pytest.mark.parametrize("path", [p for p in LEAVES if "--out" in OPTIONS[p]],
                         ids=" ".join)
def test_out_writes_the_file_instead_of_stdout(path, tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out = run_cli(capsys, *path, *LEAVES[path], "--out", str(target))
    assert code == 0 and out == ""
    code, printed = run_cli(capsys, *path, *LEAVES[path])
    assert code == 0 and target.read_text() == printed


@pytest.mark.parametrize("path", [p for p in LEAVES if "--budget" in OPTIONS[p]
                                  and p != ("scan",)], ids=" ".join)
def test_budget_is_read(path, capsys):
    code, out = run_cli(capsys, *path, *LEAVES[path], "--budget", "1")
    assert code == 3 and out == ""


def test_budget_environment_override(monkeypatch, capsys):
    path = ("px",)
    monkeypatch.setenv("SIEVELAB_BUDGET", "1")
    code, out = run_cli(capsys, *path, *LEAVES[path])
    assert code == 3 and out == ""
    code, _ = run_cli(capsys, *path, *LEAVES[path], "--budget", "1000000")
    assert code == 0
    monkeypatch.setenv("SIEVELAB_BUDGET", "lots")
    with pytest.raises(SystemExit) as exc:
        main([*path, *LEAVES[path]])
    assert exc.value.code == 2
    # commands without --budget do not read it
    code, _ = run_cli(capsys, "sqrt", *LEAVES[("sqrt",)])
    assert code == 0


def test_scan_budget_truncates(capsys):
    code, out = run_cli(capsys, "scan", *LEAVES[("scan",)], "--budget", "1")
    assert code == 0 and '"operation": "truncated"' in out


def test_sieve_seed_is_read(capsys):
    _, default = run_cli(capsys, "sieve", "lhs", "--Q", "3", "--N", "20")
    _, zero = run_cli(capsys, "sieve", "lhs", "--Q", "3", "--N", "20",
                      "--seed", "0")
    _, seven = run_cli(capsys, "sieve", "lhs", "--Q", "3", "--N", "20",
                       "--seed", "7")
    assert default == zero
    assert json.loads(seven)["lhs"] != json.loads(zero)["lhs"]


@pytest.mark.parametrize("argv", [
    # options given to a group parser used to be overwritten silently by the
    # subcommand's default
    pytest.param(["expsum", "--out", "x.json", "jh", "--l", "1", "--n", "2",
                  "--j", "1", "--h", "1", "--r", "45"], id="expsum-out"),
    pytest.param(["sieve", "--seed", "7", "lhs", "--Q", "3", "--N", "20"],
                 id="sieve-seed"),
    pytest.param(["charsum", "--budget", "10", "energy", "--r", "31",
                  "--R", "10", "--j", "3"], id="charsum-budget"),
    # options no code of the command reads
    pytest.param(["sqrt", "--m", "4", "--r", "15", "--format", "csv"],
                 id="sqrt-format"),
    pytest.param(["energy", *LEAVES[("energy",)], "--format", "csv"],
                 id="energy-format"),
    pytest.param(["energy", *LEAVES[("energy",)], "--seed", "5"],
                 id="energy-seed"),
    pytest.param(["expsum", "gauss", *LEAVES[("expsum", "gauss")],
                  "--budget", "10"], id="gauss-budget"),
    pytest.param(["scan", *LEAVES[("scan",)], "--seed", "5"], id="scan-seed"),
    pytest.param(["accept", "constants", "--out", "a.txt"], id="accept-out"),
    pytest.param(["energy", *LEAVES[("energy",)], "--method", "auto"],
                 id="energy-method-auto"),
])
def test_unread_or_misplaced_option_is_a_usage_error(argv, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def _leaf(cmd, **values):
    """cmd's LEAVES invocation with the named flags' values replaced."""
    argv = list(LEAVES[cmd])
    for flag, value in values.items():
        argv[argv.index("--" + flag) + 1] = str(value)
    return [*cmd, *argv]


#: one refused size per leaf command, each exit 2 with one error line
DEGENERATE_ARGV = [
    _leaf(("sqrt",), r=-5),
    _leaf(("energy",), r=0),
    _leaf(("expsum", "jh"), r=0),
    _leaf(("expsum", "gcal"), q=0),
    _leaf(("expsum", "gauss"), q=-3),
    _leaf(("sieve", "lhs"), Q=0),
    _leaf(("sieve", "lhs"), N=0),
    _leaf(("charsum", "s4"), r=1),
    _leaf(("charsum", "cubic"), M=0),
    _leaf(("charsum", "energy"), R=0),
    _leaf(("charsum", "energy"), j=7, r=7),
    _leaf(("approx",), N=0),
    _leaf(("px",), Q=0),
    _leaf(("px",), N=-4),
    ["px", "--x", "1/3", "--Q", "4", "--N", "0"],
    ["scan", "--op", "gauss", "--param", "q=0", "--param", "a=1",
     "--param", "b=0"],
    ["scan", "--op", "e2", "--param", "r=0", "--param", "j=1",
     "--param", "R=1"],
    ["scan", "--op", "bombieri", "--param", "p=4", "--param",
     "numerator=0;1", "--param", "denominator=1"],
    ["scan", "--op", "px", "--param", "x=1/3", "--param", "Q=4",
     "--param", "N=0"],
]


@pytest.mark.parametrize("argv", DEGENERATE_ARGV, ids=" ".join)
def test_degenerate_sizes_exit_2_without_traceback(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("M", [2 ** 63 - 1, -2 ** 63 - 2])
def test_sieve_lhs_at_the_int64_edges_of_M(M, capsys):
    code, out = run_cli(capsys, "sieve", "lhs", "--Q", "2", "--N", "3",
                        "--M", str(M))
    assert code == 0
    assert json.loads(out)["lhs"] > 0


# runpy warns that this module, imported above, runs a second time
@pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
def test_module_runs_as_a_script(monkeypatch, capsys):
    # python -m sievelab.cli, as CI's scan steps run it
    monkeypatch.setattr("sys.argv", ["sievelab", "approx", "--x", "3/10",
                                     "--N", "10"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("sievelab.cli", run_name="__main__")
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["r"] == 3


def test_charsum_energy_refuses_a_non_unit_j(capsys):
    # the S4 message, before the budget is read and without a traceback
    for budget in ([], ["--budget", "1"]):
        code = main(["charsum", "energy", "--r", "7", "--R", "5", "--j", "7",
                     *budget])
        assert code == 2
        assert capsys.readouterr().err == "error: need gcd(j, r) = 1\n"


def test_charsum_energy_budget_refusal(capsys):
    # the default weight fejer:3 has width 2, so its 5^4 lattice rows
    # outweigh the r (width + ceil(log2 r)) = 31 * 7 of the direct side
    args = ["charsum", "energy", "--r", "31", "--R", "10", "--j", "3"]
    for budget in (10, 624):
        code = main([*args, "--budget", str(budget)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == ("budget refusal: estimated cost 625 exceeds budget "
                       f"{budget}\n")
    assert main([*args, "--budget", "625"]) == 0
