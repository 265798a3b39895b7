import json

import pytest

from sievelab.cli import main


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


def test_value_error_exit_code(capsys):
    code, _ = run_cli(capsys, "sqrt", "--m", "1", "--r", "0")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--kind", "nope", "--R", "1", "--j", "1", "--r", "7"])
    assert exc.value.code == 2


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


def test_energy_beyond_int64_certificate_is_refused(capsys):
    # 55109 is prime and R = r puts every residue in the multiset, so the
    # mass is 55109 and 55109^4 >= 2^63: refused before any convolution
    code = main(["energy", "--kind", "e4", "--R", "55109", "--j", "1",
                 "--r", "55109"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "2^63" in err
    assert err.count("\n") == 1
