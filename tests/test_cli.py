"""Command-line interface: output formats, determinism, exit codes."""

import inspect
import json

import pytest

from modmacd import errors
from modmacd.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_positive_text(capsys):
    code, out, _ = run(capsys, "phi", "--nu", "1,3,4,5",
                       "--nutilde", "2,3,5,5", "--form", "positive", "--text")
    assert code == 0
    assert out.strip() == ("1 + t + t*z + 4*t^2*z + 5*t^3*z + 4*t^4*z"
                           + " + 2*t^4*z^2 + t^5*z + 4*t^5*z^2 + 4*t^6*z^2"
                           + " + 2*t^7*z^2 + t^8*z^3")


def test_phi_forms_agree(capsys):
    outs = []
    for form in ("series", "finite", "positive", "auto"):
        code, out, _ = run(capsys, "phi", "--nu", "1,2,3",
                           "--nutilde", "2,3,3", "--form", form)
        assert code == 0
        outs.append(out)
    assert len(set(outs)) == 1


def test_hpoly_text(capsys):
    code, out, _ = run(capsys, "hpoly", "--lambda", "2",
                       "--route", "lattice", "--text")
    assert code == 0
    assert out.strip() == "m[2]: 1; m[1,1]: 1 + q"


def test_hpoly_routes_identical_output(capsys):
    outs = []
    for route in ("lattice", "dual", "oracle"):
        code, out, _ = run(capsys, "hpoly", "--lambda", "2,1",
                           "--route", route, "--json")
        assert code == 0
        outs.append(out)
    assert len(set(outs)) == 1


def test_hl_text(capsys):
    code, out, _ = run(capsys, "hl", "--lambda", "1,1", "--text")
    assert code == 0
    assert out.strip() == "m[2]: t; m[1,1]: 1 + t"


def test_kostka_text(capsys):
    code, out, _ = run(capsys, "kostka", "--lambda", "2,1", "--text")
    assert code == 0
    assert out.strip() == "s[3]: t; s[2,1]: 1 + q*t; s[1,1,1]: q"


def test_coeff_accepts_unsorted_mu(capsys):
    code, out, _ = run(capsys, "coeff", "--lambda", "2,1", "--mu", "1,2")
    assert code == 0
    assert out.strip() == "1 + t + q*t"


@pytest.mark.parametrize("route", ["lattice", "dual", "oracle"])
def test_coeff_default_vars_cover_mu(capsys, route):
    # mu has more parts than lambda needs variables; the default N must
    # still hold it instead of printing 0.
    code, out, _ = run(capsys, "coeff", "--lambda", "2,1", "--mu", "1,1,1",
                       "--route", route)
    assert code == 0
    assert out.strip() == "2 + t + q + 2*q*t"


def test_coeff_too_few_vars_for_mu_exit_two(capsys):
    code, out, err = run(capsys, "coeff", "--lambda", "2,1", "--mu", "1,1,1",
                         "--vars", "2")
    assert code == 2
    assert out == ""
    assert "invalid input" in err


def test_json_output_is_valid_and_deterministic(capsys):
    code, out1, _ = run(capsys, "phi", "--nu", "1,2",
                        "--nutilde", "1,2", "--json")
    assert code == 0
    data = json.loads(out1)
    assert data["vars"] == sorted(data["vars"])
    assert all(set(t) == {"exp", "coef"} for t in data["terms"])
    code, out2, _ = run(capsys, "phi", "--nu", "1,2",
                        "--nutilde", "1,2", "--json")
    assert out1 == out2


def test_json_table_output(capsys):
    code, out, _ = run(capsys, "hpoly", "--lambda", "1,1", "--json")
    assert code == 0
    table = json.loads(out)
    assert set(table) == {"2", "1,1"}
    assert table["2"]["vars"] == ["t"]


def test_cauchy_command(capsys):
    code, out, _ = run(capsys, "cauchy", "--form", "PQ",
                       "--vars", "1", "--max-weight", "2")
    assert code == 0
    assert "ok" in out


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "duality",
                       "--max-weight", "3")
    assert code == 0
    assert out.strip() == "duality: ok"


def test_verify_parallel(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cauchy",
                       "--max-weight", "2", "--jobs", "2")
    assert code == 0
    assert "cauchy: ok" in out


def test_usage_errors_exit_two(capsys):
    # Mismatched tops.
    code, _, err = run(capsys, "phi", "--nu", "1,2", "--nutilde", "1,3")
    assert code == 2
    assert "invalid input" in err
    # Negative entries.
    code, _, err = run(capsys, "phi", "--nu", "-1,2", "--nutilde", "1,2")
    assert code == 2
    # Too few variables for the shape.
    code, _, err = run(capsys, "hpoly", "--lambda", "2,1", "--vars", "1")
    assert code == 2
    # Unknown flag or missing subcommand.
    assert run(capsys, "phi", "--bogus", "1")[0] == 2
    assert run(capsys)[0] == 2
    # Unknown route value.
    assert run(capsys, "hpoly", "--lambda", "2", "--route", "nope")[0] == 2


def test_every_error_is_usage_or_consistency():
    # main maps UsageError to exit code 2 and ConsistencyError to 1.
    bases = (errors.UsageError, errors.ConsistencyError)
    classes = [cls for cls in vars(errors).values()
               if inspect.isclass(cls) and issubclass(cls, Exception)
               and cls not in bases + (errors.ModmacdError,)]
    assert classes
    for cls in classes:
        assert sum(issubclass(cls, base) for base in bases) == 1, cls


def test_mutually_exclusive_output_flags(capsys):
    code, _, _ = run(capsys, "hpoly", "--lambda", "2", "--json", "--text")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("cauchy", "--form", "PQ", "--vars", "0"),
    ("cauchy", "--form", "PQ", "--vars", "-2"),
    ("verify", "--suite", "hl", "--max-weight", "-5"),
    ("verify", "--jobs", "-3"),
])
def test_empty_ranges_exit_two(capsys, argv):
    # Each of these once swept an empty alphabet or weight range and
    # printed "ok".
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "ok" not in out
    assert "invalid input" in err
