"""Command-line interface: exit codes, the text/JSON split, and file inputs."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from symcone import cli, errors, planner
from symcone.cli import SENTINEL, main
from symcone.documents import certificate_from_doc, parse_class
from symcone.models import builtin_model
from symcone.moves import verify_certificate

OMEGA0_22 = ",".join(["1"] + ["0"] * 21)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def trailer(out):
    lines = out.splitlines()
    cut = len(lines) - 1 - lines[::-1].index(SENTINEL)
    return json.loads("\n".join(lines[cut + 1 :]))


def test_classify_corner(capsys):
    code, out = run(capsys, "classify", "--model", "kk-extended", "--class", OMEGA0_22)
    assert code == 0
    payload = trailer(out)
    assert payload["membership"] == "corner"
    assert len(payload["vanishing"]) == 21
    assert payload["admissible"] is False
    assert payload["pairings"]["C1"] == "0"


def test_classify_rejects_floats_and_short_classes(capsys):
    code, out = run(capsys, "classify", "--model", "e6",
                    "--class", "1.5,0,0,0,0,0,0")
    assert code == 2
    assert "error" in trailer(out)
    code, out = run(capsys, "classify", "--model", "e6", "--class", "1,0")
    assert code == 2
    code, out = run(capsys, "classify", "--model", "e6",
                    "--class", ",".join(["0"] * 7))
    assert code == 2


def test_classify_unknown_model(capsys):
    code, out = run(capsys, "classify", "--model", "kk-gamma7", "--class", "1")
    assert code == 2
    assert "unknown model" in trailer(out)["error"]


@pytest.mark.parametrize("command", ["plan", "classify"])
def test_overlong_model_name_exits_2(command):
    # a name past the file system's 255-byte limit; run as a child, so that
    # a traceback would show as exit 1
    spec = "m" * 300
    proc = subprocess.run(
        [sys.executable, "-m", "symcone", command, "--model", spec, "--class", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout.splitlines()[-1])["error"].startswith(f"unknown model {spec!r}")


def test_plan_emits_replayable_certificate(capsys):
    code, out = run(capsys, "plan", "--model", "kk-gamma0", "--class", OMEGA0_22)
    assert code == 0
    assert "certificate verified: PASS" in out
    doc = trailer(out)
    assert doc["model"] == "kk-gamma0"
    cert = certificate_from_doc(doc)
    assert verify_certificate(cert).passed
    assert len(cert.moves) == 7


def test_plan_unsupported_emits_witness(capsys):
    code, out = run(capsys, "plan", "--model", "kk-extended", "--class", OMEGA0_22)
    assert code == 3
    doc = trailer(out)
    assert doc["witness"]["coefficients"] == [1] * 21
    assert doc["witness"]["square"] == "33"
    assert "witness" in out.splitlines()[1]


def test_plan_overlong_witness_square_is_named_and_exits_2(capsys, monkeypatch):
    witness = planner.Witness(indices=(0,), coefficients=(1,), square=Fraction(10**5000))
    refusal = planner.Unsupported(reason="vanishing locus is not negative definite",
                                  witness=witness, component=(0,))
    monkeypatch.setattr(planner, "plan", lambda model, target: refusal)
    code, out = run(capsys, "plan", "--model", "kk-extended", "--class", OMEGA0_22)
    assert code == 2
    limit = sys.get_int_max_str_digits()
    assert trailer(out) == {
        "error": f"witness square: output exceeds the {limit}-digit integer limit"
    }
    assert "Traceback" not in out + capsys.readouterr().err


def test_verify_round_trip_and_tamper(capsys, tmp_path):
    code, out = run(capsys, "example", "kk-gamma0", "--certificate")
    assert code == 0
    captured = tmp_path / "cert.txt"
    captured.write_text(out, encoding="utf-8")
    # captured report: everything after the last sentinel is the document
    code, out = run(capsys, "verify", str(captured))
    assert code == 0
    assert trailer(out)["passed"] is True

    doc = trailer(captured.read_text(encoding="utf-8"))
    doc["moves"][5]["t"] = "100"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "verify", str(tampered))
    assert code == 1
    payload = trailer(out)
    assert payload["passed"] is False
    assert "bound 2A/h violated" in payload["first_failure"]

    truncated = tmp_path / "broken.json"
    truncated.write_text(json.dumps(doc)[:80], encoding="utf-8")
    code, out = run(capsys, "verify", str(truncated))
    assert code == 2


@pytest.mark.parametrize("quote", ["", '"'])
def test_verify_rejects_overlong_numbers(capsys, tmp_path, quote):
    # past the interpreter's digit limit, as a JSON integer or a string
    _, out = run(capsys, "example", "kk-gamma0", "--certificate")
    doc = trailer(out)
    doc["moves"][2]["t"] = "@"
    text = json.dumps(doc).replace('"@"', quote + "9" * 5000 + quote)
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    code, out = run(capsys, "verify", str(path))
    assert code == 2
    assert trailer(out)["error"] == (
        f"certificate.moves[2].t: number exceeds the {sys.get_int_max_str_digits()}-digit integer limit"
    )


_BAD_FILES = {
    "not-utf8.json": b"\xff\xfe{}",
    "nested-1000.json": b"[" * 1000 + b"]" * 1000,
    "nested-100000.json": b"[" * 100_000 + b"]" * 100_000,
    "nested-object.json": b'{"a":' * 5000 + b"1" + b"}" * 5000,
}


@pytest.mark.parametrize("name", sorted(_BAD_FILES))
@pytest.mark.parametrize("command", ["verify", "plan"])
def test_unreadable_and_deeply_nested_files_exit_2(capsys, tmp_path, name, command):
    path = tmp_path / name
    path.write_bytes(_BAD_FILES[name])
    argv = ["verify", str(path)] if command == "verify" else [
        "plan", "--model", str(path), "--class", "1"]
    code, out = run(capsys, *argv)
    assert code == 2
    error = trailer(out)["error"]
    if name == "not-utf8.json":
        assert error.startswith(f"cannot read {path}: 'utf-8' codec can't decode byte 0xff")
    else:
        assert error == f"{path}: invalid JSON (nested too deeply)"


def test_pair_sums(capsys):
    ones_c = ",".join(["1"] * 9 + ["0"] * 12)
    ones_d = ",".join(["0"] * 9 + ["1"] * 12)
    code, out = run(capsys, "pair", "--model", "kk",
                    "--left", ones_c, "--right", ones_d)
    assert code == 0
    payload = trailer(out)
    assert payload["pairing"] == "36"
    assert payload["left_square"] == "-27"
    assert payload["right_square"] == "-12"


def test_reflect_along_curve(capsys):
    code, out = run(capsys, "reflect", "--model", "e6",
                    "--class", "1,1,0,0,0,0,0", "--curve", "e1")
    assert code == 0
    payload = trailer(out)
    assert payload["reflected"] == ["1", "-1", "0", "0", "0", "0", "0"]
    assert payload["square"] == "98"


def test_reflect_zero_square_axis(capsys, tmp_path):
    code, out = run(capsys, "example", "ruled",
                    "--genus", "0", "--k", "1", "--parity", "nontrivial")
    assert code == 0
    model_file = tmp_path / "ruled.txt"
    model_file.write_text(out, encoding="utf-8")
    code, out = run(capsys, "reflect", "--model", str(model_file),
                    "--class", "3,-1", "--axis", "1,1")
    assert code == 2
    assert "error" in trailer(out)


def test_plan_outside_the_positive_cone_is_unsupported(capsys):
    minus_w0 = ",".join(["-1"] + ["0"] * 21)
    code, out = run(capsys, "plan", "--model", "kk-extended", f"--class={minus_w0}")
    assert code == 3
    assert "unsupported: target is not in the positive cone" in out
    assert trailer(out) == {
        "reason": "target is not in the positive cone",
        "detail": {"square": "100", "reference pairing": "-100"},
    }


BIG = "9" * 3000


@pytest.mark.parametrize("argv, output", [
    # the inputs parse, but the pairing and the squares have about 6000 digits
    (["pair", "--model", "kk", "--left", BIG + ",0" * 20, "--right", BIG + ",0" * 20], "pairing"),
    (["reflect", "--model", "kk-extended", "--class", BIG + ",0" * 21, "--curve", "C1"], "square"),
])
def test_overlong_output_is_named_and_exits_2(argv, output):
    # run as a child, so that a traceback would show as exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "symcone", *argv], capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    limit = sys.get_int_max_str_digits()
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "error": f"{output}: output exceeds the {limit}-digit integer limit"
    }


def test_verify_and_plan_fail_cleanly_when_a_report_outgrows_the_digit_limit(capsys, tmp_path):
    # 2500-digit coordinates parse, but the base square has about 5000 digits
    _, out = run(capsys, "example", "kk-gamma0", "--certificate")
    doc = trailer(out)
    big = "9" * 2500
    doc["base_class"][0] = doc["target_class"][0] = big
    doc["moves"] = []
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    failure = f"base square: output exceeds the {sys.get_int_max_str_digits()}-digit integer limit"
    for argv, code, payload in (
        (["verify", str(path)], 1,
         {"entries": [], "first_failure": failure, "passed": False}),
        (["plan", "--model", "kk-gamma0", "--class", ",".join(doc["target_class"])], 3,
         {"reason": "planned certificate failed replay", "detail": {"first failure": failure}}),
    ):
        # run as a child, so that a traceback would show on stderr
        proc = subprocess.run(
            [sys.executable, "-m", "symcone", *argv], capture_output=True, text=True,
        )
        assert proc.returncode == code
        assert proc.stderr == ""
        assert json.loads(proc.stdout.split(SENTINEL)[-1]) == payload


def test_corner_with_chamber(capsys):
    alpha = ",".join(["1"] + ["7/3"] * 9 + ["4"] * 12)
    code, out = run(capsys, "corner", "--model", "kk-extended",
                    "--class", alpha, "--curves", "C1,D123", "--epsilon", "1/7")
    assert code == 0
    payload = trailer(out)
    model = builtin_model("kk-extended")
    lat = model.lattice
    corner = parse_class(payload["corner"], 22, "corner")
    chamber = parse_class(payload["chamber"], 22, "chamber")
    for label in ("C1", "D123"):
        assert lat.pair(corner, model.curve(label).vector) == 0
        assert lat.pair(chamber, model.curve(label).vector) == -Fraction(1, 7)


def test_corner_outside_the_positive_cone_exits_2(capsys):
    # hesse's seeded interior class of square -21 (tests/oracles.interior_class);
    # its leading minus sign needs the --class=... form
    alpha = "-13/3,1,2,4/3,2,5/3,4/3,7/3,5/3,5/3,2,2,7/3"
    code, out = run(capsys, "corner", "--model", "hesse", f"--class={alpha}", "--curves", "L1,L2")
    assert code == 2
    assert trailer(out) == {"error": "class is not in the positive cone"}


def test_dynkin_components(capsys):
    code, out = run(capsys, "dynkin", "--model", "e6")
    assert code == 0
    payload = trailer(out)
    assert payload["overall"] == "E6"
    assert len(payload["components"]) == 1
    code, out = run(capsys, "dynkin", "--model", "e6", "--curves", "e1,e2")
    assert trailer(out)["overall"] == "A2"


def test_example_ruled_needs_flags(capsys):
    code, out = run(capsys, "example", "ruled")
    assert code == 2
    assert "needs --genus" in trailer(out)["error"]


def test_example_certificate_scale_out_of_range(capsys):
    code, out = run(capsys, "example", "kk-gamma0", "--certificate",
                    "--t-scale", "10")
    assert code == 2


def test_example_output_is_deterministic(capsys):
    _, first = run(capsys, "example", "kk")
    _, second = run(capsys, "example", "kk")
    assert first == second


def test_perturb_tables_and_study(capsys):
    code, out = run(capsys, "perturb", "--model-spec", "1,2,0.1",
                    "--eps", "0.1", "--eps", "0.05")
    assert code == 0
    payload = trailer(out)
    assert "slopes" not in payload
    assert len(payload["records"][repr(0.1)]) == 2

    code, out = run(capsys, "perturb", "--model-spec", "1,1,0.01",
                    "--eps", "0.1", "--eps", "0.05", "--eps", "0.02",
                    "--eps", "0.01")
    assert code == 0
    slopes = trailer(out)["slopes"]
    assert len(slopes) == 1
    assert abs(slopes[0]["slope"] - 4.0) < 0.3


def test_perturb_out_of_range_eps(capsys):
    code, out = run(capsys, "perturb", "--model-spec", "1,1,0.01", "--eps", "10")
    assert code == 2
    assert "not inside" in trailer(out)["error"]


def test_perturb_needs_models(capsys):
    code, out = run(capsys, "perturb", "--eps", "0.1")
    assert code == 2


# the exit code of every package error; any error without a more specific
# code, the base class included, is malformed input
EXIT_CODES = {
    "SymconeError": 2,
    "MalformedInputError": 2,
    "DocumentError": 2,
    "ConfigurationError": 2,
    "DefinitenessError": 2,
    "PreconditionError": 2,
    "DomainError": 2,
    "ModelInconsistencyError": 2,
    "SingularityError": 2,
    "RangeError": 2,
    "MoveError": 1,
    "BoundViolationError": 1,
    "LivenessError": 1,
    "WrongMoveError": 1,
    "ConnectivityError": 1,
    "PositivityError": 1,
    "NumericalFailureError": 1,
    "PropertyViolationError": 1,
    "SearchFailureError": 3,
}


def test_every_package_error_has_an_exit_code():
    family = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.SymconeError)
    }
    assert family == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_package_errors_exit_with_an_error_trailer(capsys, monkeypatch, name):
    def raising(args):
        raise getattr(errors, name)(f"raised {name}")

    monkeypatch.setattr(cli, "cmd_classify", raising)
    code = main(["classify", "--model", "kk-extended", "--class", OMEGA0_22])
    captured = capsys.readouterr()
    assert code == EXIT_CODES[name]
    assert trailer(captured.out) == {"error": f"raised {name}"}
    assert "Traceback" not in captured.out + captured.err


def test_help_and_bad_subcommand(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["example", "nonsense"]) == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "symcone", "example", "kk"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert SENTINEL in proc.stdout
