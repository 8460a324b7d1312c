"""Command-line interface: exit codes, the text/JSON split, and file inputs."""

import ast
import gc
import json
import os
import subprocess
import sys
import time
import tomllib
import typing
from fractions import Fraction
from pathlib import Path

import pytest

from symcone import chambers, cli, errors, perturb, planner
from symcone.cli import SENTINEL, main
from symcone.documents import certificate_from_doc, format_class, model_to_doc, parse_class
from symcone.models import builtin_model
from symcone.moves import verify_certificate

ROOT = Path(__file__).resolve().parent.parent
OMEGA0_22 = ",".join(["1"] + ["0"] * 21)


def child(*argv, stdout=subprocess.PIPE, **env):
    """python -m symcone argv in a child process, with this checkout's src
    first on its path and the environment variables env set."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "symcone", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env={**os.environ, **env, "PYTHONPATH": path})


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
    proc = child(command, "--model", spec, "--class", "1")
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout.splitlines()[-1])["error"].startswith(f"unknown model {spec!r}")


@pytest.mark.parametrize("argv", [("example", "kk-extended"), ("--help",), ("example", "-h")])
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_closed_standard_output_exits_2_without_a_traceback(unbuffered, argv):
    # the read end is closed before the child starts, so writing the report
    # or the help text meets a broken pipe: unbuffered at its first write,
    # buffered (an empty PYTHONUNBUFFERED is unset) at main's flush, before
    # the interpreter's own.  argparse drops an OSError from its own writes,
    # so unbuffered help text is lost with exit 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = child(*argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == (0 if unbuffered and argv[-1] in ("--help", "-h") else 2)
    assert proc.stderr == ""


def test_plan_emits_replayable_certificate(capsys):
    code, out = run(capsys, "plan", "--model", "kk-gamma0", "--class", OMEGA0_22)
    assert code == 0
    assert "certificate verified: PASS" in out
    doc = trailer(out)
    assert doc["model"] == "kk-gamma0"
    cert = certificate_from_doc(doc)
    assert verify_certificate(cert).passed
    assert len(cert.moves) == 7


def test_plan_certifies_a_mixed_target_that_verify_replays(capsys, tmp_path):
    # w0 + K on the corner of C1 and C2, then in the chamber of C1: it pairs
    # -1/7 with C1 and 0 with C2
    model = builtin_model("kk-extended")
    lat = model.lattice
    corner = chambers.corner_point(model, lat.reference_class + lat.canonical_class, (0, 1))
    target = ",".join(format_class(chambers.chamber_point(model, corner, (0,), Fraction(1, 7)), "target"))
    code, out = run(capsys, "classify", "--model", "kk-extended", "--class", target)
    assert code == 0 and trailer(out)["membership"] == "mixed-boundary"
    code, out = run(capsys, "plan", "--model", "kk-extended", "--class", target)
    assert code == 0
    captured = tmp_path / "mixed.txt"
    captured.write_text(out, encoding="utf-8")
    code, out = run(capsys, "verify", str(captured))
    assert code == 0
    assert trailer(out)["passed"] is True


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
    proc = child(*argv)
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
        proc = child(*argv)
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
    # a repeated label is one vertex, and is counted once
    code, out = run(capsys, "dynkin", "--model", "e6", "--curves", "e1,e1", "--curves", "e2")
    assert "selected curves: 2" in out.splitlines()
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


@pytest.mark.parametrize("specs, eps, roots", [
    (("1,2,0",), "1e-11", (1e-11, -1e-11)),  # within one model
    (("1,1,0", "2,1,0"), "1e-6", (1e-12, 5e-13)),  # across two models
    (("1,2,0",), "1e-30", (1e-30, -1e-30)),  # far below the radius 1.4e-15
    (("1,1,0", "2,1,0"), "1e-20", (1e-40, 5e-41)),
])
def test_perturb_tells_roots_apart_at_small_scales(capsys, specs, eps, roots):
    code, out = run(capsys, "perturb", *(x for s in specs for x in ("--model-spec", s)), "--eps", eps)
    assert code == 0
    records = trailer(out)["records"][repr(float(eps))]
    assert [r["z"][0] for r in records] == pytest.approx(roots, rel=1e-9)


def test_perturb_passes_simple_roots_whose_sign_underflows(capsys):
    # |g'(z)|^2 = 36 |z|^10 underflows to 0 at |z| = 4.6e-34, yet g'(z) != 0
    code, out = run(capsys, "perturb", "--model-spec", "1,6,0", "--eps", "1e-100")
    assert code == 0
    records = trailer(out)["records"][repr(1e-100)]
    assert len(records) == 6 and {r["sign"] for r in records} == {0.0}


def test_perturb_refuses_a_transversality_sign_that_overflows(capsys):
    # |g'|^2 = a^2 = 1e400 is past the largest double
    code, out = run(capsys, "perturb", "--model-spec", "1e200,1,0", "--eps", "1e-3")
    assert code == 2
    assert trailer(out)["error"] == "model 0: |g'|^2 at solution 0 overflows a double"


@pytest.mark.parametrize("spec", ["9e307,2,9e307", "1e308,2,0"])
def test_perturb_refuses_a_transversality_sign_that_is_not_finite(capsys, spec):
    # k a = 2e308 overflows to inf inside g' without raising: the signs read
    # inf and nan, which the trailer would have written as Infinity and NaN
    code, out = run(capsys, "perturb", "--model-spec", spec, "--eps", "0.1")
    assert code == 2
    assert trailer(out)["error"] == "model 0: |g'|^2 at solution 0 overflows a double"


def test_perturb_refuses_an_eps_whose_square_underflows(capsys):
    code, out = run(capsys, "perturb", "--model-spec", "1,2,0", "--eps", "1e-170")
    assert code == 2
    assert trailer(out)["error"].startswith("eps = 1e-170 is too small")
    # a subnormal eps^2 is refused too: Newton's tolerance 1e-12 eps^2 would
    # be 0, and 2.5,1,0 at 1e-160 failed in Newton (exit 1)
    for eps in ("1e-160", "1.49e-154"):
        code, out = run(capsys, "perturb", "--model-spec", "2.5,1,0", "--eps", eps)
        assert code == 2
        assert trailer(out)["error"].startswith(f"eps = {eps} is too small")
    assert run(capsys, "perturb", "--model-spec", "2.5,1,0", "--eps", "1.5e-154")[0] == 0


@pytest.mark.parametrize("args, message", [
    (("perturb", "--model-spec", "1,2,0"), "perturb needs at least one --eps"),
    (("perturb", "--model-spec", "1,2", "--eps", "0.1"), "--model-spec '1,2': expected \"a,k,c\""),
    (("perturb", "--model-spec", "a,2,0", "--eps", "0.1"), "--model-spec 'a,2,0': numbers expected"),
    (("example", "ruled", "--genus", "0", "--parity", "trivial"), "example ruled needs --genus, --k, --parity"),
    (("corner", "--model", "kk-extended", "--class", OMEGA0_22, "--curves", ","),
     "--curves: expected at least one curve label"),
    (("reflect", "--model", "kk-extended", "--class", OMEGA0_22), "reflect needs --curve or --axis"),
    # a flag the chosen form does not read is refused, not ignored
    (("reflect", "--model", "kk-extended", "--class", OMEGA0_22, "--curve", "C1", "--axis", OMEGA0_22),
     "reflect takes --curve or --axis, not both"),
    (("example", "hesse", "--genus", "1", "--k", "2", "--parity", "trivial"), "--genus is read only by example ruled"),
    (("example", "e6", "--k", "2"), "--k is read only by example ruled"),
    (("example", "kk", "--parity", "nontrivial"), "--parity is read only by example ruled"),
    (("example", "kk-extended", "--t-scale", "5"), "--t-scale is read only with --certificate"),
    (("example", "kk-gamma0", "--t-scale", "1"), "--t-scale is read only with --certificate"),
    (("example", "ruled", "--genus", "0", "--k", "2", "--parity", "trivial", "--certificate"),
     "--certificate is only available for the kk-gamma0 example"),
])
def test_argument_refusals_name_their_flag(capsys, args, message):
    code, out = run(capsys, *args)
    assert code == 2
    assert trailer(out)["error"].startswith(message)


@pytest.mark.parametrize("entry", ["\u0663", "\uff11/\uff12"])
def test_a_class_entry_takes_ascii_digits_alone(capsys, entry):
    # Arabic-Indic three and fullwidth 1/2: int() reads them, the grammar does not
    code, out = run(capsys, "classify", "--model", "kk-extended", "--class", ",".join([entry] + ["1"] * 21))
    assert code == 2
    assert trailer(out)["error"] == f"--class[0]: {entry!r} is not of the form \"p/q\""


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


@pytest.mark.parametrize("kind, mutate, message", [
    ("model", lambda doc: doc["labels"].__setitem__(0, 7), ".labels[0]: expected a string"),
    ("model", _set("rank", 0), ".rank: must be positive"),
    ("certificate", _set("moves", {}), ".moves: expected an array"),
    ("certificate", lambda doc: doc["moves"].__setitem__(0, 3), '.moves[0]: expected an object with an "op" field'),
    ("certificate", _set("initial_objects", "C1"), ".initial_objects: expected an array of strings"),
])
def test_document_refusals_name_their_field(capsys, tmp_path, kind, mutate, message):
    _, out = run(capsys, "example", "kk-gamma0", *(("--certificate",) if kind == "certificate" else ()))
    doc = trailer(out)
    mutate(doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if kind == "model":
        code, out = run(capsys, "classify", "--model", str(path), "--class", "1")
        where = str(path)
    else:
        code, out = run(capsys, "verify", str(path))
        where = "certificate"
    assert code == 2
    assert trailer(out)["error"] == where + message


def test_verify_names_the_field_of_an_inline_model_refusal(capsys, tmp_path):
    # the Gram's asymmetry is refused by the lattice constructor, under the
    # path of the certificate's inline model
    _, out = run(capsys, "example", "kk-gamma0", "--certificate")
    doc = trailer(out)
    doc["model"] = model_to_doc(builtin_model("kk-gamma0"))
    doc["model"]["gram"][0][1] = 1
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "verify", str(path))
    assert code == 2
    assert trailer(out)["error"] == "certificate.model.gram: Gram matrix must be symmetric"


@pytest.mark.parametrize("spec, eps, field", [
    ("1,2,nan", "0.1", "remainder"),
    ("inf,2,0", "0.1", "leading"),
    ("nan,2,0.1", "0.1", "leading"),
    ("1,2,0", "nan", "eps"),
    ("1,2,0", "inf", "eps"),
])
def test_perturb_refuses_non_finite_input(capsys, spec, eps, field):
    code, out = run(capsys, "perturb", "--model-spec", spec, "--eps", eps)
    assert code == 2
    assert trailer(out)["error"].startswith(field)


def test_perturb_needs_models(capsys):
    code, out = run(capsys, "perturb", "--eps", "0.1")
    assert code == 2


@pytest.mark.parametrize("args, flag", [
    (("--model-spec", "1,100000,0", "--eps", "0.1"), "--model-spec '1,100000,0'"),
    (("--model-spec", f"1,{cli.PERTURB_MAX_ORDER + 1},0", "--eps", "0.1"), "--model-spec"),
    (("--model-spec", "1,2,0") * (cli.PERTURB_MAX_VALUES + 1) + ("--eps", "0.1"), "--model-spec"),
    (("--model-spec", "1,2,0") + ("--eps", "0.1") * (cli.PERTURB_MAX_VALUES + 1), "--eps"),
    # a repeated eps would share one radius and one records key with its twin
    (("--model-spec", "1,1,0", "--eps", "0.1", "--eps", "0.05", "--eps", "0.10"), "--eps: 0.1 is given"),
])
def test_perturb_refuses_work_past_its_caps_at_once(capsys, args, flag):
    start = time.perf_counter()
    code, out = run(capsys, "perturb", *args)
    assert code == 2
    assert trailer(out)["error"].startswith(flag)
    assert time.perf_counter() - start < 5


def test_perturb_runs_at_its_caps(capsys):
    orders = [cli.PERTURB_MAX_ORDER] + [2] * (cli.PERTURB_MAX_VALUES - 1)
    specs = [f"{a},{k},0" for a, k in enumerate(orders, 1)]
    code, out = run(capsys, "perturb", *(x for s in specs for x in ("--model-spec", s)),
                    *(x for e in range(cli.PERTURB_MAX_VALUES) for x in ("--eps", str(0.1 / 2**e))))
    assert code == 0
    assert len(trailer(out)["slopes"]) == cli.PERTURB_MAX_VALUES


def test_the_perturbation_lab_is_imported_on_first_use():
    script = (
        "import sys, types\nsys.path.insert(0, sys.argv[1])\n"
        "import symcone, symcone.cli\n"
        "assert type(sys.modules['symcone.perturb']) is not types.ModuleType\n"
        "from symcone import r_epsilon\n"
        "assert symcone.perturb.r_epsilon is r_epsilon\n"
        "assert symcone.LocalCurveModel is symcone.perturb.LocalCurveModel\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_the_model_spec_parser_names_its_return_type():
    assert typing.get_type_hints(cli._parse_model_spec)["return"] is perturb.LocalCurveModel


def test_perturb_solves_each_eps_once(capsys, monkeypatch):
    calls = {"perturbed_intersections": 0, "r_epsilon": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(perturb, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(perturb, name, counted)
    specs, eps = ("1,2,0.1", "2,3,0"), ("0.1", "0.05", "0.02", "0.01")
    code, out = run(capsys, "perturb", *(x for s in specs for x in ("--model-spec", s)),
                    *(x for e in eps for x in ("--eps", e)))
    assert code == 0
    assert calls["perturbed_intersections"] == 4 and calls["r_epsilon"] <= 8
    monkeypatch.undo()
    # the slopes are those of a study that solves every eps itself
    study = perturb.order_of_contact_study([cli._parse_model_spec(s) for s in specs], map(float, eps))
    assert trailer(out)["slopes"] == [
        {"model": r.model_index, "slope": r.slope, "residual": r.residual, "used": r.used,
         "excluded": r.excluded}
        for r in study
    ]


LOADS = """
import sys, types
sys.path.insert(0, sys.argv[1])
from symcone import cli

def loaded(name):
    # type() reads the module without running it
    return type(sys.modules["symcone." + name]) is types.ModuleType

assert cli.main(["verify", sys.argv[2]]) == 0
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
assert not any(map(loaded, ("chambers", "planner", "perturb")))
assert cli.main(["plan", "--model", "kk-gamma0", "--class", sys.argv[3]]) == 0
assert loaded("chambers") and loaded("planner") and not loaded("perturb")
"""


def test_a_verify_child_runs_neither_chambers_nor_planner(capsys, tmp_path):
    certificate = tmp_path / "certificate.txt"
    certificate.write_text(run(capsys, "example", "kk-gamma0", "--certificate")[1], encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", LOADS, str(ROOT / "src"), str(certificate), OMEGA0_22],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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
    proc = child("example", "kk")
    assert proc.returncode == 0
    assert SENTINEL in proc.stdout


# runs python -m symcone's __main__ as the interpreter would, then reports
# from an atexit handler, which runs after the entry has returned
ENTRY = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv = ["symcone", *sys.argv[1:]]
runpy.run_module("symcone", run_name="__main__")
"""


def test_the_process_entry_freezes_the_heap_and_keeps_exit_codes_and_atexit(capsys, tmp_path):
    certificate = tmp_path / "certificate.txt"
    certificate.write_text(run(capsys, "example", "kk-gamma0", "--certificate")[1], encoding="utf-8")
    doc = trailer(certificate.read_text(encoding="utf-8"))
    doc["moves"][5]["t"] = "100"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    cases = [("verify", str(certificate)), ("verify", str(tampered)), ("verify", str(tmp_path)),
             ("plan", "--model", "kk-extended", "--class", OMEGA0_22)]
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    for expected, argv in enumerate(cases):
        code, out = run(capsys, *argv)
        assert code == expected
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "frozen True\n")


def test_main_in_process_never_freezes_and_run_does(capsys, monkeypatch):
    before = gc.get_freeze_count()
    assert main(["example", "kk-gamma0"]) == 0
    assert gc.get_freeze_count() == before
    monkeypatch.setattr(sys, "argv", ["symcone", "example", "kk-gamma0"])
    try:
        assert cli.run() == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out.count(SENTINEL) == 2


def test_the_script_and_python_m_both_enter_through_run():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"symcone": "symcone.cli:run"}
    tree = ast.parse((ROOT / "src" / "symcone" / "__main__.py").read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "run" in called and "main" not in called


def test_a_verify_child_without_site_imports_no_pathlib(capsys, tmp_path):
    # site may import pathlib on its own (python -S skips it); the CLI must not
    certificate = tmp_path / "certificate.txt"
    certificate.write_text(run(capsys, "example", "kk-gamma0", "--certificate")[1], encoding="utf-8")
    script = ("import sys; sys.path.insert(0, sys.argv[1]); from symcone import cli; "
              "assert cli.main(['verify', sys.argv[2]]) == 0; assert 'pathlib' not in sys.modules")
    proc = subprocess.run([sys.executable, "-S", "-c", script, str(ROOT / "src"), str(certificate)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
