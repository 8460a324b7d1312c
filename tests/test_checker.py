"""The planner against the benchmark's independent replayer: perfbench/checker.py
replays a certificate document with plain Fractions and imports nothing from
symcone.  Loaded here by path, unchanged, it must give the verdict and stage
verify_certificate gives on plan's certificates and on single-field
mutations of them."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from symcone import chambers
from symcone.documents import certificate_from_doc, certificate_to_doc, format_rational
from symcone.moves import Certificate, verify_certificate
from symcone.planner import plan

from oracles import interior_class, random_curve_model, twisted_curve_model

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_checker", Path(__file__).resolve().parent.parent / "perfbench" / "checker.py"
)
checker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checker)

FACTORS = (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3), Fraction(10))


def _verdicts(doc: dict) -> tuple[tuple[bool, str], tuple[bool, str]]:
    """(checker's, verifier's) verdict and stage on a certificate document
    with its model inline; the verifier replays a fresh parse of it."""
    passed, stage, _ = checker.check_certificate(doc["model"], doc)
    report = verify_certificate(certificate_from_doc(doc))
    return (passed, stage), (report.passed, checker.stage_of_failure(report.first_failure))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_the_independent_checker_agrees_with_the_verifier(seed, twisted, data):
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    n = len(model.curves)
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="G")
    corner = chambers.corner_point(model, interior_class(model, rng), subset)
    cert = plan(model, corner)
    if not isinstance(cert, Certificate):
        return
    doc = certificate_to_doc(cert)
    checked, verified = _verdicts(doc)
    assert checked == verified == (True, "ok")
    moves = doc["moves"]
    amplitudes = [i for i, m in enumerate(moves) if "t" in m]
    if amplitudes:
        i = data.draw(st.sampled_from(amplitudes), label="move")
        factor = data.draw(st.sampled_from(FACTORS), label="factor")
        scaled = [dict(m) for m in moves]
        scaled[i]["t"] = format_rational(Fraction(scaled[i]["t"]) * factor)
        checked, verified = _verdicts({**doc, "moves": scaled})
        assert checked == verified
    if len(moves) > 1:
        shuffled = data.draw(st.permutations(moves), label="order")
        checked, verified = _verdicts({**doc, "moves": list(shuffled)})
        assert checked == verified
