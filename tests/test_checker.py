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

from oracles import (
    chain_model,
    gauss_minors,
    interior_class,
    plain_pair,
    random_curve_model,
    twisted_curve_model,
)

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


def _check_plans(model, alpha, data) -> None:
    """The checker and the verifier agree on plan's certificate at the
    corner of drawn curves that alpha is pushed onto, on it with one
    amplitude scaled, and on it with its moves shuffled."""
    n = len(model.curves)
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="G")
    corner = chambers.corner_point(model, alpha, subset)
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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), data=st.data())
def test_the_independent_checker_agrees_with_the_verifier(seed, twisted, data):
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    _check_plans(model, interior_class(model, rng), data)


def _negative_definite(gram) -> bool:
    minors = gauss_minors(gram)  # up to the first zero one
    return len(minors) == len(gram) and all(m * (-1) ** k > 0 for k, m in enumerate(minors, 1))


def _tree_model(rng: random.Random, n: int):
    """A negative definite tree of n (-2)- and (-3)-curves, each node linked
    to an earlier one, drawn again until definite."""
    while True:
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        model = chain_model([rng.choice((-2, -3)) for _ in range(n)], edges=edges)
        if _negative_definite(model.curve_gram()):
            return model


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("A", "HJ", "tree")), data=st.data())
def test_the_independent_checker_agrees_with_the_verifier_on_chains_and_trees(seed, kind, data):
    """A_n chains of (-2)-curves, Hirzebruch-Jung chains of (-b)-curves for
    b from 2 to 5, and random (-2)/(-3) trees, of 1 to 8 curves."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    if kind == "A":
        model = chain_model([-2] * n)
    elif kind == "HJ":
        model = chain_model([-rng.randint(2, 5) for _ in range(n)])
    else:
        model = _tree_model(rng, n)
    # the interior class pairs 1 to 3 with each curve; w, orthogonal to the
    # curves, is added until its square is positive
    lat = model.lattice
    alpha = interior_class(model, rng)
    while plain_pair(lat, alpha, alpha) <= 0:
        alpha = alpha + lat.reference_class
    _check_plans(model, alpha, data)
