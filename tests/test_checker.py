"""The planner against the benchmark's independent replayer: perfbench/checker.py
replays a certificate document with plain Fractions and imports nothing from
symcone.  Loaded here by path, unchanged, it must give the verdict and stage
verify_certificate gives on plan's certificates and on single-field
mutations of them."""

import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from symcone import chambers
from symcone.chambers import Membership
from symcone.documents import canonical_json, certificate_from_doc, certificate_to_doc, format_rational
from symcone.models import builtin_model
from symcone.moves import Certificate, Inflate, verify_certificate
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
EPSILONS = (Fraction(1, 7), Fraction(1, 100), Fraction(1))


def _verdicts(doc: dict) -> tuple[tuple[bool, str], tuple[bool, str]]:
    """(checker's, verifier's) verdict and stage on a certificate document
    with its model inline; the verifier replays a fresh parse of it."""
    passed, stage, _ = checker.check_certificate(doc["model"], doc)
    report = verify_certificate(certificate_from_doc(doc))
    return (passed, stage), (report.passed, checker.stage_of_failure(report.first_failure))


def _check_plans(model, alpha, data) -> None:
    """The checker and the verifier agree on plan's certificate at the
    corner of drawn curves that alpha is pushed onto."""
    n = len(model.curves)
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="G")
    _check_plan(model, chambers.corner_point(model, alpha, subset), data)


def _check_plan(model, target, data) -> None:
    """The checker and the verifier agree on plan's certificate for the
    target, on it with one amplitude scaled, and on it with its moves
    shuffled."""
    cert = plan(model, target)
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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans(), epsilon=st.sampled_from(EPSILONS), data=st.data())
def test_the_independent_checker_agrees_with_the_verifier_on_mixed_targets(seed, twisted, epsilon, data):
    """A mixed target pairs negatively with drawn curves H and 0 with drawn
    curves Z that meet none of H: alpha is pushed onto the corner of H and
    Z, then stepped into the chamber of H, and far(H) pairs 0 with Z."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng, 6)
    n, gram = len(model.curves), model.curve_gram()
    negative = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="H")
    # a curve of H has a nonzero square, so none of H is apart from H
    apart = [j for j in range(n) if all(gram[j][i] == 0 for i in negative)]
    assume(apart)
    zero = data.draw(st.lists(st.sampled_from(apart), min_size=1, max_size=len(apart), unique=True), label="Z")
    corner = chambers.corner_point(model, interior_class(model, rng), negative + zero)
    target = chambers.chamber_point(model, corner, negative, epsilon)
    assert chambers.classify(model, target).membership is Membership.MIXED_BOUNDARY
    _check_plan(model, target, data)


def test_plan_certifies_every_kk_extended_two_curve_mixed_target():
    """w0 + K pushed onto the corner of two KK curves that do not meet, then
    into the chamber of one of them at epsilon 1/7: the target pairs -1/7
    with that curve and 0 with the other.  Each of the 348 is certified by
    two inflations; every certificate is replayed after a codec round trip,
    and every 29th is also given to the checker."""
    model = builtin_model("kk-extended")
    lat = model.lattice
    alpha = lat.reference_class + lat.canonical_class
    gram = model.curve_gram()
    pairs = [p for p in itertools.combinations(range(len(model.curves)), 2) if gram[p[0]][p[1]] == 0]
    docs = []
    for pair in pairs:
        corner = chambers.corner_point(model, alpha, pair)
        for negative in pair:
            target = chambers.chamber_point(model, corner, (negative,), Fraction(1, 7))
            assert chambers.classify(model, target).membership is Membership.MIXED_BOUNDARY
            cert = plan(model, target)
            assert isinstance(cert, Certificate)
            assert [type(m) for m in cert.moves] == [Inflate, Inflate]
            text = canonical_json(certificate_to_doc(cert))
            again = certificate_from_doc(json.loads(text))
            assert again.target_class == target
            assert verify_certificate(again).passed
            docs.append(json.loads(text))
    assert len(docs) == 348
    for doc in docs[::29]:
        assert _verdicts(doc) == ((True, "ok"), (True, "ok"))


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
