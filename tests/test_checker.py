"""The planner against the benchmark's independent replayer: perfbench/checker.py
replays a certificate document with plain Fractions and imports nothing from
symcone.  Loaded here by path, unchanged, it must give the verdict and stage
verify_certificate gives on plan's certificates, on certificates that sit on
the verifier's strict boundaries, and on single-field mutations of both."""

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
    """The checker and the verifier pass plan's certificate for the target,
    and agree on its mutations."""
    cert = plan(model, target)
    if not isinstance(cert, Certificate):
        return
    doc = certificate_to_doc(cert)
    checked, verified = _verdicts(doc)
    assert checked == verified == (True, "ok")
    _check_mutations(doc, data)


def _check_mutations(doc: dict, data) -> None:
    """The checker and the verifier agree on the certificate document with
    one amplitude scaled, and with its moves shuffled."""
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


# ---------------------------------------------------------------------------
# certificates at the verifier's strict boundaries


# the checker's (passed, stage, reason) on each kind of boundary certificate
BOUNDARIES = {
    "base square 0": (False, "base", "base class is outside the positive cone"),
    "base reference pairing 0": (False, "base", "base class is outside the positive cone"),
    "inflate at t = 2A/h": (False, "move 1", "t violates 0 < t < 2A/h"),
    "inflate_nonneg along a square-0 smoothing": (True, "ok", ""),
}


def _doc_class(coords) -> list:
    return [format_rational(Fraction(x)) for x in coords]


def _boundary_certificate(kind: str, data) -> dict:
    """A certificate document that sits exactly on the named boundary.

    The lattice is diagonal: H of square s (after a reference direction R of
    square 1 for the reference-pairing case) and E1, E2 of squares -k1, -k2.
    The base class is H - b1 E1 - b2 E2, of square s - k1 b1^2 - k2 b2^2 and
    area A_i = k_i b_i on E_i.  The moves inflate E1 and E2, or, with s = 1
    and k1 = k2 = 1, smooth E1 and L = H - E1 - E2, which meet once, into
    the fibre class H - E2 of square 0 and inflate along it."""
    draw = data.draw
    b = [draw(st.integers(1, 3), label="b1"), draw(st.integers(1, 3), label="b2")]
    if kind == "inflate_nonneg along a square-0 smoothing":
        k, genus, s = [1, 1], [0, 0], 1
        curves = [("E1", (0, 1, 0)), ("L", (1, -1, -1))]
        head = draw(st.integers(b[0] + b[1] + 1, 8), label="a")  # the base pairs a - b1 - b2 with L
        base = (head, -b[0], -b[1])
    else:
        k = [draw(st.integers(1, 4), label="k1"), draw(st.integers(1, 4), label="k2")]
        genus = [draw(st.integers(0, 2), label="g1"), draw(st.integers(0, 2), label="g2")]
        s = k[0] * b[0] ** 2 + k[1] * b[1] ** 2
        if kind != "base square 0":
            s += draw(st.integers(1, 5), label="square")
        curves = [("E1", (0, 1, 0)), ("E2", (0, 0, 1))]
        base = (1, -b[0], -b[1])
    squares = [s, -k[0], -k[1]]
    if kind == "base reference pairing 0":
        squares, base = [1] + squares, (0,) + base
        curves = [(label, (0,) + c) for label, c in curves]
    rank = len(squares)
    model = {
        "completeness_assumed": True,
        "curves": [{"class": list(c), "genus": g, "label": label} for (label, c), g in zip(curves, genus)],
        "gram": [[squares[i] if i == j else 0 for j in range(rank)] for i in range(rank)],
        "labels": ["R", "H", "E1", "E2"][4 - rank :],
        "rank": rank,
        "reference": _doc_class([1] + [0] * (rank - 1)),
    }
    target = [Fraction(x) for x in base]
    t_scale = draw(st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(9, 10))), label="t")
    if kind == "inflate_nonneg along a square-0 smoothing":
        reinstate = draw(st.sampled_from(([], ["E1"], ["L"])), label="reinstate")
        moves = [
            {"op": "smooth", "constituents": ["E1", "L"], "reinstate": reinstate, "new_id": "F"},
            {"op": "inflate_nonneg", "object": "F", "t": format_rational(t_scale * 4)},
        ]
        target[0] += t_scale * 4  # F = H - E2
        target[2] -= t_scale * 4
    else:
        moves = []
        for i in (0, 1):
            h = k[i] + 1 if genus[i] == 0 and k[i] % 2 == 1 else k[i]
            bound = Fraction(2 * k[i] * b[i], h)
            t = bound if kind == "inflate at t = 2A/h" and i == 0 else bound * t_scale
            moves.append({"op": "inflate", "object": f"E{i + 1}", "t": format_rational(t)})
            target[rank - 2 + i] += t
    return {
        "model": model,
        "base_class": _doc_class(base),
        "moves": moves,
        "target_class": _doc_class(target),
    }


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(BOUNDARIES)), data=st.data())
def test_the_independent_checker_agrees_with_the_verifier_at_the_strict_boundaries(kind, data):
    """Both refuse a base of square 0 or of reference pairing 0 and an
    inflation by exactly 2A/h, and both pass an inflate_nonneg along an
    object of square 0; they agree on every mutation of these."""
    doc = _boundary_certificate(kind, data)
    assert checker.check_certificate(doc["model"], doc) == BOUNDARIES[kind]
    checked, verified = _verdicts(doc)
    assert checked == verified
    _check_mutations(doc, data)
