"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test prints "PASS <name>" on success; a failure asserts before the line
is printed, so the -s output is an honest checklist."""

import itertools
import random
import time
from fractions import Fraction

from symcone.chambers import chamber_point, corner_point, reflect
from symcone.errors import ModelInconsistencyError
from symcone.lattice import ClassVector, IntersectionLattice, neg_inverse
from symcone.models import (
    GAMMA0_GRAM,
    build_hesse_dual,
    build_kk_model,
    kk_gamma0_certificate,
    ruled_inflation_interval,
    ruled_model,
)
from symcone.moves import (
    Certificate,
    Inflate,
    apply_move,
    h_param,
    initial_state,
    verify_certificate,
)
from symcone.perturb import LocalCurveModel, order_of_contact_study, perturbed_intersections

from oracles import alive_objects, interior_class, random_curve_model, random_negative_definite


def test_acceptance_1_gamma0_certificate_replays_exactly():
    start = time.perf_counter()
    cert = kk_gamma0_certificate()
    model = cert.model
    lat = model.lattice
    omega0 = ClassVector.basis(lat.rank, 0)
    assert tuple(lat.pair(cert.base_class, c.vector) for c in model.curves) == (3, 1, 1, 2)
    state = initial_state(cert)
    for move in cert.moves[:3]:
        state = apply_move(state, move)
    expected = (
        omega0
        - model.curve("D123").vector.scale(5)
        - model.curve("C2").vector.scale(4)
        - model.curve("D249").vector.scale(6)
    )
    assert state.current_class == expected
    for move in cert.moves[3:]:
        state = apply_move(state, move)
    assert state.current_class == omega0
    assert verify_certificate(cert).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS certificate replay is exact ({elapsed:.3f}s)")


def test_acceptance_2_canonical_class_invariants():
    kk = build_kk_model()
    lat = kk.lattice
    assert lat.square(lat.canonical_class) == 333
    for c in kk.curves:
        if c.label.startswith("C"):
            assert c.genus == 4
            assert lat.pair(lat.canonical_class, c.vector) == 9
        else:
            assert c.genus == 2
            assert lat.pair(lat.canonical_class, c.vector) == 3
    print("PASS canonical square 333 and curve genera 4/2")


def test_acceptance_3_negative_definite_inverses_are_nonnegative():
    start = time.perf_counter()
    rng = random.Random(9001)
    for _ in range(1000):
        gram = random_negative_definite(rng, max_rank=6)
        assert all(abs(v) <= 8 for row in gram for v in row)
        inv = neg_inverse(gram)
        assert inv.det > 0 and all(v >= 0 for row in inv.adjugate for v in row)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS 1000 negative-definite inverses entrywise nonnegative ({elapsed:.1f}s)")


def test_acceptance_4_smoothed_surfaces_square_and_genus():
    lat = IntersectionLattice(
        gram=tuple(tuple(Fraction(v) for v in row) for row in GAMMA0_GRAM)
    )
    s_class = ClassVector(tuple(Fraction(c) for c in (1, 2, 1, 1)))
    sprime_class = ClassVector(tuple(Fraction(c) for c in (0, 1, 1, 1)))
    assert lat.square(s_class) == -1
    assert lat.square(sprime_class) == -1
    cert = kk_gamma0_certificate()
    state = initial_state(cert)
    for move in cert.moves:
        state = apply_move(state, move)
    assert state.object("S").genus == 14
    assert state.object("Sprime").genus == 8
    print("PASS smoothed surfaces have square -1 and genera 14/8")


def _path_lattice(squares):
    n = len(squares)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i, sq in enumerate(squares):
        gram[i][i] = Fraction(sq)
    for i in range(n - 1):
        gram[i][i + 1] = gram[i + 1][i] = Fraction(1)
    return IntersectionLattice(gram=tuple(tuple(row) for row in gram))


def test_acceptance_5_zero_square_witness_identities():
    bcb = _path_lattice((-1, -3, -1, -3, -1))
    assert bcb.square(ClassVector(tuple(Fraction(c) for c in (1, 1, 2, 1, 1)))) == 0
    cdc = _path_lattice((-3, -1, -3, -1, -3))
    assert cdc.square(ClassVector(tuple(Fraction(c) for c in (1, 3, 2, 3, 1)))) == 0
    loop = [[Fraction(0)] * 4 for _ in range(4)]
    for i, sq in enumerate((-3, -1, -3, -1)):
        loop[i][i] = Fraction(sq)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        loop[a][b] = loop[b][a] = Fraction(1)
    cycle = IntersectionLattice(gram=tuple(tuple(row) for row in loop))
    assert cycle.square(ClassVector((Fraction(1),) * 4)) == 0
    print("PASS the three zero-square obstruction identities hold")


def test_acceptance_6_inflation_formulas_are_exact():
    rng = random.Random(20260815)
    performed = 0
    while performed < 500:
        model = random_curve_model(rng)
        base = interior_class(model, rng)
        cert = Certificate(model=model, base_class=base, moves=(), target_class=base)
        state = initial_state(cert)
        lat = state.lattice
        for _ in range(5):
            alive = [o for o in alive_objects(state) if state.area(o.id) > 0]
            if not alive:
                break
            obj = rng.choice(alive)
            k = -lat.square(obj.vector)
            bound = 2 * state.area(obj.id) / h_param(int(k), obj.genus)
            t = bound * Fraction(rng.randint(1, 9), 10)
            before_sq = lat.square(state.current_class)
            area = state.area(obj.id)
            others = [(o.id, state.area(o.id)) for o in alive_objects(state)]
            new = apply_move(state, Inflate(object_id=obj.id, t=t))
            assert lat.square(new.current_class) == before_sq + 2 * t * area - t * t * k
            for oid, old_area in others:
                delta = t * lat.pair(obj.vector, new.object(oid).vector)
                assert new.area(oid) == old_area + delta
            state = new
            performed += 1
    print("PASS 500 inflations track square and area formulas exactly")


def test_acceptance_7_ruled_intervals_match_h_param():
    for g in range(3):
        for k in range(1, 7):
            parity = "nontrivial" if k % 2 == 1 else "trivial"
            other = "trivial" if parity == "nontrivial" else "nontrivial"
            try:
                ruled_model(g, k, other)
            except ModelInconsistencyError:
                pass
            else:
                raise AssertionError("mismatched parity was accepted")
            rm = ruled_model(g, k, parity)
            for a in range(1, 6):
                assert ruled_inflation_interval(rm, a) == (0, Fraction(2 * a, h_param(k, g)))
    print("PASS ruled inflation intervals equal (0, 2a/h) for g<=2, k<=6, a<=5")


def test_acceptance_8_reflections_are_exact_isometries():
    model = build_kk_model(extended=True)
    lat = model.lattice
    rng = random.Random(14)
    axes = [model.curve(lbl).vector for lbl in ("C1", "D123", "C5", "D789")]
    for _ in range(1000):
        coords = tuple(
            Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(lat.rank)
        )
        alpha = ClassVector(coords)
        axis = rng.choice(axes)
        image = reflect(lat, alpha, axis)
        assert reflect(lat, image, axis) == alpha
        assert lat.square(image) == lat.square(alpha)
        assert lat.pair(image, axis) == -lat.pair(alpha, axis)
    # squares -1 and -2 preserve integrality
    for _ in range(50):
        integral = ClassVector(tuple(Fraction(rng.randint(-9, 9)) for _ in range(lat.rank)))
        assert reflect(lat, integral, model.curve("D123").vector).is_integral
    hd = build_hesse_dual()
    hlat = hd.lattice
    hyperplane = ClassVector.basis(hlat.rank, 0)
    image = reflect(hlat, hyperplane, hd.curve("L1").vector)
    assert image == hyperplane + hd.curve("L1").vector.scale(Fraction(2, 3))
    assert not image.is_integral
    print("PASS reflections: involutive isometries, -1/-2 integral, -3 counterexample")


def test_acceptance_9_order_of_contact_slopes():
    start = time.perf_counter()
    sweeps = {
        1: (1e-2, 1e-3, 1e-4, 1e-5),
        2: (1e-2, 1e-3, 1e-4, 1e-5),
        3: (4e-3, 1e-3, 1e-4, 1e-5),
    }
    slopes = {}
    for k, sweep in sweeps.items():
        model = LocalCurveModel(1.0, k, remainder=1.0)
        for eps in sweep:
            records = perturbed_intersections([model], eps)
            assert len(records) == k
            assert all(r.sign > 0 for r in records)
        (report,) = order_of_contact_study([model], sweep)
        assert abs(report.slope - 4.0 / k) <= 0.3
        slopes[k] = report.slope
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        "PASS tangency slopes "
        + ", ".join(f"k={k}: {s:.4f}" for k, s in slopes.items())
        + f" ({elapsed:.2f}s)"
    )


def test_acceptance_10_small_corners_and_chambers_are_exact():
    model = build_kk_model(extended=True)
    lat = model.lattice
    alpha = lat.reference_class + lat.canonical_class
    eps = Fraction(1, 7)
    subsets = [(i,) for i in range(21)]
    subsets += list(itertools.combinations(range(21), 2))
    assert len(subsets) == 231
    for subset in subsets:
        corner = corner_point(model, alpha, subset)
        for i in subset:
            assert lat.pair(corner, model.curves[i].vector) == 0
        assert lat.square(corner) >= lat.square(alpha)
        interior = chamber_point(model, corner, subset, eps)
        for i in subset:
            assert lat.pair(interior, model.curves[i].vector) == -eps
    print("PASS 231 small corners exact, chamber points pair exactly -1/7")
