import collections
import hashlib
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from symcone import chambers, planner
from symcone.documents import canonical_json, certificate_to_doc
from symcone.errors import PreconditionError, SymconeError
from symcone.lattice import ClassVector, CurveData, CurveModel, IntersectionLattice
from symcone.models import (
    build_kk_model,
    builtin_model,
    kk_gamma0_model,
    ruled_model,
)
from symcone.linalg import format_rational
from symcone.moves import Certificate, Inflate, VerificationReport, h_param, verify_certificate
from symcone.planner import (
    Unsupported,
    component_obstruction,
    dual_graph,
    dynkin_classify,
    plan,
)

from oracles import brute_inverse, first_kahler_scale, interior_class, random_curve_model


def _chain_model(squares, genera=None, edges=None):
    """Reference class w, then one curve per square, linked along a path
    unless explicit edges are given."""
    n = len(squares)
    genera = genera if genera is not None else [0] * n
    if edges is None:
        edges = [(i, i + 1) for i in range(n - 1)]
    gram = [[0] * (n + 1) for _ in range(n + 1)]
    gram[0][0] = 1000
    for i, sq in enumerate(squares):
        gram[i + 1][i + 1] = sq
    for a, b in edges:
        gram[a + 1][b + 1] = gram[b + 1][a + 1] = 1
    lattice = IntersectionLattice(
        gram=tuple(tuple(Fraction(v) for v in row) for row in gram),
        basis_labels=("w",) + tuple(f"x{i}" for i in range(n)),
        reference_class=ClassVector.basis(n + 1, 0),
    )
    curves = tuple(
        CurveData(f"x{i}", ClassVector.basis(n + 1, i + 1), genera[i])
        for i in range(n)
    )
    return CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)


# --- dual graphs and Dynkin classification ---


def test_dual_graph_structure_on_kk():
    model = build_kk_model().model
    graph = dual_graph(model)
    # every D meets three C's, every C sits in four triples
    assert graph.degree(model.index_of("D123")) == 3
    assert graph.degree(model.index_of("C1")) == 4
    assert len(graph.components()) == 1
    assert all(m == 1 for m in graph.edge_multiplicities())


def test_dual_graph_components_match_union_find():
    # DualGraph.components and the smoothing's connectivity test share one
    # routine; compare it with a union-find over random KK subsets
    model = builtin_model("kk")
    rng = random.Random(29)
    for _ in range(60):
        subset = sorted(rng.sample(range(21), rng.randint(1, 21)))
        parent = {i: i for i in subset}

        def root(i):
            while parent[i] != i:
                i = parent[i]
            return i

        gram = model.curve_gram()
        for a, b in itertools.combinations(subset, 2):
            if gram[a][b] > 0:
                parent[root(a)] = root(b)
        groups: dict[int, list[int]] = {}
        for i in subset:
            groups.setdefault(root(i), []).append(i)
        expected = tuple(sorted(tuple(g) for g in groups.values()))
        assert dual_graph(model, subset).components() == expected


def test_dual_graph_components_split():
    model = build_kk_model().model
    sub = dual_graph(model, (model.index_of("C1"), model.index_of("C2")))
    comps = sub.components()
    assert len(comps) == 2


def test_dynkin_series():
    assert dynkin_classify(dual_graph(_chain_model([-2]))).label == "A1"
    assert dynkin_classify(dual_graph(_chain_model([-2] * 4))).label == "A4"
    star4 = _chain_model([-2] * 4, edges=[(0, 1), (0, 2), (0, 3)])
    assert dynkin_classify(dual_graph(star4)).label == "D4"
    d5 = _chain_model([-2] * 5, edges=[(0, 1), (1, 2), (1, 3), (3, 4)])
    assert dynkin_classify(dual_graph(d5)).label == "D5"
    e6 = builtin_model("e6")
    assert dynkin_classify(dual_graph(e6)).label == "E6"
    e7 = _chain_model([-2] * 7, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
    assert dynkin_classify(dual_graph(e7)).label == "E7"
    e8 = _chain_model(
        [-2] * 8, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]
    )
    assert dynkin_classify(dual_graph(e8)).label == "E8"


def test_dynkin_rejects_non_ade_shapes():
    cycle = _chain_model([-2] * 4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    assert dynkin_classify(dual_graph(cycle)).label == "not-ADE"
    deg4 = _chain_model([-2] * 5, edges=[(0, 1), (0, 2), (0, 3), (0, 4)])
    assert dynkin_classify(dual_graph(deg4)).label == "not-ADE"
    two_branches = _chain_model(
        [-2] * 8,
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (4, 7)],
    )
    assert dynkin_classify(dual_graph(two_branches)).label == "not-ADE"
    disconnected = dual_graph(
        build_kk_model().model,
        (0, 1),
    )
    assert dynkin_classify(disconnected).label == "not-ADE"


def test_dynkin_rejects_multiple_edges():
    model = _chain_model([-3, -3])
    # tangent pair: pairing 2 between the two curves
    gram = [list(row) for row in model.lattice.gram]
    gram[1][2] = gram[2][1] = 2
    lattice = IntersectionLattice(
        gram=tuple(tuple(Fraction(v) for v in row) for row in gram),
        basis_labels=model.lattice.basis_labels,
        reference_class=model.lattice.reference_class,
    )
    tangent = CurveModel(
        lattice=lattice,
        curves=tuple(
            CurveData(c.label, c.vector, c.genus) for c in model.curves
        ),
        completeness_assumed=True,
    )
    assert dynkin_classify(dual_graph(tangent)).label == "not-ADE"


# --- component obstructions ---


def test_admissible_component_reports_minors():
    model = _chain_model([-2] * 3)
    result = component_obstruction(model, (0, 1, 2))
    assert isinstance(result, planner.Admissible)
    assert result.minors == (Fraction(-2), Fraction(3), Fraction(-4))


def test_witness_bcbcb_chain():
    model = _chain_model([-1, -3, -1, -3, -1], genera=[2, 4, 2, 4, 2])
    result = component_obstruction(model, range(5))
    assert isinstance(result, planner.Witness)
    assert result.coefficients == (1, 1, 2, 1, 1)
    assert result.square == 0


def test_witness_cdcdc_chain():
    model = _chain_model([-3, -1, -3, -1, -3], genera=[4, 2, 4, 2, 4])
    result = component_obstruction(model, range(5))
    assert isinstance(result, planner.Witness)
    assert result.coefficients == (1, 3, 2, 3, 1)
    assert result.square == 0


def test_witness_alternating_loop():
    loop = _chain_model(
        [-3, -1, -3, -1],
        genera=[4, 2, 4, 2],
        edges=[(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    result = component_obstruction(loop, range(4))
    assert isinstance(result, planner.Witness)
    assert result.coefficients == (1, 1, 1, 1)
    assert result.square == 0


def test_witness_kk_all_curves():
    model = build_kk_model().model
    result = component_obstruction(model, range(21))
    assert isinstance(result, planner.Witness)
    assert result.coefficients == (1,) * 21
    assert result.square == 33


def test_witness_large_loop_uses_gradient_walk():
    loop8 = _chain_model(
        [-2] * 8,
        edges=[(i, (i + 1) % 8) for i in range(8)],
    )
    result = component_obstruction(loop8, range(8))
    assert isinstance(result, planner.Witness)
    assert result.square >= 0


def test_component_obstruction_requires_connected():
    model = build_kk_model().model
    with pytest.raises(PreconditionError):
        component_obstruction(model, (0, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_coefficient_tuples_follow_the_sorted_sweep(n):
    swept = sorted(itertools.product(range(5), repeat=n), key=lambda c: (sum(c), c))
    assert list(planner._coefficient_tuples(n)) == [c for c in swept if any(c)]


def _gram_model(curve_gram):
    """Reference class w of square 1000, then one basis curve per row of
    the given curve Gram."""
    n = len(curve_gram)
    gram = [[1000] + [0] * n] + [[0] + list(row) for row in curve_gram]
    lattice = IntersectionLattice(gram=gram, reference_class=ClassVector.basis(n + 1, 0))
    curves = tuple(CurveData(f"x{i}", ClassVector.basis(n + 1, i + 1), 0) for i in range(n))
    return CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)


def _negative_definite(gram):
    """Plain Fraction Gaussian elimination without pivoting: negative
    definite exactly when every pivot (a ratio of consecutive leading
    minors) is negative."""
    m = [[Fraction(x) for x in row] for row in gram]
    for k in range(len(m)):
        if m[k][k] >= 0:
            return False
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return True


@st.composite
def _connected_inadmissible_gram(draw):
    # past 6 curves the greedy walk runs
    n = draw(st.integers(min_value=1, max_value=9))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = -draw(st.integers(min_value=1, max_value=4))
    # a random spanning tree keeps the dual graph connected; more edges on top
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        gram[i][j] = gram[j][i] = draw(st.integers(min_value=1, max_value=2))
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j] == 0:
                gram[i][j] = gram[j][i] = draw(st.sampled_from((0, 0, 0, 1)))
    assume(not _negative_definite(gram))
    return gram


@settings(max_examples=150, deadline=None)
@given(_connected_inadmissible_gram())
def test_witnesses_are_nonnegative_combinations_of_nonnegative_square(gram):
    n = len(gram)
    result = component_obstruction(_gram_model(gram), range(n))
    assert isinstance(result, planner.Witness)
    c = result.coefficients
    assert result.indices == tuple(range(n))
    assert len(c) == n and any(c)
    assert all(type(x) is int and x >= 0 for x in c)
    naive = sum(Fraction(c[i] * gram[i][j] * c[j]) for i in range(n) for j in range(n))
    assert result.square == naive >= 0


# --- planning ---


def _omega0(model):
    return ClassVector.basis(model.lattice.rank, 0)


def test_plan_interior_target_needs_no_moves():
    model = kk_gamma0_model()
    target = _omega0(model) + model.lattice.canonical_class
    cert = plan(model, target)
    assert not isinstance(cert, Unsupported)
    assert cert.moves == ()
    assert verify_certificate(cert).passed


def test_plan_gamma0_corner_recipe():
    model = kk_gamma0_model()
    cert = plan(model, _omega0(model))
    assert not isinstance(cert, Unsupported)
    assert verify_certificate(cert).passed
    assert cert.target_class == _omega0(model)
    assert "iterated-disjoin" in cert.annotations
    kinds = tuple(type(m).__name__ for m in cert.moves)
    assert kinds == (
        "SmoothAndReinstate",
        "SmoothAndReinstate",
        "Inflate",
        "SmoothAndReinstate",
        "Inflate",
        "Inflate",
        "Inflate",
    )
    # base pairings are the sweep value r on every curve
    pairings = model.pairings_with(cert.base_class)
    assert len(set(pairings)) == 1
    assert pairings[0] > 0


def test_plan_without_reference_class_is_unsupported():
    # kk has no reference class, so its positive cone is undefined
    model = builtin_model("kk")
    result = plan(model, model.lattice.canonical_class)
    assert isinstance(result, Unsupported)
    assert result.reason == "model has no reference class; the positive cone is undefined"


def test_plan_refuses_targets_outside_the_positive_cone():
    model = builtin_model("kk-extended")
    w0 = _omega0(model)
    for target, square, reference in (
        (-w0, "100", "-100"),
        (model.lattice.canonical_class, "333", "0"),
        (ClassVector.zero(22), "0", "0"),
    ):
        result = plan(model, target)
        assert isinstance(result, Unsupported)
        assert result.reason == "target is not in the positive cone"
        assert dict(result.detail) == {"square": square, "reference pairing": reference}


def test_plan_unsupported_on_kk_reference_corner():
    model = build_kk_model(extended=True).model
    result = plan(model, _omega0(model))
    assert isinstance(result, Unsupported)
    assert result.reason == "vanishing locus is not negative definite"
    assert result.witness is not None
    assert result.witness.square == 33
    assert result.witness.coefficients == (1,) * 21


def test_plan_refuses_e_type_sphere_corner():
    model = builtin_model("e6")
    result = plan(model, _omega0(model))
    assert isinstance(result, Unsupported)
    assert result.reason == "E6 configuration of (-2)-spheres is excluded"


def test_plan_d_type_sphere_corner_is_extrapolated():
    star = _chain_model([-2] * 4, edges=[(0, 1), (0, 2), (0, 3)])
    cert = plan(star, ClassVector.basis(5, 0))
    assert not isinstance(cert, Unsupported)
    assert "extrapolated" in cert.annotations
    assert verify_certificate(cert).passed


def test_plan_a_type_sphere_corner_unannotated():
    path = _chain_model([-2] * 3)
    cert = plan(path, ClassVector.basis(4, 0))
    assert not isinstance(cert, Unsupported)
    assert "extrapolated" not in cert.annotations
    assert verify_certificate(cert).passed


def test_plan_refuses_minus_one_sphere_wall():
    model = _chain_model([-1])
    result = plan(model, ClassVector.basis(2, 0))
    assert isinstance(result, Unsupported)
    assert "(-1)-sphere wall" in result.reason


def test_plan_mixed_boundary_unsupported():
    model = kk_gamma0_model()
    corner = chambers.corner_point(
        model, _omega0(model) + model.lattice.canonical_class, range(4)
    )
    mixed = chambers.chamber_point(model, corner, (0, 1), Fraction(1, 7))
    result = plan(model, mixed)
    assert isinstance(result, Unsupported)
    assert result.reason == "mixed boundary: target both vanishes and goes negative on curves"


def test_plan_requires_completeness():
    model = kk_gamma0_model()
    incomplete = CurveModel(
        lattice=model.lattice,
        curves=model.curves,
        completeness_assumed=False,
    )
    result = plan(incomplete, _omega0(model))
    assert isinstance(result, Unsupported)
    assert result.reason == "model does not assume completeness; bases cannot be certified Kähler"


def test_plan_ruled_single_curve():
    # odd-square sphere section: the wall test admits (3,1) with t = 7/2
    rm = ruled_model(0, 3, "nontrivial")
    model = rm.model
    target = ClassVector((Fraction(3), Fraction(1)))
    cert = plan(model, target)
    assert not isinstance(cert, Unsupported)
    assert verify_certificate(cert).passed
    assert len(cert.moves) == 1
    assert isinstance(cert.moves[0], Inflate)
    assert cert.moves[0].t == Fraction(7, 2)
    assert cert.base_class == ClassVector((Fraction(3), Fraction(-5, 2)))


def test_plan_ruled_unreachable_chamber():
    rm = ruled_model(0, 3, "nontrivial")
    model = rm.model
    target = ClassVector((Fraction(3), Fraction(2)))
    result = plan(model, target)
    assert isinstance(result, Unsupported)
    assert result.reason == "chamber wall out of reach: 4 v^2 >= (k-1)^2 alpha^2"
    detail = dict(result.detail)
    assert detail["4 v^2"] == "144"
    assert detail["(k-1)^2 alpha^2"] == "60"


def test_plan_cdc_component_regression():
    # C-D-C with the middle curve exhausted first needs the doubled-middle peel
    model = build_kk_model(extended=True).model
    indices = (
        model.index_of("C2"),
        model.index_of("D267"),
        model.index_of("C6"),
    )
    alpha = _omega0(model) + model.lattice.canonical_class
    corner = chambers.corner_point(model, alpha, indices)
    cert = plan(model, corner)
    assert not isinstance(cert, Unsupported)
    assert verify_certificate(cert).passed


def test_plan_soundness_all_small_subsets():
    """Every subset of at most two KK curves: a verified certificate when the
    corner target is reachable, a reasoned refusal otherwise."""
    model = build_kk_model(extended=True).model
    alpha = _omega0(model) + model.lattice.canonical_class
    subsets = [(i,) for i in range(21)] + list(itertools.combinations(range(21), 2))
    assert len(subsets) == 231
    planned = refused = 0
    for subset in subsets:
        corner = chambers.corner_point(model, alpha, subset)
        outcome = plan(model, corner)
        if isinstance(outcome, Unsupported):
            refused += 1
            assert outcome.reason
        else:
            assert verify_certificate(outcome).passed
            assert outcome.target_class == corner
            planned += 1
    # every size <= 2 vanishing set in this model is negative definite
    assert refused == 0
    assert planned == 231


def test_plan_soundness_random_subsets():
    model = build_kk_model(extended=True).model
    alpha = _omega0(model) + model.lattice.canonical_class
    rng = random.Random(20260815)
    planned = refused = 0
    for _ in range(100):
        size = rng.randint(3, 8)
        subset = tuple(sorted(rng.sample(range(21), size)))
        descriptor = chambers.descriptor_for(model, subset)
        if not descriptor.admissible:
            # an inadmissible locus must expose a nonnegative-square witness
            refused += 1
            witnessed = False
            for comp in dual_graph(model, subset).components():
                if not chambers.descriptor_for(model, comp).admissible:
                    found = component_obstruction(model, comp)
                    assert isinstance(found, planner.Witness)
                    assert found.square >= 0
                    witnessed = True
            assert witnessed
            continue
        corner = chambers.corner_point(model, alpha, subset)
        outcome = plan(model, corner)
        if isinstance(outcome, Unsupported):
            assert outcome.reason
            refused += 1
        else:
            assert verify_certificate(outcome).passed
            planned += 1
    assert planned > 0


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = PERFBENCH / "data" / "reference.json"
SMALL_SUBSETS = tuple((i,) for i in range(21)) + tuple(itertools.combinations(range(21), 2))


def test_plan_certificates_match_the_benchmark_reference():
    """Byte-identical plans: the 231 KK corners pushed from w0 + K (the
    benchmark's interior class a0) emit the recorded certificate documents."""
    digests = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]["kk-corners"]
    model = builtin_model("kk-extended")
    alpha = model.lattice.reference_class + model.lattice.canonical_class
    for subset in SMALL_SUBSETS:
        cert = plan(model, chambers.corner_point(model, alpha, subset))
        text = canonical_json(certificate_to_doc(cert, model_name="kk-extended"))
        key = "-".join(model.curves[i].label for i in subset) + "/a0"
        assert hashlib.sha256(text.encode()).hexdigest() == digests[key], key


LOCI = """
import hashlib, json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import symcone
from run import Context
from workloads import KKLoci

digests = json.loads(Path(sys.argv[3]).read_text(encoding="utf-8"))["digests"]["kk-loci"]
ctx, loci = Context(symcone), KKLoci()
out = {}
for op in loci.pool(symcone):
    if op.key.endswith("/a0"):
        ok, text = loci.check(ctx, op, loci.run(ctx, op))
        out[op.key] = ok and hashlib.sha256(text.encode()).hexdigest() == digests[op.key]
print(json.dumps(out))
"""


def test_loci_outputs_match_the_benchmark_reference():
    """Byte-identical descriptors, witnesses and loci plans: the 152 kk-loci
    pool operations from a0 pass the benchmark's independent check and hash
    to their recorded digests.  The benchmark's own workload code runs them,
    in a child process so that its modules stay out of this one."""
    src = PERFBENCH.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LOCI, str(src), str(PERFBENCH), str(REFERENCE)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(out) == 152
    assert [key for key, ok in out.items() if not ok] == []


# the benchmark's interior classes a w0 + lam K
INTERIOR = ((1, 1), (2, 1), (1, Fraction(3, 2)), (Fraction(3, 2), Fraction(2, 3)))


@settings(max_examples=80, deadline=None)
@given(
    subset=st.lists(st.integers(0, 20), min_size=1, max_size=3, unique=True),
    interior=st.sampled_from(INTERIOR),
    epsilon=st.none() | st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=64),
)
def test_plan_contract_on_kk_corners_and_chambers(subset, interior, epsilon):
    """plan returns a Certificate that verifies and ends on the target, or an
    Unsupported with a reason; it never raises.  epsilon None is the corner
    target, otherwise the chamber point that deep behind it."""
    model = builtin_model("kk-extended")
    lat = model.lattice
    a, lam = interior
    alpha = lat.reference_class.scale(a) + lat.canonical_class.scale(lam)
    descriptor = chambers.descriptor_for(model, subset)
    assume(descriptor.admissible)  # an indefinite locus has no corner point
    target = chambers.corner_point(model, alpha, descriptor)
    if epsilon is not None:
        target = chambers.chamber_point(model, target, descriptor, epsilon)
    outcome = plan(model, target)
    if isinstance(outcome, Unsupported):
        assert outcome.reason
    else:
        assert isinstance(outcome, Certificate)
        assert outcome.target_class == target
        assert verify_certificate(outcome).passed


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 4))
def test_reflected_chamber_certificate_lands_on_the_reflection(seed, pick):
    rng = random.Random(seed)
    model = random_curve_model(rng)
    index = pick % len(model.curves)
    assume(model.curve_gram()[index][index] % 2 == 0)
    alpha = interior_class(model, rng)
    reflected, cert = planner.reflected_chamber_certificate(model, alpha, index)
    assert reflected == chambers.reflect(model.lattice, alpha, model.curves[index].vector)
    assert cert.target_class == reflected
    assert verify_certificate(cert).passed


def test_plan_reports_a_failed_replay_as_unsupported(monkeypatch):
    def failing(cert):
        return VerificationReport(
            passed=False, entries=(), first_failure="forced failure at move 1", final_class=None
        )

    monkeypatch.setattr(planner, "verify_certificate", failing)
    model = builtin_model("kk-extended")
    alpha = model.lattice.reference_class + model.lattice.canonical_class
    # interior, single-curve and peeled targets all go through the one replay
    for target in (alpha, chambers.corner_point(model, alpha, (0,)),
                   chambers.corner_point(model, alpha, (0, 1))):
        result = plan(model, target)
        assert isinstance(result, Unsupported)
        assert result.reason == "planned certificate failed replay"
        assert dict(result.detail) == {"first failure": "forced failure at move 1"}


def test_plan_reports_a_failed_peel_as_unsupported(monkeypatch):
    def failing(self, state, u):
        raise planner._PlanFail("no peel candidate applies")

    monkeypatch.setattr(planner._Peeler, "peel", failing)
    model = builtin_model("kk-extended")
    alpha = model.lattice.reference_class + model.lattice.canonical_class
    result = plan(model, chambers.corner_point(model, alpha, (0, 1)))
    assert isinstance(result, Unsupported)
    assert result.reason == "the deficit does not peel into moves"
    assert dict(result.detail)["peel"] == "no peel candidate applies"


def test_plan_refuses_a_target_whose_replay_outgrows_the_digit_limit():
    # the base square has about 5000 digits, past the interpreter's limit
    model = kk_gamma0_model()
    target = ClassVector((Fraction(10**2500),) + (Fraction(0),) * 21)
    result = plan(model, target)
    assert isinstance(result, Unsupported)
    assert result.reason == "planned certificate failed replay"
    (key, failure), = result.detail
    assert key == "first failure"
    assert failure.startswith("base square: output exceeds the ")


def _scale_walk(model, target):
    """What plan's sweep should pick for a boundary target, by the naive
    walk: (scale, failing check, base) for the single inflation's t or the
    corner's r, or None where the single curve is a (-1)-sphere."""
    cls = chambers.classify(model, target)
    locus = cls.descriptor.curve_indices
    gram = model.curve_gram()
    if len(locus) == 1:
        (i,) = locus
        curve, k = model.curves[i], -gram[i][i]
        h = h_param(k, curve.genus)
        if 2 * k == h:
            return None
        pairing = cls.pairings[i]
        low = 2 * (-pairing) / (2 * k - h) if pairing < 0 else Fraction(0)
        start, direction = target, curve.vector
        scales = [low + Fraction(1, 2**j) for j in range(64)]
    else:
        # N = -M^-1 over the whole locus is block diagonal over its components
        N = [[-x for x in row] for row in brute_inverse(model.curve_gram(locus))]
        v = [cls.pairings[i] for i in locus]
        start, direction = target, ClassVector.zero(model.lattice.rank)
        for i, row in zip(locus, N):
            e = model.curves[i].vector
            start = start + e.scale(sum(x * y for x, y in zip(row, v)))
            direction = direction + e.scale(sum(row))
        scales = planner._R_SWEEP
    scale, failing = first_kahler_scale(model, start, direction, scales)
    base = None if scale is None else start - direction.scale(scale)
    return scale, failing, base


def _check_sweep_against_the_walk(model, target):
    outcome = plan(model, target)
    if isinstance(outcome, Certificate) and not outcome.moves:
        return "interior"
    expected = _scale_walk(model, target)
    if expected is None:
        return "skipped"
    scale, failing, base = expected
    if isinstance(outcome, Certificate):
        assert outcome.base_class == base
        return "certificate"
    reason, detail = outcome.reason, dict(outcome.detail)
    if reason == "no base scale makes the base Kähler":
        assert scale is None
        assert detail == {"r": format_rational(planner._R_SWEEP[-1]), "failing check": failing}
    elif reason == "no inflation amplitude keeps the base Kähler":
        assert scale is None
        assert detail["failing check"] == failing
    elif reason == "the deficit does not peel into moves":
        assert detail["r"] == format_rational(scale)
    return reason


def _boundary_targets(model, alpha, subsets):
    for subset in subsets:
        try:
            corner = chambers.corner_point(model, alpha, subset)
            yield corner
            yield chambers.chamber_point(model, corner, subset, 1)
        except SymconeError:
            continue


def test_plan_picks_the_scale_of_the_naive_walk_on_random_models():
    """The r sweep and the single inflation's t sweep test each scale from
    two Gram products; the base they pick is the one the old walk (build
    the class, test it) picks."""
    kinds = collections.Counter()
    for seed in range(30):
        rng = random.Random(seed)
        model = random_curve_model(rng, 6)
        alpha = interior_class(model, rng)
        n = len(model.curves)
        subsets = [tuple(range(n)), (rng.randrange(n),),
                   tuple(sorted(rng.sample(range(n), rng.randint(1, n))))]
        for target in _boundary_targets(model, alpha, subsets):
            kinds[_check_sweep_against_the_walk(model, target)] += 1
    assert kinds["certificate"] > 50


def test_plan_picks_the_scale_of_the_naive_walk_on_builtin_models():
    kinds = collections.Counter()
    for name in ("kk-extended", "kk-gamma0", "hesse", "e6"):
        model = builtin_model(name)
        lat = model.lattice
        rng = random.Random(name)
        if name == "hesse":
            alpha = ClassVector((10,) + (-1,) * 12)  # 10 H minus every exceptional class
        elif name == "e6":
            # the reference class is orthogonal to the E6 curves
            alpha = interior_class(model, rng) + lat.reference_class.scale(10)
        else:
            alpha = lat.reference_class + lat.canonical_class
        assert model.is_interior_kahler(alpha)
        n = len(model.curves)
        subsets = [(i,) for i in range(n)] + rng.sample(list(itertools.combinations(range(n), 2)), min(8, n * (n - 1) // 2))
        for target in _boundary_targets(model, alpha, subsets):
            kinds[_check_sweep_against_the_walk(model, target)] += 1
    assert kinds["certificate"] > 50


def _no_base_scale_model():
    """A chain e1 - c - e2 of (-2)-spheres beside a reference class w."""
    gram = ((100, 0, 0, 0), (0, -2, 1, 0), (0, 1, -2, 1), (0, 0, 1, -2))
    lattice = IntersectionLattice(gram=gram, basis_labels=("w", "e1", "c", "e2"),
                                  reference_class=ClassVector.basis(4, 0))
    curves = tuple(CurveData(label, ClassVector.basis(4, i), 0)
                   for i, label in ((1, "e1"), (2, "c"), (3, "e2")))
    return CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)


def test_no_base_scale_refusal_names_the_failing_check():
    """The target is negative on e1 and e2 and positive on c, but pulling
    it onto the e1, e2 corner makes it negative on c, and so does every
    base corner - r far: the refusal names c's pairing at the smallest r."""
    model = _no_base_scale_model()
    target = ClassVector((Fraction(1, 5), Fraction(1, 2), 0, Fraction(1, 2)))
    assert model.pairings_with(target) == (-1, 1, -1)
    outcome = plan(model, target)
    assert isinstance(outcome, Unsupported)
    assert outcome.reason == "no base scale makes the base Kähler"
    assert outcome.detail == (("r", "1/65536"), ("failing check", "pairing with c"))
    assert _check_sweep_against_the_walk(model, target) == outcome.reason


def test_no_inflation_amplitude_refusal_names_the_failing_check():
    """Two (-2)-spheres e and f meeting once beside w.  The target pairs -1
    with e and 1/2 with f, so only e is on the wall; inflating e by the
    t > 1 its bound asks for pushes the pairing with f, 1/2 - t, below 0."""
    gram = ((100, 0, 0), (0, -2, 1), (0, 1, -2))
    lattice = IntersectionLattice(gram=gram, basis_labels=("w", "e", "f"),
                                  reference_class=ClassVector.basis(3, 0))
    curves = tuple(CurveData(label, ClassVector.basis(3, i), 0) for i, label in ((1, "e"), (2, "f")))
    model = CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)
    target = ClassVector((Fraction(1, 5), Fraction(1, 2), 0))
    assert model.pairings_with(target) == (-1, Fraction(1, 2))
    outcome = plan(model, target)
    assert isinstance(outcome, Unsupported)
    assert outcome.reason == "no inflation amplitude keeps the base Kähler"
    assert outcome.component == (0,)
    assert outcome.detail == (("window start", "1"), ("failing check", "pairing with f"))
    assert _check_sweep_against_the_walk(model, target) == outcome.reason


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    start=st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5), min_size=7, max_size=7),
    direction=st.lists(st.integers(-3, 3), min_size=7, max_size=7),
    scales=st.lists(st.fractions(min_value=-2, max_value=40, max_denominator=64), min_size=1, max_size=6),
)
def test_first_interior_scale_matches_the_naive_walk(seed, start, direction, scales):
    """Scale, and the check failing at the last scale, read off two Gram
    products agree with building and testing each class."""
    model = random_curve_model(random.Random(seed), 6)
    rank = model.lattice.rank
    start = ClassVector(start[:rank])
    direction = ClassVector(direction[:rank])
    assert model.first_interior_scale(start, direction, scales) == first_kahler_scale(
        model, start, direction, scales
    )
