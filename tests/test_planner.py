import itertools
import random
from fractions import Fraction

import pytest

from symcone import chambers, planner
from symcone.errors import PreconditionError, SearchFailureError
from symcone.lattice import ClassVector, CurveData, CurveModel, IntersectionLattice
from symcone.models import (
    build_kk_model,
    builtin_model,
    kk_gamma0_model,
    ruled_model,
)
from symcone.moves import Inflate, SmoothAndReinstate, verify_certificate
from symcone.planner import (
    Unsupported,
    component_obstruction,
    dual_graph,
    dynkin_classify,
    plan,
)


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
