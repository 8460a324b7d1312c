import collections
import hashlib
import itertools
import json
import random
import re
import subprocess
import sys
from symcone import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from symcone import chambers, lattice, planner
from symcone.documents import canonical_json, certificate_to_doc, report_to_doc, unsupported_to_doc
from symcone.errors import PreconditionError, SymconeError
from symcone.lattice import ClassVector, CurveData, CurveModel, IntersectionLattice, Support
from symcone.models import (
    build_kk_model,
    builtin_model,
    kk_gamma0_model,
    ruled_model,
)
from symcone.linalg import format_rational, iter_pivot_minors
from symcone.moves import Certificate, Inflate, Replay, h_param, verify_certificate
from symcone.planner import (
    Unsupported,
    component_obstruction,
    dual_graph,
    dynkin_classify,
    plan,
)

from oracles import (
    ag23_automorphisms,
    brute_inverse,
    chain_model,
    first_kahler_scale,
    folded_combination,
    interior_class,
    random_curve_model,
    twisted_curve_model,
)


# --- dual graphs and Dynkin classification ---


def test_dual_graph_structure_on_kk():
    model = build_kk_model()
    graph = dual_graph(model)

    def degree(i):
        return sum(1 for j, v in enumerate(graph.gram[i]) if j != i and v > 0)

    # every D meets three C's, every C sits in four triples
    assert degree(model.index_of("D123")) == 3
    assert degree(model.index_of("C1")) == 4
    assert len(graph.components()) == 1
    assert all(v == 1 for i, row in enumerate(graph.gram) for j, v in enumerate(row) if j != i and v > 0)


def test_dual_graph_components_match_union_find():
    # a dual graph's components and the smoothing's connectivity test share one
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


def test_components_are_found_once_per_support(monkeypatch):
    # the model's Support keeps its components: dual graphs, the peel and
    # plan's locus read them, and the connectivity routine runs once
    model = build_kk_model(extended=True)
    real, calls = lattice.pairing_components, []
    monkeypatch.setattr(lattice, "pairing_components", lambda p: calls.append(p) or real(p))
    subset = (model.index_of("C1"), model.index_of("D123"), model.index_of("C5"))
    first = dual_graph(model, subset).components()
    assert first == ((0, 9), (4,)) and len(calls) == 1
    assert dual_graph(model, subset[::-1]).components() is first
    assert model.support(subset).components() is first
    alpha = model.lattice.reference_class + model.lattice.canonical_class
    cert = plan(model, chambers.corner_point(model, alpha, subset))
    assert isinstance(cert, Certificate)
    again = len(calls)
    plan(model, chambers.corner_point(model, alpha, subset))
    assert len(calls) == again


def test_dual_graph_components_split():
    model = build_kk_model()
    sub = dual_graph(model, (model.index_of("C1"), model.index_of("C2")))
    comps = sub.components()
    assert len(comps) == 2


def test_dynkin_series():
    assert dynkin_classify(dual_graph(chain_model([-2]))).label == "A1"
    assert dynkin_classify(dual_graph(chain_model([-2] * 4))).label == "A4"
    star4 = chain_model([-2] * 4, edges=[(0, 1), (0, 2), (0, 3)])
    assert dynkin_classify(dual_graph(star4)).label == "D4"
    d5 = chain_model([-2] * 5, edges=[(0, 1), (1, 2), (1, 3), (3, 4)])
    assert dynkin_classify(dual_graph(d5)).label == "D5"
    e6 = builtin_model("e6")
    assert dynkin_classify(dual_graph(e6)).label == "E6"
    e7 = chain_model([-2] * 7, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
    assert dynkin_classify(dual_graph(e7)).label == "E7"
    e8 = chain_model(
        [-2] * 8, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]
    )
    assert dynkin_classify(dual_graph(e8)).label == "E8"


def test_dynkin_rejects_non_ade_shapes():
    cycle = chain_model([-2] * 4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    assert dynkin_classify(dual_graph(cycle)).label == "not-ADE"
    deg4 = chain_model([-2] * 5, edges=[(0, 1), (0, 2), (0, 3), (0, 4)])
    assert dynkin_classify(dual_graph(deg4)).label == "not-ADE"
    two_branches = chain_model(
        [-2] * 8,
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (4, 7)],
    )
    assert dynkin_classify(dual_graph(two_branches)).label == "not-ADE"
    disconnected = dual_graph(
        build_kk_model(),
        (0, 1),
    )
    assert dynkin_classify(disconnected).label == "not-ADE"


def test_dynkin_rejects_multiple_edges():
    model = chain_model([-3, -3])
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


def _graph_support(n, edges):
    """The Support of n (-2)-spheres meeting once along each edge."""
    gram = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        gram[a][b] = gram[b][a] = 1
    return Support(tuple(range(n)), tuple(map(tuple, gram)))


def test_dynkin_labels_count_every_labelled_graph_on_six_vertices():
    # a type with automorphism group Aut labels n!/|Aut| of the 2^(n choose 2)
    # labelled simple graphs on n vertices; every other graph is not ADE
    counts = collections.Counter()
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            edges = [p for bit, p in enumerate(pairs) if mask >> bit & 1]
            counts[dynkin_classify(_graph_support(n, edges)).label] += 1
    expected = {"A1": 1, "A2": 1, "A3": 3, "A4": 12, "D4": 4, "A5": 60, "D5": 60,
                "A6": 360, "D6": 360, "E6": 360}
    assert {k: v for k, v in counts.items() if k != "not-ADE"} == expected
    assert counts["not-ADE"] == sum(2 ** (n * (n - 1) // 2) for n in range(1, 7)) - sum(expected.values())


def _legs(legs):
    """Edges of a star whose centre 0 carries paths of the given lengths."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt, edges


@pytest.mark.parametrize("n, edges, label", [
    (*_legs((1, 1, 4)), "D7"),
    (*_legs((1, 1, 5)), "D8"),
    (*_legs((1, 2, 3)), "E7"),
    (*_legs((1, 2, 4)), "E8"),
    (*_legs((2, 2, 2)), "not-ADE"),  # affine E6
    (*_legs((1, 3, 3)), "not-ADE"),  # affine E7
    (*_legs((1, 2, 5)), "not-ADE"),  # affine E8
    (6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)], "not-ADE"),  # affine D5
])
def test_dynkin_labels_larger_trees_under_any_numbering(n, edges, label):
    rng = random.Random(n * 31 + len(label))
    for _ in range(20):
        order = rng.sample(range(n), n)
        relabelled = [(order[a], order[b]) for a, b in edges]
        assert dynkin_classify(_graph_support(n, relabelled)).label == label


# --- component obstructions ---


def test_admissible_component_reports_minors():
    model = chain_model([-2] * 3)
    result = component_obstruction(model, (0, 1, 2))
    assert isinstance(result, Support)
    assert tuple(iter_pivot_minors(result.gram)) == (Fraction(-2), Fraction(3), Fraction(-4))


def test_witness_bcbcb_chain():
    model = chain_model([-1, -3, -1, -3, -1], genera=[2, 4, 2, 4, 2])
    result = component_obstruction(model, range(5))
    assert isinstance(result, planner.Witness)
    assert result.coefficients == (1, 1, 2, 1, 1)
    assert result.square == 0


def test_witness_cdcdc_chain():
    model = chain_model([-3, -1, -3, -1, -3], genera=[4, 2, 4, 2, 4])
    result = component_obstruction(model, range(5))
    assert isinstance(result, planner.Witness)
    assert result.coefficients == (1, 3, 2, 3, 1)
    assert result.square == 0


def test_witness_alternating_loop():
    loop = chain_model(
        [-3, -1, -3, -1],
        genera=[4, 2, 4, 2],
        edges=[(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    result = component_obstruction(loop, range(4))
    assert isinstance(result, planner.Witness)
    assert result.coefficients == (1, 1, 1, 1)
    assert result.square == 0


def test_witness_kk_all_curves():
    model = build_kk_model()
    result = component_obstruction(model, range(21))
    assert isinstance(result, planner.Witness)
    assert result.coefficients == (1,) * 21
    assert result.square == 33


def test_witness_large_loop_uses_gradient_walk():
    loop8 = chain_model(
        [-2] * 8,
        edges=[(i, (i + 1) % 8) for i in range(8)],
    )
    result = component_obstruction(loop8, range(8))
    assert isinstance(result, planner.Witness)
    assert result.square >= 0


def test_component_obstruction_requires_connected():
    model = build_kk_model()
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
    _checked_witness(gram, component_obstruction(_gram_model(gram), range(len(gram))))


@st.composite
def _curve_gram(draw):
    """Squares -1..-3 and off-diagonal entries 0..2: often indefinite, often
    disconnected."""
    n = draw(st.integers(min_value=1, max_value=7))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = -draw(st.integers(min_value=1, max_value=3))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.sampled_from((0, 0, 0, 1, 2)))
    return gram


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(("random", "twisted", "kk-extended", "gram")),
    data=st.data(),
)
def test_a_locus_is_inadmissible_exactly_when_one_of_its_components_is(seed, family, data):
    """Curves pair nonnegatively, so a locus Gram is block diagonal over its
    pairing components: it is negative definite (by the plain Fraction
    elimination too) exactly when every component is, and an inadmissible
    one has a component whose obstruction is a Witness, which plan's
    refusal of an inadmissible vanishing locus relies on."""
    rng = random.Random(seed)
    if family == "kk-extended":
        model = builtin_model(family)
    elif family == "gram":
        model = _gram_model(data.draw(_curve_gram(), label="gram"))
    else:
        model = (twisted_curve_model if family == "twisted" else random_curve_model)(rng, 6)
    n = len(model.curves)
    for _ in range(4):
        indices = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))
        support = model.support(indices)
        comps = support.components()
        assert support.admissible == all(model.support(c).admissible for c in comps)
        assert support.admissible == _negative_definite(support.gram)
        witnessed = [isinstance(component_obstruction(model, c), planner.Witness) for c in comps]
        assert any(witnessed) == (not support.admissible)


# a 10-curve locus whose greedy walk finds no witness: its leading minors
# keep Sylvester's signs up to k = 9 (-36) and det M_10 = -30 breaks them
WALK_MISS = (
    (-20, 3, 3, 0, 0, 0, 0, 0, 0, 0), (3, -4, 0, 1, 0, 1, 0, 0, 3, 0), (3, 0, -5, 0, 2, 0, 0, 0, 0, 0),
    (0, 1, 0, -3, 0, 0, 2, 1, 0, 0), (0, 0, 2, 0, -2, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, -3, 0, 0, 0, 0),
    (0, 0, 0, 2, 0, 0, -2, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, -4, 0, 0), (0, 3, 0, 0, 0, 0, 0, 0, -5, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, -8),
)


def _checked_witness(gram, found):
    """found is a Witness over every curve of gram: nonnegative integer
    coefficients, not all zero, whose recomputed square is its square and
    is nonnegative."""
    n = len(gram)
    assert isinstance(found, planner.Witness)
    c = found.coefficients
    assert found.indices == tuple(range(n))
    assert len(c) == n and any(c)
    assert all(type(x) is int and x >= 0 for x in c)
    naive = sum(Fraction(c[i] * gram[i][j] * c[j]) for i in range(n) for j in range(n))
    assert found.square == naive >= 0


def test_plan_refuses_a_locus_the_walk_misses_with_the_schur_witness():
    model = _gram_model(WALK_MISS)
    result = plan(model, _omega0(model))
    assert isinstance(result, Unsupported)
    assert result.reason == "vanishing locus is not negative definite"
    assert result.component == tuple(range(10))
    _checked_witness(WALK_MISS, result.witness)
    # (-M_9^{-1} m, 1) scaled to integers by 6: square 6^2 det M_10 / det M_9
    assert result.witness.coefficients == (48, 270, 50, 360, 53, 90, 360, 90, 162, 6)
    assert result.witness.square == 36 * Fraction(-30, -36) == 30
    assert dict(result.detail) == {"witness square": "30"}


def test_the_schur_witness_stops_at_a_zero_leading_minor():
    # a 7-cycle of (-2)-curves (affine A_6, null vector 1) with one curve of
    # square -10^6 on it: the walk from all ones cannot lower that curve's
    # coefficient, and the cycle's leading minor det M_7 is exactly 0, so
    # the witness is (-M_6^{-1} m, 1) = the cycle's null vector
    gram = [[0] * 8 for _ in range(8)]
    for i in range(7):
        gram[i][i] = -2
        gram[i][(i + 1) % 7] = gram[(i + 1) % 7][i] = 1
    gram[7][7], gram[0][7], gram[7][0] = -10**6, 1, 1
    assert list(iter_pivot_minors(gram))[6] == 0
    model = _gram_model(gram)
    result = plan(model, _omega0(model))
    assert isinstance(result, Unsupported)
    assert result.reason == "vanishing locus is not negative definite"
    _checked_witness(gram, result.witness)
    assert result.witness.coefficients == (1, 1, 1, 1, 1, 1, 1, 0)
    assert result.witness.square == 0


@st.composite
def _connected_z_gram(draw):
    """A connected symmetric Z-matrix of 1-10 curves, squares -1..-20 and
    edge multiplicities 1-3: definite, indefinite and, where each square is
    minus the curve's row sum, semidefinite ones alike."""
    n = draw(st.integers(min_value=1, max_value=10))
    gram = [[0] * n for _ in range(n)]
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        gram[i][j] = gram[j][i] = draw(st.integers(min_value=1, max_value=3))
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j] == 0:
                gram[i][j] = gram[j][i] = draw(st.sampled_from((0, 0, 0, 0, 1)))
    laplacian = n > 1 and draw(st.booleans())
    for i in range(n):
        gram[i][i] = -sum(gram[i]) if laplacian else -draw(st.integers(min_value=1, max_value=20))
    return gram


@settings(max_examples=200, deadline=None)
@given(_connected_z_gram())
def test_component_obstruction_is_total_on_connected_loci(gram):
    n = len(gram)
    found = component_obstruction(_gram_model(gram), range(n))
    if _negative_definite(gram):
        assert isinstance(found, Support)
    else:
        _checked_witness(gram, found)


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
    model = build_kk_model(extended=True)
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
    star = chain_model([-2] * 4, edges=[(0, 1), (0, 2), (0, 3)])
    cert = plan(star, ClassVector.basis(5, 0))
    assert not isinstance(cert, Unsupported)
    assert "extrapolated" in cert.annotations
    assert verify_certificate(cert).passed


def test_plan_a_type_sphere_corner_unannotated():
    path = chain_model([-2] * 3)
    cert = plan(path, ClassVector.basis(4, 0))
    assert not isinstance(cert, Unsupported)
    assert "extrapolated" not in cert.annotations
    assert verify_certificate(cert).passed


def test_plan_refuses_minus_one_sphere_wall():
    model = chain_model([-1])
    result = plan(model, ClassVector.basis(2, 0))
    assert isinstance(result, Unsupported)
    assert "(-1)-sphere wall" in result.reason


def test_plan_mixed_boundary_unsupported():
    # pairings -1/7, -1/7, 2/7 and 0: the sweep takes the mixed target like
    # any other, and no base scale keeps the pairing with C2 positive
    model = kk_gamma0_model()
    corner = chambers.corner_point(
        model, _omega0(model) + model.lattice.canonical_class, range(4)
    )
    mixed = chambers.chamber_point(model, corner, (0, 1), Fraction(1, 7))
    assert chambers.classify(model, mixed).membership is chambers.Membership.MIXED_BOUNDARY
    result = plan(model, mixed)
    assert isinstance(result, Unsupported)
    assert result.reason == "no base scale makes the base Kähler"
    assert result.detail == (("r", "1/65536"), ("failing check", "pairing with C2"))


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


def test_plan_refuses_a_chamber_wall_exactly_at_reach():
    # (2, 1) pairs v = -3 with the (-3)-section and has square 9: 4 v^2 =
    # 36 = (k - 1)^2 alpha^2, and the reach condition is strict
    model = ruled_model(0, 3, "nontrivial").model
    result = plan(model, ClassVector((2, 1)))
    assert isinstance(result, Unsupported)
    assert result.reason == "chamber wall out of reach: 4 v^2 >= (k-1)^2 alpha^2"
    assert dict(result.detail) == {"4 v^2": "36", "(k-1)^2 alpha^2": "36", "pairing": "-3"}


def test_plan_cdc_component_regression():
    # C-D-C with the middle curve exhausted first needs the doubled-middle peel
    model = build_kk_model(extended=True)
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
    model = build_kk_model(extended=True)
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
    model = build_kk_model(extended=True)
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


_AG23 = ag23_automorphisms()


def _moved(vec, sigma):
    """A kk-extended class with the coordinate of curve i moved to curve
    sigma[i]; w0 (coordinate 0) stays."""
    coords = list(vec.coords)
    for i, j in enumerate(sigma):
        coords[1 + j] = vec.coords[1 + i]
    return ClassVector(coords)


def _move_kinds(cert):
    return collections.Counter(type(m).__name__ for m in cert.moves)


def _relabelled(model, cert, sigma):
    """The certificate with every curve label, base and target moved by sigma."""
    labels = {c.label: model.curves[sigma[i]].label for i, c in enumerate(model.curves)}

    def moved_ids(ids):
        return tuple(labels.get(x, x) for x in ids)

    moves = tuple(
        replace(m, object_id=labels.get(m.object_id, m.object_id)) if isinstance(m, Inflate)
        else replace(m, constituent_ids=moved_ids(m.constituent_ids), reinstate_ids=moved_ids(m.reinstate_ids))
        for m in cert.moves
    )
    return Certificate(
        model, _moved(cert.base_class, sigma), moves, _moved(cert.target_class, sigma),
        annotations=cert.annotations,
    )


def _unordered_areas(line):
    """An areas: line as the set of its parts, any other line as it is."""
    return frozenset(line.removeprefix("areas: ").split(", ")) if line.startswith("areas: ") else line


def _relabelled_report(model, report, sigma):
    """The entries of report as the replay of the relabelled certificate
    writes them: every curve label moved by sigma, each class after a move
    moved by sigma, and each areas: line compared up to order."""
    labels = {c.label: model.curves[sigma[i]].label for i, c in enumerate(model.curves)}
    after = {r.number: r.after.current_class for r in report.records}
    out = []
    for line in report.entries:
        head, _, rest = line.partition(": ")
        if head.startswith("class after move "):
            moved = _moved(after[int(head.removeprefix("class after move "))], sigma)
            line = f"{head}: {moved.texts()}"
        else:
            line = re.sub(r"\b[CD]\d+\b", lambda m: labels[m.group()], line)
        out.append(_unordered_areas(line))
    return out


def _is_witness(model, found):
    square = model.lattice.square(folded_combination(model, found.indices, found.coefficients))
    return min(found.coefficients) >= 0 and max(found.coefficients) > 0 and square == found.square >= 0


@settings(max_examples=60, deadline=None)
@given(
    subset=st.lists(st.integers(0, 20), min_size=1, max_size=10, unique=True),
    sigma=st.sampled_from(_AG23),
    interior=st.sampled_from(INTERIOR),
)
def test_kk_symmetries_keep_every_outcome(subset, sigma, interior):
    """An automorphism of AG(2,3) relabels the KK curves and fixes w0 and K,
    so a support and its image get the same answers."""
    model = builtin_model("kk-extended")
    lat = model.lattice
    alpha = lat.reference_class.scale(interior[0]) + lat.canonical_class.scale(interior[1])
    image = [sigma[i] for i in subset]
    descriptor = chambers.descriptor_for(model, subset)
    moved = chambers.descriptor_for(model, image)
    assert moved.indices == tuple(sorted(image))
    assert moved.admissible == descriptor.admissible
    if not descriptor.admissible:
        for comp in dual_graph(model, subset).components():
            found = component_obstruction(model, comp)
            found_moved = component_obstruction(model, [sigma[i] for i in comp])
            assert type(found_moved) is type(found)
            assert found.indices == comp
            assert found_moved.indices == tuple(sorted(sigma[i] for i in comp))
            if isinstance(found, planner.Witness):
                assert _is_witness(model, found) and _is_witness(model, found_moved)
        return
    corner = chambers.corner_point(model, alpha, subset)
    corner_moved = chambers.corner_point(model, alpha, image)
    assert corner_moved == _moved(corner, sigma)
    got, got_moved = chambers.classify(model, corner), chambers.classify(model, corner_moved)
    assert got_moved.membership is got.membership
    assert got_moved.descriptor.indices == tuple(
        sorted(sigma[i] for i in got.descriptor.indices)
    )
    outcome, outcome_moved = plan(model, corner), plan(model, corner_moved)
    assert type(outcome_moved) is type(outcome)
    if isinstance(outcome, Unsupported):
        assert outcome_moved.reason == outcome.reason
    else:
        assert _move_kinds(outcome_moved) == _move_kinds(outcome)
        report = verify_certificate(_relabelled(model, outcome, sigma))
        assert report.passed
        assert len(report.records) == len(outcome.moves)
        expected = _relabelled_report(model, verify_certificate(outcome), sigma)
        assert [_unordered_areas(line) for line in report.entries] == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 4), twisted=st.booleans())
def test_reflected_chamber_certificate_lands_on_the_reflection(seed, pick, twisted):
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng)
    index = pick % len(model.curves)
    assume(model.curve_gram()[index][index] % 2 == 0)
    alpha = interior_class(model, rng)
    reflected, cert = planner.reflected_chamber_certificate(model, alpha, index)
    assert reflected == chambers.reflect(model.lattice, alpha, model.curves[index].vector)
    assert cert.target_class == reflected
    assert verify_certificate(cert).passed


def test_plan_reports_a_failed_replay_as_unsupported(monkeypatch):
    # every replay, the peel's and verify_certificate's, begins at Replay.start
    def failing(cert):
        return Replay(None, (), None, None, "forced failure at move 1")

    monkeypatch.setattr(Replay, "start", failing)
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
    def failing(self, state, u, d):
        raise planner._PlanFail("no peel candidate applies")

    monkeypatch.setattr(planner._Peeler, "peel", failing)
    model = builtin_model("kk-extended")
    alpha = model.lattice.reference_class + model.lattice.canonical_class
    result = plan(model, chambers.corner_point(model, alpha, (0, 1)))
    assert isinstance(result, Unsupported)
    assert result.reason == "the deficit does not peel into moves"
    assert dict(result.detail)["peel"] == "no peel candidate applies"


def test_the_peel_budget_caps_the_nodes_a_plan_visits_inclusively(monkeypatch):
    """On the corner of C1 and C2, which do not meet, the peel visits three
    nodes: the pair, then each curve alone."""
    model = builtin_model("kk-extended")
    alpha = model.lattice.reference_class + model.lattice.canonical_class
    target = chambers.corner_point(model, alpha, (0, 1))
    monkeypatch.setattr(planner, "_PEEL_BUDGET", 3)
    assert isinstance(plan(model, target), Certificate)
    monkeypatch.setattr(planner, "_PEEL_BUDGET", 2)
    result = plan(model, target)
    assert isinstance(result, Unsupported)
    assert dict(result.detail)["peel"] == "peel budget exhausted"


def _census_seed_44():
    """The coverage census's seed 44: four curves c0..c3 of a random model,
    c1, c2 and c3 a triangle, and the target on the corner of all four."""
    rng = random.Random(44)
    model = random_curve_model(rng, 6)
    alpha = interior_class(model, rng)
    return model, chambers.corner_point(model, alpha, range(len(model.curves)))


def test_a_peel_refusal_names_its_last_candidate_and_its_failure():
    model, corner = _census_seed_44()
    result = plan(model, corner)
    assert isinstance(result, Unsupported)
    assert result.reason == "the deficit does not peel into moves"
    assert result.detail == (
        ("peel", "no peel candidate applies"),
        ("last candidate", "c3"),
        ("last candidate failure", "bound 2A/h violated at move 1"),
        ("r", "16"),
    )


DEEP_CHAIN = """
import sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from symcone import chambers
from symcone.lattice import ClassVector, CurveData, CurveModel, IntersectionLattice, Support
from symcone.planner import plan
n = 80
gram = [[0] * (n + 1) for _ in range(n + 1)]
gram[0][0] = 1000
for i in range(1, n + 1):
    gram[0][i] = gram[i][0] = 1
    gram[i][i] = -2
    if i < n:
        gram[i][i + 1] = gram[i + 1][i] = 1
lattice = IntersectionLattice(
    gram=tuple(tuple(Fraction(v) for v in row) for row in gram),
    basis_labels=("w",) + tuple(f"x{i}" for i in range(n)),
    reference_class=ClassVector.basis(n + 1, 0),
)
curves = tuple(CurveData(f"x{i}", ClassVector.basis(n + 1, i + 1), 0) for i in range(n))
model = CurveModel(lattice=lattice, curves=curves, completeness_assumed=True)
corner = chambers.corner_point(model, lattice.reference_class, range(n))
sys.setrecursionlimit(50)
result = plan(model, corner)
print(type(result).__name__, result.reason, dict(result.detail)["peel"], sep="|")
"""


def test_a_peel_deeper_than_the_stack_is_refused():
    """The peel recurses once per node: on the corner of all of an A_80
    chain, w pairing 1 with each curve, under a recursion limit of 50 the
    plan is refused, not raised."""
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_CHAIN, str(PERFBENCH.parent / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0].split("|") == [
        "Unsupported", "the deficit does not peel into moves", "recursion depth exceeded",
    ]


def test_a_nested_peel_refusal_gives_its_headline_alone(monkeypatch):
    """Every candidate of more than one curve fails, and so does a single
    curve's on the last one left: the top node's last candidate, c3, fails
    by a refusal one node down, whose own detail is not repeated."""
    def execute(self, replay, u, d, cand):
        if len(cand) > 1 or len(u) == 1:
            raise planner._PlanFail("stuck")
        return replay, {i: x for i, x in u.items() if i not in cand}, d

    monkeypatch.setattr(planner._Peeler, "_execute", execute)
    model, corner = _census_seed_44()
    result = plan(model, corner)
    assert result.detail == (
        ("peel", "no peel candidate applies"),
        ("last candidate", "c3"),
        ("last candidate failure", "no peel candidate applies"),
        ("r", "16"),
    )


def test_a_doubled_last_candidate_is_written_with_its_coefficient(monkeypatch):
    def candidates(self, support):
        return [{support[0]: 2, support[-1]: 1}]

    monkeypatch.setattr(planner._Peeler, "_candidates", candidates)
    model, corner = _census_seed_44()
    assert dict(plan(model, corner).detail)["last candidate"] == "2 c0 + c3"


def test_the_peel_inverts_nothing(monkeypatch):
    """On an A_40 chain at the corner of all its curves, the sweep's inverse
    of the one component is the only inverse plan computes."""
    inverted = []
    invert = lattice.neg_inverse

    def counted(gram):
        inverted.append(len(gram))
        return invert(gram)

    monkeypatch.setattr(lattice, "neg_inverse", counted)
    model = chain_model([-2] * 40)
    assert isinstance(plan(model, _omega0(model)), Certificate)
    assert inverted == [40]


def test_a_second_corner_on_a_locus_computes_neither_n_one_nor_far(monkeypatch):
    """The locus's Support keeps N 1 of each component and the far class
    built from it, the one class _shifted builds from the zero class: a
    second corner on the same locus reads them both."""
    model = build_kk_model(extended=True)
    subset = (model.index_of("C1"), model.index_of("D123"), model.index_of("C5"))
    lat = model.lattice
    first, second = (
        chambers.corner_point(model, alpha, subset)
        for alpha in (lat.reference_class + lat.canonical_class, lat.reference_class.scale(2) + lat.canonical_class)
    )
    applied, combined = [], []
    shifted = CurveModel._shifted
    # chambers._far calls chambers' own binding, the sweep the planner's
    for module in (chambers, planner):
        monkeypatch.setattr(module, "_neg_apply", lambda *args, f=module._neg_apply: (
            applied.append(args[1].components()) or f(*args)
        ))

    def count_from_zero(self, start, numerators, d):
        numerators = list(numerators)
        if not start.integer_form[1]:
            combined.append(tuple(sorted(i for i, _ in numerators)))
        return shifted(self, start, numerators, d)

    monkeypatch.setattr(CurveModel, "_shifted", count_from_zero)
    assert isinstance(plan(model, first), Certificate)
    assert applied == [((0, 9), (4,))] and combined == [(0, 4, 9)]
    assert isinstance(plan(model, second), Certificate)
    assert applied == [((0, 9), (4,))] and combined == [(0, 4, 9)]


# sha256 of the canonical JSON of plan's outcomes at the chamber points
# 1/8, 1/2 and 1 deep behind the corners of a w0 + lam K on the kk-extended
# locus C1, D123, C5, whose components are (C1, D123) and (C5,)
KK_CHAMBER_DIGEST = "0a2cfec946bdea1bfa40c61027dc42c6be013437220d1195077419380380108e"


def test_chamber_plans_on_a_disconnected_locus_keep_their_bytes(monkeypatch):
    """The sweep applies N to a nonzero v only behind a corner: each plan
    here applies it to v once, while chambers applies it to each corner's
    pairings and, at the first chamber point, to 1 for the locus's far
    class, which every later chamber point and plan reads."""
    model = build_kk_model(extended=True)
    lat = model.lattice
    subset = (model.index_of("C1"), model.index_of("D123"), model.index_of("C5"))
    applied = []
    for module in (chambers, planner):
        name = module.__name__.rpartition(".")[2]
        monkeypatch.setattr(module, "_neg_apply", lambda *args, f=module._neg_apply, name=name: (
            applied.append((name, set(args[2]))) or f(*args)
        ))
    digest = hashlib.sha256()
    for a, lam in ((1, 1), (2, 1), (Fraction(3, 2), Fraction(2, 3))):
        corner = chambers.corner_point(model, lat.reference_class.scale(a) + lat.canonical_class.scale(lam), subset)
        for epsilon in (Fraction(1, 8), Fraction(1, 2), 1):
            outcome = plan(model, chambers.chamber_point(model, corner, subset, epsilon))
            assert isinstance(outcome, Certificate)
            digest.update(canonical_json(certificate_to_doc(outcome)).encode())
    # per corner: its corner_point, (the far class,) then three sweeps
    sweeps = ["planner"] * 3
    assert [name for name, _ in applied] == ["chambers", "chambers", *sweeps, *(["chambers", *sweeps] * 2)]
    assert applied[1] == ("chambers", {1}) and all(0 not in v for _, v in applied)
    assert digest.hexdigest() == KK_CHAMBER_DIGEST


# sha256 of the canonical JSON of plan's outcomes (certificate and replay
# report, or refusal) on random_curve_model and twisted_curve_model for
# seeds 0-29, at every corner of an interior class and at the chamber
# points 1/2 and 1 deep behind it: 1,932 plans, 1,804 of them certificates
RANDOM_PLANS_DIGEST = "6341329ca82d7c07ead7d6fc0c1043634020808193dded979aa670f27f6b70a9"


def test_plans_on_random_models_keep_their_bytes():
    """Pins what plan makes off the KK pools: corners and chamber points of
    loci of one to five curves, of one or several components, in models
    whose classes have one term (random) or several (twisted)."""
    digest = hashlib.sha256()
    for seed in range(30):
        for build in (random_curve_model, twisted_curve_model):
            rng = random.Random(seed)
            model = build(rng)
            alpha = interior_class(model, rng)
            n = len(model.curves)
            for subset in itertools.chain.from_iterable(
                itertools.combinations(range(n), size) for size in range(1, n + 1)
            ):
                corner = chambers.corner_point(model, alpha, subset)
                for point in (corner, *(chambers.chamber_point(model, corner, subset, e) for e in (Fraction(1, 2), 1))):
                    outcome = plan(model, point)
                    if isinstance(outcome, Certificate):
                        doc = {"certificate": certificate_to_doc(outcome),
                               "report": report_to_doc(verify_certificate(outcome))}
                    else:
                        doc = {"unsupported": unsupported_to_doc(outcome)}
                    digest.update(canonical_json(doc).encode())
    assert digest.hexdigest() == RANDOM_PLANS_DIGEST


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    twisted=st.booleans(),
    epsilon=st.none() | st.sampled_from((Fraction(1, 3), Fraction(2))),
)
def test_the_peel_takes_positive_integers_and_inflates_by_positive_amplitudes(seed, twisted, epsilon):
    """What the peel's refusals of a non-positive amplitude and an overshoot
    guarded against cannot happen: at every node of every corner (epsilon
    None) or chamber plan, u holds positive integers, every rest is positive
    and at most grain u_i, and every Inflate emitted has t > 0."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng)
    alpha = interior_class(model, rng)
    execute = planner._Peeler._execute

    def checked(self, replay, u, d, cand):
        assert u and all(type(x) is int and x > 0 for x in u.values())
        grain = 2 if 2 in cand.values() else 1
        after, rest, d_rest = execute(self, replay, u, d, cand)
        assert d_rest == grain * d
        assert all(0 < x <= grain * u[i] for i, x in rest.items())
        emitted = after.records()[len(replay.records()):]
        assert all(r.move.t > 0 for r in emitted if isinstance(r.move, Inflate))
        return after, rest, d_rest

    n = len(model.curves)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner._Peeler, "_execute", checked)
        for subset in itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(2, n + 1)):
            descriptor = chambers.descriptor_for(model, subset)
            if not descriptor.admissible:
                continue
            target = chambers.corner_point(model, alpha, descriptor)
            if epsilon is not None:
                target = chambers.chamber_point(model, target, descriptor, epsilon)
            plan(model, target)


def _hirzebruch_jung(p: int, q: int) -> list[int]:
    """The Hirzebruch-Jung continued fraction p/q = b1 - 1/(b2 - 1/(...)),
    each b_i >= 2."""
    digits = []
    while q:
        b = -(-p // q)
        digits.append(b)
        p, q = q, b * q - p
    return digits


HJ_DIGITS = _hirzebruch_jung(664729916363, 150588277955)

# sha256 of the canonical JSON that plan gives at w; a D_n tree of
# (-2)-spheres is refused there, with the peel's last candidate named
LONG_CHAINS = {
    "A40": ([-2] * 40, None, "452312bd44538cb9918908abf25e44be2783ce7edeecb4f1b5f065485cec945c"),
    "A80": ([-2] * 80, None, "2b3fa27387c48545425d031227632f6383e3950543f47cd3ecc94440d95e3e5c"),
    "D12": (
        [-2] * 12,
        [(i, i + 1) for i in range(10)] + [(9, 11)],
        "2654ae6d59d5279ef6c9879142083e22107e99a03eeedea561a575c678418d0f",
    ),
    "HJ": ([-b for b in HJ_DIGITS], None, "47e612376cb43e7d79490047086b7633fad736f40a3336912c016212740902d3"),
}


@pytest.mark.parametrize("name", LONG_CHAINS)
def test_plans_past_21_curves_keep_their_bytes(name):
    squares, edges, digest = LONG_CHAINS[name]
    model = chain_model(squares, edges=edges)
    outcome = plan(model, _omega0(model))
    doc = unsupported_to_doc(outcome) if isinstance(outcome, Unsupported) else certificate_to_doc(outcome)
    assert hashlib.sha256(canonical_json(doc).encode()).hexdigest() == digest


def test_the_hirzebruch_jung_chain_is_long_and_mixed():
    assert len(HJ_DIGITS) == 24 and set(HJ_DIGITS) == {2, 3, 4, 5}


def test_peel_candidates_are_ones_then_boosted_then_singletons():
    peeler = planner._Peeler(chain_model([-2] * 4))
    ones = {1: 1, 2: 1, 3: 1}
    assert [sorted(c.items()) for c in peeler._candidates((1, 2, 3))] == [
        sorted(c.items()) for c in (
            ones, {**ones, 1: 2}, {**ones, 2: 2}, {**ones, 3: 2}, {1: 1}, {2: 1}, {3: 1},
        )
    ]
    assert list(peeler._candidates((2,))) == [{2: 1}]


def test_a_corner_is_multiplied_once_from_corner_point_to_the_verifier(monkeypatch):
    """corner_point, plan and verify_certificate on a two-curve kk-extended
    corner compute the corner's Gram product once, and the verifier reads
    the base product that plan made."""
    model = build_kk_model(extended=True)
    alpha = model.lattice.reference_class + model.lattice.canonical_class
    made = []
    keep = IntersectionLattice._keep_product

    def counted(self, a, product):
        made.append(a)
        return keep(self, a, product)

    monkeypatch.setattr(IntersectionLattice, "_keep_product", counted)
    corner = chambers.corner_point(model, alpha, (model.index_of("C1"), model.index_of("D123")))
    cert = plan(model, corner)
    in_plan = len(made)
    assert isinstance(cert, Certificate) and len(cert.moves) > 1
    assert verify_certificate(cert).passed
    assert cert.target_class is corner
    assert sum(a is corner for a in made) == 1
    assert sum(a is cert.base_class for a in made[:in_plan]) == 1
    assert not any(a is cert.base_class for a in made[in_plan:])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twisted=st.booleans())
def test_a_planned_certificate_keeps_the_report_of_a_full_replay(seed, twisted):
    """On every corner subset, the report a planned certificate keeps reads
    as the report of a full replay of a copy, which keeps none."""
    rng = random.Random(seed)
    model = (twisted_curve_model if twisted else random_curve_model)(rng)
    alpha = interior_class(model, rng)
    n = len(model.curves)
    for subset in itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(1, n + 1)):
        descriptor = chambers.descriptor_for(model, subset)
        if not descriptor.admissible:
            continue
        cert = plan(model, chambers.corner_point(model, alpha, descriptor))
        if not isinstance(cert, Certificate):
            continue
        kept, full = verify_certificate(cert), verify_certificate(replace(cert))
        assert kept is verify_certificate(cert) and kept is not full
        assert report_to_doc(kept) == report_to_doc(full)
        assert str(kept) == str(full)


def test_a_kept_report_is_replayed_again_under_another_digit_limit(monkeypatch):
    # the base square has about 800 digits: past a 640-digit limit only
    model = kk_gamma0_model()
    cert = plan(model, ClassVector((Fraction(10**400),) + (Fraction(0),) * 21))
    assert isinstance(cert, Certificate) and len(cert.moves) > 1
    kept = verify_certificate(cert)
    assert kept.passed
    starts, start = [], Replay.start
    monkeypatch.setattr(Replay, "start", lambda c: starts.append(c) or start(c))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        narrow = verify_certificate(cert)
        assert starts == [cert]
        assert narrow.first_failure == "base square: output exceeds the 640-digit integer limit"
        assert verify_certificate(cert) is narrow and len(starts) == 1
    finally:
        sys.set_int_max_str_digits(limit)
    again = verify_certificate(cert)
    assert len(starts) == 2 and again.passed and str(again) == str(kept)


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
    locus = cls.descriptor.indices
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
    the class, test it) picks, also where the curves have several terms."""
    kinds = collections.Counter()
    for seed, make in itertools.product(range(30), (random_curve_model, twisted_curve_model)):
        rng = random.Random(seed)
        model = make(rng, 6)
        alpha = interior_class(model, rng)
        n = len(model.curves)
        subsets = [tuple(range(n)), (rng.randrange(n),),
                   tuple(sorted(rng.sample(range(n), rng.randint(1, n))))]
        for target in _boundary_targets(model, alpha, subsets):
            kinds[_check_sweep_against_the_walk(model, target)] += 1
    assert kinds["certificate"] > 250


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
    twisted=st.booleans(),
)
def test_first_interior_scale_matches_the_naive_walk(seed, start, direction, scales, twisted):
    """Scale, and the check failing at the last scale, read off two Gram
    products agree with building and testing each class."""
    model = (twisted_curve_model if twisted else random_curve_model)(random.Random(seed), 6)
    rank = model.lattice.rank
    start = ClassVector(start[:rank])
    direction = ClassVector(direction[:rank])
    assert model.first_interior_scale(start, direction, scales) == first_kahler_scale(
        model, start, direction, scales
    )
