import cmath
import math

import numpy as np
import pytest

from braidjones.pathmodel import (
    AjlParams,
    LineGraph,
    admissible_states,
    build_E,
    two_projector_correspondence_check,
    walk_endpoint,
)


def test_walk_endpoint_worked_example():
    graph = LineGraph(4)
    # walk 1011: 1 -> 2 -> 1 -> 2 -> 3
    assert walk_endpoint("1011", 1, graph) == 1
    assert walk_endpoint("1011", 2, graph) == 2
    assert walk_endpoint("1011", 3, graph) == 1
    assert walk_endpoint("1011", 4, graph) == 2
    assert walk_endpoint("1011", 5, graph) == 3


def test_walk_endpoint_errors():
    graph = LineGraph(3)
    with pytest.raises(ValueError, match="leaves the graph"):
        walk_endpoint("011", 3, graph)
    with pytest.raises(ValueError, match="leaves the graph"):
        walk_endpoint("111", 4, graph)
    with pytest.raises(ValueError, match="out of range"):
        walk_endpoint("101", 6, graph)


def test_admissible_states_three_nodes():
    basis = admissible_states(LineGraph(3), 3)
    assert basis.states == ("110", "101")


def test_admissible_states_small_cases():
    assert admissible_states(LineGraph(2), 2).states == ("10",)
    for nodes in (2, 3, 5):
        assert admissible_states(LineGraph(nodes), 1).states == ("1",)


def test_admissible_states_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(20):
        nodes = int(rng.integers(2, 6))
        bits = int(rng.integers(1, 8))
        basis = admissible_states(LineGraph(nodes), bits)
        for state in basis.states:
            walk_endpoint(state, bits + 1, LineGraph(nodes))
        # descending lexicographic order
        assert list(basis.states) == sorted(basis.states, reverse=True)


def test_ajl_params_rejects_vanishing_weights():
    with pytest.raises(ValueError, match="strictly positive"):
        AjlParams.from_theta(0.0, 3)
    with pytest.raises(ValueError, match="strictly positive"):
        AjlParams.from_theta(math.pi / 3, 3)
    with pytest.raises(ValueError, match="strictly positive"):
        AjlParams.from_theta(math.pi / 2, 3)


def test_ajl_params_derives_d_and_a_from_theta():
    params = AjlParams(0.4, 3)
    assert params == AjlParams.from_theta(0.4, 3)
    assert params.d == 2.0 * math.cos(0.4)
    assert params.A == 1j * cmath.exp(0.2j)
    with pytest.raises(TypeError):
        AjlParams(0.4, 3, params.d, params.A)


def test_lam_recursion_identity():
    rng = np.random.default_rng(22)
    for _ in range(50):
        theta = float(rng.uniform(0.01, math.pi / 8))
        params = AjlParams.from_theta(theta, 3)
        for k in range(1, 7):
            value = (params.lam(k - 1) + params.lam(k + 1)) / params.lam(k)
            assert abs(value - params.d) < 1e-12


def test_e1_action_on_three_node_basis():
    basis = admissible_states(LineGraph(3), 3)
    params = AjlParams.from_theta(0.4, 3)
    e1 = build_E(1, params, basis)
    assert np.allclose(e1, [[0.0, 0.0], [0.0, params.d]], atol=1e-12)


def test_e2_vector_form():
    basis = admissible_states(LineGraph(3), 3)
    params = AjlParams.from_theta(0.7, 3)
    e2 = build_E(2, params, basis)
    d = params.d
    # v in the (110, 101) order: components for the 10 and 01 branches
    v = np.array([math.sqrt(d - 1.0 / d), math.sqrt(1.0 / d)])
    assert np.allclose(e2, np.outer(v, v), atol=1e-12)
    assert abs(v @ v - d) < 1e-12


def test_generators_satisfy_tl_relations():
    rng = np.random.default_rng(23)
    basis = admissible_states(LineGraph(3), 3)
    for _ in range(50):
        theta = float(rng.uniform(0.05, math.pi / 3 - 0.05))
        params = AjlParams.from_theta(theta, 3)
        e1 = build_E(1, params, basis)
        e2 = build_E(2, params, basis)
        for e in (e1, e2):
            assert np.max(np.abs(e @ e - params.d * e)) < 1e-12
        assert np.max(np.abs(e1 @ e2 @ e1 - e1)) < 1e-12
        assert np.max(np.abs(e2 @ e1 @ e2 - e2)) < 1e-12
        assert abs(np.trace(e1) - params.d) < 1e-12
        assert abs(np.trace(e2) - params.d) < 1e-12
        assert abs(np.trace(e1 @ e2) - 1.0) < 1e-12


def test_build_E_validates_arguments():
    basis = admissible_states(LineGraph(3), 3)
    params = AjlParams.from_theta(0.4, 3)
    with pytest.raises(ValueError, match="out of range"):
        build_E(3, params, basis)
    small = AjlParams.from_theta(0.4, 2)
    with pytest.raises(ValueError, match="nodes"):
        build_E(1, small, basis)


def test_correspondence_at_endpoint():
    assert two_projector_correspondence_check(0.0) <= 1e-12


def test_correspondence_at_interior_points():
    for k in range(1, 25):
        theta = k * (math.pi / 3) / 25
        assert two_projector_correspondence_check(theta) <= 1e-12


def test_correspondence_domain_error():
    with pytest.raises(ValueError, match="no matching"):
        two_projector_correspondence_check(math.pi / 3)
    with pytest.raises(ValueError, match="no matching"):
        two_projector_correspondence_check(-0.1)
