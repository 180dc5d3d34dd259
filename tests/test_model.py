import re

import numpy as np
import pytest

from satflow import (
    NetworkSpec,
    NumericalError,
    PreconditionError,
    ScenarioError,
    classify_routing,
    h_operator,
    invariant_vector,
    is_irreducible,
    is_out_connected,
    validate,
)
from satflow.equilibria import _network
from satflow.model import (
    OTHER,
    STOCHASTIC_IRREDUCIBLE,
    SUBSTOCHASTIC_OUT_CONNECTED,
    leaky_nodes,
    row_sums,
)

from conftest import (
    C3,
    HC3,
    PI3,
    R3,
    W3,
    random_stochastic_irreducible,
    random_substochastic,
    random_zero_sum,
)
from oracles import h_series

# reducible stochastic matrix: two disjoint 2-cycles
TWO_CYCLES = np.array([
    [0, 1, 0, 0],
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=float)

CYCLE3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestValidate:
    def test_reference_network_accepted(self, spec3):
        assert spec3.n == 3
        assert np.all(row_sums(spec3.routing) <= 1 + 1e-12)

    def test_row_sum_above_one(self):
        R = np.array([[0.0, 1.2], [0.5, 0.0]])
        with pytest.raises(ScenarioError, match="row 1 sum exceeds 1"):
            validate(NetworkSpec(routing=R, capacity=[1, 1], demand=[0, 0]))

    def test_nonpositive_capacity(self):
        with pytest.raises(ScenarioError, match="capacity must be positive"):
            validate(NetworkSpec(routing=SWAP2, capacity=[0, 1], demand=[0, 0]))

    def test_negative_routing_entry(self):
        R = np.array([[0.0, -0.1], [0.5, 0.0]])
        with pytest.raises(ScenarioError, match="negative"):
            validate(NetworkSpec(routing=R, capacity=[1, 1], demand=[0, 0]))

    def test_nonzero_diagonal(self):
        R = np.array([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(ScenarioError, match="diagonal"):
            validate(NetworkSpec(routing=R, capacity=[1, 1], demand=[0, 0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ScenarioError):
            validate(NetworkSpec(routing=SWAP2, capacity=[1, 1, 1], demand=[0, 0]))

    def test_demand_must_match_inflow_outflow(self):
        with pytest.raises(ScenarioError, match="inflow - outflow"):
            validate(NetworkSpec(routing=SWAP2, capacity=[1, 1], demand=[0.5, 0],
                                 inflow=[1, 0], outflow=[0, 0]))

    def test_demand_matches_inflow_outflow_up_to_rounding(self):
        # 0.3 - 0.1 == 0.19999999999999998 in floats
        spec = validate(NetworkSpec(routing=SWAP2, capacity=[1, 1], demand=[0.2, 0],
                                    inflow=[0.3, 0], outflow=[0.1, 0]))
        assert spec.demand[0] == 0.2
        with pytest.raises(ScenarioError, match="inflow - outflow"):
            validate(NetworkSpec(routing=SWAP2, capacity=[1, 1], demand=[0.25, 0],
                                 inflow=[0.3, 0], outflow=[0.1, 0]))

    def test_inflow_without_outflow(self):
        with pytest.raises(ScenarioError, match="together"):
            validate(NetworkSpec(routing=SWAP2, capacity=[1, 1], demand=[1, 0],
                                 inflow=[1, 0]))

    def test_consistent_inflow_outflow_accepted(self):
        spec = validate(NetworkSpec(routing=SWAP2, capacity=[1, 1], demand=[0.5, -0.25],
                                    inflow=[0.5, 0.0], outflow=[0.0, 0.25]))
        assert spec.inflow is not None

    @pytest.mark.parametrize("data", [{"routing": [[0]], "capacity": [1], "demand": [0], "bogus": 1},
                                      {"routing": [[0]], "capacity": [1], "bogus": 1}],
                             ids=["unknown", "unknown_and_missing"])
    def test_from_dict_rejects_unknown_keys(self, data):
        # an unknown key is named before a missing one
        with pytest.raises(ScenarioError, match=r"^unknown keys: \['bogus'\]$"):
            NetworkSpec.from_dict(data)


# numbers whose float conversion has edges: ints (one beyond 53 bits),
# a negative zero, the smallest subnormal and a mid-range one, the largest
# double, and a bool
AWKWARD_NUMBERS = [0, 3, 2**60, 2**60 + 1, -0.0, 5e-324, 1.5e-310, 1.7976931348623157e308, 0.1, True]


class TestNumberLists:
    """NetworkSpec packs lists of numbers into arrays with the bits of
    np.asarray(..., dtype=float), and names what is not a number."""

    def test_rows_and_vectors_bit_identical_and_writable(self):
        k = len(AWKWARD_NUMBERS)
        rows = [AWKWARD_NUMBERS[i:] + AWKWARD_NUMBERS[:i] for i in range(k)]
        spec = NetworkSpec(routing=rows, capacity=AWKWARD_NUMBERS, demand=AWKWARD_NUMBERS[::-1],
                           inflow=AWKWARD_NUMBERS, outflow=AWKWARD_NUMBERS)
        for got, value in ((spec.routing, rows), (spec.capacity, AWKWARD_NUMBERS),
                           (spec.demand, AWKWARD_NUMBERS[::-1]), (spec.inflow, AWKWARD_NUMBERS),
                           (spec.outflow, AWKWARD_NUMBERS)):
            expected = np.asarray(value, dtype=float)
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert got.flags.writeable
        assert np.signbit(spec.routing[0, 4]) and spec.capacity[6] == 1.5e-310

    @pytest.mark.parametrize("value", [[], [[]], [[0.5]], [1.0, 2.0], [[1.0], [2.0]]])
    def test_empty_and_degenerate_shapes_match_numpy(self, value):
        spec = NetworkSpec(routing=value, capacity=value, demand=value)
        expected = np.asarray(value, dtype=float)
        for got in (spec.routing, spec.capacity, spec.demand):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_arrays_and_tuples_go_through_numpy(self):
        spec = NetworkSpec(routing=((0.0, 1.0), (1.0, 0.0)), capacity=np.array([1, 2], dtype=np.int32),
                           demand=(0.5, -0.5))
        assert spec.routing.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert spec.capacity.dtype == np.float64 and spec.demand.tolist() == [0.5, -0.5]

    @pytest.mark.parametrize("routing", [[[0, 0.5], [0.5]], [[0, 0.5], 0.5]])
    def test_ragged_routing_names_the_row(self, routing):
        with pytest.raises(ScenarioError) as exc:
            NetworkSpec(routing=routing, capacity=[1, 1], demand=[0, 0])
        assert str(exc.value) == "routing row 2 does not have the length of row 1"

    def test_ragged_vector_names_the_entry(self):
        with pytest.raises(ScenarioError) as exc:
            NetworkSpec(routing=[[0, 0.5], [0.5, 0]], capacity=[[1], [1, 2]], demand=[0, 0])
        assert str(exc.value) == "capacity is not a vector of numbers: entry 1 is not a number"


class TestOutConnected:
    def test_zero_matrix_is_out_connected(self):
        # every cell is itself leaky via the zero-length path
        assert is_out_connected(np.zeros((2, 2)))

    def test_stochastic_matrix_is_not(self):
        assert not is_out_connected(R3)

    def test_chain_to_leaky_node(self):
        assert is_out_connected(np.array([[0.0, 0.5], [0.0, 0.0]]))

    def test_stranded_cycle(self):
        # cells 1,2 form a closed 2-cycle, cell 3 leaks but is unreachable from it
        R = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        assert not is_out_connected(R)


class TestIrreducible:
    def test_reference_network(self):
        assert is_irreducible(R3)

    def test_two_disjoint_cycles(self):
        assert not is_irreducible(TWO_CYCLES)

    def test_single_cycle(self):
        assert is_irreducible(CYCLE3)

    def test_rejects_substochastic(self):
        with pytest.raises(PreconditionError, match="stochastic"):
            is_irreducible(np.array([[0.0, 0.5], [0.5, 0.0]]))


class TestClassify:
    def test_reference_network(self):
        assert classify_routing(R3).tag == STOCHASTIC_IRREDUCIBLE

    def test_leaky_pair(self):
        assert classify_routing(np.array([[0.0, 0.5], [0.5, 0.0]])).tag == SUBSTOCHASTIC_OUT_CONNECTED

    def test_reducible_stochastic(self):
        cls = classify_routing(TWO_CYCLES)
        assert cls.tag == OTHER
        assert "closed subset" in cls.detail

    def test_tags_mutually_exclusive(self):
        # a stochastic matrix has no leaky row, so it can never be out-connected
        for R in (R3, CYCLE3, TWO_CYCLES):
            assert not is_out_connected(R)

    def test_stable_under_permutation(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            R = (random_stochastic_irreducible(rng, n) if rng.random() < 0.5
                 else random_substochastic(rng, n))
            perm = rng.permutation(n)
            P = np.eye(n)[perm]
            assert classify_routing(P @ R @ P.T).tag == classify_routing(R).tag


def reachability_closure(R):
    """Boolean closure C with C[i, j] true iff j is reachable from i in the
    support digraph of R, the zero-length path included; closes the graph
    by repeated boolean squaring, independently of the frontier search."""
    closure = (np.asarray(R) > 0) | np.eye(R.shape[0], dtype=bool)
    while True:
        nxt = closure @ closure
        if np.array_equal(nxt, closure):
            return closure
        closure = nxt


def assert_classification_matches_closure(R):
    closure = reachability_closure(R)
    leaky = row_sums(R) < 1 - 1e-12
    draining = closure[:, leaky].any(axis=1)
    cls = classify_routing(R)
    cells = [int(k) - 1 for k in re.findall(r"\d+", cls.detail)]
    # a cell is in a closed class iff it reaches no leaky cell and every cell
    # it reaches reaches it back; the classes group the cells that reach each other
    closed = ~draining & np.all(~closure | closure.T, axis=1)
    expected = {tuple(np.flatnonzero(closure[i] & closure[:, i])) for i in np.flatnonzero(closed)}
    found = [tuple(np.flatnonzero(C)) for C in cls._classes] if cls.tag == OTHER else (
        [tuple(range(R.shape[0]))] if cls.tag == STOCHASTIC_IRREDUCIBLE else [])
    assert len(found) == len(expected) and set(found) == expected
    if cls.tag == OTHER:  # the cells in no closed class are the ones the solvers drain
        assert np.array_equal(_network(R, np.ones(R.shape[0])).parts[0], ~closed)
    assert is_out_connected(R) == bool(draining.all())
    if leaky.any():
        with pytest.raises(PreconditionError):
            is_irreducible(R)
        if draining.all():
            assert cls.tag == SUBSTOCHASTIC_OUT_CONNECTED
            assert cells == list(np.flatnonzero(leaky))
        else:
            assert cls.tag == OTHER
            assert cells == list(np.flatnonzero(~draining))
        return
    strongly_connected = bool(np.all(closure & closure.T))
    assert is_irreducible(R) == strongly_connected
    if strongly_connected:
        assert cls.tag == STOCHASTIC_IRREDUCIBLE
        return
    # the named cells are a sink strongly connected component: each reaches exactly them
    assert cls.tag == OTHER
    subset = np.zeros(R.shape[0], dtype=bool)
    subset[cells] = True
    assert cells and all(np.array_equal(closure[i], subset) for i in cells)


def random_sparse_routing(rng, n, density, stochastic):
    """Random weights on a random sparse support; stochastic rows, or
    rows scaled below 1 at random (empty rows stay leaky)."""
    support = rng.random((n, n)) < density
    np.fill_diagonal(support, False)
    if stochastic:
        for i in np.flatnonzero(~support.any(axis=1)):
            support[i, rng.choice([j for j in range(n) if j != i])] = True
    R = np.where(support, rng.random((n, n)) + 0.05, 0.0)
    sums = R.sum(axis=1)
    R[sums > 0] /= sums[sums > 0, None]
    if not stochastic:
        R *= np.where(rng.random(n) < 0.2, rng.uniform(0.2, 0.9, n), 1.0)[:, None]
    return R


def path_graph(n, last_row):
    """Cells 1 -> 2 -> ... -> n, with ``last_row`` as the routing of cell n."""
    R = np.zeros((n, n))
    R[np.arange(n - 1), np.arange(1, n)] = 1.0
    R[-1] = last_row
    return R


class TestClassifyAgainstClosure:
    def test_random_sparse_digraphs(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            R = random_sparse_routing(rng, n, rng.choice([0.1, 0.2, 0.35]), bool(rng.integers(2)))
            assert_classification_matches_closure(R)

    def test_single_cell(self):
        assert_classification_matches_closure(np.zeros((1, 1)))
        assert classify_routing(np.zeros((1, 1))).tag == SUBSTOCHASTIC_OUT_CONNECTED

    def test_two_disjoint_cycles(self):
        assert_classification_matches_closure(TWO_CYCLES)

    def test_stranded_closed_cycle(self):
        R = np.array([[0, 0.5, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
        assert_classification_matches_closure(R)
        assert classify_routing(R).detail == "cells [2, 3] cannot reach a leaky cell"

    def test_long_paths(self):
        # each search needs about n rounds to cross the path
        n = 120
        to_first, to_previous = np.zeros(n), np.zeros(n)
        to_first[0] = to_previous[n - 2] = 1.0
        cases = {
            SUBSTOCHASTIC_OUT_CONNECTED: path_graph(n, np.zeros(n)),
            STOCHASTIC_IRREDUCIBLE: path_graph(n, to_first),
            OTHER: path_graph(n, to_previous),
        }
        for tag, R in cases.items():
            assert_classification_matches_closure(R)
            assert classify_routing(R).tag == tag
        assert classify_routing(cases[OTHER]).detail == f"stochastic but reducible: closed subset {{{n - 1}, {n}}}"


class TestInvariantVector:
    def test_reference_network(self):
        pi = invariant_vector(R3)
        assert np.abs(pi - PI3).max() < 1e-10
        assert np.abs(pi - R3.T @ pi).sum() < 1e-10

    def test_swap(self):
        assert np.allclose(invariant_vector(SWAP2), [0.5, 0.5], atol=1e-12)

    def test_cycle(self):
        assert np.allclose(invariant_vector(CYCLE3), [1 / 3] * 3, atol=1e-12)

    def test_requires_stochastic_irreducible(self):
        with pytest.raises(PreconditionError):
            invariant_vector(np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            R = random_stochastic_irreducible(rng, n)
            pi = invariant_vector(R)
            assert np.abs(pi - R.T @ pi).sum() < 1e-10
            assert pi.min() > 0
            assert abs(pi.sum() - 1) < 1e-12


def test_large_sparse_solve_matches_lstsq():
    rng = np.random.default_rng(59)
    n = 300
    R = np.zeros((n, n))
    R[np.arange(n), np.roll(np.arange(n), -1)] = 1.0  # a Hamiltonian cycle keeps R irreducible
    R += np.where(rng.random((n, n)) < 0.02, rng.random((n, n)), 0.0)
    np.fill_diagonal(R, 0.0)
    R /= R.sum(axis=1)[:, None]
    v = random_zero_sum(rng, n)
    A = np.vstack([np.eye(n) - R.T, np.ones((1, n))])
    pi_ref = np.linalg.lstsq(A, np.concatenate([np.zeros(n), [1.0]]), rcond=None)[0]
    hv_ref = np.linalg.lstsq(A, np.concatenate([v, [0.0]]), rcond=None)[0]
    assert np.abs(invariant_vector(R) - pi_ref).max() < 1e-13
    assert np.abs(h_operator(R, v) - hv_ref).max() < 1e-10


class TestHOperator:
    def test_zero_input(self):
        assert np.array_equal(h_operator(R3, np.zeros(3)), np.zeros(3))

    def test_reference_demand(self):
        hv = h_operator(R3, C3)
        assert np.abs(hv - HC3).max() < 1e-12

    def test_swap_halves(self):
        # the averaged series terminates after the first term for the swap matrix
        hv = h_operator(SWAP2, np.array([1.0, -1.0]))
        assert np.allclose(hv, [0.5, -0.5], atol=1e-12)

    def test_rejects_nonzero_sum(self):
        with pytest.raises(PreconditionError, match="zero-sum"):
            h_operator(R3, np.array([0.0, -1.0, 0.0]))

    def test_defining_equation_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            R = random_stochastic_irreducible(rng, n)
            v = random_zero_sum(rng, n)
            hv = h_operator(R, v)
            assert np.abs(hv - R.T @ hv - v).max() < 1e-10
            assert abs(hv.sum()) < 1e-10

    def test_series_oracle_agreement(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            R = random_stochastic_irreducible(rng, n)
            v = random_zero_sum(rng, n)
            assert np.abs(h_operator(R, v) - h_series(R, v)).max() < 1e-8
