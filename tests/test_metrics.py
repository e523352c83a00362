import math
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import ospa_bruteforce
from smcphd.metrics import (
    OspaParams,
    _cost_matrix,
    _finalize,
    _min_assignment_cost,
    gain_ratio,
    ospa,
)

PARAMS = OspaParams(cutoff=100.0, order=2.0)


def _random_set(rng, max_size, dim=2):
    return rng.uniform(-100, 100, size=(int(rng.integers(0, max_size + 1)), dim))


def test_identity_and_empty_cases():
    rng = np.random.default_rng(0)
    x = rng.uniform(-100, 100, size=(4, 2))
    assert ospa(x, x, PARAMS) == 0.0
    assert ospa([], [], PARAMS) == 0.0
    assert ospa([], x, PARAMS) == 100.0
    assert ospa(x, [], PARAMS) == 100.0


def test_cardinality_penalty_hand_case():
    # One matched pair at distance 0 plus one unmatched point: the optimal
    # injection picks the coincident pair, leaving (0^2 + 100^2)/2 inside.
    x = np.array([[0.0, 0.0]])
    y = np.array([[0.0, 0.0], [30.0, 40.0]])
    expected = math.sqrt((0.0 + 100.0**2) / 2)
    assert ospa(x, y, PARAMS) == pytest.approx(expected, rel=1e-12)
    assert ospa_bruteforce(x, y, PARAMS) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "x, y",
    [
        ([[0.0, 0.0]], [[1.0, 1.0], [50.0, 50.0], [60.0, 60.0]]),
        ([[0.0, 0.0], [10.0, 10.0]], [[1.0, 1.0], [50.0, 50.0], [60.0, 60.0], [-80.0, 20.0]]),
    ],
)
def test_cardinality_penalty_finite_at_the_largest_order(x, y):
    # cutoff ** order is about 1e308 here: the penalty for two or more
    # unmatched points must not overflow to inf.
    params = OspaParams(cutoff=100.0, order=154.0)
    d = ospa(x, y, params)
    assert math.isfinite(d)
    assert d == ospa_bruteforce(x, y, params)


def test_distinct_points_score_above_zero_at_the_largest_order():
    # The load-time order check keeps (d / cutoff) ** order >= 1e-308 > 0 for
    # d >= 1; past it (order 1e4) this pair would score 0 and break identity.
    params = OspaParams(cutoff=100.0, order=154.0)
    x, y = [[0.0, 0.0]], [[1.0, 0.0]]
    d = ospa(x, y, params)
    assert d > 0
    assert d == ospa_bruteforce(x, y, params)


def test_single_pair_below_cutoff():
    assert ospa([[0.0, 0.0]], [[3.0, 4.0]], PARAMS) == pytest.approx(5.0, rel=1e-12)


def test_assignment_agrees_with_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        x, y = _random_set(rng, 6), _random_set(rng, 6)
        assert ospa(x, y, PARAMS) == ospa_bruteforce(x, y, PARAMS)


def test_symmetry_and_bounds():
    rng = np.random.default_rng(2)
    for _ in range(500):
        x, y = _random_set(rng, 5), _random_set(rng, 5)
        d = ospa(x, y, PARAMS)
        assert d == ospa(y, x, PARAMS)
        assert 0.0 <= d <= PARAMS.cutoff


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-100, 100, size=(5, 2))
        y = rng.uniform(-100, 100, size=(4, 2))
        base = ospa(x, y, PARAMS)
        assert ospa(x[rng.permutation(5)], y[rng.permutation(4)], PARAMS) == base


def test_triangle_inequality_bruteforce():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x, y, z = (_random_set(rng, 4) for _ in range(3))
        dxz = ospa_bruteforce(x, z, PARAMS)
        dxy = ospa_bruteforce(x, y, PARAMS)
        dyz = ospa_bruteforce(y, z, PARAMS)
        assert dxz <= dxy + dyz + 1e-9


@st.composite
def _cost_matrices(draw):
    """m x n cost matrices, m <= n <= 10: uniform entries, entries rounded to
    thirds (many exact ties), or uniform entries with whole columns at 1.0
    (points beyond the OSPA cutoff)."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = rng.uniform(size=(m, n))
    kind = draw(st.sampled_from(["uniform", "thirds", "cutoff"]))
    if kind == "thirds":
        costs = np.round(costs * 3) / 3
    elif kind == "cutoff":
        costs[:, rng.uniform(size=n) < 0.5] = 1.0
    return costs


@settings(max_examples=500, deadline=None)
@given(costs=_cost_matrices())
def test_assignment_matches_scipy(costs):
    # On the costs scaled to ints, the optimum is exact and unique.
    from scipy.optimize import linear_sum_assignment

    ints = np.round(costs * 2**20).astype(np.int64)
    rows, cols = linear_sum_assignment(ints)
    assert _min_assignment_cost(ints.tolist()) == int(ints[rows, cols].sum())


@st.composite
def _large_int_matrices(draw):
    """m x n int cost matrices, m <= n <= 40, past the brute-force limit:
    uniform in [0, 2^40), uniform in [0, 3] (many exact ties), or uniform
    with whole columns at the largest cost."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "ties", "cutoff"]))
    ints = rng.integers(0, 4 if kind == "ties" else 2**40, size=(m, n))
    if kind == "cutoff":
        ints[:, rng.uniform(size=n) < 0.5] = 2**40
    return ints


@settings(max_examples=150, deadline=None)
@given(ints=_large_int_matrices())
def test_large_assignment_matches_scipy(ints):
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(ints)
    assert _min_assignment_cost(ints.tolist()) == int(ints[rows, cols].sum())


def _assert_infeasible(cost):
    # Some row's scan finds no finite reduced cost; without its check the
    # solver would never leave that row, so an alarm bounds the call.
    def hung(signum, frame):
        raise TimeoutError("the solver did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match="infeasible"):
            _min_assignment_cost(cost)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_assignment_of_infeasible_matrix_raises():
    _assert_infeasible([[math.inf, 1.0], [math.inf, 2.0]])


@pytest.mark.parametrize(
    "cost",
    [[[1, 2], [math.inf, math.inf]], [[1, math.inf], [2, math.inf]]],
    ids=["row-without-finite-cost", "only-finite-column-taken"],
)
def test_assignment_of_infeasible_row_raises(cost):
    _assert_infeasible(cost)


@st.composite
def _large_point_set_pairs(draw):
    """Two sets of 9-30 points, 2-D or 4-D, past the brute-force limit:
    uniform coordinates, or coordinates on a coarse grid (many exact ties
    between costs, and costs at the cutoff)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([2, 4]))
    grid = draw(st.booleans())
    sets = []
    for _ in range(2):
        size = (draw(st.integers(9, 30)), dim)
        if grid:
            sets.append(rng.integers(-6, 7, size=size) * 25.0)
        else:
            sets.append(rng.uniform(-150, 150, size=size))
    return sets


@settings(max_examples=100, deadline=None)
@given(sets=_large_point_set_pairs(), seed=st.integers(0, 2**32 - 1))
def test_large_sets_match_scipy_assignment(sets, seed):
    from scipy.optimize import linear_sum_assignment

    x, y = sets
    small, large = (x, y) if len(x) <= len(y) else (y, x)
    costs = _cost_matrix(small, large, PARAMS)
    rows, cols = linear_sum_assignment(costs)
    expected = _finalize(math.fsum(costs[rows, cols]), len(small), len(large), PARAMS)
    d = ospa(x, y, PARAMS)
    assert d == pytest.approx(expected, rel=1e-12)
    rng = np.random.default_rng(seed)
    assert ospa(y, x, PARAMS) == d
    assert ospa(x[rng.permutation(len(x))], y[rng.permutation(len(y))], PARAMS) == d


@pytest.mark.parametrize(
    "x, y",
    [(np.zeros((2, 2, 2)), np.zeros((2, 2, 2))), (np.zeros((2, 2, 2)), np.zeros((3, 2)))],
    ids=["3d-against-3d", "3d-against-2d"],
)
def test_ospa_rejects_point_arrays_of_more_than_two_dimensions(x, y):
    with pytest.raises(ValueError, match="1-D or 2-D"):
        ospa(x, y, PARAMS)


@st.composite
def _point_set_triples(draw):
    """Three sets of 0-6 planar points drawn from one shared pool of up to 6
    points, so sets can be empty, repeat a point, or share points."""
    coord = st.one_of(
        st.integers(-150, 150).map(float),
        st.floats(-150, 150, allow_nan=False, allow_infinity=False),
    )
    pool = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    index = st.integers(0, len(pool) - 1)
    return [
        np.array([pool[i] for i in draw(st.lists(index, max_size=6))]).reshape(-1, 2)
        for _ in range(3)
    ]


# Two optimal injections that hold the same costs in another order: summed
# left to right their totals differ by one ulp, summed exactly they agree.
_TIED = [
    np.array([[40.0, 0.0], [-3.0, 14.0], [0.25, 57.0]]),
    np.array([[-3.0, 14.0], [-3.0, 14.0], [-17.0, -3.0]]),
    np.array([[-17.0, -3.0]]),
]

# Two injections whose float sums tie: the solver's duals, rounded in float
# arithmetic, took the one whose exact sum is one ulp above the optimum.
_FLOAT_TIED = [
    np.array([[0.0, 3.0], [56.25, 0.0], [56.25, 0.0], [0.0, 77.0], [3.0, 77.0]]),
    np.array([[0.0, 3.0], [56.25, 0.0], [0.0, 77.0], [3.0, 77.0], [3.0, 77.0]]),
    np.empty((0, 2)),
]


@settings(max_examples=300, deadline=None)
@given(sets=_point_set_triples(), seed=st.integers(0, 2**32 - 1))
@example(sets=_TIED, seed=0)
@example(sets=_FLOAT_TIED, seed=0)
def test_ospa_axioms(sets, seed):
    x, y, z = sets
    rng = np.random.default_rng(seed)
    d = ospa(x, y, PARAMS)
    assert ospa(x, x, PARAMS) == 0.0
    assert d == ospa(y, x, PARAMS)
    assert 0.0 <= d <= PARAMS.cutoff
    assert ospa(x[rng.permutation(len(x))], y[rng.permutation(len(y))], PARAMS) == d
    assert d == ospa_bruteforce(x, y, PARAMS)
    assert ospa(x, z, PARAMS) <= d + ospa(y, z, PARAMS) + 1e-9


def test_bruteforce_rejects_large_sets():
    pts = np.zeros((9, 2))
    with pytest.raises(ValueError):
        ospa_bruteforce(pts, pts, PARAMS)


def test_full_state_distance_supported():
    x = np.array([[0.0, 0.0, 0.0, 0.0]])
    y = np.array([[3.0, 0.0, 4.0, 0.0]])
    assert ospa(x, y, PARAMS) == pytest.approx(5.0, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        OspaParams(cutoff=0.0)
    with pytest.raises(ValueError):
        OspaParams(order=0.5)


def test_gain_ratio():
    assert gain_ratio(10.0, 8.0) == pytest.approx(0.2, rel=1e-12)
    assert gain_ratio(5.0, 5.0) == 0.0
    assert gain_ratio(10.0, 12.0) == pytest.approx(-0.2, rel=1e-12)
    with pytest.raises(ValueError):
        gain_ratio(0.0, 1.0)
