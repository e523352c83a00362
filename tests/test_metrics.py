import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import ospa_bruteforce
from smcphd.metrics import OspaParams, _assignment_columns, gain_ratio, ospa

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
    # The solver is a port of scipy's: same columns, ties included.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(costs)
    assert np.array_equal(rows, np.arange(len(costs)))
    assert np.array_equal(_assignment_columns(costs.tolist()), cols)


def test_assignment_of_infeasible_matrix_raises():
    with pytest.raises(ValueError, match="infeasible"):
        _assignment_columns([[math.inf, 1.0], [math.inf, 2.0]])


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


@settings(max_examples=300, deadline=None)
@given(sets=_point_set_triples(), seed=st.integers(0, 2**32 - 1))
@example(sets=_TIED, seed=0)
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
