import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longlasso.penalty import (
    CoefficientPair,
    norm_12_cols,
    norm_12_rows,
    prox_col_groups,
    prox_row_groups,
    row_norms,
)


def test_norm_examples():
    assert norm_12_rows(np.zeros((3, 4))) == 0.0
    assert norm_12_rows(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
    assert norm_12_rows(np.array([[1.0, 0.0], [0.0, 2.0]])) == pytest.approx(3.0)


def test_col_norm_is_transpose_wrap():
    M = np.arange(12.0).reshape(3, 4)
    assert norm_12_cols(M) == pytest.approx(norm_12_rows(M.T))


def test_prox_examples():
    P = np.array([[3.0, 4.0], [0.3, 0.4]])
    assert np.allclose(prox_row_groups(P, 0.0), P)
    out = prox_row_groups(P, 1.0)
    assert np.allclose(out[0], [2.4, 3.2])
    assert np.array_equal(out[1], [0.0, 0.0])


def test_prox_zero_rows_stay_zero():
    P = np.array([[0.0, 0.0], [1.0, 1.0]])
    out = prox_row_groups(P, 0.5)
    assert np.array_equal(out[0], [0.0, 0.0])
    # at theta = 0 the map is the identity, with no 0/0 on the zero row
    assert np.array_equal(prox_row_groups(P, 0.0), P)


def test_prox_threshold_tie_maps_to_zero():
    # ||row|| == theta lands exactly on the kill boundary
    out = prox_row_groups(np.array([[3.0, 4.0]]), 5.0)
    assert np.array_equal(out, np.zeros((1, 2)))


def test_prox_rejects_negative_threshold():
    with pytest.raises(ValueError):
        prox_row_groups(np.ones((1, 2)), -0.1)


def test_prox_col_groups_matches_transposed_rows():
    rng = np.random.default_rng(0)
    P = rng.normal(size=(4, 3))
    assert np.allclose(prox_col_groups(P, 0.7), prox_row_groups(P.T, 0.7).T)


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**31 - 1), theta=st.floats(0.0, 5.0))
def test_prox_subgradient_optimality(seed, theta):
    rng = np.random.default_rng(seed)
    P = rng.normal(0, 2, size=(5, 3))
    M = prox_row_groups(P, theta)
    norms = row_norms(M)
    for r in range(P.shape[0]):
        if norms[r] > 0:
            resid = (M[r] - P[r]) + theta * M[r] / norms[r]
            assert np.linalg.norm(resid) <= 1e-10
        else:
            assert np.linalg.norm(P[r]) <= theta + 1e-12


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), theta=st.floats(0.0, 3.0))
def test_prox_nonexpansive(seed, theta):
    rng = np.random.default_rng(seed)
    P1 = rng.normal(size=(4, 3))
    P2 = rng.normal(size=(4, 3))
    d_out = np.linalg.norm(prox_row_groups(P1, theta) - prox_row_groups(P2, theta))
    assert d_out <= np.linalg.norm(P1 - P2) + 1e-12


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1))
def test_prox_matches_grid_search_on_1x2(seed):
    rng = np.random.default_rng(seed)
    P = rng.normal(0, 2, size=(1, 2))
    theta = float(rng.uniform(0, 3))
    M = prox_row_groups(P, theta)
    # for a single row the minimizer lies along P, so the objective
    # reduces to a 1-D problem in the row norm r >= 0
    p_norm = float(np.linalg.norm(P))
    grid = np.arange(0.0, p_norm + theta + 1.0, 1e-3)
    objective = 0.5 * (grid - p_norm) ** 2 + theta * grid
    r_star = grid[int(np.argmin(objective))]
    assert abs(float(np.linalg.norm(M)) - r_star) <= 2e-3


def test_coefficient_pair_validation_and_penalty():
    with pytest.raises(ValueError):
        CoefficientPair(U=np.zeros((2, 2)), V=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        CoefficientPair(U=np.zeros((2, 2)), V=np.zeros((2, 2)), lam1=-1.0)
    pair = CoefficientPair(
        U=np.array([[3.0, 4.0]]), V=np.array([[0.0, 1.0]]), lam1=2.0, lam2=0.5
    )
    assert np.allclose(pair.W, [[3.0, 5.0]])
