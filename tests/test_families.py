import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longlasso.errors import DataError
from longlasso.families import ETA_CLAMP, get_family

FAMILIES = ("gaussian", "bernoulli", "poisson")


def unit_deviance(fam, y, eta):
    """Half deviance per observation, the solver's loss under working independence."""
    return fam.saturated_term(y) - y * eta + fam.cumulant(eta)


def test_get_family_rejects_unknown():
    with pytest.raises(ValueError, match="unknown family"):
        get_family("gamma")


def test_mean_examples():
    assert get_family("bernoulli").mean(np.array([0.0])) == pytest.approx(0.5)
    assert get_family("poisson").mean(np.array([0.0])) == pytest.approx(1.0)
    assert get_family("gaussian").mean(np.array([3.7])) == pytest.approx(3.7)


def test_mean_clamps_extreme_eta():
    bern = get_family("bernoulli")
    pois = get_family("poisson")
    assert np.isfinite(pois.mean(np.array([1e6]))[0])
    assert pois.mean(np.array([1e6]))[0] == pytest.approx(np.exp(ETA_CLAMP))
    assert bern.mean(np.array([1e6]))[0] < 1.0
    assert bern.mean(np.array([-1e6]))[0] > 0.0


def test_variance_examples():
    assert get_family("bernoulli").variance(np.array([0.5])) == pytest.approx(0.25)
    assert get_family("poisson").variance(np.array([2.0])) == pytest.approx(2.0)
    assert np.allclose(get_family("gaussian").variance(np.array([-4.0, 9.9])), 1.0)


def test_variance_domain_errors():
    with pytest.raises(ValueError):
        get_family("bernoulli").variance(np.array([0.0]))
    with pytest.raises(ValueError):
        get_family("bernoulli").variance(np.array([1.0]))
    with pytest.raises(ValueError):
        get_family("poisson").variance(np.array([0.0]))


def test_deviance_examples():
    gauss = get_family("gaussian")
    y = np.array([1.0, -2.0, 0.3])
    assert np.sum(unit_deviance(gauss, y, y)) == pytest.approx(0.0)

    bern = get_family("bernoulli")
    assert unit_deviance(bern, np.array([1.0]), np.array([0.0]))[0] == pytest.approx(np.log(2.0))

    pois = get_family("poisson")
    assert unit_deviance(pois, np.array([1.0]), np.array([0.0]))[0] == pytest.approx(0.0)


def test_deviance_gaussian_reduces_to_scaled_sse():
    gauss = get_family("gaussian")
    y = np.array([0.5, 2.0, -1.0])
    eta = np.array([0.0, 1.0, -2.0])
    assert np.sum(unit_deviance(gauss, y, eta)) == pytest.approx(0.5 * np.sum((y - eta) ** 2))


@pytest.mark.parametrize("kind, y, message", [
    ("bernoulli", [0.0, 1.5], r"bernoulli outcomes must lie in \[0, 1\], got 0 to 1.5$"),
    ("bernoulli", [-0.5, 1.0], r"bernoulli outcomes must lie in \[0, 1\], got -0.5 to 1$"),
    ("poisson", [2.0, -1.0], r"poisson outcomes must be nonnegative, got -1$"),
])
def test_check_outcomes_raises_data_error_outside_the_support(kind, y, message):
    with pytest.raises(DataError, match=message):
        get_family(kind).check_outcomes(np.array(y))


def test_check_outcomes_accepts_the_support():
    get_family("bernoulli").check_outcomes(np.array([0.0, 0.25, 1.0]))
    get_family("poisson").check_outcomes(np.array([0.0, 3.5]))
    get_family("gaussian").check_outcomes(np.array([-210.0, 304.0]))


def test_deviance_validates_inputs():
    with pytest.raises(ValueError):
        get_family("bernoulli").saturated_term(np.array([1.5]))
    with pytest.raises(ValueError):
        get_family("poisson").saturated_term(np.array([-1.0]))


@settings(deadline=None)
@given(
    kind=st.sampled_from(FAMILIES),
    eta1=st.floats(-8, 8),
    eta2=st.floats(-8, 8),
    theta=st.floats(0, 1),
)
def test_cumulant_convexity(kind, eta1, eta2, theta):
    fam = get_family(kind)
    lhs = fam.cumulant(np.array([theta * eta1 + (1 - theta) * eta2]))[0]
    rhs = theta * fam.cumulant(np.array([eta1]))[0] + (1 - theta) * fam.cumulant(np.array([eta2]))[0]
    assert lhs <= rhs + 1e-9


@settings(deadline=None)
@given(kind=st.sampled_from(FAMILIES), eta=st.floats(-5, 5))
def test_cumulant_derivative_is_mean(kind, eta):
    fam = get_family(kind)
    h = 1e-6 * max(1.0, abs(eta))
    fd = (fam.cumulant(np.array([eta + h]))[0] - fam.cumulant(np.array([eta - h]))[0]) / (2 * h)
    mu = fam.mean(np.array([eta]))[0]
    assert fd == pytest.approx(mu, rel=1e-6, abs=1e-9)


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(FAMILIES), seed=st.integers(0, 2**31 - 1))
def test_deviance_nonnegative_and_zero_at_saturation(kind, seed):
    rng = np.random.default_rng(seed)
    fam = get_family(kind)
    eta = rng.normal(0, 2, size=6)
    if kind == "gaussian":
        y = rng.normal(0, 2, size=6)
    elif kind == "bernoulli":
        y = (rng.uniform(size=6) < 0.5).astype(float)
    else:
        y = rng.poisson(2.0, size=6).astype(float)
    dev = float(np.sum(unit_deviance(fam, y, eta)))
    assert dev >= -1e-12
    mu = fam.mean(eta)
    if np.max(np.abs(mu - y)) < 1e-12:
        assert dev == pytest.approx(0.0, abs=1e-10)
    # saturated fit has zero deviance (exact representable cases only)
    if kind == "gaussian":
        assert np.sum(unit_deviance(fam, y, y)) == pytest.approx(0.0, abs=1e-12)
