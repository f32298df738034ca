import numpy as np
import pytest

from nutaxis import (
    Constant,
    Gaussian,
    Interval,
    Mirrored,
    NonpositiveField,
    build_grid,
    init_state,
    sample,
)


@pytest.fixture
def grid():
    return build_grid(Interval(64))


def test_constant_sample(grid):
    arr = sample(Constant(3.5), grid)
    np.testing.assert_array_equal(arr, np.full(64, 3.5))
    assert arr.dtype == np.float64


def test_gaussian_sample(grid):
    prof = Gaussian(base=1.0, amp=2.0, rate=15.0, center=0.25)
    arr = sample(prof, grid)
    expected = 1.0 + 2.0 * np.exp(-15.0 * (grid.centers - 0.25) ** 2)
    np.testing.assert_array_equal(arr, expected)


def test_mirrored_reflects_about_midpoint(grid):
    inner = Gaussian(base=0.0, amp=1.0, rate=15.0, center=0.0)
    mirrored = sample(Mirrored(inner), grid)
    direct = sample(Gaussian(base=0.0, amp=1.0, rate=15.0, center=1.0), grid)
    np.testing.assert_allclose(mirrored, direct, rtol=1e-15)
    # mirroring twice gives back the original samples
    np.testing.assert_array_equal(sample(Mirrored(Mirrored(inner)), grid),
                                  sample(inner, grid))


def test_mirrored_on_shifted_interval():
    g = build_grid(Interval(32, x_lo=2.0, x_hi=4.0))
    inner = Gaussian(base=0.0, amp=1.0, rate=3.0, center=2.5)
    vals = sample(Mirrored(inner), g)
    np.testing.assert_allclose(
        vals, sample(Gaussian(base=0.0, amp=1.0, rate=3.0, center=3.5), g),
        rtol=1e-14)


def test_init_state_balanced_start(grid):
    prof = Gaussian(base=0.0, amp=1.0, rate=15.0, center=0.5)
    state, i0 = init_state(prof, prof, Constant(60.0), grid)
    assert state.t == 0.0
    assert i0 == 0.0
    np.testing.assert_array_equal(state.u, state.v)
    np.testing.assert_array_equal(state.w, np.full(64, 60.0))


def test_init_state_mirrored_pair_balances(grid):
    u0 = Gaussian(base=1.0, amp=1.0, rate=15.0, center=0.0)
    _, i0 = init_state(u0, Mirrored(u0), Constant(1.0), grid)
    assert abs(i0) < 1e-13


def test_init_state_rejects_bad_data(grid):
    pos = Constant(1.0)
    with pytest.raises(ValueError):
        init_state(Constant(0.0), pos, pos, grid)
    with pytest.raises(ValueError):
        init_state(pos, Constant(-1.0), pos, grid)
    with pytest.raises(ValueError):
        init_state(pos, pos, Constant(-0.5), grid)
    # w0 = 0 is allowed (nutrient may start absent)
    state, _ = init_state(pos, pos, Constant(0.0), grid)
    assert state.w.max() == 0.0


def test_init_state_names_the_first_failing_cell(grid):
    # -1 + 2 exp(-10 x^2) turns negative at cell 17 and is least at cell 63
    dip = Gaussian(base=-1.0, amp=2.0, rate=10.0, center=0.0)
    pos = Constant(1.0)
    value = -0.05307319809899258
    for args, message in [
            ((dip, pos, pos), f"u0 is not > 0 at cell 17: {value!r}"),
            ((pos, Constant(0.0), pos), "v0 is not > 0 at cell 0: 0.0"),
            ((pos, pos, dip), f"w0 is not >= 0 at cell 17: {value!r}")]:
        with pytest.raises(NonpositiveField) as err:
            init_state(*args, grid)
        assert str(err.value) == message
        assert isinstance(err.value, ValueError)


def test_state_copy_is_independent(grid):
    state, _ = init_state(Constant(1.0), Constant(2.0), Constant(3.0), grid)
    dup = state.copy()
    dup.u[0] = 99.0
    dup.t = 7.0
    assert state.u[0] == 1.0
    assert state.t == 0.0
