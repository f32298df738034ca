import numpy as np
import pytest

from nutaxis import ModelParams, f_eps, f_eps_prime


def test_params_are_frozen():
    p = ModelParams(D_u=20.0, D_w=1.0, chi=0.5, alpha=2.0, beta=200.0,
                    gamma=200.0, delta=1.0)
    with pytest.raises(Exception):
        p.chi = 1.0


@pytest.mark.parametrize("field,value", [
    ("D_u", 0.0), ("D_u", -1.0), ("D_w", 0.0), ("chi", -0.1),
    ("alpha", -1.0), ("beta", float("nan")), ("delta", float("inf")),
    ("eps_reg", -1e-3),
])
def test_params_validation(field, value):
    kwargs = dict(D_u=1.0, D_w=1.0, chi=0.5, alpha=2.0, beta=1.0,
                  gamma=1.0, delta=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_f_eps_unregularized_is_identity():
    s = np.linspace(0.0, 10.0, 11)
    assert f_eps(s, 0.0) is s
    assert f_eps(3.0, 0.0) == 3.0
    assert f_eps_prime(3.0, 0.0) == 1.0
    np.testing.assert_array_equal(f_eps_prime(s, 0.0), np.ones_like(s))


def test_f_eps_saturates():
    s = np.linspace(0.0, 100.0, 201)
    eps = 0.1
    f = f_eps(s, eps)
    np.testing.assert_allclose(f, s / (1.0 + eps * s), rtol=1e-15)
    assert np.all(f <= s + 1e-15)
    assert np.all(f <= 1.0 / eps)
    # monotone in s
    assert np.all(np.diff(f) > 0.0)


def test_f_eps_prime_matches_difference_quotient():
    s = np.linspace(0.0, 5.0, 17)
    for eps in (1e-3, 1e-1, 1.0):
        d = f_eps_prime(s, eps)
        assert np.all(d > 0.0) and np.all(d <= 1.0)
        h = 1e-6
        fd = (f_eps(s + h, eps) - f_eps(s - h, eps)) / (2 * h)
        np.testing.assert_allclose(d, fd, rtol=1e-8)


def test_f_eps_prime_increases_as_eps_vanishes():
    s = 2.0
    vals = [f_eps_prime(s, e) for e in (1.0, 0.1, 0.01, 0.0)]
    assert vals == sorted(vals)
    assert vals[-1] == 1.0
