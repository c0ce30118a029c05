"""RNG determinism and the finite-difference oracle."""

import numpy as np
import pytest

from danet import Rng
from helpers import finite_diff_grad


def test_rng_same_seed_same_stream():
    assert np.array_equal(Rng(123).standard_normal(10), Rng(123).standard_normal(10))
    assert not np.array_equal(Rng(123).standard_normal(10), Rng(124).standard_normal(10))


def test_rng_is_a_numpy_pcg64_generator():
    rng = Rng(7)
    assert type(rng) is np.random.Generator
    assert isinstance(rng.bit_generator, np.random.PCG64)


def test_gaussian_sample_frozen_stream():
    # frozen from the documented PCG64 stream; a silent generator change
    # would break every seeded experiment in the package
    got = Rng(42).standard_normal(3)
    expected = np.array([0.30471707975443135, -1.0399841062404955, 0.7504511958064572])
    assert np.array_equal(got, expected)


def test_gaussian_sample_moments():
    x = Rng(5).standard_normal(200_000)
    assert abs(float(x.mean())) < 0.01
    assert abs(float(x.std()) - 1.0) < 0.01


def test_finite_diff_grad_quadratic():
    x = np.array([1.0, -2.0, 3.5])
    g = finite_diff_grad(lambda v: float(np.sum(v * v)), x, h=1e-5)
    assert np.max(np.abs(g - 2 * x)) <= 1e-8


def test_finite_diff_grad_matrix_argument():
    rng = Rng(3)
    w = rng.standard_normal((2, 3))
    a = rng.standard_normal((2, 3))
    g = finite_diff_grad(lambda v: float(np.sum(a * v)), w, h=1e-6)
    assert np.max(np.abs(g - a)) <= 1e-8
    assert g.shape == w.shape


def test_finite_diff_grad_reports_bad_coordinate():
    def f(v):
        with np.errstate(invalid="ignore"):
            return float(np.log(v[1]))  # goes non-finite when v[1] dips <= 0

    with pytest.raises(ValueError) as ei:
        finite_diff_grad(f, np.array([1.0, 1e-9]), h=1e-5)
    assert "coordinate 1" in str(ei.value)


def test_finite_diff_grad_does_not_mutate_input():
    x = np.array([1.0, 2.0])
    finite_diff_grad(lambda v: float(v.sum()), x)
    assert np.array_equal(x, np.array([1.0, 2.0]))
