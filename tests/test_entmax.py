"""Sparse projection: forward against a bisection oracle, closed-form backward
against finite differences, and the simplex/sparsity/equivariance properties."""

import numpy as np
import pytest

from danet import Rng, ShapeError, entmax15, entmax15_backward
from helpers import entmax_bisect, entmax_margin, finite_diff_grad


def test_two_way_split_frozen_values():
    # tau solves (1/2 - tau)^2 + tau^2 = 1, i.e. 2 tau^2 - tau - 3/4 = 0,
    # whose admissible root is (1 - sqrt(7))/4
    r = entmax15(np.array([1.0, 0.0]))
    tau = (1.0 - np.sqrt(7.0)) / 4.0
    assert abs(r.tau - tau) <= 1e-12
    assert abs(r.probs[0] - 0.8307189138830738) <= 1e-12
    assert abs(r.probs[1] - 0.16928108611692623) <= 1e-12
    assert list(r.support) == [0, 1]


def test_saturated_pair_is_exactly_one_hot():
    r = entmax15(np.array([10.0, 0.0]))
    assert r.probs[0] == 1.0 and r.probs[1] == 0.0
    assert r.tau == 4.0
    assert list(r.support) == [0]


def test_uniform_logits_give_uniform_probs():
    for n in (1, 2, 3, 7):
        r = entmax15(np.zeros(n))
        assert np.max(np.abs(r.probs - 1.0 / n)) <= 1e-15
        assert len(r.support) == n


def test_matches_bisection_oracle_on_random_vectors():
    rng = Rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 13, None))
        z = 4.0 * rng.standard_normal(n)
        r = entmax15(z)
        oracle, _ = entmax_bisect(z)
        assert np.max(np.abs(r.probs - oracle)) <= 1e-10


def test_simplex_sum():
    rng = Rng(12)
    for _ in range(200):
        z = 10.0 * rng.standard_normal(int(rng.integers(1, 10, None)))
        assert abs(entmax15(z).probs.sum() - 1.0) <= 1e-12


def test_threshold_identity_on_support():
    rng = Rng(13)
    for _ in range(100):
        z = 3.0 * rng.standard_normal(6)
        r = entmax15(z)
        for i in r.support:
            assert abs(r.probs[i] - (z[i] / 2.0 - r.tau) ** 2) <= 1e-12


def test_shift_invariance():
    rng = Rng(14)
    for shift in (-1000.0, -3.7, 0.0, 5.2, 1000.0):
        z = rng.standard_normal(8)
        a = entmax15(z).probs
        b = entmax15(z + shift).probs
        assert np.max(np.abs(a - b)) <= 1e-12


def test_permutation_equivariance():
    rng = Rng(15)
    z = rng.standard_normal(9)
    perm = Rng(16).permutation(9)
    assert np.max(np.abs(entmax15(z).probs[perm] - entmax15(z[perm]).probs)) <= 1e-14


def test_sparsity_saturation_threshold():
    # [t, 0]: the runner-up leaves the support exactly at t = 2
    below = entmax15(np.array([1.9, 0.0]))
    assert below.probs[1] > 0.0
    at = entmax15(np.array([2.0, 0.0]))
    assert at.probs[1] == 0.0 and at.probs[0] == 1.0
    far = entmax15(np.array([3.0, 0.0, 0.0, 0.0]))
    assert far.probs[0] == 1.0 and np.all(far.probs[1:] == 0.0)


def test_exact_ties_share_mass():
    r = entmax15(np.array([5.0, 5.0, 0.0]))
    assert r.probs[0] == r.probs[1]
    assert abs(r.probs[0] - 0.5) <= 1e-15
    assert r.probs[2] == 0.0


def test_single_element():
    r = entmax15(np.array([-3.0]))
    assert r.probs[0] == 1.0 and list(r.support) == [0]


def test_backward_matches_finite_differences():
    rng = Rng(17)
    checked = 0
    while checked < 60:
        n = int(rng.integers(2, 9, None))
        z = 2.0 * rng.standard_normal(n)
        if entmax_margin(z) < 1e-3:
            continue  # support would flip under the probe step
        g = rng.standard_normal(n)
        r = entmax15(z)
        manual = entmax15_backward(r, g)
        fd = finite_diff_grad(lambda v: float(np.dot(g, entmax15(v).probs)), z, h=1e-6)
        denom = np.maximum(np.abs(manual), np.abs(fd)) + 1e-9
        assert np.max(np.abs(manual - fd) / denom) <= 1e-6
        checked += 1


def test_backward_zero_off_support():
    z = np.array([4.0, 0.0, -1.0])
    r = entmax15(z)
    assert list(r.support) == [0]
    dz = entmax15_backward(r, np.array([1.0, 2.0, 3.0]))
    assert dz[1] == 0.0 and dz[2] == 0.0


def test_backward_orthogonal_to_uniform_direction():
    # rows of the Jacobian sum to zero: a constant grad_out maps to zero
    z = Rng(18).standard_normal(6)
    r = entmax15(z)
    dz = entmax15_backward(r, np.ones(6))
    assert np.max(np.abs(dz)) <= 1e-12


def test_input_validation():
    with pytest.raises(ShapeError):
        entmax15(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        entmax15(np.array([]))
    with pytest.raises(ValueError):
        entmax15(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        entmax15(np.array([np.inf, 0.0]))
    r = entmax15(np.array([1.0, 0.0]))
    with pytest.raises(ShapeError):
        entmax15_backward(r, np.zeros(3))
