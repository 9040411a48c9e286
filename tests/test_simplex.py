"""Batched simplex search tests on classical objectives."""

import numpy as np
import pytest

from discoh.simplex import minimize_batch


# minimize_batch hands the objective each row's coefficients followed by
# the row's index in x0


def quadratic_bowl(block):
    return np.sum((block[:, :-1] - 1.5) ** 2, axis=-1)


def rosenbrock(block):
    x = block[:, :-1]
    a = x[..., 0]
    b = x[..., 1]
    return (1 - a) ** 2 + 100 * (b - a**2) ** 2


def test_quadratic_batch_converges():
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-2, 2, size=(8, 3))
    res = minimize_batch(quadratic_bowl, x0, step=0.5, tol=1e-12, max_iter=500)
    assert res.value.shape == (8,)
    assert np.all(res.converged)
    assert np.all(res.value < 1e-10)
    assert np.allclose(res.x, 1.5, atol=1e-4)


def test_rosenbrock_single_row():
    x0 = np.array([[-1.2, 1.0]])
    res = minimize_batch(rosenbrock, x0, step=0.5, tol=1e-14, max_iter=2000)
    assert res.value[0] < 1e-10
    assert np.allclose(res.x[0], [1.0, 1.0], atol=1e-3)


def test_deterministic_rerun():
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-2, 2, size=(5, 4))
    r1 = minimize_batch(quadratic_bowl, x0.copy(), tol=1e-11, max_iter=400)
    r2 = minimize_batch(quadratic_bowl, x0.copy(), tol=1e-11, max_iter=400)
    assert np.array_equal(r1.x, r2.x)
    assert np.array_equal(r1.value, r2.value)
    assert r1.iterations == r2.iterations


def test_iteration_cap():
    x0 = np.array([[5.0, -5.0]])
    res = minimize_batch(rosenbrock, x0, tol=1e-300, max_iter=3)
    assert res.iterations <= 3
    assert not res.converged[0]


def test_batch_matches_individual_runs():
    # lockstep batching must not change any row's trajectory or its counts
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-3, 3, size=(6, 3))
    batch = minimize_batch(quadratic_bowl, x0.copy(), tol=1e-12, max_iter=600)
    assert batch.iterations == batch.row_iterations.max()
    assert batch.evaluations == batch.row_evaluations.sum()
    for i in range(6):
        solo = minimize_batch(quadratic_bowl, x0[i : i + 1].copy(), tol=1e-12, max_iter=600)
        assert batch.value[i] == solo.value[0]
        assert np.array_equal(batch.x[i], solo.x[0])
        assert batch.converged[i] == solo.converged[0]
        assert batch.row_iterations[i] == solo.iterations
        assert batch.row_evaluations[i] == solo.evaluations


def test_objective_sees_each_rows_index():
    # row i minimizes its distance to the point (i, i)
    def bowl_at_index(block):
        return np.sum((block[:, :-1] - block[:, -1:]) ** 2, axis=-1)

    x0 = np.zeros((4, 2))
    res = minimize_batch(bowl_at_index, x0, tol=1e-14, max_iter=2000)
    assert np.all(res.converged)
    assert np.allclose(res.x, np.arange(4)[:, None], atol=1e-5)


def test_input_not_mutated():
    x0 = np.ones((2, 2))
    frozen = x0.copy()
    minimize_batch(quadratic_bowl, x0, max_iter=50)
    assert np.array_equal(x0, frozen)
