import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloop.quantizer import (
    Codebook,
    QuantConfig,
    QuantizedMatrix,
    bits_required,
    dequantize,
    init_equal_population,
    quantize_matrix,
    refine,
)
from quantloop.bitcodec import pack_bits, unpack_bits

from oracles import best_assignment_bruteforce, epsilon_reference

WORKED = np.array(
    [0.91, 0.92, 0.89, -0.05, -0.06, -0.04, 1.20, 1.21, 1.19], dtype=np.float32
)


# -- the worked micro-example ------------------------------------------------


def test_worked_example_assignments_and_width():
    assignments, centroids = init_equal_population(WORKED, 3)
    result = refine(WORKED, assignments, centroids)
    np.testing.assert_array_equal(result.assignments, [1, 1, 1, 0, 0, 0, 2, 2, 2])
    assert bits_required(3) == 2


def test_worked_example_centroids_are_bin_means():
    assignments, centroids = init_equal_population(WORKED, 3)
    result = refine(WORKED, assignments, centroids)
    # Exact means of {-0.05,-0.06,-0.04}, {0.91,0.92,0.89}, {1.20,1.21,1.19}
    expected = [-0.05, (0.91 + 0.92 + 0.89) / 3, 1.20]
    np.testing.assert_allclose(result.centroids, expected, atol=1e-6)


def test_worked_example_epsilon():
    assignments, centroids = init_equal_population(WORKED, 3)
    result = refine(WORKED, assignments, centroids)
    ref = epsilon_reference(WORKED, result.centroids, result.assignments)
    assert result.epsilon >= ref  # rounded up, never understates
    assert result.epsilon == pytest.approx(ref, rel=1e-6)


# -- initialization ----------------------------------------------------------


def test_equal_population_bin_sizes():
    w = np.arange(10, dtype=np.float32)
    assignments, _ = init_equal_population(w, 3)
    # 10 = 4 + 3 + 3; first bin takes the extra element.
    counts = np.bincount(assignments, minlength=3)
    assert sorted(counts, reverse=True) == [4, 3, 3]
    assert counts[0] == 4


def test_equal_population_sorts_before_splitting():
    w = np.array([5.0, 0.0, 5.1, 0.1, 9.9, 10.0], dtype=np.float32)
    assignments, centroids = init_equal_population(w, 3)
    # Pairs (0.0, 0.1), (5.0, 5.1), (9.9, 10.0) must land together.
    assert assignments[1] == assignments[3]
    assert assignments[0] == assignments[2]
    assert assignments[4] == assignments[5]
    np.testing.assert_allclose(np.sort(centroids), [0.05, 5.05, 9.95], atol=1e-6)


def test_fewer_values_than_clusters():
    w = np.array([1.0, 2.0], dtype=np.float32)
    assignments, centroids = init_equal_population(w, 4)
    result = refine(w, assignments, centroids)
    assert result.epsilon == 0.0  # enough clusters for every distinct value


# -- refinement --------------------------------------------------------------


def test_refinement_never_increases_objective():
    rng = np.random.default_rng(3)
    for trial in range(10):
        w = rng.normal(size=200).astype(np.float32)
        a0, c0 = init_equal_population(w, 8)
        result = refine(w, a0, c0)
        hist = result.objective_history
        # Strictly improving until the stopping sweep; the last recorded
        # sweep is the one that failed to improve.
        assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 2))
        # The returned state is the best one seen.
        cost = np.abs(
            w.astype(np.float64) - result.centroids[result.assignments]
        ).sum()
        assert cost == pytest.approx(min(hist), rel=1e-12)


def test_refinement_matches_bruteforce_on_tiny_input():
    # Exhaustive oracle over all 2-cluster assignments of 4 points.
    w = np.array([0.0, 1.0, 1.0, 1.0], dtype=np.float32)
    best_cost, best_assign = best_assignment_bruteforce(w, 2)
    a0, c0 = init_equal_population(w, 2)
    result = refine(w, a0, c0)
    cents = result.centroids
    cost = sum(abs(float(x) - cents[a]) for x, a in zip(w, result.assignments))
    assert cost == pytest.approx(best_cost, abs=1e-9)


def test_refine_is_deterministic():
    rng = np.random.default_rng(5)
    w = rng.normal(size=500).astype(np.float32)
    a0, c0 = init_equal_population(w, 8)
    r1 = refine(w, a0, c0)
    r2 = refine(w, a0, c0)
    np.testing.assert_array_equal(r1.assignments, r2.assignments)
    np.testing.assert_array_equal(r1.centroids, r2.centroids)


def test_iteration_cap_respected():
    rng = np.random.default_rng(9)
    w = rng.normal(size=300).astype(np.float32)
    a0, c0 = init_equal_population(w, 4)
    result = refine(w, a0, c0, max_iterations=1)
    assert len(result.objective_history) <= 2  # initial + one step


# -- whole-matrix quantization ----------------------------------------------


def test_quantize_matrix_shapes_and_packing():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(6, 10)).astype(np.float32)
    q = quantize_matrix(w, QuantConfig(bit_width=3))
    assert (q.rows, q.cols) == (6, 10)
    assert q.codebook.bit_width == 3
    assert q.codebook.centroids.shape == (8,)
    assert q.indices.count == 60
    codes = unpack_bits(q.indices)
    assert codes.max() < 8
    recon = dequantize(q)
    assert recon.shape == (6, 10)
    assert np.abs(recon - w).max() <= q.epsilon


def test_codebook_sorted_ascending():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(8, 8)).astype(np.float32)
    q = quantize_matrix(w, QuantConfig(bit_width=2))
    c = q.codebook.centroids
    assert np.all(np.diff(c) >= 0)


def test_codebook_refuses_non_finite_centroids():
    # A NaN centroid makes the runtime bound NaN, which is never over the
    # fallback threshold.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Codebook(centroids=np.array([0.0, bad], np.float32), bit_width=1)


def test_epsilon_upper_bounds_reconstruction():
    rng = np.random.default_rng(2)
    for trial in range(20):
        w = rng.normal(size=(16, 16)).astype(np.float32)
        q = quantize_matrix(w, QuantConfig(bit_width=2))
        err = np.abs(dequantize(q).astype(np.float64) - w.astype(np.float64)).max()
        assert err <= q.epsilon


def test_exact_when_few_distinct_values():
    w = np.tile(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32), (4, 1))
    q = quantize_matrix(w, QuantConfig(bit_width=2))
    assert q.epsilon == 0.0
    np.testing.assert_array_equal(dequantize(q), w)


def test_dequantize_scratch_is_bounded():
    # A 512x512 3-bit matrix reconstructs to 1 MiB; decoding it slice by
    # slice keeps the peak near that, where one whole-matrix decode took
    # over 4 MiB of scratch.
    rng = np.random.default_rng(6)
    codes = rng.integers(0, 8, size=512 * 512)
    centroids = np.sort(rng.normal(size=8)).astype(np.float32)
    q = QuantizedMatrix(
        rows=512, cols=512, codebook=Codebook(centroids=centroids, bit_width=3),
        indices=pack_bits(codes, 3), epsilon=0.0,
    )
    tracemalloc.start()
    try:
        result = dequantize(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, f"dequantize peaked at {peak / 2**20:.2f} MiB"
    assert result.dtype == np.float32 and result.shape == (512, 512)
    np.testing.assert_array_equal(result, centroids[codes].reshape(512, 512))


def test_quantize_determinism():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(32, 32)).astype(np.float32)
    q1 = quantize_matrix(w, QuantConfig(bit_width=3))
    q2 = quantize_matrix(w, QuantConfig(bit_width=3))
    assert q1.indices.data == q2.indices.data
    np.testing.assert_array_equal(q1.codebook.centroids, q2.codebook.centroids)
    assert q1.epsilon == q2.epsilon


def test_config_validation():
    with pytest.raises(ValueError):
        QuantConfig(bit_width=0)
    with pytest.raises(ValueError):
        QuantConfig(bit_width=9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_bad_epsilon_refused_at_construction(bad):
    # A NaN bound is never over threshold, so a matrix built in memory is
    # held to the same rule as one read from a file.
    q = quantize_matrix(WORKED.reshape(3, 3), QuantConfig(bit_width=2))
    with pytest.raises(ValueError, match="epsilon"):
        QuantizedMatrix(rows=3, cols=3, codebook=q.codebook, indices=q.indices, epsilon=bad)
    with pytest.raises(ValueError, match="epsilon"):
        replace(q, epsilon=bad)


def test_bits_required_values():
    assert [bits_required(k) for k in (1, 2, 3, 4, 5, 8, 9, 256)] == [
        1, 1, 2, 2, 3, 3, 4, 8,
    ]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 120),
    bit_width=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_epsilon_soundness_property(n, bit_width, seed):
    rng = np.random.default_rng(seed)
    w = (rng.normal(size=n) * rng.uniform(0.1, 10)).astype(np.float32)
    q = quantize_matrix(w.reshape(1, -1), QuantConfig(bit_width=bit_width))
    err = np.abs(dequantize(q).reshape(-1).astype(np.float64) - w.astype(np.float64))
    assert err.max() <= q.epsilon
