"""Codebook compression of weight matrices.

A matrix is replaced by a short table of centroid values plus one small
index per element, packed with :mod:`quantloop.bitcodec`.  Centroids are
seeded by equal-population binning of the sorted weights and then refined
by alternating nearest-centroid reassignment (L1 distance, ties to the
lower index) with mean updates, until the total L1 error stops strictly
improving.  The largest per-element reconstruction error ``epsilon`` is
recorded alongside the codebook; downstream consumers use it to bound
output error of matrix-vector products analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitcodec import DECODE_SLICE, PackedBuffer, check_bit_width, pack_bits, unpack_slice

__all__ = [
    "Codebook",
    "QuantConfig",
    "QuantizedMatrix",
    "RefineResult",
    "bits_required",
    "dequantize",
    "init_equal_population",
    "quantize_matrix",
    "refine",
]


def bits_required(n_clusters: int) -> int:
    """Smallest code width that can index `n_clusters` centroids."""
    if n_clusters < 1:
        raise ValueError(f"need at least one cluster, got {n_clusters}")
    return max(1, int(np.ceil(np.log2(n_clusters))))


@dataclass(frozen=True)
class QuantConfig:
    """Quantization settings.

    Attributes:
        bit_width: codebook size is ``2**bit_width`` centroids.
    """

    bit_width: int = 3

    def __post_init__(self) -> None:
        check_bit_width(self.bit_width)


@dataclass(frozen=True)
class Codebook:
    """Centroid table: ``2**bit_width`` finite float32 values, sorted ascending.

    The centroids are kept as one contiguous float32 array, which the
    compiled packed GEMV reads through a raw pointer.

    ``max_abs`` is the largest centroid magnitude, taken once here; the
    float32 error bound scales with it on every call.
    """

    centroids: np.ndarray
    bit_width: int
    max_abs: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.centroids, dtype=np.float32)
        if c.ndim != 1 or c.size != (1 << self.bit_width):
            raise ValueError(
                f"codebook must hold exactly {1 << self.bit_width} centroids, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("codebook centroids must be finite")
        if np.any(np.diff(c) < 0):
            raise ValueError("codebook centroids must be sorted ascending")
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "max_abs", float(np.abs(c).max()))


@dataclass(frozen=True)
class QuantizedMatrix:
    """A quantized ``rows x cols`` matrix.

    ``indices`` stores one code per element in row-major order; ``epsilon``
    is the max absolute difference between the source matrix and its
    reconstruction, measured at quantization time against the float32
    codebook (rounded up so the recorded value never understates the error).
    An epsilon that is not a finite non-negative number is refused here: the
    runtime bound scales with it, and a NaN bound is never over threshold.
    """

    rows: int
    cols: int
    codebook: Codebook
    indices: PackedBuffer
    epsilon: float

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix extents must be positive, got {self.rows}x{self.cols}")
        if self.indices.count != self.rows * self.cols:
            raise ValueError(
                f"index count {self.indices.count} does not cover "
                f"{self.rows}x{self.cols} elements"
            )
        if self.indices.bit_width != self.codebook.bit_width:
            raise ValueError("index bit width does not match codebook bit width")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon {self.epsilon} is not a finite non-negative number")


def _as_flat_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float32).reshape(-1)
    if w.size == 0:
        raise ValueError("cannot quantize an empty weight array")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return w


def init_equal_population(weights, n_clusters: int):
    """Seed centroids by splitting the sorted weights into near-equal bins.

    The sorted weights are cut into `n_clusters` contiguous bins; when the
    count does not divide evenly the first ``n % n_clusters`` bins take one
    extra element.  Each centroid is the arithmetic mean of its bin, so the
    centroids come out ascending by construction.  With fewer weights than
    clusters the trailing empty bins repeat the last non-empty centroid.

    Returns:
        ``(assignments, centroids)`` where ``assignments`` maps each input
        position to its bin (int32) and ``centroids`` is float64.
    """
    if n_clusters < 1:
        raise ValueError(f"need at least one cluster, got {n_clusters}")
    w = _as_flat_weights(weights)
    n = w.size
    order = np.argsort(w, kind="stable")

    base, extra = divmod(n, n_clusters)
    sizes = np.full(n_clusters, base, dtype=np.int64)
    sizes[:extra] += 1
    ends = np.cumsum(sizes)
    starts = ends - sizes

    sorted_bins = np.repeat(np.arange(n_clusters, dtype=np.int32), sizes)
    assignments = np.empty(n, dtype=np.int32)
    assignments[order] = sorted_bins

    w_sorted = w[order].astype(np.float64)
    centroids = np.empty(n_clusters, dtype=np.float64)
    prev = 0.0
    for k in range(n_clusters):
        if sizes[k] > 0:
            prev = float(w_sorted[starts[k] : ends[k]].mean())
        centroids[k] = prev
    return assignments, centroids


@dataclass(frozen=True)
class RefineResult:
    """Outcome of :func:`refine`.

    ``objective_history`` records the total L1 error of the starting state
    followed by each sweep's state, in order; the returned assignment and
    centroids are the lowest-objective state observed along the way.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    epsilon: float
    objective_history: tuple[float, ...]


def _nearest(w: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment by L1 distance, ties to the lower index."""
    if np.all(np.diff(centroids) >= 0):
        # Sorted centroids: the decision boundaries are the midpoints.  A
        # weight exactly on a midpoint is equidistant and goes left.
        mids = (centroids[:-1] + centroids[1:]) / 2.0
        return np.searchsorted(mids, w, side="left").astype(np.int32)
    return np.argmin(np.abs(w[:, None] - centroids[None, :]), axis=1).astype(np.int32)


def _objective(w: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> float:
    return float(np.abs(w - centroids[assignments]).sum())


def refine(weights, assignments, centroids, max_iterations: int = 100) -> RefineResult:
    """Alternate nearest-centroid reassignment with mean updates.

    Each sweep reassigns every weight to its closest centroid (L1 distance,
    ties toward the lower index) and re-averages each cluster; a cluster
    left empty keeps its previous centroid.  Sweeps stop when the total L1
    error fails to strictly improve, or after `max_iterations`.  The best
    state seen (including the starting one) is returned; its ``epsilon`` is
    the max absolute per-element reconstruction error.
    """
    w = _as_flat_weights(weights).astype(np.float64)
    assign = np.asarray(assignments, dtype=np.int32).copy()
    cents = np.asarray(centroids, dtype=np.float64).copy()
    n_clusters = cents.size
    if assign.shape != w.shape:
        raise ValueError("assignments must cover every weight")
    if assign.size and (assign.min() < 0 or assign.max() >= n_clusters):
        raise ValueError("assignment index out of codebook range")

    history = [_objective(w, cents, assign)]
    best = (history[0], assign, cents)

    for _ in range(max_iterations):
        assign = _nearest(w, cents)
        sums = np.bincount(assign, weights=w, minlength=n_clusters)
        counts = np.bincount(assign, minlength=n_clusters)
        occupied = counts > 0
        cents = np.where(occupied, sums / np.maximum(counts, 1), cents)
        obj = _objective(w, cents, assign)
        prev = history[-1]
        history.append(obj)
        if obj < best[0]:
            best = (obj, assign, cents)
        if not obj < prev:
            break

    _, assign, cents = best
    eps = float(np.abs(w - cents[assign]).max())
    return RefineResult(
        assignments=assign,
        centroids=cents,
        epsilon=eps,
        objective_history=tuple(history),
    )


def _epsilon_upper(w: np.ndarray, recon: np.ndarray) -> float:
    """Max reconstruction error, rounded up to float32 so it never understates."""
    exact = float(np.abs(w.astype(np.float64) - recon.astype(np.float64)).max())
    eps = np.float32(exact)
    if float(eps) < exact:
        eps = np.nextafter(eps, np.float32(np.inf))
    return float(eps)


def quantize_matrix(weights, config: QuantConfig = QuantConfig()) -> QuantizedMatrix:
    """Quantize a 2-D float matrix to a codebook plus packed indices.

    Deterministic: identical inputs and config give a bit-identical result.
    """
    mat = np.asarray(weights, dtype=np.float32)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    flat = _as_flat_weights(mat)

    n_clusters = 1 << config.bit_width
    assign0, cents0 = init_equal_population(flat, n_clusters)
    result = refine(flat, assign0, cents0)

    # Freeze the codebook at float32 and make the ascending order explicit.
    cents32 = result.centroids.astype(np.float32)
    order = np.argsort(cents32, kind="stable")
    remap = np.empty_like(order)
    remap[order] = np.arange(order.size)
    cents32 = cents32[order]
    assign = remap[result.assignments].astype(np.int32)

    codebook = Codebook(centroids=cents32, bit_width=config.bit_width)
    packed = pack_bits(assign, config.bit_width)
    eps = _epsilon_upper(flat, cents32[assign])
    return QuantizedMatrix(rows=rows, cols=cols, codebook=codebook, indices=packed, epsilon=eps)


def dequantize(q: QuantizedMatrix) -> np.ndarray:
    """Reconstruct the dense float32 ``rows x cols`` matrix.

    The codes are decoded :data:`~quantloop.bitcodec.DECODE_SLICE` at a time
    straight into the result, so the scratch stays bounded whatever the size.
    """
    n = q.rows * q.cols
    result = np.empty(n, dtype=np.float32)
    for start in range(0, n, DECODE_SLICE):
        stop = min(start + DECODE_SLICE, n)
        codes = unpack_slice(q.indices, start, stop - start)
        np.take(q.codebook.centroids, codes, out=result[start:stop])
    return result.reshape(q.rows, q.cols)
