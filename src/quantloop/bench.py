"""Throughput/efficiency reporting.

The derived quantities are pure arithmetic on a measured (or assumed)
token rate, so `build_report` is separable from the timing loop and the
formulas can be pinned by tests:

    latency_ms_per_token = 1000 / tokens_per_second
    effective_gflops     = gflops_per_token * tokens_per_second
    joules_per_token     = watts / tokens_per_second
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .runtime.config import ModelConfig, gemv_flops_per_token


@dataclass(frozen=True)
class BenchReport:
    tokens_per_second: float
    latency_ms_per_token: float
    gflops_per_token: float
    effective_gflops: float
    watts: Optional[float]
    joules_per_token: Optional[float]

    def to_json(self) -> dict:
        return asdict(self)


def build_report(
    tokens_per_second: float,
    gflops_per_token: float,
    watts: Optional[float] = None,
) -> BenchReport:
    if tokens_per_second <= 0:
        raise ValueError("tokens_per_second must be positive")
    return BenchReport(
        tokens_per_second=tokens_per_second,
        latency_ms_per_token=1000.0 / tokens_per_second,
        gflops_per_token=gflops_per_token,
        effective_gflops=gflops_per_token * tokens_per_second,
        watts=watts,
        joules_per_token=None if watts is None else watts / tokens_per_second,
    )


def model_gflops_per_token(config: ModelConfig) -> float:
    """GFLOPs in the matmul weights for one decoded token."""
    return gemv_flops_per_token(config) / 1e9
