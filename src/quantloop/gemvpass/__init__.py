"""GEMV idiom detection and rewriting over the loop IR."""

from .matchers import (
    AccessPattern,
    GemvCandidate,
    MatchFailure,
    SkipReason,
    match_array_access,
    match_nest,
)
from .rewrite import NestRecord, PassResult, check_legality, run_gemv_pass

__all__ = [
    "AccessPattern",
    "GemvCandidate",
    "MatchFailure",
    "NestRecord",
    "PassResult",
    "SkipReason",
    "check_legality",
    "match_array_access",
    "match_nest",
    "run_gemv_pass",
]
