"""Metric names, units and directions (mirrored in ``BENCHMARK.json``)."""

from __future__ import annotations

import statistics

from perfbench.inputs import MODES

#: name -> (unit, better); printed by every untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "index_bytes_per_posting": ("B", "lower"),
    **{f"{m}.p50_ms": ("ms", "lower") for m in MODES},
    **{f"{m}.p90_ms": ("ms", "lower") for m in MODES},
    "bm25_pruned.speedup": ("x", "higher"),
    "bm25_bmw.speedup": ("x", "higher"),
}

QUERY_TIMES = ("tokenize", "dict_lookup", "decode", "score", "accumulate", "select_format", "other")
QUERY_COUNTS = ("runs_total", "runs_decoded", "postings_decoded", "candidates")

#: name -> (unit, better); printed by every traced run
PER_LAYER = {
    "build.turns_per_s": ("1/s", "higher"),
    "build.stats_map_s": ("s", "lower"),
    "build.stats_reduce_s": ("s", "lower"),
    "build.stats_partial_rows": ("count", "lower"),
    "build.stats_rows": ("count", "lower"),
    "build.token_map_s": ("s", "lower"),
    "build.token_rows": ("count", "lower"),
    "build.shuffle_s": ("s", "lower"),
    "build.partition_write_s": ("s", "lower"),
    "build.other_s": ("s", "lower"),
    "normalize.tokenize_calls": ("count", "lower"),
    "normalize.tokenize_s": ("s", "lower"),
    "normalize.tokens": ("count", "lower"),
    "segments.encode_s": ("s", "lower"),
    "segments.runs_encoded": ("count", "lower"),
    "segments.postings_encoded": ("count", "lower"),
    **{f"query.{m}.{t}_ms": ("ms", "lower") for m in MODES for t in QUERY_TIMES},
    **{f"query.{m}.{c}": ("count", "lower") for m in MODES for c in QUERY_COUNTS},
    **{f"query.{m}.runs_decoded_ratio": ("ratio", "lower") for m in MODES},
    "trace.overhead_ratio": ("ratio", "lower"),
}


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by linear interpolation."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def result(values: dict, names: dict, attempted: int, failed: int) -> dict:
    """The run's final JSON object; every name in ``names`` must be measured."""
    missing = sorted(set(names) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(values[n]), "unit": names[n][0]} for n in names},
    }
