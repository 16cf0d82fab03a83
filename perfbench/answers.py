"""Answer comparison: the same documents in the same order, with scores
equal to 6 decimals."""

from __future__ import annotations

import numpy as np

SCORE_DECIMALS = 6


def rows(df) -> dict:
    """A top-k frame (rank, conv_id, turn_idx, score) as plain lists."""
    return {
        "conv_id": [str(c) for c in df["conv_id"]],
        "turn_idx": [int(t) for t in df["turn_idx"]],
        "score": [float(s) for s in df["score"]],
    }


def same(a: dict, b: dict) -> bool:
    """True when both answers rank the same documents identically and
    their scores agree once rounded to ``SCORE_DECIMALS`` decimals."""
    if a["conv_id"] != b["conv_id"] or a["turn_idx"] != b["turn_idx"]:
        return False
    sa = np.round(np.asarray(a["score"], np.float64), SCORE_DECIMALS)
    sb = np.round(np.asarray(b["score"], np.float64), SCORE_DECIMALS)
    return bool(np.all(np.abs(sa - sb) < 0.5 * 10.0**-SCORE_DECIMALS))
