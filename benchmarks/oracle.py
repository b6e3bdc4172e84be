"""Average precision by distinct-threshold cumulative sums.

An implementation independent of ``ebmlab.evaluate.average_precision``
(which walks tie blocks in a Python loop), used to check the APs that
``ebmlab evaluate`` reports. Same convention: ID labeled 1, OOD labeled 0,
tied scores form one block.
"""

from __future__ import annotations

import numpy as np


def average_precision(labels, scores) -> float:
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    pos = labels[order] == 1
    # last index of every block of equal scores
    last = np.r_[np.flatnonzero(s[1:] != s[:-1]), s.size - 1]
    tp = np.cumsum(pos)[last]
    fp = (last + 1) - tp
    recall = tp / tp[-1]
    precision = tp / (tp + fp)
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))
