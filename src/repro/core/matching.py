"""Template correlation and the blind / ordered matching rules (§2.3).

The matcher consumes ADC captures.  Full-precision scoring is the
normalized correlation of the (DC-removed, normalized) matching window
with the template; quantized scoring replaces samples and template with
their +-1 signs, which is what lets the FPGA trade all multipliers for
adders (§2.3.1, Table 2).

Blind matching picks the protocol with the highest score; ordered
matching (§2.3.2) tests protocols one after another -- ZigBee, then
BLE, then 802.11b, then 802.11n -- against per-protocol thresholds,
exploiting their different resilience to quantization/downsampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro import perf
from repro.core import contracts
from repro.core.templates import TemplateBank
from repro.phy.protocols import Protocol

__all__ = [
    "dc_estimate",
    "score_capture",
    "BlindMatcher",
    "OrderedMatcher",
    "DEFAULT_ORDER",
    "DEFAULT_THRESHOLDS",
    "search_thresholds",
]

def dc_estimate(preprocess_window: np.ndarray) -> float:
    """DC level from the settled half of the preprocessing window.

    The window sits on the packet's power-up ramp; using only its
    second half keeps the +-1 quantization threshold at the settled
    envelope level instead of being dragged low by the ramp.
    """
    arr = np.asarray(preprocess_window, dtype=float)
    return float(arr[arr.size // 2 :].mean()) if arr.size else 0.0


#: The matching order of Fig 6.
DEFAULT_ORDER: tuple[Protocol, ...] = (
    Protocol.ZIGBEE,
    Protocol.BLE,
    Protocol.WIFI_B,
    Protocol.WIFI_N,
)

#: Empirically optimized thresholds (the paper's brute-force search;
#: re-derivable with :func:`search_thresholds`).
DEFAULT_THRESHOLDS: dict[Protocol, float] = {
    Protocol.ZIGBEE: 0.55,
    Protocol.BLE: 0.45,
    Protocol.WIFI_B: 0.40,
    Protocol.WIFI_N: 0.35,
}


@contracts.shapes("n_codes ->")
def score_capture(
    codes: np.ndarray,
    bank: TemplateBank,
    *,
    quantized: bool,
    offsets: tuple[int, ...] = (0,),
) -> dict[Protocol, float]:
    """Correlation score per protocol, maximized over sample offsets.

    ``codes`` must cover ``l_p + l_m + max(offsets)`` samples; for each
    offset the first ``l_p`` samples (after the offset) estimate the DC
    level, the next ``l_m`` are correlated.
    """
    perf.count("matching.score_capture")
    arr = np.asarray(codes, dtype=float)
    l_p = bank.l_p
    l_m = bank.l_m
    valid = [o for o in offsets if 0 <= o and o + l_p + l_m <= arr.size]
    scores: dict[Protocol, float] = {p: -1.0 for p in bank.templates}
    if not valid:
        return scores

    # Stack all candidate windows: rows are offsets (sliding detection,
    # as a continuously-correlating tag would do).  All templates are
    # stacked too, so one (offsets x samples) @ (samples x protocols)
    # product scores every protocol at every offset.
    off = np.asarray(valid)
    win = np.lib.stride_tricks.sliding_window_view(arr, l_p + l_m)
    sel = win[off]
    window = sel[:, l_p:]
    if quantized:
        pre = sel[:, :l_p]
        dc = pre[:, l_p // 2 :].mean(axis=1, keepdims=True)
        q = np.where(window - dc >= 0.0, 1.0, -1.0)
        best = (q @ bank.stacked_q.T).max(axis=0) / l_m
    else:
        # Normalized correlation without materializing the centered /
        # unit-norm window copies: correlate the raw windows in one
        # GEMM, then correct per offset.  With x the raw window, m a
        # template, s = sum(m):
        #   (x - mean(x)) . m / ||x - mean(x)||
        #     = (x . m - mean(x) * s) / sqrt(sum(x^2) - l_m * mean^2)
        # and the per-offset sums come from prefix sums of the capture.
        mat = bank.stacked
        raw = window @ mat.T  # (n_offsets, n_protocols)
        c1 = np.concatenate([[0.0], np.cumsum(arr)])
        c2 = np.concatenate([[0.0], np.cumsum(arr * arr)])
        s = c1[off + l_p + l_m] - c1[off + l_p]
        ss = c2[off + l_p + l_m] - c2[off + l_p]
        mean = s / l_m
        norm = np.sqrt(np.maximum(ss - s * mean, 0.0))
        norm = np.where(norm <= 1e-12, 1.0, norm)
        tsum = mat.sum(axis=1)
        best = ((raw - mean[:, None] * tsum[None, :]) / norm[:, None]).max(axis=0)
    for p, v in zip(bank.templates, best):
        scores[p] = float(v)
    return scores


@dataclass(frozen=True)
class BlindMatcher:
    """Pick the highest-scoring protocol (the Fig 7a baseline rule)."""

    def decide(self, scores: dict[Protocol, float]) -> Protocol:
        return max(scores, key=lambda p: scores[p])


@dataclass(frozen=True)
class OrderedMatcher:
    """Sequential threshold decisions (Fig 6): the first protocol in
    :data:`DEFAULT_ORDER` whose score clears its threshold wins; if none
    does, fall back to the highest score."""

    order: ClassVar[tuple[Protocol, ...]] = DEFAULT_ORDER
    thresholds: tuple[float, ...] = tuple(
        DEFAULT_THRESHOLDS[p] for p in DEFAULT_ORDER
    )

    def __post_init__(self) -> None:
        if len(self.order) != len(self.thresholds):
            raise ValueError("order and thresholds must have equal length")

    def decide(self, scores: dict[Protocol, float]) -> Protocol:
        for protocol, threshold in zip(self.order, self.thresholds):
            if scores.get(protocol, -1.0) >= threshold:
                return protocol
        return max(scores, key=lambda p: scores[p])


#: The thresholds the search tries for each protocol but the last.
_THRESHOLD_GRID = np.arange(0.2, 0.81, 0.15)


def search_thresholds(
    labeled_scores: list[tuple[Protocol, dict[Protocol, float]]],
) -> tuple[OrderedMatcher, float]:
    """Brute-force threshold search (the paper's §2.3.2 optimization).

    ``labeled_scores`` pairs each trace's true protocol with its score
    dict.  Returns the best :class:`OrderedMatcher` and its average
    per-protocol accuracy on the training data.

    Every threshold combination decides every trace at once, as
    :meth:`OrderedMatcher.decide` would: the first protocol in
    :data:`DEFAULT_ORDER` whose score clears its threshold, else the
    trace's highest score.
    """
    order = DEFAULT_ORDER
    # The last protocol in the order is the fallback; its threshold is
    # irrelevant, keep it at -1 so it always accepts.
    combos = list(itertools.product(_THRESHOLD_GRID, repeat=len(order) - 1))
    thresholds = np.empty((len(combos), len(order)))
    thresholds[:, :-1] = combos
    thresholds[:, -1] = -1.0

    column = {p: k for k, p in enumerate(order)}
    truth = np.array([column[t] for t, _ in labeled_scores], dtype=np.intp)
    scores = np.array(
        [[s.get(p, -1.0) for p in order] for _, s in labeled_scores], dtype=float
    ).reshape(len(labeled_scores), len(order))
    # Only a trace whose fallback protocol scores below -1 can reach the
    # max-score fallback.
    fallback_hit = np.zeros(len(labeled_scores), dtype=bool)
    for j in np.flatnonzero(~(scores[:, -1] >= -1.0)):
        t, s = labeled_scores[j]
        fallback_hit[j] = max(s, key=s.__getitem__) is t

    # Each (combination, trace) decision: walking the order backwards,
    # a protocol whose score clears its threshold overrides the later
    # ones, so the first such protocol wins; -1 where none clears.
    decision = np.full((len(combos), len(labeled_scores)), -1, dtype=np.intp)
    for k in reversed(range(len(order))):
        decision[scores[:, k] >= thresholds[:, k, None]] = k
    hit = np.where(decision >= 0, decision == truth, fallback_hit)
    # Accuracy per protocol present in the training set, in ``order``.
    # A boolean row mean is count / n, as ``np.mean`` of each list was,
    # and row means and sums add left to right, as the 1-D calls did.
    accuracies = [
        hit[:, truth == k].mean(axis=1) for k in range(len(order)) if (truth == k).any()
    ]
    if accuracies:
        avg = np.stack(accuracies, axis=1).mean(axis=1)
    else:
        avg = np.zeros(len(combos))
    # Tie-break toward higher (more conservative) thresholds: early
    # protocols only claim a packet on strong evidence, which
    # generalizes better than the lowest tied combination.
    margin = thresholds[:, :-1].sum(axis=1)
    ranked = list(zip(avg.tolist(), margin.tolist()))
    best = max(range(len(combos)), key=lambda c: ranked[c])  # the first best
    matcher = OrderedMatcher(thresholds=tuple(combos[best]) + (-1.0,))
    return matcher, ranked[best][0]
