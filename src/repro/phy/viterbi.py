"""Viterbi decoder for the 802.11 rate-1/2 K=7 convolutional code.

Hard-decision decoding with full traceback; sized for the short frames
the reproduction exercises.  Punctured positions (marked
:data:`repro.phy.convcode.ERASURE` by ``depuncture``) contribute zero
branch metric, which is how the rate-2/3 / 3/4 / 5/6 802.11n MCSs
decode.

The add-compare-select recursion is processed in radix-16 blocks of
``_K = 4`` trellis steps: because K-1 = 6 > 4, a destination state
fixes the block's four input bits (its low nibble), and the 16
candidate paths into it differ only in the start state's high nibble.
Block branch sums come from tables indexed by the received pair type
(each coded pair is one of 9 (bit, bit/erasure) combinations), so the
Python-level loop runs once per 4 steps instead of once per step.  The
candidate ordering is chosen so that ``argmin`` ties resolve exactly
like the per-step recursion (predecessor slot 0 preferred, latest step
most significant), keeping decisions bit-identical to the scalar
reference implementation.

The hard decoder folds each candidate's index into its integer metric
(``16 * metric + candidate``), so one minimum over the candidate axis
picks the winner by the same first-minimum rule.  A long frame is cut
into ``_SEGMENTS`` segments that advance one block per iteration
through the same NumPy calls.  Every segment after the first starts
``_WARMUP`` blocks early from all-zero metrics; integer add-compare-
select decisions do not change when one constant is added to every
path metric, so a segment whose metrics at its first owned block equal
the true ones up to a constant has exact survivors.  Each segment is
checked, and one that fails is re-run exactly from the true metrics
until the two agree (``viterbi.resyncs`` counts these).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import perf
from repro.core import contracts
from repro.phy.batch import require_nonempty
from repro.phy.convcode import CONSTRAINT, ERASURE, G0, G1
from repro.types import BitArray

__all__ = ["decode", "decode_soft", "decode_batch"]

_N_STATES = 1 << (CONSTRAINT - 1)  # 64
_K = 4  # trellis steps per vectorized block
#: Blocks whose branch-metric table is built at once (over all
#: segments); bounds the decoder's working set on long frames (a whole
#: 802.11n frame's table would be several MB).
_CHUNK = 64
#: Segments a long hard-decision frame is decoded in, and the blocks of
#: warm-up each segment after the first runs before the blocks it owns.
#: Frames shorter than ``(_SEGMENTS + 1) * _WARMUP`` blocks run as one
#: segment.
_SEGMENTS = 8
_WARMUP = 16
#: Start metric of the states other than zero.  Any value above 12
#: makes the same decisions: within the first 6 steps a path from state
#: 0 costs at most 12, and after them every state has one.
_UNREACHED = 1 << 8
#: Pair-type index of an all-erasure block (zero branch metric), which
#: pads the last segment.
_ERASED_BLOCK = 80


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per (state, input) next-state and output-pair tables."""
    next_state = np.empty((_N_STATES, 2), dtype=np.int64)
    outputs = np.empty((_N_STATES, 2, 2), dtype=np.uint8)
    for state in range(_N_STATES):
        for b in (0, 1):
            window = (b << 0) | (state << 1)
            a = bin(window & G0).count("1") & 1
            c = bin(window & G1).count("1") & 1
            next_state[state, b] = window & (_N_STATES - 1)
            outputs[state, b, 0] = a
            outputs[state, b, 1] = c
    return next_state, outputs


_NEXT, _OUT = _build_tables()

# Per destination state, its two (prev_state, input) predecessors --
# slot 0 is the smaller predecessor, which the serial recursion prefers
# on metric ties.
_PREV = np.full((_N_STATES, 2, 2), -1, dtype=np.int64)  # [dst, k] = (src, bit)
for _s in range(_N_STATES):
    for _b in (0, 1):
        _dst = _NEXT[_s, _b]
        slot = 0 if _PREV[_dst, 0, 0] == -1 else 1
        _PREV[_dst, slot, 0] = _s
        _PREV[_dst, slot, 1] = _b


def _build_block_tables() -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]
]:
    """Tables for the radix-16 blocked ACS.

    Writing the start state as ``s5..s0`` and the destination as
    ``d = (s1 s0 b1 b2 b3 b4)``, the path states are

    ====  =========================
    step  state entering the step
    ====  =========================
    1     ``s5 s4 s3 s2 s1 s0``
    2     ``s4 s3 s2 s1 s0 b1``
    3     ``s3 s2 s1 s0 b1 b2``
    4     ``s2 s1 s0 b1 b2 b3``
    ====  =========================

    so step j's branch only depends on the free bits ``s_{6-j}..s2``
    (and d).  The predecessor slot chosen at step j equals start bit
    ``s_{6-j}``; matching the serial tie rule (slot 0 wins, latest step
    decides first) therefore requires the candidate index to be
    ``c = (s2 s3 s4 s5)`` with s2 most significant, and first-``argmin``
    over c.

    Returns ``(bmtab, g12, g34, src, bits, idx_dc)``:

    * ``bmtab[pt, state*2+bit]`` -- single-step branch metric for
      received pair type ``pt = 3*a + b`` (a, b in {0, 1, erasure});
    * ``g12[p1*9+p2, d, c]`` / ``g34[p3*9+p4, d, c']`` -- combined
      branch sums for steps (1, 2) over all 16 candidates and steps
      (3, 4) over the 4 relevant bits ``(s2 s3)``;
    * ``src[d, c]`` -- block start state; ``bits[d]`` -- the 4 decoded
      bits fixed by d;
    * ``idx_dc`` -- per-step ``bmtab`` column indices in
      (dst, candidate) layout for the soft decoder.
    """
    d = np.arange(_N_STATES)
    s1s0 = d >> 4
    b = [(d >> (3 - j)) & 1 for j in range(_K)]

    idx_steps = []
    for j, nbits in zip(range(_K), (4, 3, 2, 1)):
        idx = np.empty((1 << nbits, _N_STATES), dtype=np.intp)
        for c in range(1 << nbits):
            sbits = [(c >> (nbits - 1 - i)) & 1 for i in range(nbits)]
            s = {2 + i: sbits[i] for i in range(nbits)}
            if j == 0:
                state = (s[5] << 5) | (s[4] << 4) | (s[3] << 3) | (s[2] << 2) | s1s0
            elif j == 1:
                state = (s[4] << 5) | (s[3] << 4) | (s[2] << 3) | (s1s0 << 1) | b[0]
            elif j == 2:
                state = (s[3] << 5) | (s[2] << 4) | (s1s0 << 2) | (b[0] << 1) | b[1]
            else:
                state = (s[2] << 5) | (s1s0 << 3) | (b[0] << 2) | (b[1] << 1) | b[2]
            idx[c] = state * 2 + b[j]
        idx_steps.append(idx)

    bmtab = np.empty((9, 2 * _N_STATES), dtype=np.int32)
    for pa in range(3):
        for pb in range(3):
            for st in range(_N_STATES):
                for bit in range(2):
                    m = 0
                    if pa != 2:
                        m += int(_OUT[st, bit, 0] != pa)
                    if pb != 2:
                        m += int(_OUT[st, bit, 1] != pb)
                    bmtab[3 * pa + pb, st * 2 + bit] = m

    g = [bmtab[:, idx] for idx in idx_steps]  # (9, n_free_j, 64)
    # Combine step pairs over the 81 pair-type combinations; duplicate
    # along the candidate axis where the later step has fewer free bits
    # (candidate c of step 1 maps to c >> 1 of step 2, etc.).
    g12 = g[0][:, None, :, :] + np.repeat(g[1], 2, axis=1)[None, :, :, :]
    g12 = g12.reshape(81, 16, _N_STATES).transpose(0, 2, 1).copy()
    g34 = g[2][:, None, :, :] + np.repeat(g[3], 2, axis=1)[None, :, :, :]
    g34 = g34.reshape(81, 4, _N_STATES).transpose(0, 2, 1).copy()

    src = np.empty((_N_STATES, 16), dtype=np.intp)
    for c in range(16):
        s2, s3, s4, s5 = (c >> 3) & 1, (c >> 2) & 1, (c >> 1) & 1, c & 1
        src[:, c] = (s5 << 5) | (s4 << 4) | (s3 << 3) | (s2 << 2) | s1s0
    bits = np.empty((_N_STATES, _K), dtype=np.uint8)
    for dst in range(_N_STATES):
        bits[dst] = [(dst >> 3) & 1, (dst >> 2) & 1, (dst >> 1) & 1, dst & 1]

    # Per-step float index tables in (dst, candidate) layout for the
    # soft decoder (it gathers per-step LLR branch metrics directly).
    idx_dc = [idx.T.copy() for idx in idx_steps]
    return bmtab, g12, g34, src, bits, idx_dc


_BMTAB, _G12, _G34, _SRC, _BITS, _IDX_DC = _build_block_tables()
#: Candidate index ``c = (s2 s3 s4 s5)`` of the start states ``4u..4u+3``
#: whose high nibble is ``u = (s5 s4 s3 s2)``: the nibble reversed.
_SLOT = np.array([int(f"{u:04b}"[::-1], 2) for u in range(16)])
#: Folded block branch sums in ``[pair types, u, dst]`` layout:
#: ``16 * (steps 1-2) + c`` per source row ``u``, and ``16 * (steps 3-4)``,
#: which depends on ``u``'s low two bits only (``s3 s2``), per ``u & 3``.
#: A folded metric ``16 * metric + c`` stays below 2**15 because the
#: lockstep kernel renormalizes every chunk (metrics then span at most
#: ``_UNREACHED + 12`` plus 8 per block).
_FOLD12 = (16 * _G12[:, :, _SLOT] + _SLOT).transpose(0, 2, 1).astype(np.int16)
_FOLD34 = (16 * _G34[:, :, _SLOT[:4] >> 2]).transpose(0, 2, 1).astype(np.int16)
#: Clears a folded metric's candidate bits.
_METRIC_MASK = np.int16(-16)
_ROWS12 = np.arange(16)[:, None]
_ROWS34 = np.arange(4)[:, None]
#: ``_SRC`` as Python ints for the traceback walk, row ``d`` at ``16 * d``.
_SRC_FLAT = _SRC.ravel().tolist()
#: Flat offset of each destination's row in a block's (64, 16) candidates.
_ROW_OFFSETS = np.arange(_N_STATES) * 16

_SRC0 = _PREV[:, 0, 0]
_BIT0 = _PREV[:, 0, 1]
_SRC1 = _PREV[:, 1, 0]
_BIT1 = _PREV[:, 1, 1]
_PACK0 = (_SRC0 << 1) | _BIT0
_PACK1 = (_SRC1 << 1) | _BIT1
_BM0 = _SRC0 * 2 + _BIT0  # bmtab columns via predecessor 0
_BM1 = _SRC1 * 2 + _BIT1


def _acs_blocks(
    metrics: np.ndarray, block_bm: np.ndarray, surv_blocks: np.ndarray, start: int
) -> np.ndarray:
    """Radix-16 add-compare-select over ``block_bm``'s blocks.

    Block ``i``'s winning candidate per destination goes to
    ``surv_blocks[start + i]`` (first ``argmin``, the serial tie rule);
    returns the path metrics after the last block.
    """
    for nblk, bm in enumerate(block_bm, start=start):
        cand = metrics.take(_SRC)
        cand += bm
        cidx = cand.argmin(axis=1, out=surv_blocks[nblk])
        metrics = cand.take(cidx + _ROW_OFFSETS)
    return metrics


def _acs_lockstep(
    metrics: np.ndarray, i12: np.ndarray, i34: np.ndarray, folded: np.ndarray
) -> None:
    """Radix-16 add-compare-select of ``S`` segments in lockstep.

    ``metrics`` (S, 64) holds ``16 * metric`` per segment and is updated
    in place; iteration ``i`` advances segment ``s`` through the block
    with pair-type indices ``i12[i, s]``, ``i34[i, s]`` and writes the
    folded winners ``16 * metric + c`` to ``folded[i, s]``.  Candidates
    are laid out source row first, so the minimum over axis 0 picks the
    smallest metric, then the smallest ``c``: the first-``argmin`` rule.
    Once per chunk each segment's metrics are shifted to make state 0's
    zero, which changes no decision and keeps them within int16.
    """
    n_iter, n_seg = i12.shape
    rows = metrics.reshape(n_seg, 16, 4, 1).transpose(1, 0, 2, 3)
    cand = np.empty((16, n_seg, _N_STATES), dtype=np.int16)
    cand4 = cand.reshape(16, n_seg, 4, 16)
    step = max(1, _CHUNK // n_seg)
    for c0 in range(0, n_iter, step):
        metrics -= metrics[:, :1]
        bm = _FOLD12[i12[c0 : c0 + step, None, :], _ROWS12]
        k = bm.shape[0]
        bm.reshape(k, 4, 4, n_seg, _N_STATES)[...] += _FOLD34[
            i34[c0 : c0 + step, None, None, :], _ROWS34
        ]
        for blk, out in zip(bm.reshape(k, 16, n_seg, 4, 16), folded[c0 : c0 + step]):
            # Start state 4u + h feeds destination 16h + l for every l.
            np.add(rows, blk, cand4)
            np.minimum.reduce(cand, 0, None, out)
            np.bitwise_and(out, _METRIC_MASK, metrics)


def _same_up_to_constant(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row: do ``a`` and ``b`` differ by one constant (masked metrics)?"""
    diff = (a & _METRIC_MASK) - (b & _METRIC_MASK)
    return (diff == diff[..., :1]).all(axis=-1)


def _resync(
    spec: np.ndarray, metrics: np.ndarray, i12: np.ndarray, i34: np.ndarray
) -> np.ndarray | None:
    """Re-run one segment's owned blocks exactly from ``metrics``.

    ``spec`` holds the segment's speculative winners per owned block (a
    view into the lockstep output) and ``i12``/``i34`` their pair types.
    Exact winners overwrite the speculative ones until, after some block,
    the two metric vectors agree up to a constant; from the next block on
    the speculative survivors are exact, and ``None`` is returned.  If
    they never agree, the exact metrics after the last owned block are
    returned for the next segment's check.
    """
    perf.count("viterbi.resyncs")
    metrics = metrics[None].copy()
    for c0 in range(0, spec.shape[0], _WARMUP):
        exact = np.empty((len(spec[c0 : c0 + _WARMUP]), 1, _N_STATES), dtype=np.int16)
        _acs_lockstep(metrics, i12[c0 : c0 + _WARMUP, None], i34[c0 : c0 + _WARMUP, None], exact)
        agree = _same_up_to_constant(exact[:, 0], spec[c0 : c0 + _WARMUP])
        if agree.any():
            n_exact = int(agree.argmax()) + 1
            spec[c0 : c0 + n_exact] = exact[:n_exact, 0]
            return None
        spec[c0 : c0 + _WARMUP] = exact[:, 0]
    return metrics[0]


def _verify_segments(
    folded: np.ndarray, i12: np.ndarray, i34: np.ndarray, warm: int, owned: list[int]
) -> np.ndarray | None:
    """Check each segment's warm-up against its predecessor's end.

    Segment ``j`` is exact if its metrics entering its first owned block
    (after iteration ``warm - 1``) equal the true ones up to a constant.
    The true ones are segment ``j - 1``'s last metrics when that segment
    was exact from some block on, else the metrics its resync returned.
    Returns the exact metrics after the last owned block when the last
    resync never agreed, else ``None``.
    """
    ends = folded[-1, :-1]
    starts = folded[warm - 1, 1:]
    ok = _same_up_to_constant(starts, ends)
    carried: np.ndarray | None = None
    for seg in range(1, folded.shape[1]):
        if carried is None:
            if ok[seg - 1]:
                continue
            true = ends[seg - 1] & _METRIC_MASK
        elif _same_up_to_constant(starts[seg - 1], carried):
            carried = None
            continue
        else:
            true = carried
        own = slice(warm, warm + owned[seg])
        carried = _resync(folded[own, seg], true, i12[own, seg], i34[own, seg])
    return carried


@contracts.shapes("64 ; nblk,64 ; rem,64")
def _traceback(
    metrics: np.ndarray,
    surv_blocks: np.ndarray,
    surv_tail: np.ndarray,
    n_steps: int,
    n_info: int,
) -> np.ndarray:
    n_blocks = surv_blocks.shape[0]
    rem = surv_tail.shape[0]
    state = int(np.argmin(metrics))
    decoded = np.empty(n_steps, dtype=np.uint8)
    for i in range(rem - 1, -1, -1):
        packed = int(surv_tail[i, state])
        decoded[n_blocks * _K + i] = packed & 1
        state = packed >> 1
    # The walk is serial, so it runs on Python ints; each block's bits
    # are fixed by its end state and written in one gather afterwards.
    # A survivor's low four bits are the winning candidate (the hard
    # decoder's folded winners carry the metric above them).
    survivor = surv_blocks.ravel().item
    path = []
    for nblk in range(n_blocks - 1, -1, -1):
        path.append(state)
        state = _SRC_FLAT[16 * state + (survivor(nblk * _N_STATES + state) & 15)]
    decoded[: n_blocks * _K] = _BITS[path[::-1]].ravel()
    return decoded[:n_info]


@contracts.shapes("n_coded ->")
def decode(coded: np.ndarray | list[int], *, n_info: int | None = None) -> BitArray:
    """Hard-decision Viterbi decode of a rate-1/2 coded stream.

    ``coded`` holds interleaved (A, B) values in {0, 1, ERASURE};
    ``n_info`` truncates the decoded output (defaults to
    ``len(coded) // 2``).  The trellis is assumed to start in state
    zero, matching :func:`repro.phy.convcode.encode`; the end state is
    unconstrained.
    """
    perf.count("viterbi.decode")
    arr = np.asarray(coded, dtype=np.uint8)
    if arr.size % 2:
        arr = np.concatenate([arr, np.array([ERASURE], dtype=np.uint8)])
    n_steps = arr.size // 2
    if n_info is None:
        n_info = n_steps
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)

    pairs = arr.reshape(n_steps, 2).astype(np.intp)
    ptype = pairs[:, 0] * 3 + pairs[:, 1]

    n_blocks = n_steps // _K

    # Segment 0 owns blocks [0, warm + own); segment j >= 1 starts at
    # block j * own and owns [j * own + warm, (j + 1) * own + warm),
    # the last one up to the frame's end.
    n_seg = _SEGMENTS if n_blocks >= (_SEGMENTS + 1) * _WARMUP else 1
    warm = _WARMUP if n_seg > 1 else 0
    own = -(-(n_blocks - warm) // n_seg)
    if n_seg > 1:
        n_seg = -(-(n_blocks - warm) // own)  # rounding can leave the last ones empty
    n_iter = warm + own
    i12 = np.full(own * (n_seg - 1) + n_iter, _ERASED_BLOCK, dtype=np.intp)
    i34 = i12.copy()
    pt = ptype[: n_blocks * _K].reshape(n_blocks, _K)
    i12[:n_blocks] = pt[:, 0] * 9 + pt[:, 1]
    i34[:n_blocks] = pt[:, 2] * 9 + pt[:, 3]
    layout = np.arange(n_iter)[:, None] + own * np.arange(n_seg)
    i12, i34 = i12[layout], i34[layout]

    metrics = np.zeros((n_seg, _N_STATES), dtype=np.int16)
    metrics[0, 1:] = 16 * _UNREACHED
    folded = np.empty((n_iter, n_seg, _N_STATES), dtype=np.int16)
    _acs_lockstep(metrics, i12, i34, folded)

    end, surv_blocks = metrics[0], folded[:, 0]
    if n_seg > 1:
        # Blocks each segment owns (the last one's run ends in padding).
        owned = [warm + own] + [own] * (n_seg - 2) + [n_blocks - (n_seg - 1) * own - warm]
        exact = _verify_segments(folded, i12, i34, warm, owned)
        end = folded[warm + owned[-1] - 1, -1] if exact is None else exact
        # Block n's winners: segment j's iteration n - j * own.
        blocks = np.arange(n_blocks)
        seg = np.maximum((blocks - warm) // own, 0)
        surv_blocks = folded.reshape(-1, _N_STATES)[(blocks - seg * own) * n_seg + seg]

    metrics = (end & _METRIC_MASK) >> 4
    rem = n_steps - n_blocks * _K
    surv_tail = np.empty((rem, _N_STATES), dtype=np.int64)
    for i in range(rem):
        bm = _BMTAB[ptype[n_blocks * _K + i]]
        cand0 = metrics[_SRC0] + bm[_BM0]
        cand1 = metrics[_SRC1] + bm[_BM1]
        take1 = cand1 < cand0
        metrics = np.where(take1, cand1, cand0)
        surv_tail[i] = np.where(take1, _PACK1, _PACK0)

    return _traceback(metrics, surv_blocks, surv_tail, n_steps, n_info)


@contracts.shapes("n_llrs ->")
def decode_soft(llrs: np.ndarray, *, n_info: int | None = None) -> BitArray:
    """Soft-decision Viterbi decode of a rate-1/2 LLR stream.

    ``llrs`` holds per-coded-bit log-likelihood ratios (positive =
    bit 1 more likely); punctured positions carry LLR 0, which costs
    nothing either way -- so soft depuncturing is just zero insertion.

    Uses the same radix-16 blocked recursion as :func:`decode`; block
    branch sums group float additions differently from the step-by-step
    reference, so path metrics can differ by rounding epsilons (the
    decoded bits only change on exact metric ties, which continuous
    LLRs do not produce).
    """
    perf.count("viterbi.decode_soft")
    arr = np.asarray(llrs, dtype=float)
    if arr.size % 2:
        arr = np.concatenate([arr, [0.0]])
    n_steps = arr.size // 2
    if n_info is None:
        n_info = n_steps
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)
    pairs = arr.reshape(n_steps, 2)

    # Per-step branch metrics for every (state, input): the expected
    # outputs in bipolar form scored against the LLR pair (max-log ML).
    exp_a = 2.0 * _OUT[:, :, 0].astype(float).reshape(-1) - 1.0  # (128,)
    exp_b = 2.0 * _OUT[:, :, 1].astype(float).reshape(-1) - 1.0
    bm_all = -(pairs[:, :1] * exp_a[None, :] + pairs[:, 1:] * exp_b[None, :])

    n_blocks = n_steps // _K
    rem = n_steps - n_blocks * _K

    metrics = np.full(_N_STATES, 1e18)
    metrics[0] = 0.0
    surv_blocks = np.empty((n_blocks, _N_STATES), dtype=np.intp)

    if n_blocks:
        steps = bm_all[: n_blocks * _K].reshape(n_blocks, _K, 2 * _N_STATES)
        a1 = steps[:, 0][:, _IDX_DC[0]]  # (n_blocks, 64, 16)
        a2 = steps[:, 1][:, _IDX_DC[1]]  # (n_blocks, 64, 8)
        a3 = steps[:, 2][:, _IDX_DC[2]]  # (n_blocks, 64, 4)
        a4 = steps[:, 3][:, _IDX_DC[3]]  # (n_blocks, 64, 2)
        nb = a1.shape[0]
        block_bm = (
            a1.reshape(nb, _N_STATES, 8, 2)
            + (
                a2.reshape(nb, _N_STATES, 4, 2, 1)
                + (
                    a3.reshape(nb, _N_STATES, 2, 2, 1)
                    + a4.reshape(nb, _N_STATES, 2, 1, 1)
                ).reshape(nb, _N_STATES, 4, 1, 1)
            ).reshape(nb, _N_STATES, 8, 1)
        ).reshape(nb, _N_STATES, 16)
        metrics = _acs_blocks(metrics, block_bm, surv_blocks, 0)

    surv_tail = np.empty((rem, _N_STATES), dtype=np.int64)
    for i in range(rem):
        bm = bm_all[n_blocks * _K + i]
        cand0 = metrics[_SRC0] + bm[_BM0]
        cand1 = metrics[_SRC1] + bm[_BM1]
        take1 = cand1 < cand0
        metrics = np.where(take1, cand1, cand0)
        surv_tail[i] = np.where(take1, _PACK1, _PACK0)

    return _traceback(metrics, surv_blocks, surv_tail, n_steps, n_info)


def decode_batch(
    coded_batch: Sequence[np.ndarray | list[int]] | np.ndarray,
) -> list[BitArray]:
    """:func:`decode` applied to each coded stream, in input order.

    Streams may differ in length.  An empty batch raises ``ValueError``.
    """
    require_nonempty(coded_batch, "viterbi.decode_batch")
    return [decode(coded) for coded in coded_batch]
