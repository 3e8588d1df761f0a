"""The simulator's seeded draws: numpy's per-trial streams, replayed for a
block of trials at once.

Trial t of a run seeded with ``seed`` draws from
``default_rng(SeedSequence(seed).spawn(trials)[t])``.  Here the child
SeedSequence pools, PCG64 seeding and its XSL-RR output (the 128-bit state
kept as high and low uint64 words) and Generator.integers' 32-bit Lemire
draws are computed for a whole block of trials in numpy, bit for bit as
numpy's own generators give them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_M32 = 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_DRAW_BLOCK_BYTES = 1 << 20  # bounds one block's draw temporaries in `_trial_draws`


def _hash_steps(init: int, mult: int, skip: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash constants for its hashes skip, ..., skip + count - 1:
    each hash xors its value with x, then multiplies it by y = x * mult."""
    h = [init * pow(mult, skip + i, 1 << 32) & _M32 for i in range(count + 1)]
    return np.array(h[:-1], dtype=np.uint32), np.array(h[1:], dtype=np.uint32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2^128, on high and low
    uint64 words; the low product is built from 32-bit halves."""
    a0, a1, b0, b1 = lo & _M32, lo >> 32, _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    new_lo = ((mid << 32) | (p00 & _M32)) + inc_lo
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + (new_lo < inc_lo)
    return carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi, new_lo


def _child_outputs(parent: np.random.SeedSequence, t: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` 64-bit outputs of PCG64(SeedSequence(parent.entropy,
    spawn_key=(t,))) for each trial t, as a (len(t), count) uint64 array."""
    # the child's pool is the parent's with the spawn word hashed into each
    # pool word, after the 16 + 4 * max(0, entropy words - 4) hashes that
    # made the parent's pool
    entropy = np.ravel(np.array(parent.entropy, dtype=object))  # an int or a sequence of ints
    words = sum(max(1, -(-int(e).bit_length() // 32)) for e in entropy)
    x, y = _hash_steps(0x43B0D7E5, 0x931E8875, 16 + 4 * max(0, words - 4), 4)
    v = (t.astype(np.uint32)[:, None] ^ x) * y
    v ^= v >> 16
    pool = parent.pool * 0xCA01F9DD - v * 0x4973F715
    pool ^= pool >> 16
    # generate_state(4, uint64): 8 hashed words, paired low word first
    x, y = _hash_steps(0x8B51F9DD, 0x58F38DED, 0, 8)
    w = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ x) * y
    w ^= w >> 16
    w = w.astype(np.uint64)
    s = w[:, 0::2] | (w[:, 1::2] << 32)  # initstate high, low; initseq high, low
    # seeding: inc = 2 * initseq + 1; from state 0, step, add initstate, step
    inc_hi, inc_lo = (s[:, 2] << 1) | (s[:, 3] >> 63), (s[:, 3] << 1) | 1
    lo = inc_lo + s[:, 1]
    hi, lo = _pcg_step(inc_hi + s[:, 0] + (lo < inc_lo), lo, inc_hi, inc_lo)
    out = np.empty((t.size, count), dtype=np.uint64)
    for c in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out[:, c] = (x >> rot) | (x << ((64 - rot) & 63))
    return out


def _bounded_draws(parent: np.random.SeedSequence, t: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Generator.integers(0, b) for each bound b (at most 2^32) in turn, on
    each trial t's child stream: a (len(t), len(bounds)) int64 array, and
    the trials where some draw was rejected, whose values are not numpy's.

    Each 32-bit draw is the low half of a 64-bit output, then its high half;
    a bound of 1 gives 0 and draws nothing.  Draw u gives (u * b) >> 32
    (Lemire), rejected when its low word is below (2^32 - b) mod b.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    drawn = np.flatnonzero(bounds > 1)
    out = _child_outputs(parent, t, (drawn.size + 1) // 2)
    u = np.empty((t.size, 2 * out.shape[1]), dtype=np.uint64)
    u[:, 0::2], u[:, 1::2] = out & _M32, out >> 32
    b = bounds[drawn]
    m = u[:, : drawn.size] * b
    vals = np.zeros((t.size, bounds.size), dtype=np.int64)
    vals[:, drawn] = m >> 32
    return vals, ((m & _M32) < (2**32 - b) % b).any(axis=1)


def _trial_draws(seed, trials: int, q: int, k: int, kind: str, f: Optional[int], groups: np.ndarray, start: int = 0):
    """The messages (trials, k) and erased positions (trials, f) of trials
    start, ..., start + trials - 1, as default_rng draws them on the t-th
    child of SeedSequence(seed): integers(0, q, size=k), then integers(0, n),
    choice(n, f, replace=False) (sorted) or the group integers(0, L).

    Blocks of trials, bounded in bytes, are drawn at once (`_bounded_draws`).
    choice is Floyd's algorithm: step j = n - f, ..., n - 1 draws v from
    [0, j] and takes j when v is taken.  Trials with a rejected draw, and
    every multi-uniform trial when n > 10000 (where choice shuffles a tail
    instead), are drawn again through numpy itself.
    """
    parent = np.random.SeedSequence(seed)
    n, L = groups.size, len(groups)
    erasure_bounds = list(range(n - f + 1, n + 1)) if kind == "multi-uniform" else [n if kind == "single-uniform" else L]
    bounds = [q] * k + erasure_bounds
    msgs = np.empty((trials, k), dtype=np.int64)
    E = np.empty((trials, {"single-uniform": 1, "multi-uniform": f, "group-burst": 3}[kind]), dtype=np.int32)
    block = max(1, _DRAW_BLOCK_BYTES // (48 * len(bounds) + n))  # about 48 bytes a draw, n a trial for `taken`
    for lo in range(0, trials, block):
        t = np.arange(start + lo, start + min(lo + block, trials))
        vals, redo = _bounded_draws(parent, t, bounds)
        msgs[lo : lo + t.size], e = vals[:, :k], vals[:, k:]
        if kind == "multi-uniform":
            rows, taken = np.arange(t.size), np.zeros((t.size, n), dtype=bool)
            for c, j in enumerate(range(n - f, n)):
                taken[rows, np.where(taken[rows, e[:, c]], j, e[:, c])] = True
            e = np.nonzero(taken)[1].reshape(t.size, f)
            redo |= n > 10000
        elif kind == "group-burst":
            e = groups[e[:, 0]]
        E[lo : lo + t.size] = e
        for r in (t[redo] - start).tolist():
            rng = np.random.default_rng(np.random.SeedSequence(parent.entropy, spawn_key=(start + r,)))
            msgs[r] = rng.integers(0, q, size=k)
            if kind == "single-uniform":
                E[r] = rng.integers(0, n)
            elif kind == "multi-uniform":
                E[r] = np.sort(rng.choice(n, size=f, replace=False))
            else:
                E[r] = groups[rng.integers(0, L)]
    return msgs, E
