"""numpy's PCG64 and the Generator draws synth makes, run for many generators at once.

Each lane of a Streams is one PCG64 generator. The 128-bit LCG state and
increment are held as uint64 halves; a step multiplies by MULT through
32-bit limbs and adds the increment with carry, and each output word is
O'Neill's XSL-RR of the new state. The draws follow numpy's Generator bit
for bit: random() takes a whole word, and bounded integers use Lemire's
rule (ACM TOMACS 2019) on the generator's uint32 stream.
"""

from __future__ import annotations

import numpy as np

MULT = 0x2360ED051FC65DA44385DF649FCCF645
_GROW_WORDS = 4  # words added to every lane when one runs out

# uint64 operands: MULT in 64- and 32-bit limbs, masks and shifts
_MUL_HI, _MUL_LO = np.uint64(MULT >> 64), np.uint64(MULT & 2**64 - 1)
_MUL_LO0, _MUL_LO1 = np.uint64(MULT & 2**32 - 1), np.uint64(MULT >> 32 & 2**32 - 1)
_LOW32, _2_32 = np.uint64(2**32 - 1), np.uint64(2**32)
_1, _11, _32, _58, _63, _64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))


def step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """state * MULT + inc mod 2**128, on the uint64 halves of each lane.

    The high word of lo * _MUL_LO comes from its 32-bit limbs; the other
    partial products only need their low 64 bits, which uint64 wraps to.
    """
    a0, a1 = lo & _LOW32, lo >> _32
    p00, p01, p10 = a0 * _MUL_LO0, a0 * _MUL_LO1, a1 * _MUL_LO0
    mid = (p00 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * _MUL_LO1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)
    lo_out = lo * _MUL_LO + inc_lo
    hi_out = carry + lo * _MUL_HI + hi * _MUL_LO + inc_hi + (lo_out < inc_lo)
    return hi_out, lo_out


def seed(
    state_hi: np.ndarray, state_lo: np.ndarray, seq_hi: np.ndarray, seq_lo: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(state_hi, state_lo, inc_hi, inc_lo) of PCG64 seeded with each initial state and stream.

    The increment is stream * 2 + 1, and the state is (inc + initial state)
    stepped once, as pcg_setseq_128_srandom_r leaves them.
    """
    inc_hi, inc_lo = seq_hi << _1 | seq_lo >> _63, seq_lo << _1 | _1
    lo = state_lo + inc_lo
    hi, lo = step(state_hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


class Streams:
    """The output of many PCG64 generators, read as numpy's Generator reads it.

    The lanes start from the uint64 halves that seed returns. A lane's first
    64-bit word is taken whole by random(); every later draw takes a uint32:
    the low half, then the high half, of each following word, as PCG64
    buffers it in has_uint32. Each lane keeps its own cursor into its
    uint32s, and every lane gets _GROW_WORDS more words when one runs out.
    """

    def __init__(self, states: tuple[np.ndarray, ...], words: int) -> None:
        self.hi, self.lo, self.inc_hi, self.inc_lo = states
        self.cursor = np.zeros(len(self.hi), dtype=np.int64)
        self.first = self._next64()
        self.uint32 = self._words(words)

    def _next64(self) -> np.ndarray:
        """Step every lane and return its XSL-RR output word."""
        self.hi, self.lo = step(self.hi, self.lo, self.inc_hi, self.inc_lo)
        xor, rot = self.hi ^ self.lo, self.hi >> _58
        return xor >> rot | xor << (_64 - rot & _63)

    def _words(self, words: int) -> np.ndarray:
        """The uint32 halves of every lane's next words, low half first."""
        halves = np.empty((len(self.cursor), 2 * words), dtype=np.uint32)
        for k in range(words):
            word = self._next64()
            halves[:, 2 * k], halves[:, 2 * k + 1] = word & _LOW32, word >> _32
        return halves

    def random(self) -> np.ndarray:
        """Each lane's random(): the double from its first word."""
        return (self.first >> _11).astype(np.float64) * 2.0**-53

    def _next32(self, lanes: np.ndarray) -> np.ndarray:
        at = self.cursor[lanes]
        while at.max() >= self.uint32.shape[1]:
            self.uint32 = np.concatenate((self.uint32, self._words(_GROW_WORDS)), axis=1)
        self.cursor[lanes] = at + 1
        return self.uint32[lanes, at].astype(np.uint64)

    def integers(self, lanes: np.ndarray, r: np.ndarray | int) -> np.ndarray:
        """Each lane's integers(r), r <= 2**32 - 1: numpy's Lemire rule on uint32 draws.

        m = u * r is redrawn while its low 32 bits are below 2**32 % r; the
        draw is m >> 32. A range of one draws nothing.
        """
        r = np.broadcast_to(np.asarray(r, dtype=np.uint64), lanes.shape)
        out = np.zeros(len(lanes), dtype=np.int64)
        todo = np.flatnonzero(r > 1)
        r = r[todo]
        threshold = _2_32 % r
        while todo.size:
            m = self._next32(lanes[todo]) * r
            kept = (m & _LOW32) >= threshold
            out[todo[kept]] = m[kept] >> _32
            todo, r, threshold = todo[~kept], r[~kept], threshold[~kept]
        return out

    def choice(self, pop: np.ndarray, size: np.ndarray) -> np.ndarray:
        """Every lane's choice(pop, size, replace=False), padded to size.max() columns.

        numpy's Floyd loop (j = pop - size ... pop - 1, taking j when the
        draw integers(j + 1) is already taken), then its Fisher-Yates pass,
        which swaps pick t with pick integers(t + 1) for t = size - 1 ... 1.
        """
        picks = np.zeros((len(self.cursor), size.max()), dtype=np.int64)
        for t in range(size.max()):
            rows = np.flatnonzero(size > t)
            j = pop[rows] - size[rows] + t
            drawn = self.integers(rows, j + 1)
            taken = (picks[rows, :t] == drawn[:, None]).any(axis=1)
            picks[rows, t] = np.where(taken, j, drawn)
        for t in range(size.max() - 1, 0, -1):
            rows = np.flatnonzero(size > t)
            other = self.integers(rows, t + 1)
            picks[rows, t], picks[rows, other] = picks[rows, other], picks[rows, t]
        return picks
