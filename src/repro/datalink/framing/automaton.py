"""KMP pattern-matching automata over bit strings.

Both the stuffing implementation and the exact overhead model need the
same object: a deterministic automaton whose state is "length of the
longest suffix of the stream seen so far that is a prefix of the
pattern".  This is the classic Knuth-Morris-Pratt construction,
specialized to the binary alphabet.
"""

from __future__ import annotations

from ...core.bits import Bits


class MatchAutomaton:
    """DFA tracking partial matches of one bit pattern in a stream."""

    def __init__(self, pattern: Bits):
        if len(pattern) == 0:
            raise ValueError("pattern must be non-empty")
        self.pattern = pattern
        self.size = len(pattern)
        self._delta = self._build()
        self._overlap = self._overlap_state()

    def _build(self) -> list[tuple[int, int]]:
        """delta[state] = (next_state_on_0, next_state_on_1).

        States 0..k-1 are partial-match lengths; a transition *to* k
        means the pattern just completed (callers then consult
        :meth:`state_after_match` or keep scanning via :meth:`step`,
        which folds completion into the proper failure state).
        """
        k = self.size
        delta: list[tuple[int, int]] = []
        for state in range(k):
            row = []
            for bit in (0, 1):
                if self.pattern[state] == bit:
                    row.append(state + 1)
                else:
                    # longest proper suffix of pattern[:state]+bit that
                    # is a pattern prefix — brute force is fine at k<=8
                    row.append(self._fallback(state, bit))
            delta.append((row[0], row[1]))
        return delta

    def _fallback(self, state: int, bit: int) -> int:
        seen = list(self.pattern[:state]) + [bit]
        for length in range(min(len(seen), self.size - 1), 0, -1):
            if list(self.pattern[:length]) == seen[-length:]:
                return length
        return 0

    # ------------------------------------------------------------------
    def step(self, state: int, bit: int) -> tuple[int, bool]:
        """Advance one bit.  Returns (new_state, completed).

        On completion the new state is the match length of the stream
        *including* the completed occurrence (so overlapping matches
        are found), i.e. the failure state of the full pattern.
        """
        nxt = self._delta[state][bit]
        if nxt == self.size:
            return self._overlap, True
        return nxt, False

    def _overlap_state(self) -> int:
        """State after a full match: longest proper border of the pattern."""
        for length in range(self.size - 1, 0, -1):
            if self.pattern[:length] == self.pattern[self.size - length :]:
                return length
        return 0

    def state_for(self, stream: Bits) -> int:
        """Match state after scanning ``stream`` from state 0."""
        state = 0
        for bit in stream:
            state, _ = self.step(state, bit)
        return state

    def find_all(self, stream: Bits) -> list[int]:
        """End positions (exclusive) of all pattern occurrences."""
        out = []
        state = 0
        for i, bit in enumerate(stream):
            state, completed = self.step(state, bit)
            if completed:
                out.append(i + 1)
        return out
