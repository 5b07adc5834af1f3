"""The chunks of one ``run_cell`` call put back together, for tests that
read every seed of a call at once.

``run_cell`` yields each chunk's rows and recorder; :class:`WholeCell`
indexes them by seed position, as one recorder of all seeds would be.
"""

import numpy as np

from signstorm import run_cell
from signstorm.harness import Recorder


class WholeCell:
    """Every seed's headline, ``done`` and abort reason, and its chunk's
    recorder and row, in seed order; ``chunks`` is what ``run_cell``
    yielded."""

    def __init__(self, chunks, n_seeds):
        self.chunks = list(chunks)
        self.headline = np.full(n_seeds, np.nan)
        self.done = np.full(n_seeds, -1, dtype=np.int64)
        self.abort_reasons = [None] * n_seeds
        self.at = [None] * n_seeds
        for rows, recorder in self.chunks:
            self.headline[rows] = recorder.headline
            self.done[rows] = recorder.done
            for r, s in enumerate(rows.tolist()):
                self.abort_reasons[s] = recorder.abort_reasons[r]
                self.at[s] = recorder, r
        assert all(at is not None for at in self.at), "a seed is in no chunk"

    def trace(self, s):
        recorder, r = self.at[s]
        return recorder.trace(r)

    def seed_view(self, s):
        recorder, r = self.at[s]
        return recorder.seed_view(r)


def whole_cell(problem, kind, hp, T, seeds, recorder=Recorder) -> WholeCell:
    """One ``run_cell`` call's chunks, put back together."""
    return WholeCell(run_cell(problem, kind, hp, T, seeds, recorder), len(seeds))
