"""Batched derivative-free simplex minimizer.

Runs one Nelder-Mead simplex per batch row in lockstep, so a multi-start
search turns its objective evaluations into single vectorized calls.  A row
terminates when the spread of objective values over its simplex drops below
the tolerance; the whole loop stops when every row terminated or the
iteration cap is reached.  Given the same inputs the result is bit-identical
between runs.

Each row's path depends only on its own objective values.  So when the
objective computes every row without looking at the others, a row follows
the same path, and counts the same iterations and evaluations, whichever
other rows share the batch: a batch of many independent searches gives each
search what it would give alone.
"""

from dataclasses import dataclass

import numpy as np

ALPHA = 1.0  # reflection
GAMMA = 2.0  # expansion
BETA = 0.5  # contraction
DELTA = 0.5  # shrink


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray  # (B, n) best vertex per row
    value: np.ndarray  # (B,) objective at the best vertex
    converged: np.ndarray  # (B,) bool, tolerance met within the budget
    iterations: int  # lockstep iterations, the most any row ran
    evaluations: int  # objective evaluations over all rows
    row_iterations: np.ndarray  # (B,) iterations each row was still active
    row_evaluations: np.ndarray  # (B,) objective evaluations of each row


def _sorted(sim, f):
    order = np.argsort(f, axis=1, kind="stable")
    rows = np.arange(f.shape[0])[:, None]
    return sim[rows, order], f[rows, order]


def minimize_batch(fn, x0, step=0.5, tol=1e-9, max_iter=2000) -> SimplexResult:
    """Minimize fn over each row of x0 independently.

    fn maps a (K, n + 1) block to K objective values and must be pure: each
    row holds n coefficients followed by the index of its row in x0, so one
    objective can serve rows of different searches.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    nb, n = x0.shape
    index = np.arange(nb, dtype=float)

    def call(x, rows):
        return np.asarray(fn(np.concatenate((x, index[rows, None]), axis=1)), dtype=float)

    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    sim[:, 1:][:, np.arange(n), np.arange(n)] += step
    # one vertex per call keeps the objective's temporaries at nb rows
    f = np.stack([call(sim[:, j], slice(None)) for j in range(n + 1)], axis=1)
    row_it = np.zeros(nb, dtype=np.int64)
    row_ev = np.full(nb, n + 1, dtype=np.int64)
    sim, f = _sorted(sim, f)
    converged = np.zeros(nb, dtype=bool)
    it = 0
    while it < max_iter:
        converged |= (f[:, -1] - f[:, 0]) <= tol
        act = np.flatnonzero(~converged)
        if act.size == 0:
            break
        it += 1
        row_it[act] += 1
        row_ev[act] += 1
        s = sim[act]
        fs = f[act]
        cen = s[:, :-1].mean(axis=1)
        xw = s[:, -1]
        fw = fs[:, -1]
        xr = cen + ALPHA * (cen - xw)
        fr = call(xr, act)

        # a reflection that lands between the best and second-worst vertex
        # is taken as it is; every other row tries one second point
        expand = fr < fs[:, 0]
        c_in = fr >= fw
        second = np.flatnonzero(expand | c_in | (fr >= fs[:, -2]))
        new_x = xr
        new_f = fr
        shrink = second[:0]
        if second.size:
            ce, xwe, xre, fre, fwe = cen[second], xw[second], xr[second], fr[second], fw[second]
            sel_e = expand[second]
            sel_i = c_in[second]
            x2 = np.where(
                sel_e[:, None],
                ce + GAMMA * (ce - xwe),
                np.where(sel_i[:, None], ce - BETA * (ce - xwe), ce + BETA * (xre - ce)),
            )
            f2 = call(x2, act[second])
            row_ev[act[second]] += 1

            take = np.where(sel_e, f2 < fre, np.where(sel_i, f2 < fwe, f2 <= fre))
            rows = second[take]
            new_x[rows] = x2[take]
            new_f[rows] = f2[take]
            # failed contractions shrink the whole simplex toward the best vertex
            shrink = second[~take & ~sel_e]

        if shrink.size:  # a shrinking row keeps its worst vertex until the shrink
            new_x[shrink] = xw[shrink]
            new_f[shrink] = fw[shrink]
        s[:, -1] = new_x
        fs[:, -1] = new_f
        if shrink.size:
            s[shrink, 1:] = s[shrink, :1] + DELTA * (s[shrink, 1:] - s[shrink, :1])
            fnew = call(s[shrink, 1:].reshape(-1, n), np.repeat(act[shrink], n))
            fs[shrink, 1:] = fnew.reshape(shrink.size, n)
            row_ev[act[shrink]] += n

        s, fs = _sorted(s, fs)
        sim[act] = s
        f[act] = fs
    return SimplexResult(
        sim[:, 0].copy(), f[:, 0].copy(), converged, it, int(row_ev.sum()), row_it, row_ev
    )
