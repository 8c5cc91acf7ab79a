"""A dense two-phase primal simplex LP solver.

This is the reproduction's stand-in for the LP engine inside LP_solve
5.5 [paper ref 2].  Every pivot is counted, which is exactly the
"number of iterations" quantity Figures 14 and 15 of the paper report.

Solves::

    min  c^T x
    s.t. A_ub x <= b_ub
         A_eq x  = b_eq
         0 <= x <= ub

Upper bounds are handled by adding explicit rows (fine at the problem
sizes the register-allocation models produce for a chunk).

Two implementations of the pivot kernel coexist (see
:mod:`repro.ilp.fastpath`):

* the **reference** kernel — the original per-row Python loops, kept
  verbatim as the correctness oracle;
* the **fast** kernel — the same arithmetic expressed as whole-matrix
  numpy operations (masked outer-product row elimination, vectorized
  entering/leaving selection).

Both kernels perform identical IEEE-754 operations in identical order,
so solutions, objectives, *and pivot counts* are bit-for-bit equal —
``tests/test_ilp_fastpath.py`` certifies this differentially.

Pivot selection is Dantzig's rule (most-negative reduced cost, lowest
column index on ties) with the leaving row chosen by minimum ratio,
ties broken deterministically by Bland ordering (lowest basis index,
then row).  Dantzig's rule can cycle on degenerate tableaus, so after
``DEGENERATE_BLAND_AFTER`` consecutive degenerate pivots (zero-ratio
steps that leave the objective unchanged) the entering rule switches to
Bland's anti-cycling rule — lowest eligible column index — until
progress resumes, which guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fastpath import fastpath_enabled

_TOL = 1e-9

#: Consecutive degenerate (zero-ratio) pivots tolerated under Dantzig's
#: rule before switching the entering selection to Bland's anti-cycling
#: ordering.  Large enough that well-behaved problems never switch, so
#: their pivot sequences are unchanged.
DEGENERATE_BLAND_AFTER = 24


class LPError(Exception):
    """Raised on infeasible or unbounded linear programs."""


@dataclass
class LPResult:
    x: np.ndarray
    objective: float
    iterations: int
    status: str  # "optimal" | "infeasible" | "unbounded"


@dataclass
class SimplexStats:
    """Cumulative pivot counts across many solves (branch & bound)."""

    iterations: int = 0
    solves: int = 0


class _Unbounded(Exception):
    pass


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    a_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    ub: np.ndarray | None = None,
    stats: SimplexStats | None = None,
    max_iterations: int = 200_000,
    bland_after: int | None = None,
) -> LPResult:
    """Solve the LP; raises :class:`LPError` only on internal failure,
    infeasible/unbounded are reported via ``status``."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    fast = fastpath_enabled()
    if bland_after is None:
        bland_after = DEGENERATE_BLAND_AFTER

    if fast:
        a, b, codes = _assemble_fast(a_ub, b_ub, a_eq, b_eq, ub, n)
        m = a.shape[0]
    else:
        rows_a = []
        rows_b = []
        senses = []
        if a_ub is not None and len(a_ub):
            for row, rhs in zip(np.asarray(a_ub, dtype=float), np.asarray(b_ub, dtype=float)):
                rows_a.append(row)
                rows_b.append(rhs)
                senses.append("<=")
        if ub is not None:
            for j, bound in enumerate(np.asarray(ub, dtype=float)):
                if np.isfinite(bound):
                    row = np.zeros(n)
                    row[j] = 1.0
                    rows_a.append(row)
                    rows_b.append(bound)
                    senses.append("<=")
        if a_eq is not None and len(a_eq):
            for row, rhs in zip(np.asarray(a_eq, dtype=float), np.asarray(b_eq, dtype=float)):
                rows_a.append(row)
                rows_b.append(rhs)
                senses.append("=")
        m = len(rows_a)

    if m == 0:
        # Unconstrained binary relaxation: minimise by setting x_j = 0
        # for c_j >= 0; negative costs would be unbounded without ub.
        if np.any(c < -_TOL):
            return LPResult(np.zeros(n), 0.0, 0, "unbounded")
        return LPResult(np.zeros(n), 0.0, 0, "optimal")

    if fast:
        # The fast path builds the augmented matrix [tableau | rhs]
        # directly — each eliminated row (and the objective row, which
        # shares the layout) then updates with a single in-place numpy
        # op — with slack/surplus/artificial placement done by bulk
        # indexing.  ``tableau``/``rhs`` are views into it, so the
        # shared phase-setup and drive-out code below mutates the same
        # storage.
        aug, artificial_rows, total, basis_arr = _place_fast(a, b, codes, n)
        tableau = aug[:, :total]
        rhs = aug[:, total]
        basis = basis_arr.tolist()
    else:
        aug = None
        a = np.vstack(rows_a)
        b = np.asarray(rows_b, dtype=float)

        # Normalise to non-negative rhs.
        for i in range(m):
            if b[i] < 0:
                a[i] = -a[i]
                b[i] = -b[i]
                senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

        # Build the phase-1 tableau with slack/surplus/artificial columns.
        slack_cols = sum(1 for s in senses if s in ("<=", ">="))
        artificial_rows = [i for i, s in enumerate(senses) if s in (">=", "=")]
        total = n + slack_cols + len(artificial_rows)

        tableau = np.zeros((m, total))
        tableau[:, :n] = a
        basis = [-1] * m

        col = n
        for i, sense in enumerate(senses):
            if sense == "<=":
                tableau[i, col] = 1.0
                basis[i] = col
                col += 1
            elif sense == ">=":
                tableau[i, col] = -1.0
                col += 1
        for i in artificial_rows:
            tableau[i, col] = 1.0
            basis[i] = col
            col += 1

        rhs = b.copy()
        #: Mirror of ``basis`` as an array, maintained by both pivot
        #: kernels; the fast leaving-row tie-break indexes it in bulk.
        basis_arr = np.asarray(basis, dtype=np.intp)
    iterations = 0

    def pivot(tab, rhs_vec, obj, basis_list, col_in, row_out):
        """Reference pivot kernel: per-row elimination loop."""
        nonlocal iterations
        iterations += 1
        pivot_val = tab[row_out, col_in]
        tab[row_out] /= pivot_val
        rhs_vec[row_out] /= pivot_val
        for r in range(tab.shape[0]):
            if r != row_out and abs(tab[r, col_in]) > _TOL:
                factor = tab[r, col_in]
                tab[r] -= factor * tab[row_out]
                rhs_vec[r] -= factor * rhs_vec[row_out]
        if abs(obj[col_in]) > _TOL:
            factor = obj[col_in]
            obj[:-1] -= factor * tab[row_out]
            obj[-1] -= factor * rhs_vec[row_out]
        basis_list[row_out] = col_in
        basis_arr[row_out] = col_in

    # Buffers reused by every fast pivot, allocated once per solve so
    # steady-state pivots allocate nothing row- or column-sized.  The
    # per-row views are hoisted too: the elimination loop then pays no
    # slicing cost per touched row.
    if fast:
        scratch_row = np.empty(total + 1)
        row_views = [aug[r] for r in range(m)]
        abs_buf = np.empty(m)
        touch_buf = np.empty(m, dtype=bool)
    else:
        scratch_row = None
        row_views = None
        abs_buf = None
        touch_buf = None

    def pivot_fast(obj, basis_list, col_in, row_out, column):
        """Fast pivot kernel: in-place row elimination on ``aug``.

        ``aug = [tableau | rhs]`` and the objective row share one
        column layout, so each row (and the objective) updates with a
        single in-place pass.  ``column`` is the contiguous copy of
        entering column ``col_in`` the ratio test already made; the
        factor snapshot taken from it equals the reference kernel's
        sequential ``tab[r, col_in]`` reads (row ``row_out``, the only
        row normalisation touches, is zeroed out of the snapshot).  The
        eliminated rows — which the reference kernel finds with its
        per-row scalar ``abs`` probe, its main cost — are selected with
        one vectorized tolerance test; each then gets the identical
        ``row - factor * pivot_row`` two-rounding float64 update via
        the preallocated scratch row, so tableaus stay bit-equal
        between kernels.
        """
        nonlocal iterations
        iterations += 1
        pivot_row = row_views[row_out]
        pivot_val = pivot_row[col_in]
        pivot_row /= pivot_val
        factors = column
        factors[row_out] = 0.0
        np.absolute(factors, out=abs_buf)
        np.greater(abs_buf, _TOL, out=touch_buf)
        for r in touch_buf.nonzero()[0]:
            row = row_views[r]
            factor = factors[r]
            # Two thirds of the factors in these 0/1 incidence-style
            # tableaus are exactly ±1, where the update collapses to a
            # single one-pass ufunc: 1.0*x is the exact identity, and
            # IEEE-754 defines x - (-p) == x + p bit for bit, so both
            # shortcuts reproduce the reference multiply-then-subtract
            # exactly.
            if factor == 1.0:
                np.subtract(row, pivot_row, out=row)
            elif factor == -1.0:
                np.add(row, pivot_row, out=row)
            else:
                np.multiply(pivot_row, factor, out=scratch_row)
                np.subtract(row, scratch_row, out=row)
        if abs(obj[col_in]) > _TOL:
            np.multiply(pivot_row, obj[col_in], out=scratch_row)
            np.subtract(obj, scratch_row, out=obj)
        basis_list[row_out] = col_in
        basis_arr[row_out] = col_in

    def run_phase(tab, rhs_vec, obj, basis_list, allowed_cols):
        """Reference phase driver: Python-loop pivot selection."""
        nonlocal iterations
        degenerate_run = 0
        while True:
            if iterations > max_iterations:
                raise LPError("simplex iteration limit exceeded")
            # Dantzig rule; Bland anti-cycling ordering under sustained
            # degeneracy.
            reduced = obj[:-1]
            candidates = [j for j in allowed_cols if reduced[j] < -_TOL]
            if not candidates:
                return
            if degenerate_run >= bland_after:
                col_in = min(candidates)
            else:
                col_in = min(candidates, key=lambda j, r=reduced: (r[j], j))
            ratios = []
            for r in range(tab.shape[0]):
                if tab[r, col_in] > _TOL:
                    ratios.append((rhs_vec[r] / tab[r, col_in], basis_list[r], r))
            if not ratios:
                raise _Unbounded()
            ratios.sort()
            min_ratio, _, row_out = ratios[0]
            if min_ratio < _TOL:
                degenerate_run += 1
            else:
                degenerate_run = 0
            pivot(tab, rhs_vec, obj, basis_list, col_in, row_out)

    def run_phase_fast(tab, rhs_vec, obj, basis_list, allowed_cols):
        """Fast phase driver: vectorized pivot selection over ``aug``.

        Selection order matches the reference driver exactly —
        ``np.argmin`` returns the *first* (lowest-index) minimiser, the
        ratio tie-break indexes the same ``basis`` values the reference
        tuple sort compares — so both drivers pick the same pivot at
        every step.
        """
        nonlocal iterations
        degenerate_run = 0
        allowed_mask = np.zeros(total, dtype=bool)
        allowed_mask[allowed_cols] = True
        rhs_col = aug[:, total]
        eligible_buf = np.empty(total, dtype=bool)
        column = np.empty(m)
        sel_buf = np.empty(total)
        pos_buf = np.empty(m, dtype=bool)
        ratio_buf = np.empty(m)
        basis_buf = np.empty(m, dtype=np.intp)
        basis_sentinel = np.iinfo(np.intp).max
        while True:
            if iterations > max_iterations:
                raise LPError("simplex iteration limit exceeded")
            reduced = obj[:total]
            np.less(reduced, -_TOL, out=eligible_buf)
            eligible_buf &= allowed_mask
            if not eligible_buf.any():
                return
            if degenerate_run >= bland_after:
                # Bland: lowest eligible column == first True.
                col_in = int(eligible_buf.argmax())
            else:
                # Dantzig via masked argmin: ineligible columns are
                # +inf, and argmin returns the first (lowest-index)
                # minimiser — the reference's (value, index) min.
                sel_buf.fill(np.inf)
                np.copyto(sel_buf, reduced, where=eligible_buf)
                col_in = int(sel_buf.argmin())
            np.copyto(column, aug[:, col_in])
            np.greater(column, _TOL, out=pos_buf)
            if not pos_buf.any():
                raise _Unbounded()
            ratio_buf.fill(np.inf)
            np.divide(rhs_col, column, out=ratio_buf, where=pos_buf)
            min_ratio = ratio_buf.min()
            # Exact-equality ratio ties broken by lowest basis entry,
            # again via masked argmin (basis entries are distinct, so
            # the reference's (ratio, basis, row) sort never reaches
            # its row component).
            np.equal(ratio_buf, min_ratio, out=pos_buf)
            basis_buf.fill(basis_sentinel)
            np.copyto(basis_buf, basis_arr, where=pos_buf)
            row_out = int(basis_buf.argmin())
            if min_ratio < _TOL:
                degenerate_run += 1
            else:
                degenerate_run = 0
            pivot_fast(obj, basis_list, col_in, row_out, column)

    phase = run_phase_fast if fast else run_phase

    # Phase 1: minimise the sum of artificial variables.
    art_start = total - len(artificial_rows)
    obj1 = np.zeros(total + 1)
    obj1[art_start:total] = 1.0  # phase-1 cost: sum of artificials
    for i in artificial_rows:
        obj1[:-1] -= tableau[i]
        obj1[-1] -= rhs[i]
    allowed = list(range(total))
    try:
        phase(tableau, rhs, obj1, basis, allowed)
    except _Unbounded:  # pragma: no cover - phase 1 is always bounded
        return LPResult(np.zeros(n), 0.0, iterations, "infeasible")
    if -obj1[-1] > 1e-7:
        _bump(stats, iterations)
        return LPResult(np.zeros(n), 0.0, iterations, "infeasible")

    # Drive remaining artificial variables out of the basis.  Rare and
    # cheap, so both modes share the reference kernel.
    for r in range(m):
        if basis[r] >= art_start:
            for j in range(art_start):
                if abs(tableau[r, j]) > _TOL:
                    pivot(tableau, rhs, obj1, basis, j, r)
                    break

    # Phase 2.
    obj2 = np.zeros(total + 1)
    obj2[:n] = c
    for r in range(m):
        j = basis[r]
        if j < total and abs(obj2[j]) > _TOL:
            factor = obj2[j]
            obj2[:-1] -= factor * tableau[r]
            obj2[-1] -= factor * rhs[r]
    allowed = list(range(art_start))
    try:
        phase(tableau, rhs, obj2, basis, allowed)
    except _Unbounded:
        _bump(stats, iterations)
        return LPResult(np.zeros(n), 0.0, iterations, "unbounded")

    x = np.zeros(total)
    for r in range(m):
        if basis[r] < total:
            x[basis[r]] = rhs[r]
    _bump(stats, iterations)
    return LPResult(x[:n], float(np.dot(c, x[:n])), iterations, "optimal")


def _assemble_fast(
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    a_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    ub: np.ndarray | None,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bulk constraint-row assembly for the fast path.

    Returns ``(a, b, codes)`` with rows in the exact order the
    reference loops emit them (``a_ub`` block, finite ``ub`` bound
    rows, ``a_eq`` block) and senses encoded as 0 (``<=``), 1 (``>=``),
    2 (``=``).  Rows with negative rhs are whole-row negated — exact in
    IEEE-754 — and their inequality sense flipped, matching the
    reference normalisation element-for-element.
    """
    blocks = []
    rhs_parts = []
    code_parts = []
    if a_ub is not None and len(a_ub):
        arr = np.asarray(a_ub, dtype=float)
        blocks.append(arr)
        rhs_parts.append(np.asarray(b_ub, dtype=float))
        code_parts.append(np.zeros(arr.shape[0], dtype=np.int8))
    if ub is not None:
        bounds = np.asarray(ub, dtype=float)
        fin = np.flatnonzero(np.isfinite(bounds))
        if fin.size:
            bound_rows = np.zeros((fin.size, n))
            bound_rows[np.arange(fin.size), fin] = 1.0
            blocks.append(bound_rows)
            rhs_parts.append(bounds[fin])
            code_parts.append(np.zeros(fin.size, dtype=np.int8))
    if a_eq is not None and len(a_eq):
        arr = np.asarray(a_eq, dtype=float)
        blocks.append(arr)
        rhs_parts.append(np.asarray(b_eq, dtype=float))
        code_parts.append(np.full(arr.shape[0], 2, dtype=np.int8))
    if not blocks:
        return np.zeros((0, n)), np.zeros(0), np.zeros(0, dtype=np.int8)
    a = np.vstack(blocks)
    b = np.concatenate(rhs_parts)
    codes = np.concatenate(code_parts)

    neg = b < 0
    if neg.any():
        a[neg] = -a[neg]
        b[neg] = -b[neg]
        flip = neg & (codes != 2)
        codes[flip] ^= 1  # "<=" (0) <-> ">=" (1)
    return a, b, codes


def _place_fast(
    a: np.ndarray, b: np.ndarray, codes: np.ndarray, n: int
) -> tuple[np.ndarray, list[int], int, np.ndarray]:
    """Build the augmented phase-1 tableau with bulk column placement.

    Slack/surplus columns go to inequality rows in row order, then
    artificial columns to ``>=``/``=`` rows in row order — the same
    column numbering the reference placement loops produce.  Returns
    ``(aug, artificial_rows, total, basis_arr)``.
    """
    m = a.shape[0]
    slack_rows = np.flatnonzero(codes <= 1)
    art_rows = np.flatnonzero(codes >= 1)
    total = n + slack_rows.size + art_rows.size
    aug = np.zeros((m, total + 1))
    aug[:, :n] = a
    aug[:, total] = b

    slack_cols = n + np.arange(slack_rows.size)
    le = codes[slack_rows] == 0
    aug[slack_rows, slack_cols] = np.where(le, 1.0, -1.0)
    art_cols = n + slack_rows.size + np.arange(art_rows.size)
    aug[art_rows, art_cols] = 1.0

    basis_arr = np.full(m, -1, dtype=np.intp)
    basis_arr[slack_rows[le]] = slack_cols[le]
    basis_arr[art_rows] = art_cols
    return aug, art_rows.tolist(), total, basis_arr


def _bump(stats: SimplexStats | None, iterations: int) -> None:
    if stats is not None:
        stats.iterations += iterations
        stats.solves += 1
