"""Canonical exact linear algebra over finite chain rings.

Row modules over Z/p^k or GR(p^k, m) are kept in Howell normal form: an
echelon basis with monic pivots p^v, saturated so that every element of the
span reduces to zero against the pivots.  Unlike Hermite form, the
saturation rows make span membership decidable over these non-domains.

`HowellAccumulator` keeps its basis fully reduced at all times, as one
pivot-sorted matrix with its pivot columns and valuations: every row is
reduced modulo the other pivots, so it vanishes on the columns of the unit
pivots.  That form is a canonical invariant of the span, and it lets a whole
stack of rows reduce against all unit pivots in one ring product,
rows - rows[:, U] B_U; only the non-unit pivots take one step per column,
and at k = 1 there are none.  `add_rows` inserts a stack by one column
sweep: the old non-unit pivots join the reduced stack, each column the stack
reaches is visited once, and there the row of least valuation becomes the
pivot and one step updates every row nonzero at that column.  Then one
product back-substitutes the new unit pivots into the old unit rows.  The
rule depends only on whether a pivot is a unit, so every (p, k, m) takes the
same path.

Rows are numpy int64 arrays of shape (ncols, m); all arithmetic goes through
the CoeffRing vector helpers (`vcombine` for the products, exact in int64;
see rings.check_int64_precision).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .rings import CoeffRing

__all__ = [
    "HowellAccumulator",
    "Submodule",
    "howell_form",
    "elementary_divisors",
    "format_divisors",
]


def _as_rows(rows, ring: CoeffRing, ncols):
    """Normalize input rows to a list of (ncols, m) int64 arrays."""
    out = []
    for r in rows:
        a = np.asarray(r, dtype=np.int64)
        if a.ndim == 1:
            if ring.m == 1:
                a = a.reshape(-1, 1)
            else:
                raise ValueError("rows over an extension ring need explicit coefficient axes")
        if a.shape[1] != ring.m:
            raise ValueError(f"row has {a.shape[1]} coefficient slots, expected {ring.m}")
        if ncols is not None and a.shape[0] != ncols:
            raise ValueError("rows of differing ambient dimension")
        ncols = a.shape[0]
        out.append(a % ring.pk)
    return out, ncols


# rows eliminated per round of add_rows: at least this many, and 2 ncols
_ROUND = 32


class HowellAccumulator:
    """Growing Howell basis; add rows singly or as stacks, query span properties.

    The basis is one matrix `mat` (r, ncols, m), its rows sorted by their
    pivot columns `cols`, each row monic there (entry p^v exactly, v in
    `pvals`) and fully reduced: at every other pivot column c its entries lie
    in [0, p^v_c)^m, so they vanish where the pivot is a unit.  `length` is
    the module length of the span, the sum of k - v over pivots, so two
    nested spans are equal iff lengths agree.  The arrays are replaced, never
    written into, so copies and finalized Submodules share them.
    """

    def __init__(self, ring: CoeffRing, ncols: int, rows=None):
        self.ring = ring
        self.ncols = ncols
        empty = np.zeros(0, dtype=np.int64)
        self._set(np.zeros((0, ncols, ring.m), dtype=np.int64), empty, empty)
        if rows is not None and len(rows):
            self.add_rows(rows)

    def _set(self, mat: np.ndarray, cols: np.ndarray, pvals: np.ndarray) -> None:
        self.mat, self.cols, self.pvals = mat, cols, pvals
        self.length = int(self.ring.k * len(cols) - pvals.sum())
        self._nonunit = pvals.nonzero()[0].tolist()
        self._unit_cols, self._unit_rows = cols, mat
        if self._nonunit:
            unit = pvals == 0
            self._unit_cols, self._unit_rows = cols[unit], mat[unit]

    def copy(self) -> "HowellAccumulator":
        """A copy that shares the basis arrays (they are never written into)."""
        other = object.__new__(HowellAccumulator)
        other.__dict__.update(self.__dict__)
        return other

    def reduce_rows(self, rows: np.ndarray) -> np.ndarray:
        """Canonical coset representatives of a stack of rows (B, ncols, m).
        The unit pivots are cleared in one product (`_clear`), then one step
        per non-unit pivot column (`_steps`).  Two rows reduce to the same
        representative iff they differ by an element of the span."""
        rows = np.asarray(rows, dtype=np.int64) % self.ring.pk
        if len(self._unit_cols):
            rows = self._clear(rows, self._unit_cols, self._unit_rows)
        return self._steps(rows)

    def _clear(self, rows: np.ndarray, cols: np.ndarray, pivots: np.ndarray) -> np.ndarray:
        """rows - rows[:, cols] pivots, for the rows that reach the sorted
        columns `cols` of the unit pivot rows `pivots`; `rows` is not written
        into.  Those pivot rows are the identity on `cols` (full reduction),
        so the result vanishes there, and they vanish before cols[0], so
        only the columns from there on change."""
        reach = rows[:, cols]
        hit = reach.reshape(len(rows), len(cols) * self.ring.m).any(axis=1)
        if not hit.any():
            return rows
        ring, lo = self.ring, cols[0]
        rows = rows.copy()
        if hit.all():
            tail = rows[:, lo:]
            tail -= ring.vcombine(reach, pivots[:, lo:])
            tail %= ring.pk
        else:
            rows[hit, lo:] = (rows[hit, lo:] - ring.vcombine(reach[hit], pivots[:, lo:])) % ring.pk
        return rows

    def _steps(self, rows: np.ndarray) -> np.ndarray:
        """One step per non-unit pivot column, in sorted order: it brings
        every row's entry there into [0, p^v)^m.  The pivot rows there vanish
        on every unit column, so rows cleared there stay cleared."""
        ring = self.ring
        for b in self._nonunit:
            j = self.cols[b]
            q = rows[:, j] // ring.p ** self.pvals[b]
            if q.any():
                tail = rows[:, j:]  # the pivot row is zero before column j
                tail -= ring.vscale_stack(self.mat[b, j:], q)
                tail %= ring.pk
        return rows

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce_rows(np.asarray(vec)[None]).any()

    def add(self, vec: np.ndarray) -> bool:
        """Insert one row; returns True if the span grew."""
        return self.add_rows(np.asarray(vec)[None])

    def _monic(self, row: np.ndarray, j: int, v: int) -> np.ndarray:
        """The row divided by the unit part of its entry p^v u at column j."""
        ring = self.ring
        u = row[j] // ring.p**v
        if ring.m == 1:
            return (row * pow(int(u[0]), -1, ring.pk)) % ring.pk
        return ring.vscale(row, ring._inv(tuple(int(c) for c in u)))

    def add_rows(self, rows) -> bool:
        """Insert a stack of rows (B, ncols, m); returns True if the span grew.

        The stack is reduced against the basis (`reduce_rows`) and its
        nonzero rows are swept in rounds of at most max(32, 2 ncols) rows
        (`_eliminate`, one visit per column the round reaches; Storjohann,
        PhD thesis, ETH Zurich 2000).  A round makes at most ncols
        pivots, so the rows of a taller stack are mostly dependent: after
        each round one product clears the new unit pivots from the rest,
        which drops the rows that reduce to zero without carrying them
        through every column step."""
        before, n = self.length, self.ncols
        size = max(_ROUND, 2 * n)
        work = self.reduce_rows(rows)
        while len(work := work[work.reshape(len(work), n * self.ring.m).any(axis=1)]):
            made = self._eliminate(work[:size])
            if len(work) <= size:
                break
            # the rest is reduced modulo the old basis, so only the new unit pivots reach it
            work = self._steps(self._clear(work[size:], made, self.mat[np.searchsorted(self.cols, made)]))
        return self.length > before

    def _eliminate(self, work: np.ndarray) -> np.ndarray:
        """Insert rows reduced against the basis, all nonzero; returns the
        columns of the new unit pivots.

        The old non-unit pivots join the rows, and one sweep visits, in
        increasing order, the columns some row reaches (no other column
        fills in; Storjohann and Mulders, ESA 1998).  At column j the rows
        not yet pivots vanish before j, and the one whose entry there has
        the least valuation v becomes the monic pivot.  One vectorised step
        with it updates every row nonzero at j: the others among the rows
        vanish at j, and the pivots made so far are brought into [0, p^v)^m
        there, so the new unit pivots are the identity on their columns.  If
        v > 0 the saturation row p^(k-v) pivot joins the rows.  Then one
        product clears the new unit columns in the old unit rows, and one
        step per non-unit pivot column restores the residues there (there
        are none at k = 1)."""
        ring = self.ring
        p, k, pk = ring.p, ring.k, ring.pk
        if self._nonunit:
            work = np.concatenate([work, self.mat[self._nonunit]])
        taken = np.zeros(len(work), dtype=np.int64)  # p^k on the rows that are pivots
        made = []  # (row, column, valuation) of each new pivot, in column order
        exponent = {p**t: t for t in range(k + 1)}
        for j in work.any(axis=(0, 2)).nonzero()[0].tolist():
            # p^v for the entry at j of every row (gcd with p^k over the
            # coefficients), p^k on a zero entry; a pivot never wins
            pv = reduce(np.gcd, work[:, j].T, pk)
            winner = int((pv + taken).argmin())
            if pv[winner] + taken[winner] >= pk:
                continue
            v = exponent[int(pv[winner])]
            pivot = self._monic(work[winner], j, v)
            touch = (pv < pk).nonzero()[0]
            sub = work[touch, j:]
            sub -= ring.vscale_stack(pivot[j:], sub[:, 0] // p**v if v else sub[:, 0])
            sub %= pk
            work[touch, j:] = sub
            work[winner] = pivot
            taken[winner] = pk
            made.append((winner, j, v))
            if v:  # the saturation row vanishes up to column j
                work = np.concatenate([work, (pivot * p ** (k - v) % pk)[None]])
                taken = np.append(taken, 0)
        rows, new_cols, new_vals = np.array(made, dtype=np.int64).reshape(-1, 3).T
        pivots = work[rows]
        unit = new_vals == 0
        unit_cols, unit_rows = new_cols[unit], pivots[unit]
        if len(self._unit_cols):
            # one product clears the new unit columns in the old rows, all
            # unit pivots now; then they and the new pivots are merged in
            # column order
            old = self._unit_rows
            if len(unit_cols):
                old = self._clear(old, unit_cols, unit_rows)
            cols = np.concatenate([self._unit_cols, new_cols])
            order = cols.argsort(kind="stable")
            mat = np.concatenate([old, pivots])[order]
            cols = cols[order]
            pvals = np.concatenate([np.zeros(len(old), dtype=np.int64), new_vals])[order]
            # residues at the non-unit pivot columns, in increasing order; the
            # rows there vanish on every unit column, so those stay cleared
            for b in pvals.nonzero()[0].tolist():
                j = cols[b]
                q = mat[:b, j] // p ** pvals[b]
                above = q.any(axis=1).nonzero()[0]
                if len(above):
                    mat[above, j:] = (mat[above, j:] - ring.vscale_stack(mat[b, j:], q[above])) % pk
            self._set(mat, cols, pvals)
        else:
            # the new pivots were made in column order and reduced at every pivot column
            self._set(pivots, new_cols, new_vals)
        return unit_cols

    def finalize(self) -> "Submodule":
        """The basis as an immutable Submodule; it is already in canonical form."""
        return Submodule(self.ring, self.ncols, self.mat, tuple(self.cols.tolist()), tuple(self.pvals.tolist()))


class Submodule:
    """Canonical Howell-form generating set of a row module.

    Two Submodules over the same ring span the same set iff their rows are
    identical arrays.
    """

    def __init__(self, ring, ncols, rows, pivot_cols, pivot_vals):
        self.ring = ring
        self.ncols = ncols
        self.rows = rows  # (r, ncols, m)
        self.pivot_cols = pivot_cols
        self.pivot_vals = pivot_vals

    @property
    def length(self) -> int:
        return sum(self.ring.k - v for v in self.pivot_vals)

    def accumulator(self) -> HowellAccumulator:
        """An accumulator that shares these rows as its basis."""
        acc = HowellAccumulator(self.ring, self.ncols)
        acc._set(self.rows, np.array(self.pivot_cols, dtype=np.int64), np.array(self.pivot_vals, dtype=np.int64))
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.ring == other.ring
            and self.ncols == other.ncols
            and self.pivot_cols == other.pivot_cols
            and self.pivot_vals == other.pivot_vals
            and np.array_equal(self.rows, other.rows)
        )

    def __hash__(self):
        return hash((self.ring, self.ncols, self.pivot_cols, self.pivot_vals, self.rows.tobytes()))

    def __repr__(self):
        return f"Submodule({self.ring}, ambient {self.ncols}, {len(self.rows)} rows, length {self.length})"


def howell_form(rows, ring: CoeffRing, ncols: int | None = None) -> Submodule:
    """Howell normal form of the span of the given rows."""
    rows, ncols = _as_rows(rows, ring, ncols)
    if ncols is None:
        ncols = 0
    return HowellAccumulator(ring, ncols, rows).finalize()


def elementary_divisors(A: Submodule, B: Submodule) -> list[int]:
    """Exponents (e_1 <= e_2 <= ...) of the p-power invariants of B/A.

    Requires A a submodule of B over the same chain ring.  An exponent equal
    to the ring precision k means the invariant is only known to be at least
    p^k at this precision.
    """
    if A.ring != B.ring or A.ncols != B.ncols:
        raise ValueError("modules live in different ambients")
    ring = A.ring
    if B.accumulator().reduce_rows(A.rows).any():
        raise ValueError("A is not contained in B")
    lengths = []
    for j in range(ring.k + 1):
        acc = A.accumulator()
        if j < ring.k:
            acc.add_rows(B.rows * ring.p**j)
        lengths.append(acc.length)
    out: list[int] = []
    for t in range(1, ring.k + 1):
        ell_prev = lengths[t - 1] - lengths[t]
        ell_t = lengths[t] - lengths[t + 1] if t < ring.k else 0
        out.extend([t] * (ell_prev - ell_t))
    return sorted(out)


def format_divisors(exponents, ring: CoeffRing) -> list[str]:
    """Human-readable p-power divisors; exponent k renders as a lower bound."""
    out = []
    for e in exponents:
        if e >= ring.k:
            out.append(f">={ring.p ** ring.k}")
        else:
            out.append(str(ring.p**e))
    return out
