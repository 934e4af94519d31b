"""Canonical exact linear algebra over finite chain rings.

Row modules over Z/p^k or GR(p^k, m) are kept in Howell normal form: an
echelon basis with monic pivots p^v, saturated so that every element of the
span reduces to zero against the pivots, one column at a time.  Unlike
Hermite form, the saturation rows make span membership decidable over these
non-domains, and the fully reduced form is a canonical invariant of the
span.  One elimination (`HowellAccumulator.add_rows`) inserts rows and one
(`reduce_rows`) reduces them; both work on whole stacks.

Rows are numpy int64 arrays of shape (ncols, m); all arithmetic goes through
the CoeffRing vector helpers.
"""

from __future__ import annotations

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


class HowellAccumulator:
    """Growing Howell basis; add rows singly or as stacks, query span properties.

    The basis is a map pivot-column -> normalized row (pivot entry equal to
    p^v exactly).  `length` is the module length of the span, the sum of
    k - v over pivots, so two nested spans are equal iff lengths agree.
    """

    def __init__(self, ring: CoeffRing, ncols: int, rows=None):
        self.ring = ring
        self.ncols = ncols
        self.pivots: dict[int, np.ndarray] = {}
        self.vals: dict[int, int] = {}
        self.length = 0
        self._sorted: list[int] | None = []
        if rows is not None and len(rows):
            self.add_rows(rows)

    def copy(self) -> "HowellAccumulator":
        other = HowellAccumulator(self.ring, self.ncols)
        other.pivots = {j: r.copy() for j, r in self.pivots.items()}
        other.vals = dict(self.vals)
        other.length = self.length
        other._sorted = None
        return other

    def _pivot_cols(self) -> list[int]:
        if self._sorted is None:
            self._sorted = sorted(self.pivots)
        return self._sorted

    def reduce_rows(self, rows: np.ndarray) -> np.ndarray:
        """Canonical coset representatives of a stack of rows (B, ncols, m):
        one vectorised step per pivot column, in sorted order, brings every
        row's entry there into the residues [0, p^v)^m.  Two rows reduce to
        the same representative iff they differ by an element of the span."""
        ring = self.ring
        rows = np.asarray(rows, dtype=np.int64) % ring.pk
        for j in self._pivot_cols():
            q = rows[:, j] // ring.p ** self.vals[j]
            if q.any():
                # the pivot row is zero before column j
                tail = rows[:, j:] - ring.vscale_stack(self.pivots[j][j:], q)
                rows[:, j:] = tail % ring.pk
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

        One pass over the columns where some row leads, in increasing order
        (Storjohann and Mulders, ESA 1998).  At column j the rows leading
        there compete with the pivot at j, if any: the entry of least
        valuation v wins (the old pivot on a tie, left as it is), and one
        vectorised step clears column j in the other rows.  A new monic
        pivot's slot takes its saturation row p^(k-v) pivot, and a replaced
        pivot rejoins the rows.  Every row the step touches leads further
        right afterwards, so each column is visited at most once, and pivots
        that no row reaches are never read."""
        ring = self.ring
        p, k, pk, n = ring.p, ring.k, ring.pk, self.ncols
        work = np.asarray(rows, dtype=np.int64) % pk
        nz = work.any(axis=2)
        lead = np.where(nz.any(axis=1), nz.argmax(axis=1), n)
        exponent = {p**t: t for t in range(k + 1)}
        before = self.length
        while len(lead) and (j := int(lead.min())) < n:
            at = (lead == j).nonzero()[0]
            sub = work[at, j:]
            # p^v for the entry at j of every row (gcd with p^k over the coefficients)
            pv = np.gcd.reduce(sub[:, 0], axis=1, initial=pk)
            i = int(pv.argmin())
            old = self.pivots.get(j)
            if old is not None and p ** self.vals[j] <= pv[i]:
                pivot, v = old, self.vals[j]
            else:
                v = exponent[int(pv[i])]
                pivot = self._monic(work[at[i]], j, v)
                if old is None:
                    self.length += k - v
                    self._sorted = None
                else:
                    self.length += self.vals[j] - v
                    work = np.concatenate([work, old[None]])
                    lead = np.append(lead, j)
                    at = np.append(at, len(lead) - 1)
                    sub = np.concatenate([sub, old[None, j:]])
                self.pivots[j] = pivot
                self.vals[j] = v
            sub -= ring.vscale_stack(pivot[j:], sub[:, 0] // p**v)
            sub %= pk
            if pivot is not old:
                sub[i] = pivot[j:] * p ** (k - v) % pk
            work[at, j:] = sub
            # column j is now zero in every row, so a first hit at 0 means a zero row
            first = (sub.reshape(len(at), -1) != 0).argmax(axis=1) // ring.m
            lead[at] = np.where(first, j + first, n)
        return self.length > before

    def finalize(self) -> "Submodule":
        """Back-substituted canonical form as an immutable Submodule: at each
        pivot, one vectorised step reduces the rows above it that are not
        yet reduced there."""
        ring = self.ring
        cols = self._pivot_cols()
        mat = np.zeros((len(cols), self.ncols, ring.m), dtype=np.int64)
        for b, j in enumerate(cols):
            mat[b] = self.pivots[j]
            q = mat[:b, j] // ring.p ** self.vals[j]
            above = q.any(axis=1).nonzero()[0]
            if len(above):
                tail = mat[above, j:] - ring.vscale_stack(mat[b, j:], q[above])
                mat[above, j:] = tail % ring.pk
        return Submodule(ring, self.ncols, mat, tuple(cols), tuple(self.vals[j] for j in cols))


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

    def nrows(self) -> int:
        return self.rows.shape[0]

    def accumulator(self) -> HowellAccumulator:
        acc = HowellAccumulator(self.ring, self.ncols)
        acc.pivots = {j: self.rows[i] for i, j in enumerate(self.pivot_cols)}
        acc.vals = dict(zip(self.pivot_cols, self.pivot_vals))
        acc.length = self.length
        acc._sorted = sorted(acc.pivots)
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
        return f"Submodule({self.ring}, ambient {self.ncols}, {self.nrows()} rows, length {self.length})"


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
