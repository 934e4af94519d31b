"""Canonical exact linear algebra over finite chain rings.

Row modules over Z/p^k or GR(p^k, m) are kept in Howell normal form: an
echelon basis with monic pivots p^v, saturated so that every element of the
span reduces to zero by greedy elimination.  Unlike Hermite form, the
saturation rows make span membership decidable over these non-domains, and
the fully reduced form is a canonical invariant of the span.

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
    "membership",
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
        if rows is not None:
            for r in rows:
                self.add(r)

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

    def reduce(self, vec: np.ndarray, witness: dict | None = None) -> np.ndarray:
        """Greedy leading-term reduction; the result is zero iff vec is in
        the span.  Records witness coefficients per pivot column if asked."""
        ring = self.ring
        vec = vec % ring.pk
        start = 0
        while True:
            j = ring.vlead(vec, start)
            if j is None:
                return vec
            row = self.pivots.get(j)
            if row is None:
                return vec
            pv = self.vals[j]
            v = ring.vval_entry(vec[j])
            if v < pv:
                return vec
            q = vec[j] // ring.p**pv
            vec = (vec - ring.vscale(row, q)) % ring.pk
            if witness is not None:
                witness[j] = q
            start = j + 1

    def reduce_rows(self, rows: np.ndarray, witness: dict | None = None) -> np.ndarray:
        """Canonical coset representatives of a stack of rows (B, ncols, m):
        one vectorised step per pivot column, in sorted order, brings every
        row's entry there into the residues [0, p^v)^m.  Two rows reduce to
        the same representative iff they differ by an element of the span.
        Records the (B, m) quotients per pivot column if asked."""
        ring = self.ring
        rows = np.asarray(rows, dtype=np.int64) % ring.pk
        for j in self._pivot_cols():
            q = rows[:, j] // ring.p ** self.vals[j]
            if q.any():
                # the pivot row is zero before column j
                tail = rows[:, j:] - ring.vscale_stack(self.pivots[j][j:], q)
                rows[:, j:] = tail % ring.pk
                if witness is not None:
                    witness[j] = q
        return rows

    def reduce_full(self, vec: np.ndarray, witness: dict | None = None) -> np.ndarray:
        """Canonical coset representative of one row: reduce_rows with
        B = 1, the witness recording the quotient used at each pivot."""
        quotients = None if witness is None else {}
        out = self.reduce_rows(vec[None], quotients)[0]
        if witness is not None:
            witness.update((j, q[0]) for j, q in quotients.items())
        return out

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()

    def add(self, vec: np.ndarray) -> bool:
        """Insert a row; returns True if the span grew."""
        ring = self.ring
        before = self.length
        stack = [np.asarray(vec, dtype=np.int64) % ring.pk]
        while stack:
            r = self.reduce(stack.pop())
            j = ring.vlead(r)
            if j is None:
                continue
            v = ring.vval_entry(r[j])
            r = self._monic(r, j, v)
            old = self.pivots.get(j)
            self.pivots[j] = r
            if old is not None:
                self.length += self.vals[j] - v
                stack.append(old)
            else:
                self.length += ring.k - v
                self._sorted = None
            self.vals[j] = v
            if v > 0:
                stack.append((r * ring.p ** (ring.k - v)) % ring.pk)
        return self.length > before

    def _monic(self, row: np.ndarray, j: int, v: int) -> np.ndarray:
        """The row divided by the unit part of its entry p^v u at column j."""
        ring = self.ring
        u = row[j] // ring.p**v
        if ring.m == 1:
            return (row * pow(int(u[0]), -1, ring.pk)) % ring.pk
        return ring.vscale(row, ring._inv(tuple(int(c) for c in u)))

    def add_rows(self, rows) -> bool:
        """Insert a stack of rows (B, ncols, m); returns True if the span grew.

        The stack is reduced against the pivots in one vectorised pass and
        its zero rows dropped.  The survivors and the pivots from the first
        column a survivor touches on are then brought to Howell form
        together (Storjohann and Mulders, ESA 1998), a column at a time: the
        row of least valuation v becomes the monic pivot, one vectorised
        step clears the column in the other rows, and the saturation row
        p^(k-v) pivot joins them."""
        ring = self.ring
        work = self._nonzero(self.reduce_rows(rows))
        if not len(work):
            return False
        before = self.length
        start = self._lead(work)
        work = np.concatenate([work] + [row[None] for j, row in self.pivots.items() if j >= start])
        self.pivots = {j: row for j, row in self.pivots.items() if j < start}
        self.vals = {j: v for j, v in self.vals.items() if j < start}
        powers = ring.p ** np.arange(1, ring.k + 1)
        while len(work):
            j = self._lead(work)
            # valuation of every row's entry at j (k where it is zero)
            vals = (work[:, j, None, :] % powers[:, None] == 0).all(axis=2).sum(axis=1)
            i = int(vals.argmin())
            v = int(vals[i])
            pivot = self._monic(work[i], j, v)
            rest = np.delete(work, i, axis=0)
            q = rest[:, j] // ring.p**v
            rest[:, j:] = (rest[:, j:] - ring.vscale_stack(pivot[j:], q)) % ring.pk
            if v > 0:
                rest = np.concatenate([rest, (pivot * ring.p ** (ring.k - v) % ring.pk)[None]])
            self.pivots[j] = pivot
            self.vals[j] = v
            work = self._nonzero(rest)
        self._sorted = None
        self.length = sum(ring.k - v for v in self.vals.values())
        return self.length > before

    def _nonzero(self, rows: np.ndarray) -> np.ndarray:
        return rows[rows.reshape(len(rows), self.ncols * self.ring.m).any(axis=1)]

    def _lead(self, rows: np.ndarray) -> int:
        """The first column any row of a stack of nonzero rows touches."""
        return int(rows.any(axis=2).argmax(axis=1).min())

    def finalize(self) -> "Submodule":
        """Back-substituted canonical form as an immutable Submodule."""
        ring = self.ring
        cols = self._pivot_cols()
        rows = [self.pivots[j].copy() for j in cols]
        for a in range(len(cols)):
            for b in range(a + 1, len(cols)):
                jb = cols[b]
                q = rows[a][jb] // ring.p ** self.vals[jb]
                if q.any():
                    rows[a] = (rows[a] - ring.vscale(rows[b], q)) % ring.pk
        mat = np.stack(rows) if rows else np.zeros((0, self.ncols, ring.m), dtype=np.int64)
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

    def reduce(self, vec, witness=None):
        return self.accumulator().reduce_full(np.asarray(vec, dtype=np.int64), witness)

    def contains(self, vec) -> bool:
        return not self.reduce(vec).any()

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


def membership(vec, sub: Submodule):
    """Decide vec in span(sub); on success return (True, witness) where
    witness maps pivot columns to coefficients recombining exactly to vec."""
    v = np.asarray(vec, dtype=np.int64)
    if v.ndim == 1 and sub.ring.m == 1:
        v = v.reshape(-1, 1)
    if v.shape[0] != sub.ncols:
        raise ValueError(f"vector has dimension {v.shape[0]}, ambient is {sub.ncols}")
    witness: dict[int, np.ndarray] = {}
    rem = sub.reduce(v, witness)
    if rem.any():
        return False, None
    return True, witness


def elementary_divisors(A: Submodule, B: Submodule) -> list[int]:
    """Exponents (e_1 <= e_2 <= ...) of the p-power invariants of B/A.

    Requires A a submodule of B over the same chain ring.  An exponent equal
    to the ring precision k means the invariant is only known to be at least
    p^k at this precision.
    """
    if A.ring != B.ring or A.ncols != B.ncols:
        raise ValueError("modules live in different ambients")
    ring = A.ring
    bacc = B.accumulator()
    for row in A.rows:
        if bacc.reduce(row).any():
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
