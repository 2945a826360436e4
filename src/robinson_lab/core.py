"""Step graphons on uniform partitions: containers, I/O, norms, basic operators."""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional, Sequence

import numpy as np

# symmetry slack accepted by the constructor / loader, relative to the
# largest absolute entry
SYMMETRY_TOL = 1e-12

# refinement guard: refuse to materialise matrices beyond this side length
MAX_REFINED_CELLS = 2048


def _whole_number(value, least, message):
    """``value`` as an int; ValueError(message) unless it is a whole number
    of at least ``least`` (a bool is not)."""
    try:
        ok = not isinstance(value, bool) and float(value).is_integer() and value >= least
    except (TypeError, ValueError):         # e.g. a string from a config file
        ok = False
    if not ok:
        raise ValueError(message)
    return int(value)


def _seed(seed):
    """``seed`` as an int; ValueError unless it is a non-negative whole number."""
    return _whole_number(seed, 0, "seed must be a non-negative integer")


def _rng(seed):
    """The Philox stream of a non-negative whole-number seed."""
    return np.random.Generator(np.random.Philox(_seed(seed)))


def _cell_index(value):
    """A cell index as an int; ValueError unless it is a whole number."""
    return _whole_number(value, -np.inf, "cell indices must be integers")


class StepGraphon:
    """A symmetric step function on [0,1]^2, constant on an n x n grid of
    equal cells.  Cell (i, j) covers [i/n,(i+1)/n) x [j/n,(j+1)/n) and carries
    the value ``values[i, j]``.

    Values may be any finite reals (signed kernels are allowed); the matrix
    must be symmetric within 1e-12 of its largest absolute entry, and is
    stored symmetrised and read-only.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("step graphon needs a square matrix, got shape %s" % (v.shape,))
        if v.shape[0] == 0:
            raise ValueError("empty matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("matrix contains non-finite entries")
        if np.max(np.abs(v - v.T)) > SYMMETRY_TOL * np.max(np.abs(v)):
            raise ValueError("matrix is not symmetric within %g of its largest entry"
                             % SYMMETRY_TOL)
        v = (v + v.T) / 2.0
        v.flags.writeable = False
        self.values = v

    @property
    def n(self) -> int:
        return self.values.shape[0]

    # plain arithmetic on same-resolution graphons; handy in tests and the
    # recovery pipeline (w - approximation, scaling, ...)
    def __sub__(self, other):
        self._check_same(other)
        return StepGraphon(self.values - other.values)

    def __add__(self, other):
        self._check_same(other)
        return StepGraphon(self.values + other.values)

    def __mul__(self, scalar):
        return StepGraphon(self.values * float(scalar))

    __rmul__ = __mul__

    def _check_same(self, other):
        if not isinstance(other, StepGraphon) or other.n != self.n:
            raise ValueError("resolution mismatch")

    def __repr__(self):
        return "StepGraphon(n=%d, range=[%.4g, %.4g])" % (
            self.n, float(self.values.min()), float(self.values.max()))


@dataclasses.dataclass(frozen=True)
class CellSet:
    """A finite union of grid cells of [0,1] at a given resolution.

    ``indices`` is the sorted tuple of cell indices; the set it represents is
    the union of [i/resolution, (i+1)/resolution).
    """

    resolution: int
    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "resolution",
                           _whole_number(self.resolution, 1, "resolution must be positive"))
        idx = tuple(sorted(_cell_index(i) for i in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate cell indices")
        if idx and (idx[0] < 0 or idx[-1] >= self.resolution):
            raise ValueError("cell index out of range")
        object.__setattr__(self, "indices", idx)

    @property
    def measure(self) -> float:
        return len(self.indices) / self.resolution

    def as_array(self):
        return np.asarray(self.indices, dtype=np.intp)


@dataclasses.dataclass(frozen=True)
class CutoffResult:
    graphon: "StepGraphon"
    threshold: float
    exceed_measure: float   # measure of the zeroed cells, (# zeroed)/n^2


class RobinsonCheck(NamedTuple):
    robinson: bool
    witness: Optional[tuple]   # lexicographically first violating (i, j, k), or None


def load_graphon(path) -> StepGraphon:
    """Read a step graphon from a text file.

    Two forms are accepted.  Sized (what :func:`save_graphon` writes): the
    first non-comment line holds n alone, followed by n*n whitespace-separated
    reals.  Rows only: n lines of n whitespace-separated reals each, with n
    taken from the first line (a 1 x 1 matrix therefore needs the sized
    form).  ``#`` starts a comment; blank lines are ignored.  The matrix must
    be symmetric within 1e-12 of its largest absolute entry.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            body = line.split("#", 1)[0].strip()
            if body:
                rows.append(body.split())
    if not rows:
        raise ValueError("%s: no data" % path)
    if len(rows[0]) > 1:
        n = len(rows[0])
        for i, row in enumerate(rows, 1):
            if len(row) != n:
                raise ValueError("%s: row %d has %d entries, expected %d like row 1"
                                 % (path, i, len(row), n))
        if len(rows) != n:
            raise ValueError("%s: expected %d rows of %d entries, found %d rows"
                             % (path, n, n, len(rows)))
        tokens = [t for row in rows for t in row]
    else:
        try:
            n = int(rows[0][0])
        except ValueError:
            raise ValueError("%s: first value must be the grid size, got %r" % (path, rows[0][0]))
        if n < 1:
            raise ValueError("%s: grid size must be positive" % path)
        tokens = [t for row in rows[1:] for t in row]
        if len(tokens) != n * n:
            raise ValueError("%s: expected %d matrix entries, found %d" % (path, n * n, len(tokens)))
    try:
        flat = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise ValueError("%s: non-numeric matrix entry (%s)" % (path, exc))
    return StepGraphon(flat.reshape(n, n))


def save_graphon(w: StepGraphon, path) -> None:
    """Write ``w`` in the text format understood by :func:`load_graphon`.

    Entries are printed with 17 significant digits so that a write/read
    round-trip reproduces the float64 values exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d\n" % w.n)
        for row in w.values:
            fh.write(" ".join("%.17g" % x for x in row))
            fh.write("\n")


def lp_norm(w: StepGraphon, p) -> float:
    """L^p norm of the step function w over [0,1]^2; p in [1, inf]."""
    p = float(p)
    if not p >= 1:
        raise ValueError("p must be >= 1, got %g" % p)
    a = np.abs(w.values)
    if np.isinf(p):
        return float(a.max())
    # integral of |w|^p is the cell average of |values|^p; where that
    # overflows or underflows, scale by the largest value first
    with np.errstate(over="ignore", under="ignore"):
        mean = np.mean(a ** p)
        if np.finfo(float).tiny <= mean < np.inf:
            return float(mean ** (1.0 / p))
        top = a.max()
        return float(top * np.mean((a / top) ** p) ** (1.0 / p)) if top else 0.0


def refine(w: StepGraphon, r: int) -> StepGraphon:
    """Split every cell into r x r equal subcells (values repeat).

    The refined graphon equals w as a function on [0,1]^2.
    """
    r = _whole_number(r, 1, "refinement factor must be >= 1")
    if w.n * r > MAX_REFINED_CELLS:
        raise ValueError("refinement to %d cells exceeds cap %d" % (w.n * r, MAX_REFINED_CELLS))
    if r == 1:
        return w
    return StepGraphon(np.kron(w.values, np.ones((r, r))))


def step_to(w: StepGraphon, blocks: Sequence[Sequence[int]]) -> StepGraphon:
    """Average w over a coarser uniform partition.

    ``blocks`` lists the cell indices of each part; the parts must tile
    {0..n-1} with equal sizes.  The result is returned at the original
    resolution, every cell of a block pair carrying the block average, so it
    equals the stepped function on [0,1]^2.  Each block pair is averaged as
    one contiguous row of its b*b values, in ascending cell order.
    """
    n = w.n
    blocks = [sorted(_cell_index(i) for i in b) for b in blocks]
    if not blocks:
        raise ValueError("no blocks given")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise ValueError("blocks must have equal sizes, got %s" % sorted(sizes))
    flat = np.array(blocks, dtype=np.intp).ravel()
    if len(flat) != n or len(np.unique(flat)) != n or flat.min() != 0 or flat.max() != n - 1:
        raise ValueError("blocks must partition the %d cells" % n)
    nb, b = len(blocks), n // len(blocks)
    means = (w.values[np.ix_(flat, flat)].reshape(nb, b, nb, b).transpose(0, 2, 1, 3)
             .reshape(nb, nb, b * b).mean(axis=2))
    label = np.empty(n, dtype=np.intp)
    label[flat] = np.arange(n) // b
    return StepGraphon(means[np.ix_(label, label)])


def cutoff(w: StepGraphon, threshold: float) -> CutoffResult:
    """Zero out every cell whose value strictly exceeds ``threshold``.

    Values <= threshold are kept as-is (strict inequality, so a constant
    graphon at exactly the threshold is unchanged).  The measure of the
    zeroed region is reported.
    """
    m = float(threshold)
    if not m > 0:
        raise ValueError("threshold must be positive")
    exceed = w.values > m
    kept = np.where(exceed, 0.0, w.values)
    return CutoffResult(graphon=StepGraphon(kept), threshold=m,
                        exceed_measure=float(np.count_nonzero(exceed)) / (w.n * w.n))


def is_robinson(w: StepGraphon, tol: float = 0.0) -> RobinsonCheck:
    """Check the Robinson property: for all i <= j <= k,
    values[i][k] <= min(values[i][j], values[j][k]) + tol.

    Equivalently (and this is what runs): along every row of the upper
    triangle, each entry must not exceed the running minimum to its left by
    more than tol, and symmetrically down every column.  Returns the
    lexicographically first violating triple (i, j, k) when the check fails.
    """
    v = w.values
    n = w.n
    if not tol >= 0:
        raise ValueError("tol must be >= 0")

    # running minima over the upper triangle: rows left-to-right, columns
    # bottom-to-top (j from k down to i).  Work on a masked copy so the lower
    # triangle never participates: it is +inf, and so are its running minima.
    # Entry (i, k) is flagged exactly when some j in [i, k] violates, because
    # rounding b + tol is monotone in b: min_j(b_j) + tol = min_j(b_j + tol).
    upper = np.where(np.triu(np.ones((n, n), dtype=bool)), v, np.inf)
    floor = np.minimum(np.minimum.accumulate(upper, axis=1),
                       np.minimum.accumulate(upper[::-1, :], axis=0)[::-1, :])
    floor += tol
    bad = v > floor
    first = int(np.argmax(bad))
    if not bad.flat[first]:
        return RobinsonCheck(True, None)

    # the first flagged row is the witness's i; (j, k) is the first violating
    # pair of that row in row-major order, j <= k
    i = first // n
    row = v[i, i:]
    bad = np.triu(row > np.minimum(row[:, None], v[i:, i:]) + tol)
    j, k = divmod(int(np.argmax(bad)), n - i)
    return RobinsonCheck(False, (i, i + j, i + k))
