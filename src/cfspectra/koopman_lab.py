"""Finite-level Koopman analysis: phased permutations, exact spectra, probes.

Components of the composition operator over a tower are phased permutations:
a successor map on finitely many states with a root-of-unity weight on every
edge, which `build_component` returns as two arrays; no command applies one
to a vector.  Every component is a phased shift along the single tower
cycle, around which the transition values telescope, so its spectrum is a
closed form in the height and kappa.  Power averages are evaluated by exact
bucket counting of phase exponents and judged against one weak-limit
prediction, delta (a I + b U*) + c P, whose coefficients the component and
the stage label pick from one table.  The level pairs are counted through
the cut-and-stack recursion, listing only the tower at the cylinder level,
all probed stages in one pass of one pair counter; correlation decay
counts the differences of the cylinder starts off the stage cuts.  The
multiplicity report takes its classes from the triple's trace partition
and walks orbits only to certify that classes separate, in one scan for
all its class pairs.  Floating point appears only in the probes'
deviations from their predictions and in report summaries; every equality
decision is integer/rational.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, wraps
from math import prod

import numpy as np

from .cocycle_engine import (
    LABEL_DELAYED_TRANSLATE,
    LABEL_RIGID_ROTATE,
    LABEL_RIGID_TRANSLATE,
    MODE_PRODUCT,
    StageLabel,
    Tower,
    TowerModel,
    _step_difference,
)
from .errors import (
    CfspectraError,
    CharacterTypeError,
    ConsistencyError,
    LabelError,
    LagRangeError,
    ParameterError,
    SizeCapError,
)
from .finite_algebra import (
    Character,
    CyclotomicSum,
    conjugate_exponents,
    cyclo_equal,
    orbit_average,
    orbit_averages,
    orbit_images,
)

DEFAULT_STATE_CAP = 2 * 10**6
PROBE_TOLERANCE_FACTOR = 3  # deviation budget is this over the stage's column count
# The most level pairs, h_m per nonzero table-lag weight, for which the
# pair counter lists a depth-m tower above the cylinder depth level by level
# instead of counting it from the depths below; never more than the state
# cap.  Measured in process on one Xeon core (median of 15 runs) on the
# weaklimits suite: budgets of 1,024 to 4,096 pairs gave the same gain
# (direct_12 3.1 -> 2.1-2.3 ms, product_23 5.3 -> 4.2-4.4 ms), 8,192 pairs
# slowed direct_12 back to 2.6 ms, and a height-only rule (list any tower
# of at most 1,024 levels) made the chi (1, 1) probe of stage 3 of
# (16, 16, 128, 16) six times slower (1.8 -> 11.7 ms); so the rule weighs
# pairs, not height.
LIST_BUDGET = 2048


# ---------------------------------------------------------------------------
# phased permutation operators
# ---------------------------------------------------------------------------


@dataclass
class PhasedCycleOperator:
    """Permutation of states with a root-of-unity phase on every edge, acting
    by (U v)(s) = zeta_N^{phase_exp[s]} * v(succ[s])."""

    succ: np.ndarray
    phase_exp: np.ndarray
    phase_order: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.succ = np.asarray(self.succ, dtype=np.int64)
        self.phase_exp = np.asarray(self.phase_exp, dtype=np.int64) % self.phase_order
        if self.succ.shape != self.phase_exp.shape:
            raise ValueError("one phase exponent per state required")

    @property
    def n_states(self) -> int:
        return int(self.succ.size)


# ---------------------------------------------------------------------------
# building components from a tower model
# ---------------------------------------------------------------------------


def _pairing_weights(orders, d, n: int) -> np.ndarray:
    return np.array([di * (n // ni) for di, ni in zip(d, orders)], dtype=np.int64)


def build_component(session, character: Character, depth: int | None = None) -> PhasedCycleOperator:
    """The component of a character of the acting group, over the base tower,
    or of the module (indexed by an element d of the primal side), over the
    skew tower of levels x acting group; phases are over the root order."""
    model = session.model(depth)
    n, cap = session.root_order, session.config.state_cap
    h, kappa = model.height, session.k_order
    levels = np.arange(h, dtype=np.int64)
    if character.group == session.triple.k_group:
        if h > cap:
            raise SizeCapError(f"{h} states exceed cap {cap}")
        eta = character.exponents[0]
        d_beta = _step_difference(model.word_beta, 1, kappa)
        return PhasedCycleOperator((levels + 1) % h, eta * d_beta * (n // kappa) % n, n,
                                   {"kind": "eta", "eta": eta % kappa, "levels": h})
    if character.group != session.duality.dual_module:
        raise CharacterTypeError("character belongs to neither side of the session algebra")
    if h * kappa > cap:
        raise SizeCapError(f"{h * kappa} states exceed cap {cap}")
    d = character.exponents
    d_beta, d_alpha = model.step_values(1)
    weights = _pairing_weights(model._orders, d, n)
    # state (level l, group exponent k) flattened as l * kappa + k
    succ = np.empty(h * kappa, dtype=np.int64)
    exps = np.empty(h * kappa, dtype=np.int64)
    for k in range(kappa):
        twisted = d_alpha @ model._theta_mats[k].T % model._orders
        exps[levels * kappa + k] = (twisted @ weights) % n
        succ[levels * kappa + k] = ((levels + 1) % h) * kappa + (k + d_beta) % kappa
    return PhasedCycleOperator(succ, exps, n, {"kind": "chi", "d": d, "levels": h, "kappa": kappa})


# ---------------------------------------------------------------------------
# loop product and closed-form spectra
# ---------------------------------------------------------------------------


def loop_product(model: TowerModel) -> tuple[int, tuple[int, ...]]:
    """Product g_0 g_1 ... g_{h-1} in K x| A of the transition values around
    the tower cycle, under (k1, a1)(k2, a2) = (k1 + k2, a1 + theta^k1 a2):
    the sum of the beta steps, and each alpha step twisted by the prefix
    sum of the beta steps before it."""
    kappa = model.ctx.k_order
    d_beta, d_alpha = model.step_values(1)
    prefix = (np.cumsum(d_beta) - d_beta) % kappa
    a = model._apply_theta_pow(prefix, d_alpha).sum(axis=0) % model._orders
    return int(d_beta.sum() % kappa), tuple(int(x) for x in a)


def class_equivalence_check(model: TowerModel) -> None:
    """Raise ConsistencyError unless the loop product is the identity, which
    gives every component at this depth zero holonomy: chi and chi o theta^k
    then have the same spectrum for every k, the finite shadow of the
    conjugation symmetry."""
    product = loop_product(model)
    if product != model.ctx.identity():
        raise ConsistencyError(
            f"transition values multiply to {product} around the depth-{model.depth} "
            "tower cycle, not the identity; the cocycle does not telescope"
        )


def exact_spectrum(session, depth: int | None = None) -> dict:
    """Closed-form spectrum shared by every component of each kind, by kind:
    the transition values telescope around the tower cycle, so an eta
    component is one h-cycle of total phase 0 and a chi component kappa of
    them."""
    h, kappa = session.tower_at(depth).height, session.k_order
    return {kind: {"cycles": [{"length": h, "phase_num": 0, "phase_den": 1, "count": copies}],
                   "total_multiplicity": h * copies}
            for kind, copies in (("eta", 1), ("chi", kappa))}


# ---------------------------------------------------------------------------
# weak limit probes
# ---------------------------------------------------------------------------


@dataclass
class _CellTables:
    """Tables over the n x n cylinder pairs (g, f), after any leading axes,
    held at shared explicit cells, coded g n + f and sorted, and by side at
    every other cell: per name, (explicit, sides), ``sides[..., 0]`` on the
    diagonal g = f and ``sides[..., 1]`` off it."""

    n: int
    cells: np.ndarray
    diagonal: np.ndarray  # where the explicit cells with g = f lie among them
    parts: dict

    def dense(self, name: str) -> np.ndarray:
        explicit, sides = self.parts[name]
        n = self.n
        out = _by_side(sides, n * n, slice(None, None, n + 1))
        out[..., self.cells] = explicit
        return out.reshape(*sides.shape[:-1], n, n)

    def max(self, name: str) -> float:
        """The largest entry of a dense table: the explicit ones' and those
        of each side with a cell that is not explicit."""
        explicit, sides = self.parts[name]
        n, diagonal = self.n, self.diagonal.size
        found = [explicit.max(initial=-np.inf)]
        if diagonal < n:
            found.append(sides[..., 0].max())
        if self.cells.size - diagonal < n * n - n:
            found.append(sides[..., 1].max())
        return float(max(found))


@dataclass
class WeakLimitReport:
    """A probe's table against its prediction, with the verdict on the worst entry.

    ``tables`` holds the power-average values, the prediction's real and
    imaginary parts and the deviations as ``_CellTables``: explicit at the
    cells the value table or, transposed, the one-step table reaches, by
    side at every other cell.  ``max_deviation`` is read off them.
    ``rows`` renders their dense arrays (``tables.dense(name)``, indexed
    [g, f] for eta and [e_u, e_v, g, f] for chi) as one dict per entry,
    built on first read.
    """

    stage_index: int
    label: StageLabel
    component: dict
    family: dict
    prediction_kind: str
    tables: _CellTables = field(repr=False, compare=False)
    tolerance: float
    max_deviation: float = field(init=False)

    def __post_init__(self):
        self.max_deviation = self.tables.max("deviations")

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    @cached_property
    def rows(self) -> list:
        values, pred_re, pred_im, dev = (self.tables.dense(name) for name in
                                         ("values", "pred_re", "pred_im", "deviations"))
        value = _pairs(values.real, values.imag)
        pred = _pairs(pred_re, pred_im)
        dev = dev.ravel().tolist()
        if self.component["kind"] == "eta":
            eta = self.component["eta"]
            g, f = np.indices(values.shape)
            return [{"u": u, "v": v, "eta": eta, "value": val, "pred": p, "deviation": dv}
                    for u, v, val, p, dv in zip(f.ravel().tolist(), g.ravel().tolist(),
                                                value, pred, dev)]
        e_u, e_v, g, f = np.indices(values.shape)
        return [{"u": u, "v": v, "value": val, "pred": p, "deviation": dv}
                for u, v, val, p, dv in zip(_pairs(f, e_u), _pairs(g, e_v), value, pred, dev)]

    def to_dict(self) -> dict:
        return {
            "stage_index": self.stage_index,
            "label": self.label.to_dict(),
            "component": self.component,
            "family": self.family,
            "prediction_kind": self.prediction_kind,
            "rows": self.rows,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _mixed_radix(bases) -> np.ndarray:
    """Place values of mixed-radix digits with the given bases, last fastest."""
    radix = np.ones(len(bases), dtype=np.int64)
    for i in range(len(bases) - 2, -1, -1):
        radix[i] = radix[i + 1] * bases[i + 1]
    return radix


def _module_tables(ctx, module: bool):
    """(orders, radix, theta, images) of the module, or of the trivial module
    (rank 0, one element): theta[k] is the matrix of theta^k, images[k, w]
    theta^k of the element of mixed-radix index w, last coordinate fastest.
    The images' int64 sums are bounded as the stack's own products are, so
    a module past that bound has no action to read them from.
    """
    orders = np.array(ctx.module.orders if module else (), dtype=np.int64)
    rank = len(orders)
    theta = ctx.action.matrices[:, :rank, :rank]
    radix = _mixed_radix(orders)
    elements = np.arange(int(np.prod(orders)), dtype=np.int64)[:, None] // radix % orders
    return orders, radix, theta, elements @ theta.transpose(0, 2, 1) % orders


def _runs(lengths, cap):
    """(run, offset) of each element of consecutive runs of the given lengths;
    more elements than the cap are refused before any is listed."""
    total = int(lengths.sum())
    if total > cap:
        raise SizeCapError(f"{total} level pairs exceed cap {cap}")
    run = np.arange(len(lengths)).repeat(lengths)
    starts = lengths.cumsum() - lengths
    return run, np.arange(run.size) - starts[run]


def _at(words, idx):
    """The words at the given level indices."""
    return tuple(w.take(idx, axis=0) for w in words)


def _split(a, n):
    """(a // n, a mod n) of an int64 array or scalar, n > 0, by // and a
    multiply-subtract: numpy runs % and np.divmod by a scalar far slower."""
    q = a // n
    r = q * n
    return q, (np.subtract(a, r, out=r) if isinstance(r, np.ndarray) else a - r)


_NO_PAIRS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
_FAR = np.full(2, np.iinfo(np.int64).max)


def _joined(parts):
    """Tables (keys, counts) as one, whose keys may repeat."""
    if len(parts) < 2:
        return parts[0] if parts else _NO_PAIRS
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _merged(parts):
    """Tables (keys, counts) summed into one with distinct sorted keys, by a
    stable sort through the parts' sorted runs; distinct keys skip the sum."""
    key, count = _joined(parts)
    order = key.argsort(kind="stable")
    key, count = key.take(order), count.take(order)
    starts = _starts(key)
    if starts.all():
        return key, count
    first = starts.nonzero()[0]
    return key.take(first), np.add.reduceat(count, first)


def _starts(values):
    """Where each run of equal values of a sorted array starts."""
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _distinct(values):
    """The distinct values, sorted, the bounds of each one's run in their
    stable sort, and its order: np.unique's, less its costly hash table."""
    order = values.argsort(kind="stable")
    values = values.take(order)
    first = _starts(values).nonzero()[0]
    return values.take(first), first.tolist() + [values.size], order


def _kept(method):
    """A _PairCounter method whose result is kept, per argument tuple, for
    the counter's lifetime."""

    @wraps(method)
    def kept(self, *args):
        key = (method.__name__, *args)
        if key not in self._kept:
            self._kept[key] = method(self, *args)
        return self._kept[key]

    return kept


class _PairCounter:
    """Pair tables of one tower, counted through its cut-and-stack recursion.

    A table is sparse, keys and counts, holding several weighted tables at
    once: key c R + i counts entry i of raw[g, b, f, b', x] (R entries) in
    table c.  A level's word is its depth-n0 cylinder (-1 for a deeper
    spacer, whose pairs are dropped), group exponent and untwisted module
    part u.  Table c keys a pair of words by x = u - theta^(delta_c) u', its
    twist delta_c 0 for the tables asked from outside.  Level y of column j
    of stage m has the word of level y of the depth-(m-1) tower times the
    column's entry (b_j, a_j), which adds b_j to the exponent and sends u to
    theta^(-b_j) u + v_j, for v_j = theta^(-b_j) a_j.

    A lag-s table of the depth-m tower is then counted from the tables of
    the depth-(m-1) tower, in three parts: the pairs inside a column, the
    lower table moved into each column (`columns`); for s below the column
    height h_(m-1), the pairs that cross from the top of a column to the
    bottom of the next one, which join the top and bottom s words of the
    depth-(m-1) tower (`crossings`); and for s of at least h_(m-1), the
    pairs between two columns, lower pairs at the lag their column offsets
    leave (`offsets`).  The lower tables of all three are asked for at once.
    The recursion stops at a short tower, which is listed level by level
    (`level_pass`): the first depth it meets, from the top, below which no
    asked table lies and whose tables list at most LIST_BUDGET pairs, nor
    more than the cap (`lists`), and at the latest the depth-n0 tower, the
    cylinder depth.  The edges of the depths above a listed one are sliced
    off its words.

    The words, entries, boundaries, edges and moves depend only on the
    tower's structure, so one counter serves every stage from n0 up, and
    keeps what it builds for its lifetime.  `count` counts the cyclic
    tables of any (depth, step)s in one top-down pass and folds each, and
    the eta and chi tables are read from the folded ones.
    """

    def __init__(self, tower, n0: int, module: bool):
        tower.check_cylinder_level(n0)
        self.tower = tower
        self.n0 = n0
        self.kappa = tower.ctx.k_order
        self.heights = tower.schedule.heights()
        self.orders, self.radix, self.theta, self.images = _module_tables(tower.ctx, module)
        # image_index[k, x] is the index of theta^k of the element of index x
        self.image_index = self.images @ self.radix
        # twists are exponents of theta, which has nothing to act on without
        # a module part
        self.twist_order = self.kappa if len(self.orders) else 1
        n_cyl = self.heights[n0]
        self.shape = (n_cyl, self.kappa, n_cyl, self.kappa, self.images.shape[1])
        self.table_size = prod(self.shape)
        # one side of a pair, its cylinder and exponent, is coded g kappa + b;
        # shifted[k, g kappa + b] codes (g, b + k)
        side, k = np.arange(n_cyl * self.kappa), np.arange(self.kappa)[:, None]
        self.shifted = side - side % self.kappa + (side % self.kappa + k) % self.kappa
        self._kept = {}
        self.listed = {n0}  # the depths listed, whose edges are sliced off their words
        self.tables = {}  # the folded table of each (depth, step) counted

    # -- module arithmetic on vectors ------------------------------------------

    def index(self, vecs):
        """Index of each (unreduced) vector along the last axis; 0 without a module."""
        x = 0
        for i, (n, place) in enumerate(zip(self.orders.tolist(), self.radix.tolist())):
            x = x + _split(vecs[..., i], n)[1] * place
        return x

    def added(self, x, y, sign):
        """Index of the element of index x plus sign times that of index y."""
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        for n, place in zip(self.orders.tolist(), self.radix.tolist()):
            out += _split(x // place + sign * (y // place), n)[1] * place
        return out

    def act(self, k, vecs):
        """theta^k of every row of vecs (rows reduced mod the orders), for one
        exponent k or one per row."""
        if not len(self.orders):
            return vecs
        k = np.asarray(k) % self.kappa
        if not k.any():
            return vecs
        if not k.ndim:
            return vecs @ self.theta[k].T % self.orders
        out = vecs.copy()
        for e in np.unique(k).tolist():
            if e:
                rows = k == e
                out[rows] = vecs[rows] @ self.theta[e].T % self.orders
        return out

    # -- the tower's structure -------------------------------------------------

    @_kept
    def words(self, m):
        """(cylinder, exponent, u) of every level of the depth-m tower, m a
        listed depth: the depth-n0 cylinder, -1 for a spacer above n0."""
        t = self.tower
        model = TowerModel(t.schedule, m, t.maps_by_stage[:m], t.ctx, cap=t.cap)
        return (model.cylinder_ids(self.n0), model.word_beta,
                model.word_untwisted[:, :len(self.orders)])

    @_kept
    def stage(self, m):
        """Stage m's column entries b_j and v_j (v_j read only with the module),
        its cuts c_j and its gaps g_j: the spacer count between column j and
        column j + 1."""
        st, maps = self.tower.schedule.stages[m - 1], self.tower.maps_by_stage[m - 1]
        b = np.array(maps.beta, dtype=np.int64)
        v = self.act(-b, np.array(maps.alpha, dtype=np.int64)[:, :len(self.orders)]
                     if len(self.orders) else np.zeros((len(b), 0), dtype=np.int64))
        cuts = np.array(st.cuts, dtype=np.int64)
        return b, v, cuts, np.diff(cuts) - st.base_height

    @_kept
    def boundaries(self, m, cyclic, delta):
        """Stage m's boundaries from column j to j + 1 (with cyclic, also from
        the last column to column 0, across gap 0), grouped by their entries:
        per group b_j, b_(j+1), the index d of v_j - theta^delta v_(j+1), and
        the number of its boundaries at each gap."""
        b, v, _, gaps = self.stage(m)
        left = np.arange(len(b) if cyclic else len(b) - 1)
        right = (left + 1) % len(b)
        if cyclic:
            gaps = np.append(gaps, 0)
        n_a, kappa = self.shape[4], self.kappa
        codes, bounds, order = _distinct(
            (b[left] * kappa + b[right]) * n_a + self.index(v[left] - self.act(delta, v[right])))
        gaps = gaps.take(order)
        return [(*divmod(code // n_a, kappa), code % n_a, np.bincount(gaps[lo:hi]))
                for code, lo, hi in zip(codes.tolist(), bounds, bounds[1:])]

    @_kept
    def edge(self, m, size, top):
        """Words of the top or bottom `size` levels of the depth-m tower: a
        slice of its words at a listed depth, else those of column 0, whose
        entry is the identity, or of the last column, as no stage has
        spacers above it.  A taller window spans several columns, each the
        depth-(m-1) tower moved by its entry, with the spacers of the gaps
        (cylinder -1) between them."""
        h = self.heights[m]
        if m in self.listed:
            window = slice(h - size, None) if top else slice(0, size)
            return tuple(w[window] for w in self.words(m))
        b, v, cuts, _ = self.stage(m)
        below = self.heights[m - 1]
        if size <= below:
            cyl, beta, u = self.edge(m - 1, size, top)
            if top:
                beta, u = (beta + b[-1]) % self.kappa, (self.act(-b[-1], u) + v[-1]) % self.orders
            return cyl, beta, u
        levels = np.arange(h - size, h) if top else np.arange(size)
        col = cuts.searchsorted(levels, side="right") - 1
        y = levels - cuts[col]
        spacer = y >= below
        y[spacer] = 0
        cyl, beta, u = _at(self.edge(m - 1, below, True), y)
        return (np.where(spacer, -1, cyl), (beta + b[col]) % self.kappa,
                (self.act(-b[col], u) + v[col]) % self.orders)

    # -- tables ----------------------------------------------------------------

    def weight_table(self, tables, lags, what):
        """Zero weights of `tables` tables at `lags` lags, refused over the
        tower's cap before they are allocated."""
        entries = tables * lags
        if entries > self.tower.cap:
            raise SizeCapError(f"{entries} {what} exceed cap {self.tower.cap}")
        return np.zeros((tables, lags), dtype=np.int64)

    def encode(self, c, first, second, x):
        """Key of table c, the sides' codes g kappa + b and x."""
        sides, n_a = self.shifted.shape[1], self.shape[4]
        key = (c * sides + first) * sides + second
        return key * n_a + x if n_a > 1 else key  # x is 0 without a module

    def decode(self, key):
        """(c, first, second, x) of each key, split as `_split` splits."""
        sides, n_a = self.shifted.shape[1], self.shape[4]
        rest, x = _split(key, n_a) if n_a > 1 else (key, 0)  # x is 0 without a module
        rest, second = _split(rest, sides)
        c, first = _split(rest, sides)
        return c, first, second, x

    def pair_keys(self, first, i1, second, i2, c, count, twists):
        """Table of the word pairs (first[i1[i]], second[i2[i]]), pair i
        counted count[i] times in table c[i], of twist twists[c[i]]; keys may
        repeat.  Every word paired is a cylinder's."""
        (c1, b1, u1), (c2, b2, u2) = _at(first, i1), _at(second, i2)
        if twists.any():
            u2 = self.act(twists[c], u2)
        kappa = self.kappa
        return self.encode(c, c1 * kappa + b1, c2 * kappa + b2, self.index(u1 - u2)), count

    def lists(self, m, weights, asked):
        """Whether `pairs` lists the depth-m tower level by level: the
        depth-n0 one always, and one above it when no asked table lies
        below it and its tables, h_m pairs per nonzero weight, list at most
        LIST_BUDGET pairs, nor more than the cap."""
        if m == self.n0:
            return True
        listed = max(1, np.count_nonzero(weights)) * self.heights[m]
        return not asked and listed <= min(LIST_BUDGET, self.tower.cap)

    def level_pass(self, m, lags, weights, twists, wraps):
        """Pairs (l, l + s) listed level by level over the depth-m tower, a
        listed depth, once per table that counts their lag, less those of
        the spacers above n0; the last `wraps` tables wrap."""
        words = self.words(m)
        h = len(words[0])
        c, i = weights.nonzero()
        run, first = _runs(np.where(c >= len(weights) - wraps, h, h - lags[i]), self.tower.cap)
        c, i = c[run], i[run]
        second = first + lags[i]
        if wraps:  # a table that does not wrap pairs no l + s past the top
            second = _split(second, h)[1]
        if m > self.n0:
            keep = ((words[0][first] >= 0) & (words[0][second] >= 0)).nonzero()[0]
            c, i, first, second = c[keep], i[keep], first[keep], second[keep]
        return self.pair_keys(words, first, words, second, c, weights[c, i], twists)

    def pairs(self, m, lags, weights, twists, wraps=0, asked=()):
        """Tables of the pairs (l, l + s) of the depth-m tower, where table c
        counts the lag lags[i] (increasing) weights[c, i] times, with twist
        twists[c]; for the last `wraps` tables, the cyclic ones, l + s is taken
        modulo the height.  Each (depth, step) of asked, in decreasing depth
        below m, adds the cyclic table of that step at that depth, numbered
        after the given tables in the order asked.  Returned as parts whose
        keys may repeat; within a part the tables come in order, each one run
        of keys.  Keys past the int64 range are refused before any is formed.
        """
        keys = (len(weights) + len(asked)) * self.table_size
        if keys > 2**63:
            raise SizeCapError(f"pair tables of {keys} keys exceed the int64 key space")
        # a cyclic table's lag is below the height already
        keep = lags.searchsorted(self.heights[m])
        lags, weights = lags[:keep], weights[:, :keep]
        if self.lists(m, weights, asked):
            self.listed.add(m)
            return [self.level_pass(m, lags, weights, twists, wraps)]
        small = lags.searchsorted(self.heights[m - 1])
        lags, weights, big_lags, big_weights = (lags[:small], weights[:, :small],
                                                lags[small:], weights[:, small:])
        # the given tables go below only with a lag to ask for
        n_tables = len(weights) if lags.size else 0
        groups = (_NO_PAIRS[0],) * 5
        lower = [(lags, weights[:n_tables], twists[:n_tables])]
        if big_lags.size:
            *offsets, groups = self.offsets(m, big_lags, big_weights, twists, wraps)
            lower.append(offsets)
        own = [step % self.heights[m - 1] for depth, step in asked if depth == m - 1]
        if own:
            lower.append((np.array(own), np.eye(len(own), dtype=np.int64), np.zeros_like(own)))
        lower_lags, lower_weights = lags, weights[:n_tables]
        if len(lower) > 1:
            lower_lags = _distinct(np.concatenate([part[0] for part in lower]))[0]
            lower_weights = self.weight_table(sum(len(part[1]) for part in lower),
                                              lower_lags.size, "lower table weights")
            row = 0
            for part_lags, part_weights, _ in lower:
                lower_weights[row:row + len(part_weights),
                              lower_lags.searchsorted(part_lags)] = part_weights
                row += len(part_weights)
        crossing = self.crossings(m, lags, weights, twists, wraps)
        parts = []
        if lower_lags.size or asked:
            through = n_tables + len(groups[0])
            below = self.pairs(m - 1, lower_lags, lower_weights,
                               np.concatenate([part[2] for part in lower]), len(own),
                               asked[len(own):])
            key, count = below[0] if len(below) == 1 else _merged(below)
            split, end = key.searchsorted([n_tables * self.table_size, through * self.table_size])
            if split:
                parts += self.columns(m, key[:split], count[:split], twists)
            if split < end:
                parts.append(self.moved(key[split:end], count[split:end], groups, twists,
                                        n_tables))
            if end < key.size:  # the asked tables, numbered after the given ones
                parts.append((key[end:] + (len(weights) - through) * self.table_size,
                              count[end:]))
        # keyed once the depths below have chosen the one that `lists`, whose
        # words the edges then slice
        return self.crossed(m, *crossing, twists) + parts

    def columns(self, m, key, count, twists):
        """The lower tables moved into every column of stage m: column j adds
        b_j to both exponents and sends x to theta^(-b_j) x +
        (1 - theta^delta) v_j, delta the table's twist, so the columns of one
        (b_j, (1 - theta^delta) v_j) move alike, and one with neither, as
        every translate column at twist 0, leaves the key as it is."""
        parts = []
        for delta, _, tables in self.twist_classes(twists):
            keys, counts = key, count
            if tables is not None:
                at = tables[key // self.table_size]
                keys, counts = key[at], count[at]
            decoded = None
            for b_j, w, copies in self.moves(m, delta):
                if not (b_j or w):
                    parts.append((keys, counts * copies))
                    continue
                if decoded is None:
                    decoded = self.decode(keys)
                c, first, second, x = decoded
                x = (self.index(self.images[-b_j] + self.images[0, w])[x] if w
                     else self.image_index[-b_j, x])
                moved = self.encode(c, self.shifted[b_j, first], self.shifted[b_j, second], x)
                parts.append((moved, counts * copies))
        return parts

    @_kept
    def moves(self, m, delta):
        """(b_j, index of (1 - theta^delta) v_j, columns) per distinct move of
        the columns of stage m."""
        b, v, _, _ = self.stage(m)
        n_a = self.shape[4]
        moves, bounds, _ = _distinct(b * n_a + self.index(v - self.act(delta, v)))
        return [(*divmod(m, n_a), hi - lo) for m, lo, hi in zip(moves.tolist(), bounds, bounds[1:])]

    def twist_classes(self, twists, wraps=0):
        """The distinct (twist, cyclic) of the tables, the last `wraps` of them
        cyclic, each with a mask of its tables, None where all tables share it."""
        if not (wraps or twists.any()):
            return [(0, 0, None)]
        code = twists * 2 + (np.arange(len(twists)) >= len(twists) - wraps)
        classes = sorted(set(code.tolist()))
        return [(*divmod(c, 2), None if len(classes) == 1 else code == c) for c in classes]

    def offsets(self, m, lags, weights, twists, wraps):
        """The pairs of lags s >= h_(m-1) of the depth-m tower, as lower tables.

        Such a pair joins level y of column j to level y + t of column k,
        for t = s - (c_k - c_j) with |t| < h_(m-1), the columns of a cyclic
        table wrapping past the last one, at c_k + h_m: a lag-|t| pair of the
        depth-(m-1) tower, reversed for t < 0, each side moved by its
        column's entry.  Cuts lie at least h_(m-1) apart, so each (s, j) has
        at most two such k; those 2 r per lag and table are refused over the
        cap before they are listed, as are group keys past the int64 range.
        The (s, j, k) of table c are grouped by orientation, b_j, b_k and the
        index d of v_j - theta^delta v_k, delta the table's twist; a group is
        one lower table, weighted by |t|, whose twist, delta + b_j - b_k, or
        b_k - b_j - delta reversed, makes the moved key a function of the
        lower pair's (`moved`).  Returns the lower lags |t| (distinct), the
        groups' weights and twists, and the groups' (c, reversed, b_j, b_k, d).
        """
        kappa, n_a = self.kappa, self.shape[4]
        b, v, cuts, _ = self.stage(m)
        below = self.heights[m - 1]
        keys = len(weights) * 2 * kappa * kappa * n_a * below
        if keys > 2**63:
            raise SizeCapError(f"column offset groups of {keys} keys exceed the int64 key space")
        c, i = weights.nonzero()  # the (table, lag) entries to list
        listed = 2 * c.size * cuts.size
        if listed > self.tower.cap:
            raise SizeCapError(f"{listed} column offsets exceed cap {self.tower.cap}")
        # the column bottoms, past the last one those of the wrapped columns,
        # then two that no level reaches
        ends = np.concatenate((cuts, cuts + self.heights[m], _FAR) if wraps else (cuts, _FAR))
        at = (cuts + lags[i, None]).ravel()  # c_j + s, per (entry, j)
        k = ends.searchsorted(at - below, side="right")
        k = np.concatenate((k, k + 1))
        t = np.concatenate((at, at)) - ends[k]
        pair = (t > -below).nonzero()[0]
        entry, j = _split(_split(pair, at.size)[1], cuts.size)
        c, i, k, t = c[entry], i[entry], k[pair], t[pair]
        if 0 < wraps < len(weights):  # only a cyclic table wraps
            pair = ((c >= len(weights) - wraps) | (k < cuts.size)).nonzero()[0]
            c, i, j, k, t = c[pair], i[pair], j[pair], k[pair], t[pair]
        k = _split(k, cuts.size)[1]
        group = ((c * 2 + (t < 0)) * kappa + b[j]) * kappa + b[k]
        if len(self.orders):
            group = group * n_a + self.index(v[j] - (self.act(twists[c], v[k]) if twists.any()
                                                     else v[k]))
        # one sorted pass sums the weights per (group, |t|)
        key, weight = _merged([(group * below + np.abs(t), weights[c, i])])
        group, span = _split(key, below)
        first = _starts(group)
        spans = _distinct(span)[0]
        span_weights = self.weight_table(np.count_nonzero(first), spans.size,
                                         "column offset weights")
        span_weights[first.cumsum() - 1, spans.searchsorted(span)] = weight
        rest, d = _split(group[first], n_a)
        rest, b_k = _split(rest, kappa)
        rest, b_j = _split(rest, kappa)
        c, rev = _split(rest, 2)
        delta = twists[c]
        span_twists = np.where(rev, b_k - b_j - delta, delta + b_j - b_k) % self.twist_order
        return spans, span_weights, span_twists, (c, rev, b_j, b_k, d)

    def moved(self, key, count, groups, twists, offset):
        """The lower tables of `offsets`' groups, group i at table offset + i,
        as a part of the groups' own tables: a lower pair (g, e, f, e', x) of
        group (c, b_j, b_k, d) goes to (g, e + b_j, f, e' + b_k,
        theta^(-b_j) x + d), or reversed, from column k to column j, to
        (f, e' + b_j, g, e + b_k, d - theta^(delta - b_k) x), delta the twist
        of table c."""
        i, first, second, x = self.decode(key)
        i -= offset
        c, rev, b_j, b_k, d = groups
        if len(self.orders):
            power = np.where(rev, twists[c] - b_k, -b_j) % self.kappa
            x = self.added(d[i], self.image_index[power[i], x], 1 - 2 * rev[i])
        rev = rev.astype(bool)[i]
        first, second = np.where(rev, second, first), np.where(rev, first, second)
        return (self.encode(c[i], self.shifted[b_j[i], first], self.shifted[b_k[i], second], x),
                count)

    def crossings(self, m, lags, weights, twists, wraps):
        """Pairs of lag s < h_(m-1) from the top of column j to the bottom of
        column j + 1 (for a cyclic table, also from the last column to column
        0).  Across a gap of g spacers such a pair spans n = s - g levels: top
        level size - n + k and bottom level k, for k in range(n).  Per group
        of `boundaries`, the weight of a span n sums the weights of the lags
        g + n over the group's gaps g; the pairs of a span are listed once per
        table that weighs it.  Here the pairs are weighed, listed by index
        and refused over the cap, before the depths below are counted, and
        `crossed` keys them after: (size, per group its entries and the
        tables, spans, weights and runs of its pairs)."""
        size = int(lags.max()) if lags.size else 0
        if not size:
            return size, []
        # the refusal `edge` met when it was called here: a window taller
        # than the cap and than the depth-n0 tower, which spans several
        # columns of a deeper one
        if size > max(self.tower.cap, self.heights[self.n0]):
            raise SizeCapError(f"{size} edge levels exceed cap {self.tower.cap}")
        lag_weights = self.weight_table(len(weights), size + 1, "crossing weights")
        lag_weights[:, lags] = weights
        groups = []
        for delta, cyclic, tables in self.twist_classes(twists, wraps):
            rows = lag_weights if tables is None else lag_weights * tables[:, None]
            for b_1, b_2, d_1, gap_counts in self.boundaries(m, cyclic, delta):
                # one correlation for all rows, each padded past its gaps
                reach = gap_counts[:size][::-1]
                width = size + reach.size
                padded = self.weight_table(len(rows), width, "crossing weights")
                padded[:, :size + 1] = rows
                span_weights = np.convolve(padded.ravel(), reach)[reach.size - 1:].reshape(
                    len(rows), width)[:, 1:size + 1]
                c, span = span_weights.nonzero()
                groups.append(((b_1, b_2, d_1), c, span, span_weights[c, span],
                               *_runs(span + 1, self.tower.cap)))
        return size, groups

    def crossed(self, m, size, groups, twists):
        """The keys of `crossings`' pairs, their words read off the top and
        bottom `size` levels of the depth-(m-1) tower; pairs from spacers
        are dropped."""
        if not groups:
            return []
        top, bottom = self.edge(m - 1, size, True), self.edge(m - 1, size, False)
        parts = []
        for (b_1, b_2, d_1), c, span, weight, run, k in groups:
            i1 = size - 1 - span[run] + k
            keep = ((top[0][i1] >= 0) & (bottom[0][k] >= 0)).nonzero()[0]
            run, i1, k = run[keep], i1[keep], k[keep]
            first = (top[0], (top[1] + b_1) % self.kappa,
                     (self.act(-b_1, top[2]) + self.images[0, d_1]) % self.orders)
            second = (bottom[0], (bottom[1] + b_2) % self.kappa, self.act(-b_2, bottom[2]))
            parts.append(self.pair_keys(first, i1, second, k, c[run], weight[run], twists))
        return parts

    def raw(self, asked):
        """Table i of the pairs (l, l + step) of the cyclic depth-d tower, for
        (d, step) the i-th of asked, in decreasing depth from the counter's
        depth to n0; keys may repeat."""
        for depth, _ in asked:
            if not self.n0 <= depth <= self.tower.depth:
                raise ParameterError(f"no depth-{self.n0} cylinders in a depth-{depth} tower")
        steps = [step % self.heights[asked[0][0]] for depth, step in asked if depth == asked[0][0]]
        lags = sorted(set(steps))
        weights = np.eye(len(lags), dtype=np.int64)[[lags.index(step) for step in steps]]
        return _joined(self.pairs(asked[0][0], np.array(lags), weights, np.zeros(len(steps), int),
                                  len(steps), asked[len(steps):]))

    def count(self, asked):
        """Fold the tables of every (depth, step) asked, the step taken modulo
        the depth's height, from one `raw` call, and keep each: raw key
        (c, g, b, f, b', x) goes to the bucket
        ((g n_cyl + f) kappa + s) |A| + w of table c, for the transition value
        (s, w) = (b - b', theta^b x), theta^b a permutation of the indices.
        Split by `_split` and merged by `_merged`, a table's buckets are
        distinct and sorted, each with the exact sum of its raw counts."""
        asked = sorted({(depth, step % self.heights[depth]) for depth, step in asked},
                       reverse=True)
        n_cyl, kappa, _, _, n_a = self.shape
        key, count = self.raw(asked)
        c, first, second, x = self.decode(key)
        (g, b1), (f, b2) = _split(first, kappa), _split(second, kappa)
        size = n_cyl * n_cyl * kappa * n_a
        bucket = ((g * n_cyl + f) * kappa + _split(b1 - b2, kappa)[1]) * n_a
        if n_a > 1:
            bucket += self.image_index[b1, x]
        if len(asked) > 1:  # table c's buckets after those of the tables before it
            bucket += c * size
        bucket, count = _merged([(bucket, count)])
        ends = bucket.searchsorted(np.arange(len(asked) + 1) * size).tolist()
        for c, table in enumerate(asked):
            key = bucket[ends[c]:ends[c + 1]]
            key -= c * size
            self.tables[table] = key, count[ends[c]:ends[c + 1]]

    def folded(self, depth, step):
        """The folded table of (depth, step), counted alone unless counted:
        how a table is counted when the joint `count` pass that asked for it
        met a refusal, which stores no table."""
        step %= self.heights[depth]
        if (depth, step) not in self.tables:
            self.count([(depth, step)])
        return self.tables[depth, step]


def _eta_values(counter: _PairCounter, depth: int, steps: tuple[int, ...], eta_exp: int):
    """Per s in steps, the cells (g, f) the folded table reaches, coded
    g n_cyl + f and sorted, and V[g, f] = <U_eta^s 1_f, 1_g> at each, over
    the depth-`depth` tower; every other cell of V is 0.  A folded bucket,
    split as `_split` splits, adds count * eta(s), s the pair's group
    exponent, to its cell, summed in order of s by one bincount, as a dense
    contraction would, after a counter with the module sums each (g, f,
    s)'s run of module values exactly."""
    n_cyl, kappa, _, _, n_a = counter.shape
    phases = np.exp(2j * np.pi * eta_exp * np.arange(kappa) / kappa)
    tables = []
    for step in steps:
        key, count = counter.folded(depth, step)
        if n_a > 1:
            key, count = _merged([(key // n_a, count)])
        cell, s = _split(key, kappa)
        cells = cell[_starts(cell)]
        values = np.empty(cells.size, dtype=complex)
        values.real = np.bincount(cell, count * phases.real[s], n_cyl * n_cyl)[cells]
        values.imag = np.bincount(cell, count * phases.imag[s], n_cyl * n_cyl)[cells]
        values /= counter.heights[depth]
        tables.append((cells, values))
    return tables


def _chi_values(counter: _PairCounter, depth: int, steps: tuple[int, ...], d,
                phase_order: int):
    """Per s in steps, the cells (g, f) the folded table reaches, coded
    g n_cyl + f and sorted, and V[e_u, e_v, g, f] = <U_chi^s (1_f x
    eta_{e_u}), 1_g x eta_{e_v}> at each, shape (kappa, kappa, cells), over
    the depth-`depth` tower; every other cell of V is 0.

    A folded bucket (g, f, s, w), split as `_split` splits, (s, w) the
    transition value, adds count * eta_{e_u}(s) * G[e_u - e_v, w] to entry
    (g, f), G the group-state sum of the character, gathered at the buckets
    once per step.  Each entry sums its terms from zero in bucket order and
    is divided by h kappa last: how np.einsum("gfsw,s,w->gf", ...) rounds
    over the dense buckets while an entry's kappa |A| terms fit in numpy's
    8192-element iterator buffer, at a cost in the nonzero buckets only.
    """
    kappa, h, images = counter.kappa, counter.heights[depth], counter.images
    n_cyl, n_a = counter.shape[0], images.shape[1]

    # G[e, w] = sum over k of chi_d(theta^k w) * e^{2 pi i e k / kappa}
    weights = _pairing_weights(counter.orders, d, phase_order)
    chi_vals = np.exp(2j * np.pi * ((images @ weights) % phase_order) / phase_order)
    phases = np.array([[cmath.exp(2j * cmath.pi * e * k / kappa) for k in range(kappa)]
                       for e in range(kappa)])
    g_table = np.zeros((kappa, n_a), dtype=complex)
    for k in range(kappa):
        g_table += chi_vals[k] * phases[:, k, None]
    eta_phase = np.exp(2j * np.pi * np.arange(kappa)[:, None] * np.arange(kappa)[None, :] / kappa)

    e_v, n_bins = np.arange(kappa), kappa * n_cyl * n_cyl
    tables = []
    for step in steps:
        key, count = counter.folded(depth, step)
        cell, s = _split(key, kappa * n_a)
        s, w = _split(s, n_a)
        cells = cell[_starts(cell)]
        # row r of e_u's terms sums to bin (r, g, f), read as entry (e_u, e_u - r)
        g_re, g_im = g_table.real.take(w, axis=1), g_table.imag.take(w, axis=1)
        bins = (e_v[:, None] * (n_cyl * n_cyl) + cell).ravel()
        reached = (e_v[:, None] * (n_cyl * n_cyl) + cells).ravel()
        del cell, w  # before the terms, whose temporaries set the peak
        values, shape = np.empty((kappa, kappa, cells.size), dtype=complex), (kappa, cells.size)
        for e_u, rows in enumerate((e_v[:, None] - e_v) % kappa):  # rows e_u - e_v
            t_re, t_im = _cmul(count, 0.0, eta_phase.real[e_u, s], eta_phase.imag[e_u, s])
            t_re, t_im = _cmul(t_re, t_im, g_re, g_im)
            values.real[e_u, rows] = np.bincount(bins, t_re.ravel(), n_bins)[reached].reshape(shape)
            values.imag[e_u, rows] = np.bincount(bins, t_im.ravel(), n_bins)[reached].reshape(shape)
        values /= h * kappa
        tables.append((cells, values))
    return tables


# The weak limit of U^{h_(n-1)} at a labelled stage n, on a probe's table:
#     pred = delta (a <1_f, 1_g> + b <U 1_g, 1_f>*) + c mu_f mu_g.
# (component kind, label kind) -> (prediction kind, (a, b, c) from the
# label's phase lam, eta(k) on a rotate stage and chi's orbit average L(a)
# on a translate stage, and delta); b None drops the one-step term, c None
# the mean term.  A trivial chi takes its label's eta entry.
_PREDICTIONS = {
    ("eta", LABEL_RIGID_TRANSLATE): ("partial_rigidity", lambda lam, d: (1, None, 1 - d)),
    ("eta", LABEL_RIGID_ROTATE): ("rotation", lambda lam, d: (lam, None, 1 - d)),
    ("eta", LABEL_DELAYED_TRANSLATE): ("delayed", lambda lam, d: (1, 1, 1 - 2 * d)),
    ("chi", LABEL_RIGID_TRANSLATE): ("orbit_average", lambda lam, d: (lam, None, None)),
    ("chi", LABEL_DELAYED_TRANSLATE): ("delayed_orbit_average", lambda lam, d: (1, lam, None)),
}


def _weak_limit_prediction(coefficients, lam, delta, inner, adjoint, mean):
    """A ``_PREDICTIONS`` entry at some cells, as (real, imaginary) arrays:
    inner and mean hold <1_f, 1_g> and mu_f mu_g there, and adjoint, a
    (real, imaginary) pair read only when b is given, <U 1_g, 1_f>*.  The
    rounding is fixed: (delta a) inner without a one-step term, and
    delta (b U* + inner), for a = 1, with it; c P is added last whenever c
    is given, zero tables included.  Every step acts entry by entry, so a
    cell's prediction does not depend on which other cells are asked.
    """
    a, b, c = coefficients(lam, delta)
    if b is None:
        da = delta * a
        re, im = _cmul(da.real, da.imag, inner, 0.0)
    else:
        re, im = _cmul(b.real, b.imag, *adjoint)
        re, im = _cadd_real(re, im, inner)
        re, im = _cmul(delta, 0.0, re, im)
    if c is not None:
        re, im = _cadd_real(re, im, c * mean)
    return re, im


def _by_side(sides, size: int, diagonal) -> np.ndarray:
    """A last axis of `size` holding sides[..., 0] at the `diagonal` indices
    and sides[..., 1] at the others."""
    out = np.empty((*sides.shape[:-1], size), dtype=sides.dtype)
    out[...] = sides[..., 1:]
    out[..., diagonal] = sides[..., :1]
    return out


def _spread(values, at, size: int, fill: float) -> np.ndarray:
    """values placed at `at` along a last axis of `size`, fill elsewhere."""
    out = np.full((*values.shape[:-1], size), fill, dtype=values.dtype)
    out[..., at] = values
    return out


def _prediction_tables(plan, n: int, inner, mean, tables) -> _CellTables:
    """The probe's values, prediction and deviations as ``_CellTables``.

    inner and mean are given by side, [..., 0] on the diagonal g = f and
    [..., 1] off it.  The explicit cells are those the value table
    reaches and, with a one-step term, the transposed cells the one-step
    table reaches: the adjoint swaps u and v, the axis pairs (e_u, e_v)
    and (g, f).  Every other cell holds value 0 and one-step entry 0,
    whose conjugate is (0.0, -0.0); its prediction is evaluated once per
    side from those, with the same arithmetic as an explicit cell's.
    """
    cells, values = tables[0]
    adjoint = None
    if len(plan.steps) > 1:  # tables[1] is the one-step table
        step_cells, step_values = tables[1]
        g, f = _split(step_cells, n)
        flipped = f * n + g
        reached, cells = cells, np.union1d(cells, flipped)
        values = _spread(values, cells.searchsorted(reached), cells.size, 0.0)
        at, lead = cells.searchsorted(flipped), values.ndim - 1
        step_values = step_values.transpose(*(np.arange(lead) ^ 1).tolist(), lead)
        adjoint = (_spread(step_values.real, at, cells.size, 0.0),
                   _spread(-step_values.imag, at, cells.size, -0.0))
    # where the diagonal cells g n + g lie among the explicit ones
    on = np.arange(n) * (n + 1)
    at = cells.searchsorted(on)
    diagonal = at[cells.take(at, mode="clip") == on]
    sides = _weak_limit_prediction(plan.coefficients, plan.lam, plan.delta, inner,
                                   (np.zeros(inner.shape), np.full(inner.shape, -0.0)), mean)
    if adjoint is None:  # the prediction is one value per side
        explicit = tuple(_by_side(part, cells.size, diagonal) for part in sides)
    else:
        explicit = _weak_limit_prediction(
            plan.coefficients, plan.lam, plan.delta, _by_side(inner, cells.size, diagonal),
            adjoint, _by_side(mean, cells.size, diagonal))
    zeros = np.zeros(inner.shape, dtype=complex)
    return _CellTables(n, cells, diagonal, {
        "values": (values, zeros),
        "pred_re": (explicit[0], sides[0]),
        "pred_im": (explicit[1], sides[1]),
        "deviations": (_deviations(values, *explicit), _deviations(zeros, *sides)),
    })


@dataclass
class _ProbePlan:
    """A component that passed its checks: its prediction's entry, the label
    phase lam, the stage's delta and the steps its tables are counted at."""

    kind: str
    payload: object
    trivial: bool
    prediction_kind: str
    coefficients: object
    lam: complex
    delta: float
    steps: tuple[int, ...]


def _probe_plan(session, stage_index: int, component) -> _ProbePlan:
    """The checks of one component at one stage, in the order weak_limit_probe
    documents, and what its prediction reads; builds no table."""
    depth = session.schedule.depth
    if not 1 <= stage_index <= depth:
        raise ParameterError(f"no stage {stage_index} in a {depth}-stage schedule")
    label = session.label(stage_index)
    kind, payload = component
    if kind not in ("eta", "chi"):
        raise CharacterTypeError(f"unknown component kind {kind!r}")
    if (kind, label.kind) not in _PREDICTIONS:
        raise LabelError(f"no {kind} prediction for a {label.kind!r} stage")
    kappa = session.k_order
    n_cyl = session.schedule.height(session.config.cylinder_level)
    # the dense table the report's rows render: n_cyl^2 rows for eta,
    # counted kappa times over, and (kappa n_cyl)^2 for chi, whose module
    # images theta^k w (_module_tables) are built whenever it is counted
    if kind == "eta":
        session.triple.k_group.check((payload,))
        trivial = payload == 0
        entries = n_cyl * n_cyl * kappa
    else:
        module = session.ctx.module
        module.check(payload)
        trivial = not any(payload)
        entries = max((kappa * n_cyl) ** 2, kappa * module.size * module.rank)
    if entries > session.config.state_cap:
        raise SizeCapError(f"probe table of {entries} entries exceeds cap {session.config.state_cap}")
    pred_kind, coefficients = _PREDICTIONS["eta" if trivial else kind, label.kind]
    lam = 1
    if label.kind == LABEL_RIGID_ROTATE:
        lam = cmath.exp(2j * cmath.pi * payload * label.k / kappa)
    elif kind == "chi" and not trivial:
        chi = session.duality.character_of_dual(payload)
        lam = orbit_average(session.duality.dual_action, chi, label.a).value()
    stage = session.stage(stage_index)
    delta = float(stage.delta) if stage.delta is not None else stage.i_count / stage.r_count
    steps = (stage.base_height,) if coefficients(lam, delta)[1] is None else (stage.base_height, 1)
    return _ProbePlan(kind, payload, trivial, pred_kind, coefficients, lam, delta, steps)


def _or_error(function, *args):
    """function(*args), or the CfspectraError it raises, rid of the frames
    (and counters) its traceback holds."""
    try:
        return function(*args)
    except CfspectraError as exc:
        return exc.with_traceback(None)


def _probe_report(session, stage_index: int, plan: _ProbePlan,
                  counter: _PairCounter) -> WeakLimitReport:
    """The component's tables, read off the counter, against its prediction,
    for mu the measure of every depth-n0 cylinder in the stage's tower."""
    stage, n0, kappa = session.stage(stage_index), session.config.cylinder_level, session.k_order
    n_cyl = session.schedule.height(n0)
    mu = session.tower_at(stage_index).cylinder_size(n0) / session.schedule.height(stage_index)
    payload = plan.payload
    family = {"cylinder_level": n0, "cylinders": n_cyl}
    # <1_f x eta_e, 1_g x eta_e'> = [f = g][e = e'] mu_f, and the means
    # multiply to mu_f mu_g [e = e' = 0]; an eta table has no e axes, and its
    # mean is nonzero only for eta trivial
    if plan.kind == "eta":
        tables = _eta_values(counter, stage_index, plan.steps, payload)
        chars, means = 1.0, float(plan.trivial)
        record = {"kind": "eta", "eta": payload}
    else:
        tables = _chi_values(counter, stage_index, plan.steps, payload, session.root_order)
        chars = np.eye(kappa)
        means = chars * (np.arange(kappa) == 0)
        record = {"kind": "chi", "d": list(payload)}
        family["group_characters"] = kappa
    # the inner products and means on the diagonal g = f ([..., 0]) and off it
    inner = np.multiply.outer(chars, mu * np.array([1.0, 0.0]))
    mean = np.multiply.outer(means, np.full(2, mu * mu))
    return WeakLimitReport(
        stage_index=stage.index, label=session.label(stage_index), component=record,
        family=family, prediction_kind=plan.prediction_kind,
        tables=_prediction_tables(plan, n_cyl, inner, mean, tables),
        tolerance=PROBE_TOLERANCE_FACTOR / stage.r_count,
    )


def stage_probes(session, probes: dict) -> dict:
    """weak_limit_probe of each component at each stage, from one pair counter.

    ``probes`` maps a stage index to its components; returns, per stage,
    one WeakLimitReport or one CfspectraError per component, in order.
    Every component's checks run first.  Then one counter, on the full
    tower, counts every step of every stage in one top-down pass, carrying
    the module only if a chi component passed its checks.  Each stage's
    tables are divided by its own height, and its predictions take its own
    mu.  A refusal met in that pass (an array over the cap, a key past the
    int64 range, a stage below the cylinder level) stores no table, and
    each component then has its tables counted alone by the same counter,
    one step at a time, reusing what the pass built: each component that
    asks for a refused table gets that count's refusal, and the other
    stages report.
    """
    checked = {n: [_or_error(_probe_plan, session, n, component) for component in components]
               for n, components in probes.items()}
    plans = [(n, plan) for n, stage in checked.items() for plan in stage
             if isinstance(plan, _ProbePlan)]
    if plans:
        counter = _PairCounter(session.tower_at(), session.config.cylinder_level,
                               any(plan.kind == "chi" for _, plan in plans))
        _or_error(counter.count, [(n, step) for n, plan in plans for step in plan.steps])
    return {n: [_or_error(_probe_report, session, n, p, counter) if isinstance(p, _ProbePlan)
                else p for p in stage]
            for n, stage in checked.items()}


def weak_limit_probe(session, stage_index: int, component) -> WeakLimitReport:
    """Exact power-average table at one stage against its class prediction.

    ``component`` is ("eta", e), e in range(kappa), or ("chi", d), d an
    element of the module; the stage's label decides the predicted limit,
    over the cylinders of the session's cylinder level.  The tolerance is 3
    over the stage's column count; exceeding it is reported, and the right
    response is a larger stage, never a looser gate.  This is stage_probes
    of one stage and one component, whose refusal is raised.

    Nothing is built for a refused probe.  A stage outside 1..depth raises
    ParameterError, an unknown component kind CharacterTypeError, a
    component the label has no prediction for (a plain stage, or chi on a
    rotate stage) LabelError, and an e or d outside its group
    InvalidElementError.  Then SizeCapError is raised where the dense
    table the report's rows render has more entries than the state cap,
    counted as n_cyl^2 kappa for eta, kappa times its rows, and for chi as
    the larger of its (kappa n_cyl)^2 rows and the module images the
    probe builds, kappa |A| rank(A).  The refusals met while counting are
    stage_probes'.  The report's tables are as WeakLimitReport describes.
    """
    (result,) = stage_probes(session, {stage_index: [component]})[stage_index]
    if isinstance(result, CfspectraError):
        raise result
    return result


# Complex arithmetic on (real, imaginary) array pairs.  Each step rounds as
# the scalar complex operation it replaces, signed zeros included, so the
# report rows do not depend on how numpy vectorises complex multiplication.


def _cmul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _cadd_real(ar, ai, x):
    """(ar + i ai) + x for real x, which adds x + 0i."""
    return ar + x, ai + 0.0


def _deviations(values, pred_re, pred_im):
    """|value - pred| per entry, through hypot as the scalar abs() computes it."""
    deviations = values.real - pred_re
    return np.hypot(deviations, values.imag - pred_im, out=deviations)


def _pairs(a, b) -> list:
    """[a, b] per element of two equal-shaped arrays, in C order."""
    return np.stack([a.ravel(), b.ravel()], axis=1).tolist()


# ---------------------------------------------------------------------------
# correlation decay
# ---------------------------------------------------------------------------


@dataclass
class DecayRow:
    lag: int
    pair: tuple[int, int]
    value: Fraction

    def to_csv_row(self) -> str:
        return f"{self.lag},{self.pair[0]}-{self.pair[1]},{self.value.numerator},{self.value.denominator}"


def _column_pairs(cuts: np.ndarray, below: int, t: np.ndarray) -> np.ndarray:
    """u = t - c_j + c_k per difference t, column j and column k with
    |u| < `below`, the height of the tower the cuts stack; shape (t.size, r,
    2).  Cuts lie at least `below` apart, so each (t, j) has at most two
    such k, the first with c_k > c_j - t - below and the next; -below marks
    a missing k, as no two copies below differ by it.
    """
    x = cuts - t[:, None]  # c_j - t
    k = np.searchsorted(cuts, x - below, side="right")[..., None] + np.arange(2)
    u = cuts[np.minimum(k, cuts.size - 1)] - x[..., None]
    return np.where((k < cuts.size) & (u < below), u, -below)


def _difference_table(stages, base: int) -> np.ndarray:
    """L(t) = #{(x, y) in O^2 : x - y = t} at every -h <= t < h, indexed
    t + h, for O the bottoms of the height-`base` copies that `stages` stack
    into a tower of height h.  O after a stage is O before it placed at
    each cut c_j, so the new counts are sum_(j,k) L(t - (c_j - c_k)): two
    passes of slice adds, first M(v) = sum_k L(v - (c_last - c_k)), then
    sum_j M(t - c_j).
    """
    table = np.zeros(2 * base, dtype=np.int64)
    table[base] = 1
    for st in stages:
        last = st.cuts[-1]
        partial = np.zeros(last + table.size, dtype=np.int64)
        for c in st.cuts:
            partial[last - c:last - c + table.size] += table
        table = np.zeros(2 * st.new_height, dtype=np.int64)
        for c in st.cuts:
            table[c:c + partial.size] += partial
    return table


def _difference_counts(stages, base: int, t: np.ndarray, cap: int) -> np.ndarray:
    """L(t), as in _difference_table, at the differences t alone, -h <= t < h:
    the top stage sums L below it over the pairs of _column_pairs.  While
    the pairs are fewer than the entries of the table below, L below is
    asked at their distinct differences alone, the same way; else that
    table is built and read, at most max(r, below) (t, j) at a time.  So a
    stage is tabled only where the pairs asked of it outnumber its entries,
    and refused before either is built where the fewer exceed the cap.
    """
    if not stages:
        return (t == 0).astype(np.int64)
    st = stages[-1]
    below = st.base_height
    size = min(t.size * st.r_count, below)
    if size > cap:
        raise SizeCapError(f"decay pairs of {size} entries exceed cap {cap}")
    cuts = np.array(st.cuts, dtype=np.int64)
    if t.size * cuts.size < below:
        asked, where = np.unique(_column_pairs(cuts, below, t), return_inverse=True)
        counts = _difference_counts(stages[:-1], base, asked, cap)
        return counts[where.reshape(t.size, -1)].sum(axis=1)
    table = _difference_table(stages[:-1], base)
    step = max(1, below // cuts.size)
    return np.concatenate([table[_column_pairs(cuts, below, t[i:i + step]) + below].sum(axis=(1, 2))
                           for i in range(0, t.size, step)])


def _shift_counts(tower: Tower, n0: int, shifts: np.ndarray) -> np.ndarray:
    """#{(x, y) in O^2 : x - y = s mod h} per shift 0 <= s < h, for O the
    starts of the depth-n0 copies in the tower, of height h.  As x - y lies
    in (-h, h), the count at s is L(s) + L(s - h), for L the
    difference counts of _difference_counts, and O is never listed.  Every
    count formed is at most |O| (a difference pairs each x with at most one
    y), and |O| <= h < 2^63, so the int64 counts are exact.
    """
    h, schedule = tower.height, tower.schedule
    t = np.concatenate([shifts, shifts - h])
    counts = _difference_counts(schedule.stages[n0:tower.depth], schedule.height(n0), t,
                                tower.cap)
    return counts[:shifts.size] + counts[shifts.size:]


def correlation_decay(tower: Tower, pairs, lags, n0: int = 1) -> list[DecayRow]:
    """Exact |mu(T^lag A & B) - mu(A) mu(B)| per cylinder pair (A, B) = (f, g) and lag.
    Cylinder f is O + f, for O the starts of the depth-n0 copies, so
    T^lag A & B has |O & (O - (lag + f - g))| levels: a count of the
    differences of O at one shift mod h, read off the stage cuts
    (_shift_counts) with O never listed.  Every cylinder has |O| = prod r
    levels.  Pairs and lags that land on the same shift share one count and
    one value.  A cylinder level outside 0..depth is refused first.
    """
    tower.check_cylinder_level(n0)
    h = tower.height
    n_cyl = tower.schedule.height(n0)
    for f, g in pairs:
        if not (0 <= f < n_cyl and 0 <= g < n_cyl):
            raise ParameterError(
                f"cylinder pair ({f}, {g}) outside the {n_cyl} depth-{n0} cylinders")
    lags = [int(lag) for lag in lags]
    for lag in lags:
        if not 0 <= lag < h:
            raise LagRangeError(f"lag {lag} outside the height-{h} model")
    size = tower.cylinder_size(n0)
    offsets = np.array(sorted({f - g for f, g in pairs}), dtype=np.int64)
    shifts = np.unique(np.add.outer(np.array(lags, dtype=np.int64), offsets) % h)
    counts = _shift_counts(tower, n0, shifts)
    value = {s: Fraction(abs(c * h - size * size), h * h)
             for s, c in zip(shifts.tolist(), counts.tolist())}
    return [DecayRow(lag, (f, g), value[(lag + f - g) % h]) for lag in lags for f, g in pairs]


def decay_csv(rows) -> str:
    lines = ["lag,pairId,value_numerator,value_denominator"]
    lines += [r.to_csv_row() for r in rows]
    return "\n".join(lines) + "\n"


def sample_lags(lo: int, hi: int, count: int = 24) -> list[int]:
    """Deterministic evenly spaced lag sample in [lo, hi]."""
    if hi < lo:
        raise LagRangeError(f"empty lag window [{lo}, {hi}]")
    if hi - lo + 1 <= count:
        return list(range(lo, hi + 1))
    return sorted({lo + (hi - lo) * j // (count - 1) for j in range(count)})


# ---------------------------------------------------------------------------
# disjointness certificates and the multiplicity report
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    """Either a conjugation witness or an exact separating orbit average."""

    equivalent: bool
    witness_k: int | None = None
    separating_a: tuple | None = None
    l_left: CyclotomicSum | None = None
    l_right: CyclotomicSum | None = None

    def to_dict(self) -> dict:
        out = {"equivalent": self.equivalent, "witness_k": self.witness_k}
        if self.separating_a is not None:
            out["separating_a"] = list(self.separating_a)
            out["l_left"] = [list(self.l_left.coeffs), self.l_left.denominator,
                             self.l_left.root_order]
            out["l_right"] = [list(self.l_right.coeffs), self.l_right.denominator,
                              self.l_right.root_order]
        return out


def disjointness_certificates(duality, chars) -> dict:
    """Certificate of every pair i < j of the characters, keyed (i, j) in order.

    A related pair gets a conjugation witness, the least k with
    chi_i o theta^k = chi_j (each character's conjugates listed once).  The
    others share one lazy search for a separating element, in element order,
    one element per orbit, as orbit averages are constant on orbits; each
    orbit's images are taken once, one product of them gives the averages
    of every character with an open pair, and a pair closes at the first
    orbit whose averages differ, the element an exhaustive scan of that
    pair finds.  By the finite-level orbit-average
    identity the search succeeds for unrelated characters, so a failed
    search raises.
    """
    action = duality.dual_action
    if any(chi.group != action.module for chi in chars):
        raise CharacterTypeError("certificates live on the dual module")
    pairs = [(i, j) for i in range(len(chars)) for j in range(i + 1, len(chars))]
    certs = {}
    conjugates = {}
    for i, j in pairs:
        if i not in conjugates:
            # the least k per conjugate, so a witness is the first k that fits
            conjugates[i] = {}
            for k, exponents in enumerate(conjugate_exponents(action, chars[i])):
                conjugates[i].setdefault(exponents, k)
        k = conjugates[i].get(chars[j].exponents)
        if k is not None:
            certs[(i, j)] = Certificate(equivalent=True, witness_k=k)
    open_pairs = [p for p in pairs if p not in certs]
    if open_pairs:
        seen = set()
        for a in action.module.iter_elements():
            if a in seen:
                continue
            images = orbit_images(action, a)
            seen.update(map(tuple, images.tolist()))
            open_chars = sorted({c for p in open_pairs for c in p})
            averages = dict(zip(open_chars, orbit_averages(
                action, [chars[c] for c in open_chars], images)))
            still_open = []
            for i, j in open_pairs:
                if cyclo_equal(averages[i], averages[j]):
                    still_open.append((i, j))
                else:
                    certs[(i, j)] = Certificate(False, None, a, averages[i], averages[j])
            open_pairs = still_open
            if not open_pairs:
                break
        else:
            raise ConsistencyError(
                "unrelated characters with identical orbit averages on the whole "
                "module; the finite-level separation identity is violated"
            )
    return {p: certs[p] for p in pairs}


def disjointness_certificate(duality, chi: Character, chi2: Character) -> Certificate:
    """Conjugation witness if the characters are related, else a separating a:
    the two-character case of disjointness_certificates."""
    return disjointness_certificates(duality, (chi, chi2))[(0, 1)]


@dataclass
class MultiplicityReport:
    targets: tuple[int, ...]
    mode: str
    trace_counts: set[int]
    classes: tuple  # the trace partition of D, as the triple holds it
    class_sizes: list[int]
    multiplicities: set[int]
    equivalence_verdicts: dict
    overlap_fractions: dict
    certificates: dict
    notes: list = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return set(self.class_sizes) == self.trace_counts

    def to_dict(self) -> dict:
        return {
            "targets": list(self.targets),
            "mode": self.mode,
            "trace_counts": sorted(self.trace_counts),
            "classes": [[list(d) for d in cls] for cls in self.classes],
            "class_sizes": self.class_sizes,
            "multiplicities": sorted(self.multiplicities),
            "equivalence_verdicts": {str(k): v for k, v in self.equivalence_verdicts.items()},
            "overlap_fractions": {str(k): v for k, v in self.overlap_fractions.items()},
            "certificates": {str(k): c.to_dict() for k, c in self.certificates.items()},
            "notes": self.notes,
            "consistent": self.consistent,
        }


def factor_classes(session):
    """Partition of the nonzero factor characters by the conjugation relation.

    Characters indexed by D decompose into traces of acting-group orbits;
    the class of d is orbit(d) & D, as the triple holds them.
    """
    return session.triple.classes


def multiplicity_report(session) -> MultiplicityReport:
    """Class decomposition, size set, equivalence evidence and certificates.
    The classes are the traces orbit(d) & D of the nonzero d in D, so the
    trace counts are the class sizes, checked against the targets where the
    triple is assembled and dualized.  In product mode the square factor
    adjoins 2 to the reported multiplicities."""
    mode = session.mode
    classes = factor_classes(session)
    class_sizes = [len(c) for c in classes]
    mult = set(class_sizes)
    notes = []
    if mode == MODE_PRODUCT:
        mult = mult | {2}
        notes.append(
            "product mode: the square factor contributes homogeneous "
            "multiplicity 2; represented algebraically, not spectrally"
        )

    # every chi component shares one closed-form spectrum, so spectra
    # coincide within each class and overlap fully across classes
    verdicts = {i: dict.fromkeys(range(session.k_order), True) for i in range(len(classes))}
    reps = [session.duality.character_of_dual(cls[0]) for cls in classes]
    certs = disjointness_certificates(session.duality, reps)
    overlaps = dict.fromkeys(certs, 1.0)
    if overlaps:
        notes.append(
            "cross-class spectral overlap is expected at finite level (all "
            "eigenvalues are roots of unity); disjointness evidence is the "
            "separating orbit averages, never the overlap fraction"
        )
    return MultiplicityReport(
        targets=session.config.targets,
        mode=mode,
        trace_counts=set(class_sizes),
        classes=classes,
        class_sizes=class_sizes,
        multiplicities=mult,
        equivalence_verdicts=verdicts,
        overlap_fractions=overlaps,
        certificates=certs,
        notes=notes,
    )
