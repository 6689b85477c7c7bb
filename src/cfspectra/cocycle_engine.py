"""Stage labels, per-stage cocycle maps, coordinate words and exact evaluation.

The cocycle into the semidirect product K x| A is assembled from per-stage
tables on the cut sets.  A point of the height-h_m tower is identified by a
coordinate word (residual height at the least depth where the level exists,
then one cut per deeper stage); the cocycle value between two levels is the
product of the per-stage table entries along one word times the inverse of
the product along the other.  Every cut set starts at 0 and every table
maps cut 0 to the identity, so the stages below a word's least depth
contribute nothing and are not walked; the evaluation is well defined.

SemidirectContext owns the resolved entry tables: it checks a maps tuple's
entries once, when it first serves the tuple, and keeps them until another
tuple is served.  Its powers of theta are the action's own table.

A Tower is a depth of the schedule with its stage tables; it lists no
level, and reads its cylinder starts off the cuts.  TowerModel adds flat
numpy arrays for bulk work: per-level word products, with the module part
kept untwisted, from which the transition values of any power of the
successor map follow in closed form (step_values); it reads theta's
matrices off the action's one stack.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

import numpy as np

from .cf_builder import (
    KIND_DELAYED_STAIRCASE,
    KIND_RIGID_STAIRCASE,
    KIND_STAIRCASE,
    CFSchedule,
    CFStage,
)
from .errors import InvalidElementError, LabelError, PairError, ParameterError, SizeCapError
from .finite_algebra import ENUMERATION_CAP, FiniteAbelianGroup, GroupAutomorphism, ModuleAction

LABEL_RIGID_TRANSLATE = "rigid_translate"  # stage pushes the module part by -a
LABEL_RIGID_ROTATE = "rigid_rotate"  # stage pushes the acting-group part by -k
LABEL_DELAYED_TRANSLATE = "delayed_translate"  # module push arrives one column late
LABEL_PLAIN = "plain"

MODE_DIRECT = "direct"  # translate/rotate classes only; realizes sets containing 1
MODE_PRODUCT = "product"  # adds delayed-translate classes; realizes sets containing 2

_KIND_FOR_LABEL = {
    LABEL_RIGID_TRANSLATE: (KIND_RIGID_STAIRCASE, KIND_DELAYED_STAIRCASE),
    LABEL_RIGID_ROTATE: (KIND_RIGID_STAIRCASE, KIND_DELAYED_STAIRCASE),
    LABEL_DELAYED_TRANSLATE: (KIND_DELAYED_STAIRCASE,),
    LABEL_PLAIN: (KIND_RIGID_STAIRCASE, KIND_DELAYED_STAIRCASE, KIND_STAIRCASE),
}


@dataclass(frozen=True)
class StageLabel:
    """Which recurrence class a stage belongs to, with its target payload."""

    kind: str
    k: int | None = None  # acting-group target (rotate labels)
    a: tuple[int, ...] | None = None  # module target (translate labels)

    def __post_init__(self):
        if self.kind not in _KIND_FOR_LABEL:
            raise LabelError(f"unknown label kind {self.kind!r}")
        if self.kind == LABEL_RIGID_ROTATE and self.k is None:
            raise LabelError("rotate label needs a group target")
        if self.kind in (LABEL_RIGID_TRANSLATE, LABEL_DELAYED_TRANSLATE) and self.a is None:
            raise LabelError("translate label needs a module target")

    def to_dict(self):
        return {"kind": self.kind, "k": self.k, "a": list(self.a) if self.a else None}


def label_cycle(module: FiniteAbelianGroup, k_order: int, mode: str):
    """Deterministic target cycle: one translate, (one delayed,) one rotate per turn.

    Module targets and group targets advance independently through their
    finite-level enumerations, so every target recurs with bounded gaps.
    Translate target j is module element j (mod |A|) in element order and
    rotate target j is j mod k_order, each drawn when it is needed, so the
    module is never listed.
    """
    if mode not in (MODE_DIRECT, MODE_PRODUCT):
        raise LabelError(f"unknown mode {mode!r}")
    kinds = [LABEL_RIGID_TRANSLATE]
    if mode == MODE_PRODUCT:
        kinds.append(LABEL_DELAYED_TRANSLATE)
    kinds.append(LABEL_RIGID_ROTATE)

    def generator():
        counters = {LABEL_RIGID_TRANSLATE: 0, LABEL_DELAYED_TRANSLATE: 0,
                    LABEL_RIGID_ROTATE: 0}
        while True:
            for kind in kinds:
                i = counters[kind]
                counters[kind] += 1
                if kind == LABEL_RIGID_ROTATE:
                    yield StageLabel(kind, k=i % k_order)
                else:
                    yield StageLabel(kind, a=module.element_by_index(i % module.size))

    return generator()


# ---------------------------------------------------------------------------
# per-stage maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CocycleStageMaps:
    """Tables on one cut set: group part and module part, indexed like the cuts."""

    stage_index: int
    cuts: tuple[int, ...]
    beta: tuple[int, ...]  # exponents in the cyclic acting group
    alpha: tuple[tuple[int, ...], ...]  # module elements

    def __post_init__(self):
        if self.cuts[0] != 0:
            raise LabelError(f"cut set starts at {self.cuts[0]}, not 0")
        if self.beta[0] != 0 or any(self.alpha[0]):
            raise LabelError("tables must map cut 0 to the identity")
        if not (len(self.beta) == len(self.alpha) == len(self.cuts)):
            raise LabelError("table length mismatch")

    def entries(self, ctx: "SemidirectContext") -> dict:
        """Cut -> table entry (group exponent, module element) in ctx's K x| A,
        every entry checked; identity entries map to None so that products can
        skip them.  The context keeps the tables it resolves (ctx.tables)."""
        table = {}
        for c, b, a in zip(self.cuts, self.beta, self.alpha):
            ctx.check((b, a))
            table[c] = (b, a) if b or any(a) else None
        return table

    def to_dict(self):
        return {
            "stage_index": self.stage_index,
            "cuts": list(self.cuts),
            "beta": list(self.beta),
            "alpha": [list(a) for a in self.alpha],
        }


def stage_maps(label: StageLabel, stage: CFStage, k_order: int,
               module: FiniteAbelianGroup) -> CocycleStageMaps:
    """Build the cocycle tables a stage label prescribes on the stage's cuts.

    Translate labels step the module part by -a through the rigid run (the
    delayed variant waits out the rigid run and steps through the offset
    run); rotate labels do the same to the group part.  Beyond the stepping
    range the tables are constant.
    """
    if stage.kind not in _KIND_FOR_LABEL[label.kind]:
        raise LabelError(
            f"label {label.kind!r} incompatible with stage shape {stage.kind!r}"
        )
    r, i = stage.r_count, stage.i_count
    zero = module.zero()
    beta = [0] * r
    alpha = [zero] * r
    if label.kind == LABEL_RIGID_TRANSLATE:
        module.check(label.a)
        for j in range(1, r):
            step = label.a if j <= i - 1 else zero
            alpha[j] = module.sub(alpha[j - 1], step)
    elif label.kind == LABEL_RIGID_ROTATE:
        for j in range(1, r):
            step = label.k if j <= i - 1 else 0
            beta[j] = (beta[j - 1] - step) % k_order
    elif label.kind == LABEL_DELAYED_TRANSLATE:
        module.check(label.a)
        for j in range(1, r):
            step = label.a if i <= j <= 2 * i - 1 else zero
            alpha[j] = module.sub(alpha[j - 1], step)
    return CocycleStageMaps(stage.index, stage.cuts, tuple(beta), tuple(alpha))


# ---------------------------------------------------------------------------
# coordinate words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateWord:
    """Canonical coordinates of a tower level at a given depth.

    ``least_depth`` is the smallest stage index at which the level exists
    (0 for levels of the base tower, n for spacers introduced by stage n);
    ``residual`` is the height inside that stage's tower and ``cuts`` lists
    the chosen cut of every deeper stage.
    """

    depth: int
    least_depth: int
    residual: int
    cuts: tuple[int, ...]  # cuts for stages least_depth+1 .. depth


def canonical_word(level: int, schedule: CFSchedule, depth: int | None = None) -> CoordinateWord:
    """Greedy decomposition of a level into per-stage cuts plus a residual."""
    if depth is None:
        depth = schedule.depth
    heights = schedule.heights()
    if not 0 <= level < heights[depth]:
        raise PairError(f"level {level} outside tower of height {heights[depth]}")
    cuts = []
    rest = level
    for n in range(depth, 0, -1):
        st = schedule.stages[n - 1]
        # the unique column of stage n containing the residual, if any: cuts
        # start at 0 and columns are disjoint, so only the column at the last
        # cut <= rest can hold it; past that column's top, rest is a spacer
        c = st.cuts[bisect_right(st.cuts, rest) - 1]
        if rest >= c + st.base_height:
            return CoordinateWord(depth, n, rest, tuple(reversed(cuts)))
        cuts.append(c)
        rest -= c
    return CoordinateWord(depth, 0, rest, tuple(reversed(cuts)))


# ---------------------------------------------------------------------------
# exact cocycle evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemidirectContext:
    """Arithmetic in the semidirect product (Z/k_order) x| module."""

    # plain fields, not read through the action: _mul/_inv use them on every product
    k_order: int
    module: FiniteAbelianGroup
    action: ModuleAction  # of Z/k_order on the module
    # [the last maps tuple served, its resolved entry tables], kept by tables()
    _resolved: list = field(default_factory=lambda: [None, []], init=False, compare=False,
                            repr=False)

    def identity(self):
        return (0, self.module.zero())

    def tables(self, maps_by_stage, depth: int) -> list[dict]:
        """Entry tables of the first `depth` stages in this K x| A.  A tuple of maps is
        resolved once and kept, matched by identity, until another tuple is served;
        a list is resolved on every call, so a changed list is seen."""
        held, tables = self._resolved
        if held is maps_by_stage and len(tables) >= depth:
            return tables
        tables = [m.entries(self) for m in maps_by_stage[:depth]]
        if type(maps_by_stage) is tuple:
            self._resolved[:] = (maps_by_stage, tables)
        return tables

    @cached_property
    def _automorphisms(self) -> tuple[GroupAutomorphism, ...]:
        """theta^0 .. theta^(k_order - 1): the action's own power table."""
        return self.action.powers

    def check(self, g):
        """g, if it is an element: an int exponent in [0, k_order) and a module element."""
        k, a = g
        if not isinstance(k, int) or not 0 <= k < self.k_order:
            raise InvalidElementError(f"{k!r} is not an element of Z/{self.k_order}")
        self.module.check(a)
        return g

    def mul(self, g1, g2):
        return self._mul(self.check(g1), self.check(g2))

    # The unchecked kernel: operands are elements already checked (table
    # entries, products of them), with group exponents reduced mod k_order.
    # Exponent 0 acts as the identity, so its application is skipped.

    def _mul(self, g1, g2):
        k1, a1 = g1
        k2, a2 = g2
        if k1:
            a2 = self._automorphisms[k1]._apply(a2)
        return ((k1 + k2) % self.k_order, self.module.add(a1, a2))

    def _inv(self, g):
        k, a = g
        k = (-k) % self.k_order
        if k:
            a = self._automorphisms[k]._apply(a)
        return (k, self.module.neg(a))


def _product(word: CoordinateWord, tables, ctx: SemidirectContext):
    """Left-to-right product of the non-identity entries along a word's own cuts (the
    stages below its least depth sit at cut 0, the identity); None if there are none."""
    g = None
    for table, c in zip(tables[word.least_depth:], word.cuts):
        entry = table[c]
        if entry is not None:
            g = entry if g is None else ctx._mul(g, entry)
    return g


def evaluate_cocycle(x: CoordinateWord, y: CoordinateWord, maps_by_stage,
                     ctx: SemidirectContext):
    """Exact cocycle value between two levels of a common-depth tower.

    Computed as product(x) * product(y)^{-1}; the per-stage tables send cut 0
    to the identity, so the stages below a word's least depth contribute
    nothing and the cocycle identity holds exactly.  The tables are resolved
    by the context (see SemidirectContext.tables).
    """
    if x.depth != y.depth:
        raise PairError(f"words at depths {x.depth} and {y.depth}")
    tables = ctx.tables(maps_by_stage, x.depth)
    gx = _product(x, tables, ctx)
    gy = _product(y, tables, ctx)
    if gy is None:
        return ctx.identity() if gx is None else gx
    gy = ctx._inv(gy)
    return gy if gx is None else ctx._mul(gx, gy)


# ---------------------------------------------------------------------------
# bulk model
# ---------------------------------------------------------------------------


def _step_difference(x: np.ndarray, steps: int, modulus) -> np.ndarray:
    """(x_l - x_{l+steps}) mod modulus per level of a cyclic array reduced mod modulus.

    The cyclic shift is taken as two slices into one output, and the modulus
    is added back where the difference is negative.
    """
    h = len(x)
    s = steps % h
    out = np.empty_like(x)
    np.subtract(x[:h - s], x[s:], out=out[:h - s])
    np.subtract(x[h - s:], x[:s], out=out[h - s:])
    np.add(out, modulus, out=out, where=out < 0)
    return out


class Tower:
    """A tower at some depth as its stages and their cocycle tables; no level is listed.

    A depth outside 0..(number of stages) is refused; its height is not, as
    `cap` bounds the arrays built over it, each where it is built.
    """

    def __init__(self, schedule: CFSchedule, depth: int, maps_by_stage,
                 ctx: SemidirectContext, cap: int = ENUMERATION_CAP):
        if not 0 <= depth <= schedule.depth:
            raise ParameterError(f"no depth-{depth} tower in a {schedule.depth}-stage schedule")
        self.schedule = schedule
        self.depth = depth
        self.height = schedule.height(depth)
        self.cap = cap
        self.ctx = ctx
        self.maps_by_stage = maps_by_stage

    def check_cylinder_level(self, n0: int):
        """Refuse a cylinder level outside 0..depth."""
        if not 0 <= n0 <= self.depth:
            raise ParameterError(f"no depth-{n0} cylinders in a depth-{self.depth} tower")

    def cylinder_size(self, n0: int) -> int:
        """|O|, the number of depth-n0 copies in the tower and so the levels of
        each depth-n0 cylinder: every stage past n0 copies the tower below it
        once per column, so the product of those column counts."""
        self.check_cylinder_level(n0)
        return prod(st.r_count for st in self.schedule.stages[n0:self.depth])

    def cylinder_starts(self, n0: int) -> np.ndarray:
        """Bottom level of every depth-n0 copy, increasing: each stage past n0
        places the tower below it at each of its cuts, an outer sum of offsets."""
        self.check_cylinder_level(n0)
        starts = np.zeros(1, dtype=np.int64)
        for st in self.schedule.stages[n0:self.depth]:
            starts = (np.array(st.cuts, dtype=np.int64)[:, None] + starts).ravel()
        return starts


class TowerModel(Tower):
    """Flat-array view of a tower at some depth, with its cocycle data.

    Levels are 0..h-1; the map is +1 cyclically.  ``word_beta`` holds the
    group exponent beta_l of each level's word product (beta_l, alpha_l) and
    ``word_untwisted`` its module part untwisted, theta^(-beta_l) alpha_l.
    Transition values and any power of the skew map follow from these in
    closed form.  A model taller than the cap is refused before its level
    arrays are built.
    """

    def __init__(self, schedule: CFSchedule, depth: int, maps_by_stage,
                 ctx: SemidirectContext, cap: int = ENUMERATION_CAP):
        super().__init__(schedule, depth, maps_by_stage, ctx, cap)
        if self.height > cap:
            raise SizeCapError(f"tower height {self.height} exceeds cap {cap}")
        self._build_word_products()

    # -- pure tower structure ------------------------------------------------

    def cylinder_ids(self, n0: int) -> np.ndarray:
        """Per-level id of the depth-n0 cylinder containing it; -1 for deeper spacers."""
        starts = self.cylinder_starts(n0)
        h = self.schedule.height(n0)
        ids = np.full(self.height, -1, dtype=np.int64)
        ids[starts[:, None] + np.arange(h)] = np.arange(h)
        return ids

    # -- cocycle arrays -------------------------------------------------------

    def _build_word_products(self):
        ctx = self.ctx
        orders = self._orders = np.array(ctx.module.orders, dtype=np.int64)
        self._theta_mats = ctx.action.matrices
        rank = len(orders)
        kappa = ctx.k_order
        h0 = self.schedule.initial_height
        beta = np.zeros(h0, dtype=np.int64)
        alpha = np.zeros((h0, rank), dtype=np.int64)
        for st, tables in zip(self.schedule.stages[: self.depth], self.maps_by_stage):
            h_prev = st.base_height
            nb = np.zeros(st.new_height, dtype=np.int64)
            na = np.zeros((st.new_height, rank), dtype=np.int64)
            # a column's block depends only on the previous stage and the
            # cut's table entry, so each distinct entry is computed once, at
            # its first cut, and copied to the later ones
            first_cut = {}
            for c, b_c, a_c in zip(st.cuts, tables.beta, tables.alpha):
                seg = slice(c, c + h_prev)
                c0 = first_cut.setdefault((b_c, a_c), c)
                if c0 != c:
                    nb[seg] = nb[c0:c0 + h_prev]
                    na[seg] = na[c0:c0 + h_prev]
                    continue
                nb[seg] = (beta + b_c) % kappa
                # (b, theta^b u) * (b_c, a_c) = (b + b_c, theta^b (u + a_c)),
                # whose untwisted module part theta^(-b_c) (u + a_c) needs
                # one matrix for the whole block; the block is written in place
                block = na[seg]
                block[:] = alpha
                if any(a_c):
                    block += a_c
                    block %= orders
                if b_c:
                    np.remainder(block @ self._theta_mats[-b_c % kappa].T, orders, out=block)
            beta, alpha = nb, na
        self.word_beta = beta
        self.word_untwisted = alpha

    def _apply_theta_pow(self, exps: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """theta^{exps[l]}(vecs[l]) per level, for vectors reduced mod the orders.

        Levels are grouped by exponent: exponent 0 keeps its vector, and each
        exponent k >= 1 that occurs takes one matrix product for its levels.
        """
        out = vecs.copy()
        for k in range(1, self.ctx.k_order):
            at = np.flatnonzero(exps == k)
            if at.size:
                out[at] = vecs[at] @ self._theta_mats[k].T % self._orders
        return out

    def step_values(self, steps: int):
        """Transition (group exponent, module vector) per level for +steps.

        Value at level l is product(word l) * product(word l+steps)^{-1}
        = (beta_l - beta_{l+steps}, theta^beta_l (u_l - u_{l+steps})) for the
        untwisted module parts u.
        """
        d_beta = _step_difference(self.word_beta, steps, self.ctx.k_order)
        d_untwisted = _step_difference(self.word_untwisted, steps, self._orders)
        return d_beta, self._apply_theta_pow(self.word_beta, d_untwisted)
