"""Cut-and-stack tower schedules: the cut rule, chaining and validation.

A stage takes the current tower of height h and cuts it into r columns; the
cut set lists the base offset of every column inside the next tower.  One
rule, ``cut_stage``, places the columns in three runs: a rigid run of i
columns with no spacers, then (delayed kind only) an offset run of i
columns with one spacer each, then a staircase run whose columns get 1, 2,
... spacers.  A pure staircase is the rigid rule with column 0 alone in the
rigid run, recorded with i = 0.

Heights chain minimally: the next height is the last cut plus the current
height, so there are never spacers above the last column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParameterError, ScheduleError, SizeCapError
from .finite_algebra import ENUMERATION_CAP

KIND_RIGID_STAIRCASE = "rigid_staircase"
KIND_DELAYED_STAIRCASE = "delayed_staircase"
KIND_STAIRCASE = "staircase"

REGIME_RIGID = "rigid"
REGIME_OFFSET = "offset"
REGIME_STAIRCASE = "staircase"

MAX_HEIGHT = 2**63 - 1  # levels are int64 in every per-level array
# the staircase mixing ratio i^2/h may not increase from this stage on
MIXING_NONINCREASING_FROM = 3


@dataclass(frozen=True)
class CFStage:
    """One cutting stage: base height, cut offsets and their regime tags."""

    index: int
    base_height: int
    cuts: tuple[int, ...]
    i_count: int
    r_count: int
    kind: str
    regimes: tuple[str, ...]
    delta: Fraction | None = None
    block: int | None = None

    def __post_init__(self):
        if self.cuts[0] != 0:
            raise ParameterError("first cut must be 0")
        if len(self.cuts) != self.r_count or self.r_count < 2:
            raise ParameterError("need r > 1 cuts")
        if list(self.cuts) != sorted(set(self.cuts)):
            raise ParameterError("cuts must be strictly increasing")

    @property
    def new_height(self) -> int:
        return self.base_height + self.cuts[-1]

    def min_gap(self) -> int:
        return min(b - a for a, b in zip(self.cuts, self.cuts[1:]))

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "base_height": self.base_height,
            "cuts": list(self.cuts),
            "i_count": self.i_count,
            "r_count": self.r_count,
            "kind": self.kind,
            "regimes": list(self.regimes),
            "delta": [self.delta.numerator, self.delta.denominator] if self.delta else None,
            "block": self.block,
        }


def cut_stage(kind: str, h: int, i: int, r: int, *, index: int = 1, delta=None,
              block=None) -> CFStage:
    """The stage of the given kind cutting a height-h tower into r columns.

    Column j sits h levels above column j - 1 plus its spacers: none in the
    rigid run (columns 0..i-1), one each in the offset run (the next i
    columns, delayed kind only), and 1, 2, ... in the staircase run.  The
    staircase kind ignores i and delta: its rigid run is column 0 alone.
    """
    if kind == KIND_STAIRCASE:
        if r < 2:
            raise ParameterError(f"need r > 1, got r={r}")
        i, delta, rigid, offset = 0, None, 1, 0
    elif kind == KIND_RIGID_STAIRCASE:
        if not (0 < i <= r) or r < 2:
            raise ParameterError(f"need 0 < i <= r and r > 1, got i={i}, r={r}")
        rigid, offset = i, 0
    elif kind == KIND_DELAYED_STAIRCASE:
        if not (0 < 2 * i <= r):
            raise ParameterError(f"need 0 < 2i <= r, got i={i}, r={r}")
        rigid, offset = i, i
    else:
        raise ScheduleError(f"unknown stage kind {kind!r}")
    cuts, regimes = [0], [REGIME_RIGID]
    for j in range(1, r):
        if j < rigid:
            spacers, regime = 0, REGIME_RIGID
        elif j < rigid + offset:
            spacers, regime = 1, REGIME_OFFSET
        else:
            spacers, regime = j - rigid - offset, REGIME_STAIRCASE
        cuts.append(cuts[-1] + h + spacers)
        regimes.append(regime)
    return CFStage(index, h, tuple(cuts), i, r, kind, tuple(regimes),
                   Fraction(delta) if delta is not None else None, block)


@dataclass(frozen=True)
class CFSchedule:
    """A chained sequence of stages; stage n maps the height-h_{n-1} tower into h_n."""

    initial_height: int
    stages: tuple[CFStage, ...]
    _heights: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        hs = [self.initial_height]
        for n, st in enumerate(self.stages, start=1):
            if st.base_height != hs[-1]:
                raise ScheduleError(
                    f"stage {n} has base height {st.base_height}, expected {hs[-1]}"
                )
            if st.index != n:
                raise ScheduleError(f"stage {n} carries index {st.index}")
            hs.append(st.new_height)
        object.__setattr__(self, "_heights", tuple(hs))

    @property
    def depth(self) -> int:
        return len(self.stages)

    def heights(self) -> tuple[int, ...]:
        """(h_0, h_1, ..., h_depth), computed once at construction."""
        return self._heights

    def height(self, n: int) -> int:
        """h_n; n = 0 is the initial height."""
        return self._heights[n]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "initial_height": self.initial_height,
            "stages": [st.to_dict() for st in self.stages],
        }


def build_schedule(initial_height: int, stage_specs) -> CFSchedule:
    """Chain the stages that cut_stage builds from the specs, in order.

    stage_specs: iterable of dicts with keys kind ('rigid_staircase' |
    'delayed_staircase' | 'staircase'), r, and i/delta/block as applicable.
    The cut sets hold at most ENUMERATION_CAP columns in all, which is
    checked before a stage is built, and no tower is taller than MAX_HEIGHT;
    either excess raises SizeCapError.
    """
    stages = []
    h = initial_height
    columns = 0
    for n, spec in enumerate(stage_specs, start=1):
        columns += spec["r"]
        if columns > ENUMERATION_CAP:
            raise SizeCapError(
                f"stages 1..{n} have {columns} columns, over the cap {ENUMERATION_CAP}")
        st = cut_stage(spec["kind"], h, spec.get("i", 0), spec["r"], index=n,
                       delta=spec.get("delta"), block=spec.get("block"))
        stages.append(st)
        h = st.new_height
        if h > MAX_HEIGHT:
            raise SizeCapError(f"stage {n} tower height {h} exceeds {MAX_HEIGHT} levels")
    return CFSchedule(initial_height, tuple(stages))


# ---------------------------------------------------------------------------
# delta blocks
# ---------------------------------------------------------------------------


def rigid_count(delta: Fraction, r: int, kind: str = KIND_RIGID_STAIRCASE) -> int:
    """Number of rigid columns approximating delta * r.

    Rounds to nearest (so |i/r - delta| <= 1/r even after clamping to 1);
    the delayed shape additionally needs 2i <= r.
    """
    i = max(1, round(Fraction(delta) * r))
    if kind == KIND_DELAYED_STAIRCASE:
        i = min(i, r // 2)
    return i


@dataclass(frozen=True)
class DeltaBlock:
    """A run of stages sharing one rigidity fraction delta.

    The field names are the keys of a block in a config document.
    """

    delta: Fraction
    stages: int
    r_start: int | None = None  # default: max(2, 1-based block position)
    r_seq: tuple[int, ...] | None = None  # explicit per-stage counts, overrides r_start

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 < self.delta < 1:
            raise ScheduleError(f"delta must be in (0,1), got {self.delta}")
        if self.stages < 1:
            raise ScheduleError("block needs at least one stage")
        if self.r_seq is not None:
            object.__setattr__(self, "r_seq", tuple(self.r_seq))
            if len(self.r_seq) != self.stages:
                raise ScheduleError("r_seq must match block size")

    def column_counts(self, position: int) -> list[int]:
        """Per-stage column counts for this block at its 1-based position."""
        if self.r_seq is not None:
            return list(self.r_seq)
        start = self.r_start if self.r_start is not None else max(2, position)
        return [start + j for j in range(self.stages)]


def concat_delta_blocks(blocks, initial_height: int = 1, kinds=None) -> CFSchedule:
    """Concatenate delta blocks into one schedule.

    Deltas must be strictly decreasing across blocks.  Heights chain across
    the seams (each block starts from the previous block's final tower) and
    the column count inside block b runs r, r+1, ... starting from
    max(2, b) unless the block overrides r_start.  ``kinds`` gives one cut
    kind per stage, in order; by default every stage is rigid_staircase.
    """
    blocks = list(blocks)
    deltas = [b.delta for b in blocks]
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ScheduleError(f"deltas must be strictly decreasing, got {deltas}")
    stages = [(pos, blk, r) for pos, blk in enumerate(blocks, start=1)
              for r in blk.column_counts(pos)]
    if kinds is None:
        kinds = [KIND_RIGID_STAIRCASE] * len(stages)
    elif len(kinds) != len(stages):
        raise ScheduleError(f"need one cut kind per stage: {len(kinds)} for {len(stages)}")
    # a staircase stage ignores i and delta
    specs = [{"kind": kind, "r": r, "block": pos, "i": rigid_count(blk.delta, r, kind),
              "delta": blk.delta} for (pos, blk, r), kind in zip(stages, kinds)]
    return build_schedule(initial_height, specs)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    stage_checks: list = field(default_factory=list)
    ratios: list = field(default_factory=list)  # h_n / prod(#C) as Fractions
    ratio_bound: float = 0.0
    ratio_bounded: bool = True
    spacer_fraction: Fraction = Fraction(0)
    mixing_ratios: list = field(default_factory=list)  # i_n^2 / h_{n-1}
    mixing_trend_ok: bool = True
    failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        frac = lambda f: [f.numerator, f.denominator]
        return {
            "stage_checks": self.stage_checks,
            "ratios": [frac(r) for r in self.ratios],
            "ratio_bound": self.ratio_bound,
            "ratio_bounded": self.ratio_bounded,
            "spacer_fraction": frac(self.spacer_fraction),
            "mixing_ratios": [frac(r) for r in self.mixing_ratios],
            "mixing_trend_ok": self.mixing_trend_ok,
            "failures": self.failures,
            "warnings": self.warnings,
            "ok": self.ok,
        }


def validate(schedule: CFSchedule, ratio_bound: float = 100.0) -> ValidationReport:
    """Per-stage and global sanity checks; failures are carried, not raised."""
    rep = ValidationReport(ratio_bound=ratio_bound)
    cut_product = 1
    for st in schedule.stages:
        checks = {"index": st.index}
        checks["zero_in_cuts"] = st.cuts[0] == 0
        checks["count_gt_1"] = st.r_count > 1
        checks["columns_disjoint"] = st.min_gap() >= st.base_height
        checks["no_top_spacer"] = st.new_height == st.cuts[-1] + st.base_height
        if st.delta is not None and st.i_count > 0:
            err = abs(Fraction(st.i_count, st.r_count) - st.delta)
            checks["delta_tracking"] = err <= Fraction(1, st.r_count)
        if st.kind == KIND_STAIRCASE:
            diffs = [b - a for a, b in zip(st.cuts, st.cuts[1:])]
            checks["staircase_second_difference"] = all(
                d2 - d1 == 1 for d1, d2 in zip(diffs, diffs[1:])
            )
            rep.warnings.append(
                f"stage {st.index}: pure staircase (diagnostic-only shape, i=0)"
            )
        for name, good in checks.items():
            if name != "index" and not good:
                rep.failures.append(f"stage {st.index}: {name}")
        rep.stage_checks.append(checks)

        cut_product *= st.r_count
        rep.ratios.append(Fraction(st.new_height, cut_product * schedule.initial_height))
        rep.mixing_ratios.append(Fraction(st.i_count**2, st.base_height))

    if rep.ratios:
        if any(b < a for a, b in zip(rep.ratios, rep.ratios[1:])):
            rep.warnings.append("mass ratio decreased; schedule is not minimally chained")
        if float(rep.ratios[-1]) > ratio_bound:
            rep.ratio_bounded = False
            rep.failures.append(
                f"mass ratio {float(rep.ratios[-1]):.3g} exceeds bound {ratio_bound}"
            )
        rep.spacer_fraction = 1 - Fraction(1, rep.ratios[-1])

    tail = rep.mixing_ratios[MIXING_NONINCREASING_FROM - 1 :]
    if any(b > a for a, b in zip(tail, tail[1:])):
        rep.mixing_trend_ok = False
        rep.warnings.append(
            "staircase mixing ratio i^2/h increases beyond stage "
            f"{MIXING_NONINCREASING_FROM}"
        )
    return rep
