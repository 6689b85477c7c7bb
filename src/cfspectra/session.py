"""Session assembly: config -> algebra + schedule + cocycle, and bundle I/O.

A session bundles everything one run needs: the algebraic triple with its
dual-side record, the tower schedule with stage labels, and the per-stage
cocycle tables.  Bundles serialize to a directory of canonical JSON files;
identical configs produce byte-identical bundles (sorted keys, no
timestamps, no floats in the payload).  `render_bundle` is the only writer
of the format: `save_bundle` stores its output and `load_bundle` refuses a
bundle whose stored files differ from it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from itertools import islice, zip_longest
from math import lcm
from pathlib import Path

from .cf_builder import (
    KIND_DELAYED_STAIRCASE,
    KIND_RIGID_STAIRCASE,
    KIND_STAIRCASE,
    MAX_HEIGHT,
    CFSchedule,
    DeltaBlock,
    ValidationReport,
    build_schedule,
    concat_delta_blocks,
    validate,
)
from .cocycle_engine import (
    LABEL_DELAYED_TRANSLATE,
    LABEL_PLAIN,
    MODE_DIRECT,
    MODE_PRODUCT,
    CocycleStageMaps,
    SemidirectContext,
    StageLabel,
    Tower,
    TowerModel,
    label_cycle,
    stage_maps,
)
from .errors import BundleError, ConfigError, ScheduleError, SizeCapError
from .koopman_lab import DEFAULT_STATE_CAP
from .module_factory import AlgebraicTriple, CompactTower, DualityRecord, assemble_triple, compactify, dualize

SCHEMA_VERSION = 1

SHAPE_DELTA_BLOCKS = "delta_blocks"
SHAPE_STAIRCASE = "staircase"
SHAPE_ARITHMETIC = "arithmetic"

BUNDLE_FILES = ("config.json", "algebra.json", "schedule.json", "cocycle.json")
# every file render_bundle writes: the hashed payload, then the two it derives
RENDERED_FILES = (*BUNDLE_FILES, "validation.json", "manifest.json")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


def _is_delta(x) -> bool:
    """A [numerator, denominator] pair, or anything Fraction() reads."""
    if isinstance(x, list):
        return len(x) == 2 and _is_int_list(x) and x[1] != 0
    try:
        Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        return False
    return True


def _optional(check):
    return lambda x: x is None or check(x)


# accepted keys of a config document and a test of each value's type; the
# top level takes exactly what SessionConfig.to_dict writes, a block exactly
# the DeltaBlock fields
_CONFIG_SCHEMA = {
    "schema_version": _is_int,
    "mode": lambda x: isinstance(x, str),
    "targets": _is_int_list,
    "shape": lambda x: isinstance(x, str),
    "blocks": lambda x: isinstance(x, list),
    "r_seq": _is_int_list,
    "algebra_depth": _optional(_is_int),
    "initial_height": _is_int,
    "cylinder_level": _is_int,
    "state_cap": _is_int,
    "ratio_bound": lambda x: _is_int(x) or isinstance(x, float),
    "spectra_depth": _optional(_is_int),
}
_BLOCK_SCHEMA = {
    "delta": _is_delta,
    "stages": _is_int,
    "r_start": _optional(_is_int),
    "r_seq": _optional(_is_int_list),
}


def _required(cls) -> tuple[str, ...]:
    """The fields of a dataclass that have no default."""
    return tuple(f.name for f in fields(cls) if f.default is MISSING)


def _check_keys(doc, schema, required, path: str) -> None:
    """Raise ConfigError, naming the key path, unless doc is an object whose
    keys are all in the schema, include the required ones, and hold values
    of the schema's types."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(doc).__name__}")
    prefix = f"{path}." if path else ""
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config key {prefix}{unknown[0]}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing config key {prefix}{key}")
    for key, value in doc.items():
        if not schema[key](value):
            raise ConfigError(f"malformed value for config key {prefix}{key}: {value!r}")


def _block_from_dict(doc, i: int) -> DeltaBlock:
    path = f"blocks[{i}]"
    _check_keys(doc, _BLOCK_SCHEMA, _required(DeltaBlock), path)
    delta = doc["delta"]
    delta = Fraction(*delta) if isinstance(delta, list) else delta
    try:
        return DeltaBlock(**dict(doc, delta=delta))
    except ScheduleError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _to_json_value(x):
    """A config value as JSON: tuples as lists, fractions as [num, den] and
    blocks as objects keyed by their field names."""
    if isinstance(x, DeltaBlock):
        return {f.name: _to_json_value(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    if isinstance(x, tuple):
        return [_to_json_value(v) for v in x]
    return x


@dataclass(frozen=True)
class SessionConfig:
    """Everything a deterministic run is derived from.

    The field names are the keys of a config document.
    """

    mode: str
    targets: tuple[int, ...]
    shape: str = SHAPE_DELTA_BLOCKS
    blocks: tuple[DeltaBlock, ...] = ()  # for delta_blocks
    r_seq: tuple[int, ...] = ()  # per-stage column counts for staircase/arithmetic
    algebra_depth: int | None = None
    initial_height: int = 1
    cylinder_level: int = 1
    state_cap: int = DEFAULT_STATE_CAP
    ratio_bound: float = 100.0
    spectra_depth: int | None = None  # depth of the spectra dump; None: the full depth

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(sorted(set(int(t) for t in self.targets))))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for i, blk in enumerate(self.blocks):
            if not isinstance(blk, DeltaBlock):
                raise ConfigError(f"blocks[{i}]: expected a DeltaBlock, got {type(blk).__name__}")
        object.__setattr__(self, "r_seq", tuple(int(r) for r in self.r_seq))
        if self.mode not in (MODE_DIRECT, MODE_PRODUCT):
            raise ScheduleError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_DIRECT and 1 not in self.targets:
            raise ScheduleError(
                "direct mode realizes the class-size set itself, so the target "
                "set must contain 1; use product mode for sets containing 2"
            )
        if self.mode == MODE_PRODUCT and 2 not in self.targets:
            raise ScheduleError(
                "product mode adjoins 2 via the square factor, so the target "
                "set must contain 2"
            )
        if self.shape not in (SHAPE_DELTA_BLOCKS, SHAPE_STAIRCASE, SHAPE_ARITHMETIC):
            raise ScheduleError(f"unknown shape {self.shape!r}")
        if self.shape == SHAPE_DELTA_BLOCKS and not self.blocks:
            raise ScheduleError("delta_blocks shape needs at least one block")
        if self.shape in (SHAPE_STAIRCASE, SHAPE_ARITHMETIC) and not self.r_seq:
            raise ScheduleError(f"{self.shape} shape needs an explicit r_seq")
        if self.shape == SHAPE_ARITHMETIC and self.mode != MODE_DIRECT:
            raise ScheduleError("arithmetic shape has no delayed stages; use direct mode")
        if not 0 <= self.cylinder_level <= self.num_stages:
            raise ConfigError(
                f"malformed value for config key cylinder_level: {self.cylinder_level!r} "
                f"(a depth of the {self.num_stages}-stage schedule)")
        # json reads NaN and Infinity, which would turn the mass-ratio gate off
        if isinstance(self.ratio_bound, float) and not math.isfinite(self.ratio_bound):
            raise ConfigError(f"malformed value for config key ratio_bound: "
                              f"{self.ratio_bound!r} (a finite number)")
        # every mass ratio h_n / (h_0 r_1 ... r_n) is at least 1
        if self.ratio_bound < 1:
            raise ConfigError(f"malformed value for config key ratio_bound: "
                              f"{self.ratio_bound!r} (a bound of at least 1)")
        for key, what in (("algebra_depth", "depth"), ("spectra_depth", "depth"),
                          ("initial_height", "height"), ("state_cap", "cap")):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigError(
                    f"malformed value for config key {key}: {value!r} (a {what} of at least 1)")
        # the algebra of the first algebra_depth targets, with the square
        # factor's 2 in product mode, must realize every target, or the
        # bundle's multiplicity suite can never pass
        if self.algebra_depth is not None:
            realized = set(self.targets[:self.algebra_depth])
            if self.mode == MODE_PRODUCT:
                realized.add(2)
            if self.algebra_depth > len(self.targets) or realized != set(self.targets):
                raise ConfigError(
                    f"malformed value for config key algebra_depth: {self.algebra_depth!r} "
                    f"(a depth of at most {len(self.targets)} whose algebra realizes the "
                    f"targets {list(self.targets)})")
        # a stage needs two columns: refused here by key, not when scheduled
        for key, seq in [("r_seq", self.r_seq)] + [(f"blocks[{i}].r_seq", blk.r_seq or ())
                                                  for i, blk in enumerate(self.blocks)]:
            if min(seq, default=2) < 2:
                raise ConfigError(f"malformed value for config key {key}: {list(seq)!r} "
                                  "(column counts of at least 2)")
        for i, blk in enumerate(self.blocks):
            if blk.r_start is not None and blk.r_start < 2:
                raise ConfigError(f"malformed value for config key blocks[{i}].r_start: "
                                  f"{blk.r_start!r} (a column count of at least 2)")

    @property
    def num_stages(self) -> int:
        if self.shape == SHAPE_DELTA_BLOCKS:
            return sum(b.stages for b in self.blocks)
        return len(self.r_seq)

    def to_dict(self) -> dict:
        doc = {f.name: _to_json_value(getattr(self, f.name)) for f in fields(self)}
        return {"schema_version": SCHEMA_VERSION, **doc}

    @classmethod
    def from_dict(cls, d: dict) -> "SessionConfig":
        """Build a config from its JSON document; raises ConfigError naming the key path.

        The accepted keys are those ``to_dict`` writes; ``mode`` and
        ``targets`` are required, and so are ``delta`` and ``stages`` in
        every block.  A key whose value has the wrong type is refused too.
        An absent key takes its field's default; a ``schema_version`` other
        than this version's is refused.
        """
        _check_keys(d, _CONFIG_SCHEMA, _required(cls), "")
        version = d.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported value for config key schema_version: {version!r} "
                f"(this version reads {SCHEMA_VERSION})")
        kwargs = {k: v for k, v in d.items() if k != "schema_version"}
        if "blocks" in kwargs:
            kwargs["blocks"] = tuple(_block_from_dict(b, i) for i, b in enumerate(d["blocks"]))
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SessionConfig":
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


_ESCAPE = json.encoder.encode_basestring_ascii  # the function json.dumps escapes with
_INF = float("inf")


def _float_text(x) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# the text of each scalar type, by exact type
_SCALAR_TEXT = {
    str: _ESCAPE,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _leaf_text(o) -> str:
    """The text of a scalar as json writes it: by its exact type, else as the
    str, int or float its type subclasses; anything else is refused as json
    refuses it."""
    text = _SCALAR_TEXT.get(type(o))
    if text is not None:
        return text(o)
    for base in (str, int, float):
        if isinstance(o, base):
            return _SCALAR_TEXT[base](o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _key_text(k) -> str:
    if isinstance(k, str):
        return _ESCAPE(k) + ": "
    if k is None or isinstance(k, (int, float)):
        return f'"{_leaf_text(k)}": '
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(o, lead: str, nl: str, out: list) -> None:
    """Append the text of o to out, with lead (the separator and indent before
    it) joined to its first fragment; nl is the line break and indent of o's
    own level.  Each scalar inside o is one fragment, joined to its lead."""
    if isinstance(o, dict):
        items, opening, closing = sorted(o.items()), "{", "}"
    elif isinstance(o, (list, tuple)):
        items, opening, closing = o, "[", "]"
    else:
        out.append(lead + _leaf_text(o))
        return
    if not items:
        out.append(lead + opening + closing)
        return
    inner = nl + " "
    sep = "," + inner
    lead += opening + inner
    keyed = opening == "{"
    for v in items:
        if keyed:
            k, v = v
            lead += _key_text(k)
        text = _SCALAR_TEXT.get(type(v))
        if text is None:
            _write(v, lead, inner, out)
        else:
            out.append(lead + text(v))
        lead = sep
    out.append(nl + closing)


def canonical_json(doc) -> str:
    """The canonical text of a JSON document: exactly
    ``json.dumps(doc, sort_keys=True, indent=1) + "\\n"``.

    Keys are sorted as json sorts them, one value per line indented by one
    space per level, strings ASCII-escaped, floats as their repr (``NaN``,
    ``Infinity``, ``-Infinity``), and a final newline.  A value or key that
    json.dumps refuses raises TypeError.  Written directly, since an indent
    sends json.dumps to its pure-Python encoder; tests/test_canonical_json.py
    holds the two equal.
    """
    out = []
    _write(doc, "", "\n", out)
    out.append("\n")
    return "".join(out)


@dataclass
class Session:
    config: SessionConfig
    triple: AlgebraicTriple
    tower: CompactTower
    duality: DualityRecord
    ctx: SemidirectContext
    schedule: CFSchedule
    labels: tuple[StageLabel, ...]
    maps: tuple[CocycleStageMaps, ...]
    validation: ValidationReport

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def k_order(self) -> int:
        return self.triple.k_order

    @property
    def root_order(self) -> int:
        """Common root-of-unity order for all component phases."""
        return lcm(self.k_order, self.duality.dual_module.exponent)

    def stage(self, n: int):
        return self.schedule.stages[n - 1]

    def label(self, n: int) -> StageLabel:
        return self.labels[n - 1]

    def tower_at(self, depth: int | None = None) -> Tower:
        """The tower at a depth, the full one by default; it lists no level,
        and a depth outside 0..(number of stages) is refused."""
        depth = self.schedule.depth if depth is None else depth
        return Tower(self.schedule, depth, self.maps[:depth], self.ctx, cap=self.config.state_cap)

    def model(self, depth: int | None = None) -> TowerModel:
        """The tower at a depth with its level arrays, built on every call."""
        depth = self.schedule.depth if depth is None else depth
        return TowerModel(self.schedule, depth, self.maps[:depth], self.ctx,
                          cap=self.config.state_cap)

    def factor_characters(self):
        """Exponent vectors (elements of D) indexing the factor components."""
        return self.triple.d_elements()


def synth(config: SessionConfig) -> Session:
    """Deterministic pipeline: algebra, schedule, labels, cocycle tables."""
    # every stage at least doubles the height, so a deeper schedule is taller
    # than MAX_HEIGHT; refused before the per-stage labels are drawn
    if config.num_stages >= MAX_HEIGHT.bit_length():
        raise SizeCapError(
            f"{config.num_stages} stages would make a tower taller than {MAX_HEIGHT} levels")
    depth_alg = len(config.targets) if config.algebra_depth is None else config.algebra_depth
    triple = assemble_triple(config.targets, depth_alg)
    tower = compactify(triple)
    duality = dualize(triple)
    ctx = SemidirectContext(triple.k_order, duality.dual_module, duality.dual_action)

    # labels first, then each stage's cut kind to match its label; stage_maps
    # refuses a label that does not fit its stage
    if config.shape == SHAPE_STAIRCASE:
        labels = (StageLabel(LABEL_PLAIN),) * config.num_stages
    else:
        gen = label_cycle(duality.dual_module, triple.k_order, config.mode)
        labels = tuple(islice(gen, config.num_stages))
    if config.shape == SHAPE_DELTA_BLOCKS:
        kinds = [KIND_DELAYED_STAIRCASE if label.kind == LABEL_DELAYED_TRANSLATE
                 else KIND_RIGID_STAIRCASE for label in labels]
        schedule = concat_delta_blocks(config.blocks, config.initial_height, kinds)
    else:
        # arithmetic stages are fully rigid; a staircase stage ignores "i"
        kind = KIND_RIGID_STAIRCASE if config.shape == SHAPE_ARITHMETIC else KIND_STAIRCASE
        specs = [{"kind": kind, "i": r, "r": r} for r in config.r_seq]
        schedule = build_schedule(config.initial_height, specs)

    maps = tuple(
        stage_maps(label, st, triple.k_order, duality.dual_module)
        for label, st in zip(labels, schedule.stages)
    )
    report = validate(schedule, config.ratio_bound)
    return Session(
        config=config,
        triple=triple,
        tower=tower,
        duality=duality,
        ctx=ctx,
        schedule=schedule,
        labels=labels,
        maps=maps,
        validation=report,
    )


# ---------------------------------------------------------------------------
# bundle persistence
# ---------------------------------------------------------------------------


def _algebra_doc(session: Session) -> dict:
    t = session.triple
    doc = {
        "schema_version": SCHEMA_VERSION,
        "targets": list(t.targets),
        "depth": t.depth,
        "orders": list(t.module.orders),
        "theta_images": [list(v) for v in t.theta.images],
        "d_coords": list(t.d_coords),
        "d_generators": [list(v) for v in t.d_generators()],
        "d_size": t.d_size(),
        "k_order": t.k_order,
        "tower_k_orders": session.tower.k_orders(),
        "annihilator_size": session.duality.annihilator_size,
        "annihilator_coords": list(session.duality.annihilator_coords),
    }
    if t.d_size() <= 4096:
        doc["d_elements"] = sorted(list(v) for v in t.d_elements())
    return doc


def _cocycle_doc(session: Session) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "labels": [l.to_dict() for l in session.labels],
        "stage_maps": [m.to_dict() for m in session.maps],
    }


def _payload_hash(blobs: dict) -> str:
    h = hashlib.sha256()
    for name in BUNDLE_FILES:
        h.update(name.encode())
        h.update(blobs[name])
    return h.hexdigest()


def render_bundle(session: Session) -> dict[str, str]:
    """Every bundle file of a session, by file name, as its exact text."""
    payload = {
        "config.json": session.config.to_json(),
        "algebra.json": canonical_json(_algebra_doc(session)),
        "schedule.json": canonical_json(session.schedule.to_dict()),
        "cocycle.json": canonical_json(_cocycle_doc(session)),
    }
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "bundle_hash": _payload_hash({n: t.encode() for n, t in payload.items()}),
        "files": sorted(payload),
    }
    return {
        **payload,
        "validation.json": canonical_json(session.validation.to_dict()),
        "manifest.json": canonical_json(manifest),
    }


def save_bundle(session: Session, outdir) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in render_bundle(session).items():
        (outdir / name).write_text(text)
    return outdir


def _first_difference(name: str, stored: str, expected: str) -> str:
    def quote(line):
        if line is None:
            return "end of file"
        return repr(line if len(line) <= 60 else line[:57] + "...")

    pairs = zip_longest(stored.split("\n"), expected.split("\n"))
    n, (got, want) = next((n, p) for n, p in enumerate(pairs, start=1) if p[0] != p[1])
    return (f"{name} line {n} differs from the synthesis of config.json: "
            f"stored {quote(got)}, expected {quote(want)}")


def load_bundle(bundle_dir) -> Session:
    """Re-synthesize the session from config.json and check every stored file.

    A bundle is refused (BundleError) unless each of its files is
    byte-identical to what its config synthesizes.
    """
    bundle_dir = Path(bundle_dir)
    session = synth(SessionConfig.from_json((bundle_dir / "config.json").read_text()))
    for name, text in render_bundle(session).items():
        path = bundle_dir / name
        if not path.is_file():
            raise BundleError(f"{name} is missing from the bundle")
        stored = path.read_bytes()
        if stored != text.encode():
            raise BundleError(
                _first_difference(name, stored.decode(errors="replace"), text))
    return session
