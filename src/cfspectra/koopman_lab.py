"""Finite-level Koopman analysis: phased permutations, exact spectra, probes.

Components of the composition operator over a tower are phased permutations:
a successor map on finitely many states with a root-of-unity weight on every
edge.  Every component is a phased shift along the single tower cycle, so
once the transition values multiply to the identity around that cycle its
spectrum follows in closed form.  Power averages are evaluated by exact
bucket counting of phase exponents and judged against one weak-limit
prediction, delta (a I + b U*) + c P, whose coefficients the component and
the stage label pick from one table.  The multiplicity bookkeeping
reduces to orbit combinatorics on the distinguished subgroup.  Floating
point appears only in least-squares residuals and in report summaries;
every equality decision is integer/rational.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import prod

import numpy as np

from .cocycle_engine import (
    LABEL_DELAYED_TRANSLATE,
    LABEL_RIGID_ROTATE,
    LABEL_RIGID_TRANSLATE,
    MODE_PRODUCT,
    StageLabel,
    TowerModel,
)
from .errors import (
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
    cyclo_equal,
    orbit,
    orbit_average,
    orbit_trace_counts,
)

DEFAULT_STATE_CAP = 2 * 10**6
PROBE_TOLERANCE_FACTOR = 3  # deviation budget is this over the stage's column count


# ---------------------------------------------------------------------------
# phased permutation operators
# ---------------------------------------------------------------------------


@dataclass
class PhasedCycleOperator:
    """Permutation of states with a root-of-unity phase on every edge.

    Acts on functions by (U v)(s) = zeta_N^{phase_exp[s]} * v(succ[s]).
    """

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

    def _phases(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.phase_exp / self.phase_order)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self._phases() * np.asarray(vec)[self.succ]

    def apply_inverse(self, vec: np.ndarray) -> np.ndarray:
        out = np.empty(self.n_states, dtype=complex)
        out[self.succ] = np.conj(self._phases()) * np.asarray(vec)
        return out


# ---------------------------------------------------------------------------
# building components from a tower model
# ---------------------------------------------------------------------------


def _pairing_weights(orders, d, n: int) -> np.ndarray:
    return np.array([di * (n // ni) for di, ni in zip(d, orders)], dtype=np.int64)


def build_eta_component(
    model: TowerModel, eta_exp: int, phase_order: int, cap: int = DEFAULT_STATE_CAP
) -> PhasedCycleOperator:
    """Component over the base tower twisted by a character of the acting group."""
    h = model.height
    if h > cap:
        raise SizeCapError(f"{h} states exceed cap {cap}")
    kappa = model.ctx.k_order
    if phase_order % kappa:
        raise CharacterTypeError("phase order must be divisible by the group order")
    d_beta = model.step_betas(1)
    succ = (np.arange(h, dtype=np.int64) + 1) % h
    exps = (eta_exp * d_beta * (phase_order // kappa)) % phase_order
    return PhasedCycleOperator(succ, exps, phase_order,
                               {"kind": "eta", "eta": eta_exp % kappa, "levels": h})


def build_chi_component(
    model: TowerModel, d, phase_order: int, cap: int = DEFAULT_STATE_CAP
) -> PhasedCycleOperator:
    """Component over the skew tower (levels x acting group) twisted by a
    character of the module, indexed by an element d of the primal side."""
    ctx = model.ctx
    kappa = ctx.k_order
    h = model.height
    if h * kappa > cap:
        raise SizeCapError(f"{h * kappa} states exceed cap {cap}")
    orders = ctx.module.orders
    if any(phase_order % n for n in orders) or phase_order % kappa:
        raise CharacterTypeError("phase order incompatible with the algebra")
    d = tuple(int(x) for x in d)
    if len(d) != len(orders):
        raise CharacterTypeError("component index has the wrong rank")
    d_beta, d_alpha = model.transitions()
    weights = _pairing_weights(orders, d, phase_order)

    # state (level l, group exponent k) flattened as l * kappa + k
    levels = np.arange(h, dtype=np.int64)
    succ = np.empty(h * kappa, dtype=np.int64)
    exps = np.empty(h * kappa, dtype=np.int64)
    for k in range(kappa):
        twisted = d_alpha @ model._theta_mats[k].T % model._orders
        exps[levels * kappa + k] = (twisted @ weights) % phase_order
        succ[levels * kappa + k] = ((levels + 1) % h) * kappa + (k + d_beta) % kappa
    return PhasedCycleOperator(succ, exps, phase_order,
                               {"kind": "chi", "d": d, "levels": h, "kappa": kappa})


def build_component(session, character: Character, depth: int | None = None) -> PhasedCycleOperator:
    """Dispatch on the character's home group (acting group vs module)."""
    model = session.model(depth)
    n = session.root_order
    if character.group == session.triple.k_group:
        return build_eta_component(model, character.exponents[0], n, session.config.state_cap)
    if character.group == session.duality.dual_module:
        return build_chi_component(model, character.exponents, n, session.config.state_cap)
    raise CharacterTypeError("character belongs to neither side of the session algebra")


# ---------------------------------------------------------------------------
# loop product and closed-form spectra
# ---------------------------------------------------------------------------


def loop_product(model: TowerModel) -> tuple[int, tuple[int, ...]]:
    """Product in K x| A of the h transition values around the tower cycle.

    Read from the start level: g_0 g_1 ... g_{h-1} under
    (k1, a1)(k2, a2) = (k1 + k2, a1 + theta^k1 a2).  The group part is the
    sum of the beta steps; the module part sums each alpha step twisted by
    the prefix sum of the beta steps before it.
    """
    kappa = model.ctx.k_order
    d_beta, d_alpha = model.transitions()
    prefix = (np.cumsum(d_beta) - d_beta) % kappa
    a = model._apply_theta_pow(prefix, d_alpha).sum(axis=0) % model._orders
    return int(d_beta.sum() % kappa), tuple(int(x) for x in a)


def class_equivalence_check(model: TowerModel) -> None:
    """Raise ConsistencyError unless the loop product is the identity.

    An identity loop product gives every component at this depth zero
    holonomy: each eta component is one h-cycle and each chi component
    kappa h-cycles, all with total phase 0.  So chi and chi o theta^k have
    the same spectrum for every k, the finite shadow of the conjugation
    symmetry.
    """
    product = loop_product(model)
    if product != model.ctx.identity():
        raise ConsistencyError(
            f"transition values multiply to {product} around the depth-{model.depth} "
            "tower cycle, not the identity; the cocycle does not telescope"
        )


def exact_spectrum(session, depth: int | None = None) -> dict:
    """Closed-form spectrum shared by every component of each kind, by kind.

    A cycle of length h with total phase 0 contributes the h-th roots of
    unity; an eta component is one such cycle, a chi component kappa of
    them.  One loop check covers both kinds: a loop product other than the
    identity raises ConsistencyError.  The state cap is that of the larger
    built component, a chi component's h kappa states.
    """
    model = session.model(depth)
    h, kappa = model.height, session.k_order
    if h * kappa > session.config.state_cap:
        raise SizeCapError(f"{h * kappa} states exceed cap {session.config.state_cap}")
    class_equivalence_check(model)
    return {kind: {"cycles": [{"length": h, "phase_num": 0, "phase_den": 1, "count": copies}],
                   "total_multiplicity": h * copies}
            for kind, copies in (("eta", 1), ("chi", kappa))}


# ---------------------------------------------------------------------------
# weak limit probes
# ---------------------------------------------------------------------------


@dataclass
class WeakLimitReport:
    """A probe's table against its prediction, with the verdict on the worst entry.

    The table is kept as arrays of one shape: ``values`` (complex) and the
    prediction's real and imaginary parts, indexed [g, f] for an eta probe
    and [e_u, e_v, g, f] for a chi probe.  ``rows`` renders it as one dict
    per entry on first read.
    """

    stage_index: int
    label: StageLabel
    component: dict
    family: dict
    prediction_kind: str
    values: np.ndarray = field(repr=False, compare=False)
    pred_re: np.ndarray = field(repr=False, compare=False)
    pred_im: np.ndarray = field(repr=False, compare=False)
    deviations: np.ndarray = field(repr=False, compare=False)
    tolerance: float
    max_deviation: float = field(init=False)

    def __post_init__(self):
        self.max_deviation = float(self.deviations.max())

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    @cached_property
    def rows(self) -> list:
        value = _pairs(self.values.real, self.values.imag)
        pred = _pairs(self.pred_re, self.pred_im)
        dev = self.deviations.ravel().tolist()
        if self.component["kind"] == "eta":
            eta = self.component["eta"]
            g, f = np.indices(self.values.shape)
            return [{"u": u, "v": v, "eta": eta, "value": val, "pred": p, "deviation": dv}
                    for u, v, val, p, dv in zip(f.ravel().tolist(), g.ravel().tolist(),
                                                value, pred, dev)]
        e_u, e_v, g, f = np.indices(self.values.shape)
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


def _raw_pair_counts(model: TowerModel, steps: int, n0: int, low=None, n_low: int = 1):
    """Counts of the level pairs (l, l + steps) of the cyclic tower by their raw words.

    Returns raw[g, b, f, b', x], the number of pairs whose levels lie in
    depth-n0 cylinders g and f with group exponents b and b' and whose low
    index is x.  low(a, b) takes the slices of levels at the two ends of a
    run of pairs and returns each pair's index in range(n_low).
    """
    kappa = model.ctx.k_order
    n_cyl = model.schedule.height(n0)
    # level code (cyl + 1) * kappa + beta: spacers (cyl = -1) take the codes
    # below kappa, which are dropped below
    codes = model.cylinder_ids(n0) * kappa
    codes += model.word_beta
    codes += kappa
    n_codes = (n_cyl + 1) * kappa

    def pair_key(a, b):
        key = codes[a] * n_codes + codes[b]
        return key if low is None else key * n_low + low(a, b)

    # the cyclic shift is two contiguous halves, so no shifted copy is made
    h = model.height
    s = steps % h
    key = np.empty(h, dtype=np.int64)
    key[:h - s] = pair_key(slice(0, h - s), slice(s, h))
    key[h - s:] = pair_key(slice(h - s, h), slice(0, s))
    raw = np.bincount(key, minlength=n_codes * n_codes * n_low)
    raw = raw.reshape(n_codes, n_codes, n_low)[kappa:, kappa:]
    return raw.reshape(n_cyl, kappa, n_cyl, kappa, n_low)


def _fold_exponents(raw, perms) -> np.ndarray:
    """Fold raw[g, b, f, b', x] into counts[g, f, s, w] by the transition exponent s = b - b'.

    perms[b] maps each module value w = theta^b x to its bucket x; a table
    with no module part has one bucket, and perms of shape (kappa, 1).
    """
    n_cyl, kappa = raw.shape[:2]
    counts = np.zeros((n_cyl, n_cyl, kappa, perms.shape[1]), dtype=np.int64)
    for b in range(kappa):
        counts[:, :, (b - np.arange(kappa)) % kappa] += raw[:, b][..., perms[b]]
    return counts


def _eta_values(model: TowerModel, steps: int, n0: int, eta_exp: int):
    """Complex table V[g, f] = <U_eta^steps 1_f, 1_g> plus its exact buckets
    counts[g, f, s], the level pairs by the group exponent s of their path."""
    kappa = model.ctx.k_order
    raw = _raw_pair_counts(model, steps, n0)
    counts = _fold_exponents(raw, np.zeros((kappa, 1), dtype=np.int64))[..., 0]
    phases = np.exp(2j * np.pi * eta_exp * np.arange(kappa) / kappa)
    return counts @ phases / model.height, counts, raw.shape[0]


def _chi_values(model: TowerModel, steps: tuple[int, ...], n0: int, d, phase_order: int):
    """Tables V[e_u, e_v, g, f] = <U_chi^s (1_f x eta_{e_u}), 1_g x eta_{e_v}> per s in steps.

    The pairs are counted by their raw words, with the difference of their
    untwisted module parts; the transition value (b - b', theta^b (u - u'))
    is then folded in on the count table, where theta^b permutes the
    module.  The group-state sum is folded into a precomputed table over
    (character difference, module value), so the level pass is a single
    bucket count.  Returns (values, counts, cylinder count) per step; the
    tables that do not depend on the step are built once for all of them.
    """
    ctx = model.ctx
    kappa = ctx.k_order
    orders = np.array(ctx.module.orders, dtype=np.int64)
    h = model.height

    # module values indexed in mixed radix
    radix = _mixed_radix(orders)
    n_a = int(np.prod(orders))
    # untwisted parts packed in the radix of their differences (digits in
    # (-n_i, n_i)), so a difference's index is one subtraction and a lookup
    spans = 2 * orders - 1
    wide = _mixed_radix(spans)
    packed = np.zeros(h, dtype=np.int64)
    for i in range(len(orders)):
        packed += model.word_untwisted[:, i] * wide[i]
    offset = int((orders - 1) @ wide)
    diffs = np.arange(int(np.prod(spans)), dtype=np.int64)[:, None] // wide % spans
    diff_index = (diffs - (orders - 1)) % orders @ radix

    a_elements = np.arange(n_a, dtype=np.int64)[:, None] // radix % orders
    # images[k, w] = theta^k of the module element with index w, and
    # image_index[k] the permutation of indices that theta^k makes
    images = a_elements @ model._theta_mats.transpose(0, 2, 1) % orders
    image_index = images @ radix
    # bucket x holds theta^b x = w, so w gathers from x = theta^(-b) w
    gathers = image_index[-np.arange(kappa) % kappa]

    # G[e, w] = sum over k of chi_d(theta^k w) * e^{2 pi i e k / kappa}
    weights = _pairing_weights(orders, d, phase_order)
    g_table = np.zeros((kappa, n_a), dtype=complex)
    for k in range(kappa):
        pair_exp = (images[k] @ weights) % phase_order
        chi_vals = np.exp(2j * np.pi * pair_exp / phase_order)
        for e in range(kappa):
            g_table[e] += chi_vals * cmath.exp(2j * cmath.pi * e * k / kappa)
    eta_phase = np.exp(2j * np.pi * np.arange(kappa)[:, None] * np.arange(kappa)[None, :] / kappa)

    def diff_of(a, b):
        return diff_index[packed[a] - packed[b] + offset]

    tables = []
    for step in steps:
        counts = _fold_exponents(_raw_pair_counts(model, step, n0, diff_of, n_a), gathers)
        n_cyl = counts.shape[0]

        # value[e_u, e_v, g, f] = (1/(h kappa)) sum_{s,w} counts[g,f,s,w]
        #                          * eta_{e_u}(s) * G[e_u - e_v, w]
        out = np.zeros((kappa, kappa, n_cyl, n_cyl), dtype=complex)
        for e_u in range(kappa):
            for e_v in range(kappa):
                g_vec = g_table[(e_u - e_v) % kappa]
                contracted = np.einsum("gfsw,s,w->gf", counts, eta_phase[e_u], g_vec)
                out[e_u, e_v] = contracted / (h * kappa)
        tables.append((out, counts, n_cyl))
    return tables


def _cylinder_measures(model: TowerModel, n0: int) -> np.ndarray:
    """Measure of each depth-n0 cylinder in the model's tower.

    Every stage past n0 copies each depth-n0 level once per column, so all
    cylinders have the same measure: the product of those column counts
    over the height.
    """
    copies = prod(st.r_count for st in model.schedule.stages[n0:model.depth])
    return np.full(model.schedule.height(n0), copies / model.height)


# The weak limit of U^{h_n} at a labelled stage n, on a probe's table:
#     pred = delta (a <1_f, 1_g> + b <U 1_g, 1_f>*) + c mu_f mu_g.
# (component kind, label kind) -> (prediction kind, (a, b, c) from the
# label's phase lam and delta): lam is eta(k) on a rotate stage and the
# orbit average L(a) of chi on a translate stage.  b None drops the
# one-step term, c None the mean term.  A trivial chi takes its label's eta
# entry.
_PREDICTIONS = {
    ("eta", LABEL_RIGID_TRANSLATE): ("partial_rigidity", lambda lam, d: (1, None, 1 - d)),
    ("eta", LABEL_RIGID_ROTATE): ("rotation", lambda lam, d: (lam, None, 1 - d)),
    ("eta", LABEL_DELAYED_TRANSLATE): ("delayed", lambda lam, d: (1, 1, 1 - 2 * d)),
    ("chi", LABEL_RIGID_TRANSLATE): ("orbit_average", lambda lam, d: (lam, None, None)),
    ("chi", LABEL_DELAYED_TRANSLATE): ("delayed_orbit_average", lambda lam, d: (1, lam, None)),
}


def _weak_limit_prediction(coefficients, lam, delta, inner, one_step, mean):
    """A ``_PREDICTIONS`` entry on the tables of <1_f, 1_g>, <U 1_f, 1_g> and
    mu_f mu_g, as (real, imaginary) arrays; one_step is read only when b is.

    The rounding is fixed: (delta a) inner without a one-step term, and
    delta (b U* + inner), for a = 1, with it; c P is added last whenever c
    is given, zero tables included.
    """
    a, b, c = coefficients(lam, delta)
    if b is None:
        da = delta * a
        re, im = _cmul(da.real, da.imag, inner, 0.0)
    else:
        # the adjoint swaps u and v: the axis pairs (e_u, e_v) and (g, f)
        adjoint = one_step.conj().transpose(np.arange(one_step.ndim) ^ 1)
        re, im = _cmul(b.real, b.imag, adjoint.real, adjoint.imag)
        re, im = _cadd_real(re, im, inner)
        re, im = _cmul(delta, 0.0, re, im)
    if c is not None:
        re, im = _cadd_real(re, im, c * mean)
    return re, im


def weak_limit_probe(session, stage_index: int, component) -> WeakLimitReport:
    """Exact power-average table at one stage against its class prediction.

    ``component`` is ("eta", e) for a base-tower component, e in range(kappa),
    or ("chi", d) for a skew-tower component, d an element of the module;
    the stage's label decides which limit formula is predicted.  The
    cylinders are those at the session's cylinder level.  The tolerance is
    3 over the stage's column count; exceeding it is reported, and the
    right response is a larger stage, never a looser gate.

    Nothing is built for a refused probe.  An unknown component kind raises
    CharacterTypeError, a component the label has no prediction for (a
    plain stage, or chi on a rotate stage) LabelError, and an e or d outside
    its group InvalidElementError.  Then a bucket table (pairs of level
    codes: cylinder, group exponent and, for chi, module value) of more
    entries than the session's state cap raises SizeCapError.
    """
    n0 = session.config.cylinder_level
    stage = session.stage(stage_index)
    label = session.label(stage_index)
    kind, payload = component
    if kind not in ("eta", "chi"):
        raise CharacterTypeError(f"unknown component kind {kind!r}")
    if (kind, label.kind) not in _PREDICTIONS:
        raise LabelError(f"no {kind} prediction for a {label.kind!r} stage")
    kappa = session.k_order
    n_cyl = session.schedule.height(n0)
    entries = ((n_cyl + 1) * kappa) ** 2
    if kind == "eta":
        session.triple.k_group.check((payload,))
        trivial = payload == 0
    else:
        session.ctx.module.check(payload)
        trivial = not any(payload)
        entries *= session.ctx.module.size
    if entries > session.config.state_cap:
        raise SizeCapError(f"probe table of {entries} entries exceeds cap {session.config.state_cap}")
    pred_kind, coefficients = _PREDICTIONS["eta" if trivial else kind, label.kind]
    lam = 1
    if label.kind == LABEL_RIGID_ROTATE:
        lam = cmath.exp(2j * cmath.pi * payload * label.k / kappa)
    elif kind == "chi" and not trivial:
        chi = session.duality.character_of_dual(payload)
        lam = orbit_average(session.duality.dual_action, chi, label.a).value()

    model = session.model(stage_index)
    delta = float(stage.delta) if stage.delta is not None else stage.i_count / stage.r_count
    steps = (stage.base_height,) if coefficients(lam, delta)[1] is None else (stage.base_height, 1)
    mu = _cylinder_measures(model, n0)
    family = {"cylinder_level": n0, "cylinders": n_cyl}
    # <1_f x eta_e, 1_g x eta_e'> = [f = g][e = e'] mu_f, and the means
    # multiply to mu_f mu_g [e = e' = 0]; an eta table has no e axes, and its
    # mean is nonzero only for eta trivial
    if kind == "eta":
        tables = [_eta_values(model, s, n0, payload)[0] for s in steps]
        chars, means = 1.0, float(trivial)
        record = {"kind": "eta", "eta": payload}
    else:
        tables = [t[0] for t in _chi_values(model, steps, n0, payload, session.root_order)]
        chars = np.eye(kappa)
        means = chars * (np.arange(kappa) == 0)
        record = {"kind": "chi", "d": list(payload)}
        family["group_characters"] = kappa
    inner = np.multiply.outer(chars, np.diag(mu))
    mean = np.multiply.outer(means, np.outer(mu, mu))
    # tables[-1] is the one-step table when the prediction has one
    re, im = _weak_limit_prediction(coefficients, lam, delta, inner, tables[-1], mean)
    return WeakLimitReport(
        stage_index=stage.index, label=label, component=record, family=family,
        prediction_kind=pred_kind, values=tables[0], pred_re=re, pred_im=im,
        deviations=_deviations(tables[0], re, im),
        tolerance=PROBE_TOLERANCE_FACTOR / stage.r_count,
    )


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
    return np.hypot(values.real - pred_re, values.imag - pred_im)


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


def _autocorrelation(indicator: np.ndarray):
    """s -> #{x : indicator[x] and indicator[(x - s) mod h]}, memoised per shift.

    The indicator is packed into uint64 words (little-endian bit order), and
    so is a doubled copy of it, which serves the cyclic wrap: shift s reads
    the doubled copy from bit t = -s mod h on, as a word offset and a bit
    offset, so a count is an AND and a popcount per word.
    """
    h = indicator.size
    n_words = -(-h // 64)

    def pack(bits, n):
        out = np.zeros(8 * n, dtype=np.uint8)
        packed = np.packbits(bits, bitorder="little")
        out[:packed.size] = packed
        return out.view("<u8")

    words = pack(indicator, n_words)  # the bits past h are zero
    doubled = pack(np.concatenate([indicator, indicator]), 2 * n_words + 1)
    counts = {}

    def count(s: int) -> int:
        t = -s % h
        if t not in counts:
            q, r = divmod(t, 64)
            shifted = doubled[q:q + n_words] >> r
            if r:
                shifted |= doubled[q + 1:q + 1 + n_words] << (64 - r)
            shifted &= words
            counts[t] = int(np.bitwise_count(shifted).sum())
        return counts[t]

    return count


def correlation_decay(model: TowerModel, pairs, lags, n0: int = 1) -> list[DecayRow]:
    """Exact |mu(T^lag A & B) - mu(A) mu(B)| per cylinder pair (A, B) = (f, g) and lag.

    Cylinder f is O + f, for O the starts of the depth-n0 copies, so
    T^lag A & B has |O & (O - (lag + f - g))| levels: one autocorrelation
    count of O, and one value, shared by every pair and lag that lands on the
    same shift.  Every cylinder has |O| levels.
    """
    h = model.height
    n_cyl = model.schedule.height(n0)
    for f, g in pairs:
        if not (0 <= f < n_cyl and 0 <= g < n_cyl):
            raise ParameterError(
                f"cylinder pair ({f}, {g}) outside the {n_cyl} depth-{n0} cylinders")
    lags = [int(lag) for lag in lags]
    for lag in lags:
        if not 0 <= lag < h:
            raise LagRangeError(f"lag {lag} outside the height-{h} model")
    starts = model.cylinder_ids(n0) == 0
    size = int(np.count_nonzero(starts))
    count = _autocorrelation(starts)

    @cache
    def value(s: int) -> Fraction:
        return Fraction(abs(count(s) * h - size * size), h * h)

    return [DecayRow(lag, (f, g), value(lag + f - g)) for lag in lags for f, g in pairs]


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


def disjointness_certificate(duality, chi: Character, chi2: Character) -> Certificate:
    """Conjugation witness if the characters are related, else a separating a.

    The search for a separating element covers the whole module, in element
    order, but visits one element per orbit: orbit averages are constant on
    orbits, so an element in the orbit of one already scanned cannot
    separate.  The first separating element is the one an exhaustive scan
    finds.  By the finite-level orbit-average identity the search must
    succeed for unrelated characters, so a failed search raises instead of
    returning quietly.
    """
    action = duality.dual_action
    if chi.group != action.module or chi2.group != action.module:
        raise CharacterTypeError("certificates live on the dual module")
    for k in range(duality.triple.k_order):
        if chi.compose_action(action, k).exponents == chi2.exponents:
            return Certificate(equivalent=True, witness_k=k)
    seen = set()
    for a in action.module.elements():
        if a in seen:
            continue
        orb = orbit(action, a)
        seen.update(orb)
        l1 = orbit_average(action, chi, a, _orbit=orb)
        l2 = orbit_average(action, chi2, a, _orbit=orb)
        if not cyclo_equal(l1, l2):
            return Certificate(False, None, a, l1, l2)
    raise ConsistencyError(
        "unrelated characters with identical orbit averages on the whole "
        "module; the finite-level separation identity is violated"
    )


@dataclass
class MultiplicityReport:
    targets: tuple[int, ...]
    mode: str
    trace_counts: set[int]
    classes: list  # lists of module elements (exponent vectors)
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
    the class of d is orbit(d) & D.
    """
    triple = session.triple
    d_set = set(triple.d_elements())
    zero = triple.module.zero()
    classes = []
    seen = set()
    for d in sorted(d_set):
        if d == zero or d in seen:
            continue
        cls = sorted(orbit(triple.action, d) & d_set)
        seen.update(cls)
        classes.append(cls)
    return classes


def multiplicity_report(session, spectra_depth: int | None = None) -> MultiplicityReport:
    """Class decomposition, size set, equivalence evidence and certificates.

    The class-size set must equal the trace-count set exactly (both are
    orbit counts; an inequality is a construction bug and raises).  In
    product mode the square factor adjoins 2 to the reported multiplicities.
    """
    mode = session.mode
    triple = session.triple
    counts = orbit_trace_counts(triple.action, triple.d_elements())
    classes = factor_classes(session)
    class_sizes = [len(c) for c in classes]
    if set(class_sizes) != counts:
        raise ConsistencyError(
            f"class sizes {sorted(set(class_sizes))} != trace counts {sorted(counts)}"
        )
    mult = set(class_sizes)
    notes = []
    if mode == MODE_PRODUCT:
        mult = mult | {2}
        notes.append(
            "product mode: the square factor contributes homogeneous "
            "multiplicity 2; represented algebraically, not spectrally"
        )

    # every chi component shares one closed-form spectrum (this raises unless
    # the loop product is the identity), so spectra coincide within each
    # class and overlap fully across classes
    if classes:
        exact_spectrum(session, spectra_depth)
    verdicts = {i: dict.fromkeys(range(session.k_order), True) for i in range(len(classes))}
    overlaps, certs = {}, {}
    reps = [session.duality.character_of_dual(cls[0]) for cls in classes]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            certs[(i, j)] = disjointness_certificate(session.duality, reps[i], reps[j])
            overlaps[(i, j)] = 1.0
    if overlaps:
        notes.append(
            "cross-class spectral overlap is expected at finite level (all "
            "eigenvalues are roots of unity); disjointness evidence is the "
            "separating orbit averages, never the overlap fraction"
        )
    return MultiplicityReport(
        targets=session.config.targets,
        mode=mode,
        trace_counts=counts,
        classes=classes,
        class_sizes=class_sizes,
        multiplicities=mult,
        equivalence_verdicts=verdicts,
        overlap_fractions=overlaps,
        certificates=certs,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# joint cyclicity probe
# ---------------------------------------------------------------------------


@dataclass
class SimplicityReport:
    residuals: list[float]
    conditioning_flags: list[bool]
    power_window: int

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def _power_matrix(op: PhasedCycleOperator, vec: np.ndarray, window: int) -> np.ndarray:
    cols = [np.asarray(vec, dtype=complex)]
    cur = cols[0]
    for _ in range(window):
        cur = op.apply(cur)
        cols.append(cur)
    cur = cols[0]
    for _ in range(window):
        cur = op.apply_inverse(cur)
        cols.insert(0, cur)
    return np.stack(cols, axis=1)


def simplicity_probe(op1: PhasedCycleOperator, op2: PhasedCycleOperator | None,
                     v: np.ndarray, power_window: int,
                     test_vectors: np.ndarray | None = None) -> SimplicityReport:
    """Least-squares residuals of test vectors against the power span of v.

    The span is {(op1^q (+) op2^q) v : |q| <= window} on the direct sum of
    the two state spaces (just op1's powers when op2 is None).  Low
    residuals witness joint cyclicity; a vector far from the span stays far
    because the span cannot grow beyond the available distinct eigenvalues.
    """
    v = np.asarray(v, dtype=complex)
    if op2 is None:
        if v.size != op1.n_states:
            raise ValueError("test vector has the wrong dimension")
        m = _power_matrix(op1, v, power_window)
    else:
        s1 = op1.n_states
        if v.size != s1 + op2.n_states:
            raise ValueError("test vector must live on the direct sum")
        m1 = _power_matrix(op1, v[:s1], power_window)
        m2 = _power_matrix(op2, v[s1:], power_window)
        m = np.concatenate([m1, m2], axis=0)
    dim = m.shape[0]
    if test_vectors is None:
        test_vectors = np.eye(dim, dtype=complex)
    test_vectors = np.atleast_2d(np.asarray(test_vectors, dtype=complex))
    try:
        # rank-revealing basis of the span; plain QR would over-project
        # when the power columns are dependent
        u_svd, s_svd, _ = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        return SimplicityReport([1.0] * test_vectors.shape[0],
                                [True] * test_vectors.shape[0], power_window)
    top = s_svd[0] if s_svd.size else 0.0
    keep = s_svd > max(dim, m.shape[1]) * np.finfo(float).eps * top
    basis = u_svd[:, keep]
    rank_deficient = bool(keep.sum() < m.shape[1])
    residuals, flags = [], []
    for w in test_vectors:
        norm = np.linalg.norm(w)
        if norm == 0:
            residuals.append(0.0)
            flags.append(False)
            continue
        proj = basis @ (basis.conj().T @ w)
        residuals.append(float(np.linalg.norm(w - proj) / norm))
        flags.append(rank_deficient)
    return SimplicityReport(residuals, flags, power_window)
