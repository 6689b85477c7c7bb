"""Probe bucket tables against the per-level transition-value formulas.

The probes bucket each level pair by the raw words of its two levels
(cylinder, group exponent and untwisted module part) and fold the group
arithmetic into the bucket table.  ``level_pass_counts`` makes that count
level by level over a whole tower; it is the oracle of the cut-and-stack
recursion the probes count with (test_probe_counts.py).  The oracles
below bucket the transition values themselves, read per level from
`step_values`; the folded level-pass tables must be equal
to them.  `step_values` in turn must equal the formula on twisted words,
alpha_l - theta^(beta_l - beta_{l+s}) alpha_{l+s}.  The dense fold
(`_fold_exponents`) and the dense contractions of the folded tables
(`oracle_eta_values`, `oracle_chi_values`) are the oracles of the probes'
sparse fold and per-bucket contraction (test_probe_counts.py), whose
tables `dense_values` spreads over every cell.
"""

import cmath

import numpy as np
import pytest

from cfspectra.cocycle_engine import TowerModel
from cfspectra.koopman_lab import _mixed_radix, _module_tables, _pairing_weights
from oracles import act, cocycle_between, inv


def level_pass_counts(model, steps, n0, module):
    """raw[g, b, f, b', x] of the pairs (l, l + steps) of the cyclic tower,
    one bucket count over all its levels; x indexes the difference of the
    untwisted module parts, or is 0 without ``module``."""
    kappa = model.ctx.k_order
    n_cyl = model.schedule.height(n0)
    # level code (cyl + 1) * kappa + beta: spacers (cyl = -1) take the codes
    # below kappa, which are dropped below
    codes = model.cylinder_ids(n0) * kappa + model.word_beta + kappa
    n_codes = (n_cyl + 1) * kappa
    orders = np.array(model.ctx.module.orders if module else (), dtype=np.int64)
    n_a = int(np.prod(orders))
    u = model.word_untwisted[:, :len(orders)]
    nxt = (np.arange(model.height) + steps) % model.height
    x = (u - u[nxt]) % orders @ _mixed_radix(orders)
    key = (codes * n_codes + codes[nxt]) * n_a + x
    raw = np.bincount(key, minlength=n_codes * n_codes * n_a)
    raw = raw.reshape(n_codes, n_codes, n_a)[kappa:, kappa:]
    return raw.reshape(n_cyl, kappa, n_cyl, kappa, n_a)


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


def folded_counts(model, steps, n0, module):
    """The level-pass table folded by transition value, as the probes fold theirs."""
    kappa = model.ctx.k_order
    raw = level_pass_counts(model, steps, n0, module)
    if not module:
        return _fold_exponents(raw, np.zeros((kappa, 1), dtype=np.int64))[..., 0]
    _, radix, _, images = _module_tables(model.ctx, True)
    return _fold_exponents(raw, (images @ radix)[-np.arange(kappa) % kappa])


def oracle_eta_values(model, steps, n0, eta_exp):
    """V[g, f] from the folded level pass, contracted with the phases of eta."""
    kappa = model.ctx.k_order
    counts = folded_counts(model, steps, n0, False)
    phases = np.exp(2j * np.pi * eta_exp * np.arange(kappa) / kappa)
    return counts @ phases / model.height


def oracle_chi_values(model, steps, n0, d, phase_order):
    """V[e_u, e_v, g, f] from the folded level pass, one dense einsum over
    (s, w) per (e_u, e_v)."""
    kappa = model.ctx.k_order
    orders, _, _, images = _module_tables(model.ctx, True)
    # G[e, w] = sum over k of chi_d(theta^k w) * e^{2 pi i e k / kappa}
    weights = _pairing_weights(orders, d, phase_order)
    g_table = np.zeros((kappa, images.shape[1]), dtype=complex)
    for k in range(kappa):
        chi_vals = np.exp(2j * np.pi * ((images[k] @ weights) % phase_order) / phase_order)
        for e in range(kappa):
            g_table[e] += chi_vals * cmath.exp(2j * cmath.pi * e * k / kappa)
    eta_phase = np.exp(2j * np.pi * np.arange(kappa)[:, None] * np.arange(kappa)[None, :] / kappa)
    counts = folded_counts(model, steps, n0, True)
    n_cyl = counts.shape[0]
    out = np.zeros((kappa, kappa, n_cyl, n_cyl), dtype=complex)
    for e_u in range(kappa):
        for e_v in range(kappa):
            contracted = np.einsum("gfsw,s,w->gf", counts, eta_phase[e_u],
                                   g_table[(e_u - e_v) % kappa])
            out[e_u, e_v] = contracted / (model.height * kappa)
    return out


def dense_values(n_cyl, table):
    """A probe table (reached cells, values at them) as the dense array
    V[..., g, f], 0 at every cell it does not reach."""
    cells, values = table
    out = np.zeros((*values.shape[:-1], n_cyl * n_cyl), dtype=complex)
    out[..., cells] = values
    return out.reshape(*values.shape[:-1], n_cyl, n_cyl)


def fresh_model(session, depth):
    # built outside the session's cache, so the large models do not stay alive
    return TowerModel(session.schedule, depth, session.maps, session.ctx,
                      cap=session.config.state_cap)


def twisted_step_values(model, steps):
    """Transition values per level from the twisted word products."""
    kappa = model.ctx.k_order
    alpha = model._apply_theta_pow(model.word_beta, model.word_untwisted)
    d_beta = (model.word_beta - np.roll(model.word_beta, -steps)) % kappa
    nxt = np.roll(alpha, -steps, axis=0)
    return d_beta, (alpha - model._apply_theta_pow(d_beta, nxt)) % model._orders


def oracle_eta_counts(model, steps, n0):
    cyl = model.cylinder_ids(n0)
    f_of = np.roll(cyl, -steps)
    d_beta = model.step_values(steps)[0]
    kappa = model.ctx.k_order
    n_cyl = model.schedule.height(n0)
    valid = (cyl >= 0) & (f_of >= 0)
    key = (cyl[valid] * n_cyl + f_of[valid]) * kappa + d_beta[valid]
    counts = np.bincount(key, minlength=n_cyl * n_cyl * kappa)
    return counts.reshape(n_cyl, n_cyl, kappa)


def oracle_chi_counts(model, steps, n0):
    orders = model._orders
    cyl = model.cylinder_ids(n0)
    f_of = np.roll(cyl, -steps)
    d_beta, d_alpha = model.step_values(steps)
    kappa = model.ctx.k_order
    n_cyl = model.schedule.height(n0)
    radix = np.ones(len(orders), dtype=np.int64)
    for i in range(len(orders) - 2, -1, -1):
        radix[i] = radix[i + 1] * orders[i + 1]
    n_a = int(np.prod(orders))
    w_idx = d_alpha @ radix
    valid = (cyl >= 0) & (f_of >= 0)
    key = ((cyl[valid] * n_cyl + f_of[valid]) * kappa + d_beta[valid]) * n_a + w_idx[valid]
    counts = np.bincount(key, minlength=n_cyl * n_cyl * kappa * n_a)
    return counts.reshape(n_cyl, n_cyl, kappa, n_a)


def assert_tables_match_oracles(model, steps, n0=1):
    d_beta, d_alpha = model.step_values(steps)
    want_beta, want_alpha = twisted_step_values(model, steps)
    assert np.array_equal(d_beta, want_beta) and np.array_equal(d_alpha, want_alpha)
    eta = folded_counts(model, steps, n0, False)
    assert np.array_equal(eta, oracle_eta_counts(model, steps, n0)), steps
    chi = folded_counts(model, steps, n0, True)
    assert np.array_equal(chi, oracle_chi_counts(model, steps, n0)), steps


# (fixture, depth) of every probed stage of the probe fixtures
PROBED = [
    ("probe_direct", 3), ("probe_direct", 4),
    ("probe_product", 5),
    ("probe_large", 3),
    ("scaled_16x16x128x16", 3), ("scaled_16x16x128x16", 4),
    ("scaled_32x32x256", 3),
]
# their last stage is a rotate stage whose labels act, so beta != 0 and the
# fold over (beta_l, beta_{l+s}) is used
ROTATE = {("probe_direct", 4), ("scaled_16x16x128x16", 4)}


@pytest.mark.parametrize("name, depth", PROBED, ids=[f"{n}-{d}" for n, d in PROBED])
def test_tables_equal_transition_value_tables(request, name, depth):
    session = request.getfixturevalue(name)
    model = fresh_model(session, depth)
    if (name, depth) in ROTATE:
        assert len(np.unique(model.word_beta)) == model.ctx.k_order
    for steps in (1, session.schedule.height(depth - 1), 7):
        assert_tables_match_oracles(model, steps)


@pytest.fixture
def random_words(shipped_product):
    # no fixture in product mode has beta != 0, so draw the words: kappa = 6
    # acting on a rank-3 module, every exponent and module value occurring
    model = fresh_model(shipped_product, 6)
    ctx = model.ctx
    assert ctx.k_order == 6 and len(ctx.module.orders) == 3
    rng = np.random.default_rng(23)
    h = model.height
    model.word_beta = rng.integers(0, ctx.k_order, h)
    model.word_untwisted = np.stack([rng.integers(0, n, h) for n in ctx.module.orders], axis=1)
    return model


def test_tables_equal_on_random_words(random_words):
    model = random_words
    for n0 in (1, 2):
        for steps in (1, model.schedule.height(5), 7, model.height - 1):
            assert_tables_match_oracles(model, steps, n0)


def test_transition_values_equal_scalar_products_on_random_words(random_words):
    # level l carries the word product (beta_l, theta^beta_l u_l); a value is
    # product(l) * product(l')^{-1} in the checked arithmetic of K x| A
    model = random_words
    ctx = model.ctx
    h = model.height

    def product(l):
        b = int(model.word_beta[l])
        return b, act(ctx, b, tuple(int(x) for x in model.word_untwisted[l]))

    steps = 7
    d_beta, d_alpha = model.step_values(steps)
    for l in range(0, h, 5):
        want = ctx.mul(product(l), inv(ctx, product((l + steps) % h)))
        assert (int(d_beta[l]), tuple(int(x) for x in d_alpha[l])) == want
        assert cocycle_between(model, l, (l + 3 * steps) % h) == ctx.mul(
            product(l), inv(ctx, product((l + 3 * steps) % h)))
