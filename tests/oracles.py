"""Oracles the tests check the package against; no command runs them.

Each is a second route to something the package computes on its own path,
or a probe the acceptance gate runs, and lives here so that the package
holds only what its commands run:

- K x| A element by element: ``act`` and ``inv`` in a SemidirectContext,
  the word-level products (``word_product``, ``transition_values``) and a
  model's cocycle value between two levels (``cocycle_between``), which
  the cocycle-identity criterion reads;
- automorphisms by composition: ``identity_automorphism``, ``compose``,
  ``is_identity`` and ``binary_power``, independent of the power stack;
  ``automorphism_for`` and ``compose_action`` read one power off it; and
  the subgroup a set of generators spans (``subgroup_from_generators``);
- the operator layer: a phased permutation applied to a vector, forwards
  and backwards, and the joint-cyclicity probe (``simplicity_probe``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cfspectra.cocycle_engine import _product, canonical_word, evaluate_cocycle
from cfspectra.errors import CharacterTypeError, InvalidElementError, SizeCapError
from cfspectra.finite_algebra import ENUMERATION_CAP, GroupAutomorphism

# ---------------------------------------------------------------------------
# K x| A and the word-level cocycle
# ---------------------------------------------------------------------------


def act(ctx, k, a):
    """theta^k a for any int k, read off the context's power table; k and a
    are checked."""
    if not isinstance(k, int):
        raise InvalidElementError(f"{k!r} is not an element of Z/{ctx.k_order}")
    return ctx._automorphisms[k % ctx.k_order].apply(a)


def inv(ctx, g):
    """The inverse of a checked element of K x| A."""
    return ctx._inv(ctx.check(g))


def word_product(word, maps_by_stage, ctx):
    """Left-to-right product of the per-stage table entries along a word.

    A cut missing from its stage's table raises KeyError.
    """
    g = _product(word, ctx.tables(maps_by_stage, word.depth), ctx)
    return ctx.identity() if g is None else g


def transition_values(schedule, maps_by_stage, ctx):
    """Cocycle value on every edge level -> level+1 (cyclically) of the full
    tower, one canonical word per level."""
    h = schedule.height(schedule.depth)
    if h > ENUMERATION_CAP:
        raise SizeCapError(f"tower height {h} exceeds cap {ENUMERATION_CAP}")
    words = [canonical_word(l, schedule) for l in range(h)]
    return [evaluate_cocycle(words[l], words[(l + 1) % h], maps_by_stage, ctx)
            for l in range(h)]


def cocycle_between(model, l1: int, l2: int):
    """Exact cocycle value between two levels of a TowerModel, from its word
    products: (beta_1 - beta_2, theta^beta_1 (u_1 - u_2))."""
    ctx = model.ctx
    b1 = int(model.word_beta[l1])
    db = (b1 - int(model.word_beta[l2])) % ctx.k_order
    u1, u2 = (tuple(int(x) for x in model.word_untwisted[l]) for l in (l1, l2))
    return db, act(ctx, b1, ctx.module.sub(u1, u2))


# ---------------------------------------------------------------------------
# automorphisms by composition, characters twisted one power at a time
# ---------------------------------------------------------------------------


def identity_automorphism(group):
    return GroupAutomorphism._unchecked(group, tuple(group.generators()))


def compose(phi, psi):
    """phi after psi (a |-> phi(psi(a))); a composite of two automorphisms
    is one, so it is built unchecked."""
    if psi.group != phi.group:
        raise InvalidElementError("composing automorphisms of different groups")
    return GroupAutomorphism._unchecked(phi.group, tuple(phi._apply(img) for img in psi.images))


def is_identity(phi) -> bool:
    return phi.images == tuple(phi.group.generators())


def binary_power(phi, m):
    """phi^m by binary powering, one composition per bit of m and one per set
    bit, independent of the power stack the program reads."""
    result, base = identity_automorphism(phi.group), phi
    while m:
        if m & 1:
            result = compose(result, base)
        base = compose(base, base)
        m >>= 1
    return result


def automorphism_for(action, k: int):
    """theta^k for 0 <= k < |K|, read off the action's power table."""
    action.group.check((k,))
    return action.powers[k]


def compose_action(chi, action, k: int):
    """The character a |-> chi(theta^k a)."""
    if action.module != chi.group:
        raise CharacterTypeError("action on the wrong module")
    return chi.compose_automorphism(automorphism_for(action, k))


def subgroup_from_generators(group, gens) -> frozenset:
    """All sums of multiples of the generators (closure under the group law)."""
    frontier = {group.zero()}
    for g in gens:
        group.check(g)
        new = set()
        for base in frontier:
            x = base
            while True:
                new.add(x)
                x = group.add(x, g)
                if x == base:
                    break
                if len(new) > ENUMERATION_CAP:
                    raise SizeCapError("subgroup closure exceeds cap")
        frontier = new
    return frozenset(frontier)


# ---------------------------------------------------------------------------
# phased permutations as operators, and the joint-cyclicity probe
# ---------------------------------------------------------------------------


def _phases(op) -> np.ndarray:
    return np.exp(2j * np.pi * op.phase_exp / op.phase_order)


def apply(op, vec) -> np.ndarray:
    """(U v)(s) = zeta_N^{phase_exp[s]} v(succ[s]) for a PhasedCycleOperator U."""
    return _phases(op) * np.asarray(vec)[op.succ]


def apply_inverse(op, vec) -> np.ndarray:
    out = np.empty(op.n_states, dtype=complex)
    out[op.succ] = np.conj(_phases(op)) * np.asarray(vec)
    return out


@dataclass
class _SimplicityReport:
    residuals: list[float]
    conditioning_flags: list[bool]
    power_window: int

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def _power_matrix(op, vec: np.ndarray, window: int) -> np.ndarray:
    cols = [np.asarray(vec, dtype=complex)]
    cur = cols[0]
    for _ in range(window):
        cur = apply(op, cur)
        cols.append(cur)
    cur = cols[0]
    for _ in range(window):
        cur = apply_inverse(op, cur)
        cols.insert(0, cur)
    return np.stack(cols, axis=1)


def simplicity_probe(op1, op2, v: np.ndarray, power_window: int,
                     test_vectors: np.ndarray | None = None) -> _SimplicityReport:
    """Least-squares residuals of test vectors against the power span of v,
    {(op1^q (+) op2^q) v : |q| <= window} on the direct sum of
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
        return _SimplicityReport([1.0] * test_vectors.shape[0],
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
    return _SimplicityReport(residuals, flags, power_window)
