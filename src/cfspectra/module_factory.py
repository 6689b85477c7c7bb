"""Construction of algebraic triples (K, B, D) with prescribed orbit-trace counts.

Given a target set P = {p_1 < p_2 < ...} the factory builds, per entry, a
prime cyclic block whose nonzero orbits all have length exactly p_i, then
glues the blocks into a module B with a single cyclic automorphism theta so
that the set of counts #(orbit(d) & D), d nonzero in the distinguished
subgroup D, is exactly {p_1, ..., p_m}.  The triple keeps the traces
themselves, the trace partition of D (``AlgebraicTriple.classes``): assembly
checks their sizes against P, dualization checks that D has the same
partition under the dual action, and the multiplicity report reads it.  The
same data dualizes to the companion picture used by the Koopman components,
and truncating at depths 1..m gives a coherent tower of cyclic quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .errors import ConsistencyError, ConstructionError, InvalidElementError, SizeCapError
from .finite_algebra import (
    ENUMERATION_CAP,
    Character,
    FiniteAbelianGroup,
    GroupAutomorphism,
    ModuleAction,
    _prime_factors,
    _traces,
    _weights,
)

PRIME_SEARCH_BOUND = 10**6


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _primitive_root(q: int) -> int:
    """Smallest primitive root modulo a prime q."""
    if q == 2:
        return 1
    factors = _prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in factors):
            return g
    raise ConstructionError(f"no primitive root mod {q}")  # unreachable for prime q


@dataclass(frozen=True)
class OrbitBlock:
    """Z/q, q prime, with multiplication by a unit of multiplicative order p.

    Z/q is a field, so u^j x = x for a nonzero x forces u^j = 1: every
    nonzero element has an orbit of length exactly p.
    """

    prime: int
    multiplier: int
    orbit_length: int

    def verify(self):
        """Raise ConsistencyError unless q is prime and u has order exactly p mod q."""
        q, u, p = self.prime, self.multiplier, self.orbit_length
        if not _is_prime(q):
            raise ConsistencyError(f"block modulus {q} is not prime")
        if p < 1 or pow(u, p, q) != 1 or any(pow(u, p // f, q) == 1 for f in _prime_factors(p)):
            raise ConsistencyError(
                f"{u} does not have multiplicative order {p} mod {q}, so the "
                f"nonzero orbits do not have length {p}"
            )


def orbit_block(p: int) -> OrbitBlock:
    """A block whose nonzero orbits all have length exactly p."""
    if p < 1:
        raise ConstructionError(f"orbit length must be >= 1, got {p}")
    if p == 1:
        block = OrbitBlock(2, 1, 1)
        block.verify()
        return block
    for q in range(p + 1, PRIME_SEARCH_BOUND + 1, p):  # q = 1 mod p
        if _is_prime(q):
            g = _primitive_root(q)
            mult = pow(g, (q - 1) // p, q)
            block = OrbitBlock(q, mult, p)
            block.verify()
            return block
    raise ConstructionError(f"no prime = 1 mod {p} below {PRIME_SEARCH_BOUND}")


@dataclass(frozen=True)
class BlockSpan:
    """Where the copies of one block live inside the assembled module."""

    block_index: int  # 0-based position in the target list
    start: int  # first coordinate of the span
    copies: int  # number of copies of the block


@dataclass(frozen=True)
class AlgebraicTriple:
    """(K, B, D): cyclic K = <theta> acting on B, distinguished subgroup D."""

    targets: tuple[int, ...]
    blocks: tuple[OrbitBlock, ...]
    module: FiniteAbelianGroup
    theta: GroupAutomorphism
    spans: tuple[BlockSpan, ...]
    d_coords: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.targets)

    @property
    def k_order(self) -> int:
        return prod(self.targets)

    @property
    def k_group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup((self.k_order,))

    @cached_property
    def action(self) -> ModuleAction:
        return ModuleAction(self.k_group, self.module, (self.theta,))

    @cached_property
    def classes(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The trace partition of D: the traces orbit(d) & D of its nonzero
        d, each sorted, ordered by least element."""
        return _traces(self.action, frozenset(self.d_elements()))

    def d_generators(self) -> list[tuple[int, ...]]:
        gens = []
        for c in self.d_coords:
            v = [0] * self.module.rank
            v[c] = 1 % self.module.orders[c]
            gens.append(tuple(v))
        return gens

    def d_size(self) -> int:
        return prod(self.module.orders[c] for c in self.d_coords)

    def d_elements(self) -> list[tuple[int, ...]]:
        return self.module.coordinate_subgroup(self.d_coords)


def _block_step_automorphism(
    module: FiniteAbelianGroup, spans, blocks
) -> GroupAutomorphism:
    """One application of theta: per block span, cycle the copies and twist copy 0.

    The copy shift is chosen so that iterating (copies) times applies the
    block twist simultaneously to every copy.
    """
    images = []
    for span, block in zip(spans, blocks):
        q, u, c = block.prime, block.multiplier, span.copies
        for copy in range(c):
            target_copy = (copy - 1) % c
            val = u % q if target_copy == 0 else 1
            v = [0] * module.rank
            v[span.start + target_copy] = val
            images.append(tuple(v))
    return GroupAutomorphism(module, tuple(images))


def assemble_triple(targets, depth: int | None = None) -> AlgebraicTriple:
    """Build the triple for the first `depth` entries of the target set.

    The module is B_1 + B_2^{copies p_1} + B_3^{copies p_1 p_2} + ...; theta
    twists copy 0 of each span and cyclically permutes the copies; D is
    supported on coordinate 0 of every span.  The defining property
    trace-counts(K, B, D) == set(targets) is re-verified on construction and
    a failure raises, never returns.
    """
    targets = tuple(sorted(set(int(p) for p in targets)))
    if not targets:
        raise ConstructionError("empty target set")
    if depth is None:
        depth = len(targets)
    if not 1 <= depth <= len(targets):
        raise ConstructionError(f"depth {depth} out of range for {targets}")
    targets = targets[:depth]

    blocks = tuple(orbit_block(p) for p in targets)
    spans, orders, d_coords = [], [], []
    copies = 1
    for i, block in enumerate(blocks):
        spans.append(BlockSpan(i, len(orders), copies))
        d_coords.append(len(orders))
        orders.extend([block.prime] * copies)
        copies *= block.orbit_length
    module = FiniteAbelianGroup(tuple(orders))
    # |B| may exceed the enumeration cap (it is never enumerated); the
    # verification below only walks D and K, which must stay enumerable
    if prod(targets) > ENUMERATION_CAP or prod(b.prime for b in blocks) > ENUMERATION_CAP:
        raise SizeCapError(
            f"K or D at depth {depth} exceeds enumeration cap {ENUMERATION_CAP}")
    theta = _block_step_automorphism(module, spans, blocks)

    triple = AlgebraicTriple(
        targets=targets,
        blocks=blocks,
        module=module,
        theta=theta,
        spans=tuple(spans),
        d_coords=tuple(d_coords),
    )
    _verify_triple(triple)
    return triple


def _verify_triple(triple: AlgebraicTriple):
    # theta^|K| must be the identity; the action refuses it otherwise
    try:
        action = triple.action
    except InvalidElementError as exc:
        raise ConsistencyError("theta^|K| is not the identity") from exc
    # the twist-and-cycle identity on each span: iterating (copies) times
    # must act as the block twist on every copy simultaneously (copies is
    # |K| only for the targets {1}, where theta^|K| is the identity)
    for span, block in zip(triple.spans, triple.blocks):
        power = action.matrices[span.copies % triple.k_order]
        coords = range(span.start, span.start + span.copies)
        expected = np.zeros((triple.module.rank, span.copies), dtype=np.int64)
        expected[coords, range(span.copies)] = block.multiplier % block.prime
        wrong = np.flatnonzero((power[:, coords] != expected).any(axis=0))
        if wrong.size:
            raise ConsistencyError(
                f"copy-cycling identity fails on span {span} at copy {wrong[0]}"
            )
    # theta must have exactly the advertised order
    for p in _prime_factors(triple.k_order):
        if np.array_equal(action.matrices[triple.k_order // p], action.matrices[0]):
            raise ConsistencyError(f"theta has order dividing |K|/{p}")
    # the defining trace-count property, by exhaustive orbit enumeration
    got = {len(c) for c in triple.classes}
    if got != set(triple.targets):
        raise ConsistencyError(
            f"trace counts {sorted(got)} != targets {list(triple.targets)}"
        )


# ---------------------------------------------------------------------------
# compactification tower
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactTower:
    """Coherent truncations of a triple at depths 1..m.

    Level j carries the cyclic group K_j = Z/(p_1...p_j) acting on the module
    assembled from the first j blocks; the connecting maps are reduction mod
    |K_j| on the acting groups and coordinate truncation on the modules.
    """

    levels: tuple[AlgebraicTriple, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def k_orders(self) -> list[int]:
        return [lvl.k_order for lvl in self.levels]

    def project_module(self, j: int, a):
        """Module at full depth -> module at depth j (drop deep-block coordinates)."""
        rank = self.levels[j - 1].module.rank
        return tuple(a[:rank])

    def verify(self):
        for j in range(1, self.depth):
            lo, hi = self.levels[j - 1], self.levels[j]
            if hi.k_order % lo.k_order:
                raise ConsistencyError(
                    f"K_{j + 1} -> K_{j} is not onto: {hi.k_order} vs {lo.k_order}"
                )
            if hi.module.orders[: lo.module.rank] != lo.module.orders:
                raise ConsistencyError(f"module truncation mismatch at level {j}")
            # equivariance on generators: project(theta_hi(e)) == theta_lo(project(e))
            for gen in hi.module.generators():
                lhs = self.project_module(j, hi.theta.apply(gen))
                g_lo = self.project_module(j, gen)
                rhs = lo.theta.apply(g_lo)
                if lhs != rhs:
                    raise ConsistencyError(f"equivariance fails at level {j} on {gen}")
            # the deep action on shallow coordinates factors through K_j
            rank = lo.module.rank
            power, identity = hi.action.matrices[lo.k_order], hi.action.matrices[0]
            if not np.array_equal(power[:rank, :rank], identity[:rank, :rank]):
                raise ConsistencyError(
                    f"kernel of K_{j + 1} -> K_{j} acts nontrivially at level {j}"
                )


def compactify(triple: AlgebraicTriple) -> CompactTower:
    """Truncations of the triple at every depth 1..m, with coherence verified."""
    levels = tuple(
        assemble_triple(triple.targets, depth=j) for j in range(1, triple.depth)
    ) + (triple,)
    tower = CompactTower(levels)
    tower.verify()
    return tower


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualityRecord:
    """Identification of the dual-side data attached to a triple.

    The companion module A is the character group of B (realized on the same
    orders via the standard pairing); K acts on A by k . t = t o theta^{-k}.
    The annihilator H of D inside A consists of the characters vanishing on
    every distinguished coordinate, and the characters of A that matter for
    the factor components correspond exactly to the elements of D.
    """

    triple: AlgebraicTriple
    dual_module: FiniteAbelianGroup
    dual_action: ModuleAction
    annihilator_coords: tuple[int, ...]
    annihilator_size: int

    def character_of_dual(self, d) -> Character:
        """The character of A indexed by d in B (evaluation at d)."""
        self.triple.module.check(d)
        return Character(self.dual_module, d)

    def annihilator_elements(self):
        return self.dual_module.coordinate_subgroup(self.annihilator_coords)

    def verify(self):
        b_size = self.triple.module.size
        d_size = self.triple.d_size()
        if self.annihilator_size * d_size != b_size:
            raise ConsistencyError(
                f"|H| * |D| = {self.annihilator_size} * {d_size} != |B| = {b_size}"
            )
        if self.annihilator_size <= ENUMERATION_CAP:
            # the pairing <t, d> = e^{2 pi i e/N}, e the exponent of d's character
            # at t, for every t in H at once: one product with their weights
            chars = [self.character_of_dual(d) for d in self.triple.d_generators()]
            ann = self.annihilator_elements()
            pairing = (np.array(ann, dtype=np.int64).reshape(len(ann), -1)
                       @ _weights(self.dual_action, chars) % self.dual_module.exponent)
            off = np.flatnonzero(pairing.any(axis=1))
            if off.size:
                raise ConsistencyError(f"{ann[off[0]]} is not in the annihilator of D")
        # the identification sends the factor characters onto D, so D's
        # traces under the dual action must be its traces under theta
        dual = _traces(self.dual_action, frozenset(self.triple.d_elements()))
        if dual != self.triple.classes:
            raise ConsistencyError(
                f"dual trace counts {sorted({len(c) for c in dual})}: the dual trace "
                f"partition of D is not its partition under theta")


def dualize(triple: AlgebraicTriple) -> DualityRecord:
    """Character-group picture of a triple, with |H| * |D| = |B| certified."""
    dual_module = FiniteAbelianGroup(triple.module.orders)
    dual_gen = triple.action.powers[-1].dual()  # the dual of theta^-1
    dual_action = ModuleAction(triple.k_group, dual_module, (dual_gen,))
    ann_coords = tuple(
        i for i in range(triple.module.rank) if i not in set(triple.d_coords)
    )
    ann_size = prod(triple.module.orders[i] for i in ann_coords) if ann_coords else 1
    record = DualityRecord(
        triple=triple,
        dual_module=dual_module,
        dual_action=dual_action,
        annihilator_coords=ann_coords,
        annihilator_size=ann_size,
    )
    record.verify()
    return record
