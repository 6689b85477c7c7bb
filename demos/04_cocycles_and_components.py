#!/usr/bin/env python3
"""From stage labels to cocycles to phased-permutation components.

Each labelled stage contributes a table on its cut set; the cocycle between
two tower levels is an exact element of the semidirect product, and each
character of the algebra turns the tower map into a permutation with
root-of-unity edge phases whose spectrum is computed cycle by cycle.
"""

from fractions import Fraction

from cfspectra import (
    Character,
    DeltaBlock,
    SessionConfig,
    build_component,
    canonical_word,
    evaluate_cocycle,
    loop_product,
    synth,
)

session = synth(SessionConfig(
    mode="direct", targets=(1, 2),
    blocks=(DeltaBlock(Fraction(1, 2), 4, r_start=3),),
))
print("stage labels:", [(l.kind, l.k, l.a) for l in session.labels])

# Exact cocycle values between levels of the full tower.
sched = session.schedule
x = canonical_word(5, sched)
y = canonical_word(17, sched)
print("word of level 5:", x)
print("word of level 17:", y)
print("cocycle value (group exponent, module element):",
      evaluate_cocycle(x, y, session.maps, session.ctx))

# The product of the transition values around the depth-3 tower cycle.
model = session.model(3)
print("\nloop product around the depth-3 cycle:", loop_product(model))


def holonomies(op, cycles):
    """Total phase exponent of each cycle, walked from its level-0 state."""
    out = []
    for start in range(cycles):
        state, total = start, 0
        for _ in range(model.height):
            total += int(op.phase_exp[state])
            state = int(op.succ[state])
        assert state == start
        out.append(total % op.phase_order)
    return out


# Components: base-tower components for acting-group characters, skew-tower
# components for module characters.  The trivial one is a bare cycle.
eta0 = Character(session.triple.k_group, (0,))
op = build_component(session, eta0, depth=3)
print("trivial component: one cycle of length", op.n_states,
      "with phases", set(op.phase_exp.tolist()))

eta1 = Character(session.triple.k_group, (1,))
op = build_component(session, eta1, depth=3)
print("twisted component: one cycle, holonomy", holonomies(op, 1),
      "so its", op.n_states, "eigenvalues are distinct")

d = session.factor_characters()[2]
chi = session.duality.character_of_dual(d)
op = build_component(session, chi, depth=3)
print(f"skew component for d={d}: {op.n_states} eigenvalues on "
      f"{session.k_order} cycles of length {model.height}, holonomies "
      f"{holonomies(op, session.k_order)}")
