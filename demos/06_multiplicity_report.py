#!/usr/bin/env python3
"""End to end: prescribe a multiplicity set, build the session, report.

The components of the factor system are indexed by the distinguished
subgroup D; conjugating by an acting-group element permutes them along the
orbit, so the component classes have sizes equal to the orbit trace counts,
and separating orbit averages certify that distinct classes stay apart.  The
within-class spectra agree because the transition values multiply to the
identity around the tower cycle; the report raises if they do not.
"""

from fractions import Fraction

from cfspectra import DeltaBlock, SessionConfig, loop_product, multiplicity_report, synth

for mode, targets in (("direct", (1, 2)), ("product", (2, 3))):
    session = synth(SessionConfig(
        mode=mode, targets=targets,
        blocks=(DeltaBlock(Fraction(1, 2), 4, r_start=3),),
    ))
    rep = multiplicity_report(session)
    print(f"mode {mode}, targets {targets}:")
    print("  classes:", rep.classes)
    print("  class sizes:", rep.class_sizes, " trace counts:", sorted(rep.trace_counts))
    print("  reported multiplicities:", sorted(rep.multiplicities))
    print("  loop product around the depth-4 cycle:", loop_product(session.model(4)))
    print("  within-class spectra equal:",
          all(all(v.values()) for v in rep.equivalence_verdicts.values()))
    sep = sum(1 for c in rep.certificates.values() if not c.equivalent)
    print(f"  cross-class pairs separated by orbit averages: {sep}/{len(rep.certificates)}")
    for (i, j), cert in sorted(rep.certificates.items())[:2]:
        print(f"    classes {i},{j}: separating element {cert.separating_a}, "
              f"averages {cert.l_left.value():.4f} vs {cert.l_right.value():.4f}")
    for note in rep.notes:
        print("  note:", note)
    print()
