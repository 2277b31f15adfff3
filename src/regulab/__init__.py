"""regulab: a deterministic laboratory for closed-loop regulation.

Finite system-regulator relations with entropy-based regulation scores,
requisite-variety analysis of state mappings, discrete PID control,
avalanche-style power-law series, forward noising of grayscale images,
procedural motor learning under alternating force fields, a color-gradient
vehicle, and two toy optimizers annotated as regulators. All randomness
flows through one seeded generator, so every run is reproducible
byte-for-byte; the reach learner and the vehicle compute on plain floats,
so their outputs do not depend on numpy's BLAS/LAPACK build.
"""

__version__ = "0.1.0"
