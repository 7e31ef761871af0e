"""PDE discovery with Lie point symmetries as hard structural constraints.

The package turns gridded trajectory data into governing equations in four
moves: prolong the symmetry generators of the target system, verify a set of
joint differential invariants, evaluate those invariants on a jet grid (built
spectrally in x for noiseless data, by finite differences for noisy data), and
run sparse regression over the invariant features.
Baselines without the symmetry restriction (plain sparse regression and a
symmetry-regularized variant) live alongside for comparison experiments.
"""

from .expr import LiesindyError

__version__ = "0.1.0"
