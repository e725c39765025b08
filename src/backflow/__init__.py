"""backflow: measure training memory through controlled two-step interventions.

The harness runs paired micro-experiments (two first instruments differing
only by augmentation, then a common second instrument) on small trainable
models, records whether the second instrument amplifies or attenuates the
branches' distinguishability on a fixed probe set, and tests the optimizer
buffer reset that should neutralize the effect.  A finite process oracle
verifies the underlying no-back-flow bounds exactly.
"""

from .data import load_table

__version__ = "0.1.0"
