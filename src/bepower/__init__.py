"""Power analysis for two-group equivalence tests with unequal variances.

Welch-based TOST power is estimated by mapping randomized Sobol' points
to trial summary statistics (`empirical_power`), whole power curves and
sample-size recommendations come from per-point root-finding on the
mapped statistics (`power_curve`), and a naive data-level simulator
(`naive_power`) serves as the validation reference.  2x2 crossover
designs reduce to the same machinery (`crossover_sample_size`), and the
`diagnostics` module measures how often the root-finding assumptions
are stressed.

The package re-exports the public names of each module, its `__all__`.
"""

from . import crossover, curve, diagnostics, oracle, qrng, special, tost
from .crossover import *  # noqa: F401,F403
from .curve import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .qrng import *  # noqa: F401,F403
from .special import *  # noqa: F401,F403
from .tost import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(name for module in (crossover, curve, diagnostics, oracle,
                                     qrng, special, tost)
                 for name in module.__all__)
