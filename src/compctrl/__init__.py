"""Synthesis and simulation toolkit for ratio-optimal linear control.

The package synthesizes controllers that minimize the worst-case ratio of
incurred quadratic cost to the clairvoyant (noncausal) optimal cost, by
reducing the ratio problem to disturbance attenuation on a synthetic plant
(:mod:`compctrl.factorization`).  Alongside the ratio-optimal synthesis it
provides the classical baselines (LQR with and without disturbance
feedforward, fixed-level attenuation), clairvoyant offline solves, gamma
bisection, time-domain simulation, frequency-domain analysis, and a
receding-horizon nonlinear pendulum benchmark.
"""

from . import model, riccati, factorization, controllers, search, sim, freq, mpc
from .model import *
from .riccati import *
from .factorization import *
from .controllers import *
from .search import *
from .sim import *
from .freq import *
from .mpc import *

__version__ = "0.1.0"

#: each public name is declared once, in the ``__all__`` of its module
__all__ = [
    *model.__all__, *riccati.__all__, *factorization.__all__, *controllers.__all__,
    *search.__all__, *sim.__all__, *freq.__all__, *mpc.__all__, "__version__",
]
