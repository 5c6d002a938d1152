"""Steady-state transport, correlations and tunneling metrology for a
two-site fermionic junction.

The package solves the Bloch-Redfield master equation of two tunnel-coupled
fermionic sites, each wired to its own thermal reservoir, without the
secular approximation, and evaluates transport (particle/energy currents,
entropy production), quantum correlations (coherence, concurrence, mutual
information, discord) and the quantum Fisher information of the steady
state with respect to the tunneling amplitude.

The package re-exports each module's ``__all__``.
"""
from . import model, liouvillian, observables, metrology, thermo, sweep, verify
from .model import *
from .liouvillian import *
from .observables import *
from .metrology import *
from .thermo import *
from .sweep import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *liouvillian.__all__,
    *observables.__all__,
    *metrology.__all__,
    *thermo.__all__,
    *sweep.__all__,
    *verify.__all__,
]
