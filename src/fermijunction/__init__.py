"""Steady-state transport, correlations and tunneling metrology for a
two-site fermionic junction.

The package solves the Bloch-Redfield master equation of two tunnel-coupled
fermionic sites, each wired to its own thermal reservoir, without the
secular approximation, and evaluates transport (particle/energy currents,
entropy production), quantum correlations (coherence, concurrence, mutual
information, discord) and the quantum Fisher information of the steady
state with respect to the tunneling amplitude.
"""
from .model import (
    BathParams,
    EigenBasis,
    SystemParams,
    diagonalize,
    fermi_occupation,
)
from .liouvillian import (
    DegenerateNullSpaceError,
    Liouvillian,
    NessResult,
    SteadyStateError,
    build_liouvillian,
    grand_canonical_state,
    solve_ness,
    steady_state,
)
from .observables import (
    DiscordResult,
    coherence,
    concurrence,
    discord,
    discord_brute_force,
    linear_entropy,
    mutual_information,
    site_basis_state,
)
from .metrology import (
    QfiReport,
    RankChangeError,
    qfi_equilibrium_approx,
    qfi_fidelity_oracle,
    qfi_spectral,
)
from .thermo import (
    ThermoReport,
    entropy_production_rate,
    epr_leading_order,
    epr_regime_ok,
    ness_leading_order,
    transport_report,
)
from .sweep import (
    Axis,
    ConfigError,
    SweepResult,
    SweepSpec,
    emit,
    load_config,
    run_sweep,
    sweep_spec_from_config,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BathParams",
    "ConfigError",
    "DegenerateNullSpaceError",
    "DiscordResult",
    "EigenBasis",
    "Liouvillian",
    "NessResult",
    "QfiReport",
    "RankChangeError",
    "SteadyStateError",
    "SweepResult",
    "SweepSpec",
    "SystemParams",
    "ThermoReport",
    "build_liouvillian",
    "coherence",
    "concurrence",
    "diagonalize",
    "discord",
    "discord_brute_force",
    "emit",
    "entropy_production_rate",
    "epr_leading_order",
    "epr_regime_ok",
    "fermi_occupation",
    "grand_canonical_state",
    "linear_entropy",
    "load_config",
    "mutual_information",
    "ness_leading_order",
    "qfi_equilibrium_approx",
    "qfi_fidelity_oracle",
    "qfi_spectral",
    "run_sweep",
    "run_verification",
    "site_basis_state",
    "solve_ness",
    "steady_state",
    "sweep_spec_from_config",
    "transport_report",
]
