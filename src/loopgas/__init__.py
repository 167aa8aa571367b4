"""Annulus partition functions of the critical O(n)/Potts loop models.

Coulomb-gas q-series for the scaling-limit annulus partition function with
free boundaries and generalized winding-loop weights, their crossed-channel
(conjugate-modulus) forms, minimal-model character decompositions, and the
derived observables: percolation crossing probability, self-avoiding-loop
partition functions, logarithmic n -> 0 derivatives, boundary entropies, and
the boundary-term shift of the strip Casimir energy.

`import loopgas` loads none of the submodules.  Each public name (the seven
submodules and what `_SOURCES` lists for them) is resolved on first use
through the module `__getattr__` (PEP 562), which imports just the submodule
that defines it; `__all__`, `dir()` and `from loopgas import *` list them all.

All objects are immutable and every operation is a pure function; everything
here is safe to call concurrently.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_SOURCES = {
    "annulus": """ChannelEval boundary_g_factor duality_check flux_sum
        leading_asymptote partition_crossed partition_direct
        partition_direct_parity partition_naive""",
    "boundary": "BoundaryCoupling c_effective e0_zeta e1_cutoff e1_zeta",
    "characters": "CharacterSpec decompose decomposition_to_json rocha_caridi",
    "errors": """BackendMismatchError DecompositionError DomainError
        IdentityError LoopGasError RegulatorFitError TailBoundError""",
    "observables": """AsymptoteFit asymptote_fit crossing_probability
        log_chain_scale log_partition log_partition_exact_core saw_loop_dense
        saw_loop_derivative_series saw_loop_dilute wrap_count_generating""",
    "params": """CGParams Phase WrapWeight as_phase central_charge_slope_at_zero
        default_wrap electric_dimension leg_exponent params_from_n
        vortex_marginality_check wrap_coefficient wrap_weight""",
    "qseries": """Backend GenSeries SeriesTerm dedekind_eta_series
        eta_modular_check euler_inverse euler_product eval_at
        max_abs_coeff_diff pentagonal_series""",
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names.split()}

__all__ = sorted([*_SOURCES, *_HOME])


def __getattr__(name: str):
    if name in _SOURCES:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
