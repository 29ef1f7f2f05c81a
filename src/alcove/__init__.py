"""Orthogonal polynomials on Weyl alcoves, discrete (pseudo) Laplacians on
the dominant cone, and their factorized scattering theory.

The public names below resolve on first access (PEP 562), so importing the
package, or one submodule through it, loads only the modules that are used.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("RootSystem", "WeylElement", "build_root_system"), "rootsys"),
    **dict.fromkeys(("CFunctionSpec", "MacdonaldC", "KoornwinderShortC", "UnitC",
                     "koornwinder_spec", "macdonald_spec", "qpochhammer_inf", "shat",
                     "shat_sqrt", "unit_spec"), "qfun"),
    **dict.fromkeys(("LaurentPoly", "QuadratureGrid", "inner_product",
                     "monomial_symmetric", "orbit_symbol", "weyl_character",
                     "weyl_denominator"), "harmonic"),
    **dict.fromkeys(("KoornwinderParams", "MacdonaldParams", "OrthoPolySystem",
                     "gram_schmidt", "norm_constants"), "orthopoly"),
    **dict.fromkeys(("LatticeFunction", "apply_free", "apply_fourier_conjugated",
                     "apply_koornwinder", "apply_macdonald_ruijsenaars"), "laplacian"),
    **dict.fromkeys(("ScatteringContext", "WaveTable", "convergence_report"),
                    "scattering"),
    **dict.fromkeys(("WavePacket", "run_scattering_diagnostic"), "evolution"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
