"""Orthogonal polynomials on Weyl alcoves, discrete (pseudo) Laplacians on
the dominant cone, and their factorized scattering theory."""

__version__ = "0.1.0"

from .rootsys import RootSystem, WeylElement, build_root_system
from .qfun import (CFunctionSpec, MacdonaldC, KoornwinderShortC, UnitC,
                   koornwinder_spec, macdonald_spec, qpochhammer_inf, shat,
                   shat_sqrt, unit_spec)
from .harmonic import (LaurentPoly, QuadratureGrid, inner_product,
                       monomial_symmetric, orbit_symbol, weyl_character,
                       weyl_denominator)
from .orthopoly import (KoornwinderParams, MacdonaldParams, OrthoPolySystem,
                        gram_schmidt, norm_constants)
from .laplacian import (LatticeFunction, apply_free, apply_fourier_conjugated,
                        apply_koornwinder, apply_macdonald_ruijsenaars)
from .scattering import (ScatteringContext, SpectralFunction, WaveTable,
                         convergence_report)
from .evolution import WavePacket, run_scattering_diagnostic
