import numpy as np
import pytest

# every submodule is imported before any test runs: the CLI imports some of
# them on first use, and a first import under a monkeypatch would bind the
# patched name for the rest of the session
import alcove.cli
import alcove.evolution
import alcove.harmonic
import alcove.laplacian
import alcove.orthopoly
import alcove.qfun
import alcove.rank1
import alcove.rootsys
import alcove.scattering
from alcove.harmonic import QuadratureGrid
from alcove.orthopoly import KoornwinderParams, MacdonaldParams, gram_schmidt
from alcove.rootsys import build_root_system
from alcove.scattering import WaveTable


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B", 2)


@pytest.fixture(scope="session")
def bc1():
    return build_root_system("BC", 1)


@pytest.fixture(scope="session")
def bc2():
    return build_root_system("BC", 2)


@pytest.fixture(scope="session")
def a2_macdonald(a2):
    return MacdonaldParams.create(a2, 1.3, float(np.exp(-0.7)))


@pytest.fixture(scope="session")
def a2_system(a2, a2_macdonald):
    # deep enough for Pieri shifts by both fundamental orbits and theta
    return gram_schmidt(a2, a2_macdonald.cspec(),
                        [(2, 2), (2, 1), (1, 2), (3, 0), (0, 3)])


@pytest.fixture(scope="session")
def bc1_koornwinder(bc1):
    return KoornwinderParams.create(bc1, 1.0, (0.9, 0.7, 0.6, 0.8), 0.45)


@pytest.fixture(scope="session")
def bc1_system(bc1, bc1_koornwinder):
    return gram_schmidt(bc1, bc1_koornwinder.cspec(), [(12,)], tol=1e-12)


@pytest.fixture(scope="session")
def bc1_table(bc1, bc1_system):
    return WaveTable(bc1_system, QuadratureGrid(bc1, 256))
