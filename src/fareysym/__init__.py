"""Extended Farey symbols for finite-index subgroups of PSL2(Z).

Build a unimodular symbol for Gamma0(N) (or any group given by a
membership oracle), normalize it by Siegel dissection, and read off cusp
data, generators, a symplectic basis of handles, the presentation of the
degree-zero divisors on P^1(Q), and a solution of the word problem.
"""

from .exact import (Cusp, IMat, INFINITY, ZERO, FareyError,
                    InvalidSymbolError, NotNormalizedError,
                    arc_matrix, classify)
from .symbol import FareySymbol
from .kulkarni import (MembershipOracle, build_unimodular, gamma0_oracle,
                       gamma0_symbol, p1_normalize, replay_trace)
from .siegel import (NormalizationState, base_cut, base_cut_elliptic,
                     normalize, siegel_step)
from .invariants import (CosetTable, CuspClass, GeneratorSystem, contains,
                         coset_table, counts, cusp_orbits, express_word,
                         generators, word_product)
from .delta0 import (Delta0Presentation, GroupRingElement,
                     delta0_presentation, resolution_maps)
from .render import RenderSpec, render_chords, render_polygon

__all__ = [
    "Cusp", "IMat", "INFINITY", "ZERO", "FareyError", "InvalidSymbolError",
    "NotNormalizedError", "arc_matrix", "classify",
    "FareySymbol", "MembershipOracle", "build_unimodular",
    "gamma0_oracle", "gamma0_symbol", "p1_normalize", "replay_trace",
    "NormalizationState", "base_cut", "base_cut_elliptic", "normalize",
    "siegel_step", "CosetTable", "CuspClass", "GeneratorSystem", "contains",
    "coset_table", "counts",
    "cusp_orbits", "express_word", "generators", "word_product",
    "Delta0Presentation", "GroupRingElement", "delta0_presentation",
    "resolution_maps", "RenderSpec", "render_chords", "render_polygon",
]

__version__ = "0.1.0"
