"""tensorbit: rank-1 approximation and orbit analysis of small real tensors.

Core capabilities:

* closed-form enumeration of the stationary points of the best rank-1
  approximation problem for 2x2x2 tensors (degree-8 resultant) and
  symmetric 2x2x2 tensors (cubic), plus an alternating least-squares
  method for pxpx2;
* hyperdeterminant computation and complete orbit classification
  (D0, D1, D2, D2p, D2pp, G2, D3, G3; symmetric subset);
* symmetric rank via Sylvester's criterion with constructive rank-1/2/3
  decompositions and explicit transforms from the canonical D3 / G3 forms;
* rank-1 deflation reports and seeded Monte Carlo experiments showing
  that deflation residuals land on the rank-2/rank-3 boundary orbit D3.
"""

from .decomp import (CanonicalSymForm, CanonicalTransform, DomainError, SymDecomposition,
                     canonical_transform, canonicalize_sym_form, sylvester_rank,
                     sym_rank2_decompose, sym_rank3_decompose,
                     transform_from_canonical_D3, transform_from_canonical_G3)
from .deflation import (DeflationReport, ExperimentStats, check_degenerate_props,
                        deflate_once, experiment_d3_closure, experiment_generic,
                        experiment_pxpx2, experiment_symmetric, write_trial_csv)
from .document import TensorDocument, parse_document
from .orbits import (OrbitLabel, SymTensor222, canonical_form, classify, classify_sym,
                     hyperdet, hyperdet_sym, pencil_eigs, slab_pencil)
from .rank1 import (BestRank1Result, StationaryPoint, SymStationaryPoint, best_rank1_222,
                    best_rank1_sym, detect_infinite_best, hopm, optimal_x, psi,
                    psi_surface, stationary_points_222, stationary_points_sym)
from .smallalg import (EigenPair2, NumericalFailure, Polynomial, Spectrum, common_root,
                       eig2, roots, spectrum_small)
from .tensors import (MultilinearRank, Rank1Term, Tensor222, TensorPxPx2, contract_mode,
                      frobenius_norm_sq, multilinear_rank, multilinear_transform)

__version__ = "0.1.0"
