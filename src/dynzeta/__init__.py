"""Exact zeta-function data for dynamically affine self-maps of P^1 in
characteristic p: closed-form periodic-point counts, brute-force oracles,
zeta series, rationality detection, and automatic-sequence certificates."""

__version__ = "0.1.0"

from .errors import DynzetaError
from .field import (FieldCtx, FieldElem, Poly, distinct_root_count,
                    field_make, ratfunc_field, separable_radical)
from .dynmap import (RatMap, compose, cycle_census, iterate, per_n_oracle,
                     poly_map, rat_map)
from .twisted import (TwistedPoly, constant_order, kernel_size_ga, lte_ga,
                      realize_additive, tw_add, tw_mul, tw_pow,
                      tw_sub_scalar, v_phi)
from .orders import (B3_ORDER, HURWITZ, NormSequenceReport, PrimeContext,
                     QuadElem, QuadRing, QuatElem, lte_int, lte_quad,
                     lte_quat, norm_sequence, prime_context, units, v_I,
                     v_frak_p)
from .elliptic import (CurvePoint, EllipticCurve, is_supersingular,
                       lattes_oracle, lattes_realize, point_count,
                       torsion_count)
from .families import (AdditiveMap, ChebyshevMap, LattesGenericJ,
                       LattesOrdinary, LattesSupersingular, PowerMap,
                       SubadditiveMap, classify_separability, map_degree,
                       per_n_closed, per_n_counts, per_n_template, realize)
from .automata import (Dfao, KernelReport, christol_series,
                       eventual_period_detect, kernel_explore,
                       vp_geometric_sequence, vp_tower_sequence)
from .zeta import (Certificate, Verdict, ZetaSeries, certificate_build,
                   rationality_guess, series_of_rational, verdict,
                   zeta_from_counts)
from .sentinels import INFINITY, TRANSCENDENTAL
