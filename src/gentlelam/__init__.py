"""Gentle algebras: module schemes, surface laminations, bangle functions."""

from .quiver import (GentleAlgebra, InconsistentSigns, NonComposableRelation,
                     NotGentle, Quiver, RhoBlock, compute_sign_maps,
                     is_jacobian, rho_blocks, transport_dimvec,
                     validate_gentle)
from .strings import (BandWord, DictionaryExhausted, InvalidBand,
                      InvalidString, NotPrimitive, Representation, StringWord,
                      ZeroLambda, band_module, band_word, canonical_band,
                      canonical_string, decompose, direct_sum, parse_word,
                      enumerate_bands, enumerate_strings, hom_dim, iso_test,
                      rank_function_of, string_module, string_word)
from .homological import (DecoratedModule, FormulaMismatch, StandardHom,
                          e_invariant, ext1_dim, g_vector, hom_dim_oracle,
                          is_tau_rigid, min_proj_presentation, standard_homs,
                          tau_dtr, tau_string)
from .schemes import (Component, ConsistencyFailure, DecoratedComponent,
                      NotJacobian, SamplingFailure, UniquenessViolation,
                      block_critical_summands, canonical_decomposition,
                      ceh_values, component_dim, components,
                      critical_relation_pairs, decorated_g_vector, dim_gl,
                      generic_point, is_generically_reduced, is_smooth_point,
                      is_tau_reduced, rank_functions, tangent_dim,
                      tau_reduced_components_census)
from .surface import (CoefficientQuiver, CurveSeq, InconsistentSequence,
                      InvalidLamination, InvalidTriangulation, Lamination,
                      NotLocallyMinimal, NotOpenCurve, Triangulation,
                      band_to_curve, build_QT, coefficient_quiver,
                      curve_to_module, eta, int_zero, make_lamination,
                      rotate_tau, shear_coordinates, shear_of_lamination,
                      string_to_curve, validate_curve)
from .laurent import (LaurentPoly, NotPathOrCycle, UnsupportedModule,
                      bangle, bangle_lamination, cc_prime, order_coideals,
                      signed_adjacency, specialize,
                      verify_bangle_equals_generic, word_coefficient_quiver,
                      yhat)

__all__ = [name for name in dir() if not name.startswith("_")]
