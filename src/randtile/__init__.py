"""Computational laboratory for globally-random substitution tilings.

Substitution rules driven by random symbol sequences, supertile patch
generation and decomposition, the trace cocycle and its Lyapunov spectrum,
deviations of ergodic integrals, Denjoy-Koksma checks on solenoids, and
pattern-equivariant operators on puncture sets.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ConvergenceError, DegenerateObservableError,
                     IncompletePatternError, InsufficientDataError,
                     MinimalityError, PartialCoverError, RandtileError,
                     StructuralError, UnsupportedOperationError)
from .substitution import (Branch, Prototile, RuleFamily, SubstitutionRule,
                           builtin_families, builtin_family,
                           half_hex_classical, half_hex_pair, load_family,
                           matrix_only_family, one_d_pair, save_family,
                           solenoid_family, substitution_matrix,
                           validate_rule)
from .symbolic import (MeasureSpec, SymbolSequence, recurrence_times,
                       rng_stream, sample_sequence)
from .tiling import (DecompositionReport, Patch, Region, SupertileSystem,
                     decompose_region, decomposition_tile_multiset,
                     generate_patch)
from .bratteli import (PathWord, SpanningSystem, approximant,
                       connectivity_matrices, path_counts, spanning_system)
from .cocycle import (LyapunovReport, apply_cocycle, lyapunov_spectrum,
                      top_left_direction)
from .ergodic import (CotraceEstimate, DeviationFit, ErgodicVector,
                      SpecialAveragingSequence, TLCObservable, cotrace_shadow,
                      deviation_along_sequence, deviation_cap,
                      deviation_over_regions, ergodic_vectors,
                      make_zero_trace_observable, special_averaging_sequence)
from .solenoid import (CylinderObservable, SolenoidSpec, cylinder_measure,
                       dk_check, random_observable, variation)
from .schrodinger import (KernelSpec, PunctureSet, WindowedOperator,
                          build_operator, eigenvalue_counts, ids_estimate,
                          trace_deviation, windowed_trace)

__all__ = [name for name in dir() if not name.startswith("_")]
