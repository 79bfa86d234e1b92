"""Boundary-element solver and resonance analyzer for small high-contrast
acoustic bubbles: capacitance and Minnaert frequency of a closed surface,
the frequency-dependent interaction operator with its small-scale
expansions, full finite-contrast scattered fields, closed-form asymptotic
amplitudes, and the point-interaction resolvent limit."""

from .boundary_calculus import (NumericalGuardError, SpectralData,
                                expansion_residual, k2_resonance_frequency,
                                spectral_data)
from .layer_ops import (SeriesStack, assemble_double_layer,
                        assemble_layer_pair, assemble_series_stack,
                        assemble_single_layer, eval_single_layer_potential,
                        series_tail_bound, single_layer_monopole)
from .mesh import (MeshError, SurfaceMesh, build_mesh, load_mesh,
                   make_ellipsoid, make_icosphere, scale_about,
                   surface_centroid)
from .mie import MieSolution, mie_monopole_amplitude, mie_solve
from .scattering import (METHODS, FieldResult, FitError, PeakFit, PlaneWave,
                         PointSource, ScatteringProblem, SweepResult,
                         SweepRow, far_field_points, frequency_sweep,
                         green_function, point_perturbation_kernel,
                         resolvent_correction_kernel, resonance_peak,
                         scattered_field, scattered_field_dilated,
                         scattered_field_direct)

__version__ = "0.1.0"
