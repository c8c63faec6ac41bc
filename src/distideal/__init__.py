"""Exact distance-ideal toolkit for small connected graphs."""

from .graph import (Graph, build_graph, family, parse_graph6, emit_graph6,
                    all_pairs_distances, is_connected, contains_induced,
                    enumerate_connected, PATTERNS)
from .poly import Polynomial, ZZ, QQ
from .groebner import Ideal, ideals_equal
from .ideals import (generalized_distance_matrix, det_symbolic, minors,
                     distance_ideal, trivial_count_phi, evaluate_ideal,
                     char_poly_distance)
from .snf import (smith_normal_form, distance_snf, distance_laplacian_snf,
                  phi_unit_count, SNFResult)
from .families import FamilySpec, verify_family
from .classify import classify_Z, classify_R, corpus_report

__version__ = "0.1.0"
