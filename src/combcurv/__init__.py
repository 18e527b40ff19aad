"""Combinatorial curvature toolkit for finite simplicial complexes.

Checkers for cycle largeness and dwheel location, path-metric descent
properties and interval thinness, an inductive universal-cover ball
builder, and the validation pipeline for edge-degree-constrained
triangulations of 3-manifolds.  Every checker returns a witness-carrying
verdict that can be re-validated independently.
"""

from .complexes import (
    Cycle,
    SimplicialComplex,
    build_complex,
    full_cycles,
    is_flag,
)
from .curvature import (
    DWheel,
    Wheel,
    check_covering_preservation,
    dwheels,
    is_k_large,
    is_locally_k_large,
    is_m_located,
    wheels,
)
from .cover import CoverReport, CoverState, build_cover, expand_ball, verify_equiv_shortcut
from .generators import GeneratorSpec, generate
from .manifold import (
    FillingPair,
    ManifoldReport,
    SoccerDual,
    check_sphere_cycle_lemma,
    check_wheel_in_link,
    find_7cycle_filling,
    is_5_6_star_sphere,
    soccer_dual,
    validate_closed_3manifold,
    verify_theorem_b,
)
from .metric import (
    LayeredInterval,
    SDReport,
    ball,
    check_projection_lemma,
    check_sd_prime,
    delta_four_point,
    distance,
    interval,
    interval_thinness,
    sphere,
)
from .verdicts import Verdict

__version__ = "0.1.0"

__all__ = [
    "Cycle",
    "CoverReport",
    "CoverState",
    "DWheel",
    "FillingPair",
    "GeneratorSpec",
    "LayeredInterval",
    "ManifoldReport",
    "SDReport",
    "SimplicialComplex",
    "SoccerDual",
    "Verdict",
    "Wheel",
    "ball",
    "build_complex",
    "build_cover",
    "check_covering_preservation",
    "check_projection_lemma",
    "check_sd_prime",
    "check_sphere_cycle_lemma",
    "check_wheel_in_link",
    "delta_four_point",
    "distance",
    "dwheels",
    "expand_ball",
    "find_7cycle_filling",
    "full_cycles",
    "generate",
    "interval",
    "interval_thinness",
    "is_5_6_star_sphere",
    "is_flag",
    "is_k_large",
    "is_locally_k_large",
    "is_m_located",
    "soccer_dual",
    "sphere",
    "validate_closed_3manifold",
    "verify_equiv_shortcut",
    "verify_theorem_b",
    "wheels",
]
