"""Exact subgroup-lattice and garland computations for tori of etale algebras."""

from .config import DEFAULT_CAPS, Caps
from .etale import (
    AlgebraSpec,
    RingAutomorphism,
    additive_span_check,
    aut_group,
    count_power_in_base,
    primitive_norm_one_search,
    torus_units,
)
from .finite_field import (
    Extension,
    FieldTable,
    construct_extension,
    construct_field,
    extension_of,
)
from .lattice import (
    Garland,
    IntervalLattice,
    NormalityGraph,
    enumerate_interval,
    garlands,
    interval_restriction_check,
    normality_graph,
    verify_lower_garland,
)
from .matrix_group import (
    GL,
    SL,
    AmbientGroup,
    Subgroup,
    ambient_group,
    is_maximal_abelian,
    normalizer_formula,
    torus_subgroup,
)
from .pell import (
    PellSolution,
    continued_fraction_sqrt,
    negative_pell,
    sl2q_normalizer_report,
)
from .runner import CaseSpec, run_case, run_sweep, sweep_cases

__version__ = "0.1.0"
