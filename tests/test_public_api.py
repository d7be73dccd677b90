"""The public names of the garlands package, pinned: changing them means editing this list."""

import inspect

import garlands

PUBLIC_API = {
    "AlgebraSpec",
    "AmbientGroup",
    "Caps",
    "CaseSpec",
    "DEFAULT_CAPS",
    "Extension",
    "FieldTable",
    "GL",
    "Garland",
    "IntervalLattice",
    "NormalityGraph",
    "PellSolution",
    "RingAutomorphism",
    "SL",
    "Subgroup",
    "additive_span_check",
    "ambient_group",
    "aut_group",
    "construct_extension",
    "construct_field",
    "continued_fraction_sqrt",
    "count_power_in_base",
    "enumerate_interval",
    "extension_of",
    "garlands",
    "interval_restriction_check",
    "is_maximal_abelian",
    "negative_pell",
    "normality_graph",
    "normalizer_formula",
    "primitive_norm_one_search",
    "run_case",
    "run_sweep",
    "sl2q_normalizer_report",
    "sweep_cases",
    "torus_subgroup",
    "torus_units",
    "verify_lower_garland",
}


def test_public_names_are_pinned():
    # submodules appear as attributes once imported, so they are not counted
    names = {k for k, v in vars(garlands).items() if not k.startswith("_") and not inspect.ismodule(v)}
    assert sorted(names) == sorted(PUBLIC_API)
