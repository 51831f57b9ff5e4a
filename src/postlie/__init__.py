"""Post-Lie structure on planar rooted forests, with a numeric back end.

The package splits into a symbolic half and a numeric half.  The symbolic
half works with planar rooted trees and forests (:mod:`postlie.trees`),
aroma coefficient polynomials (:mod:`postlie.coeffs`), the grafting and
Grossman-Larson operations together with their antipodes and module
actions (:mod:`postlie.algebroid`), the braiding operator
(:mod:`postlie.braiding`), and truncated series built on top of all of
that (:mod:`postlie.series`).  The numeric half (:mod:`postlie.geomint`)
evaluates those symbols as differential operators on a matrix Lie group
and drives the volume and accuracy experiments.  :mod:`postlie.cli`
exposes the whole thing as the ``postlie`` command.

All symbolic arithmetic is exact: integer or Fraction coefficients, no
floating point anywhere until geomint evaluates on the group.

The package namespace holds the functions that the demos and the
benchmark reach through it, and the types of their arguments and results,
including the errors the command line maps to exit code 2.  Everything
else is imported from its submodule.

Only the numeric half needs numpy, so ``import postlie`` loads the
symbolic half alone.  The numeric names below are served on first use
through a module ``__getattr__``, which imports :mod:`postlie.geomint`
then, and numpy with it; ``postlie experiment`` is the only subcommand
that loads it.
"""

from .trees import (
    CapacityError,
    ConfigurationError,
    Forest,
    NumericError,
    ParseError,
    PlanarTree,
    enumerate_forests,
    format_forest,
    format_tree,
    left_graft,
    parse_forest,
    parse_tree,
    trees_of_size,
)
from .coeffs import CoeffPoly
from .algebroid import (
    AlgebroidElement,
    TensorElement,
    gl_antipode,
    gl_product,
    parse_element,
    theta,
    triangle,
)
from .checks import CheckReport, suite_axioms
from .braiding import braid_pair, check_braiding
from .series import (
    TruncatedSeries,
    exp_concat,
    exp_gl,
    field_series,
    log_gl,
    modified_field,
)

# Public names of postlie.geomint, bound here on first use.
_NUMERIC = frozenset({
    "ExperimentConfig",
    "ExperimentResult",
    "divergence",
    "divergence_free_field",
    "geometric_grid",
    "make_reference_stepper",
    "random_rotation",
    "run_experiment",
    "step_volume",
})


def __getattr__(name: str):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import geomint

    value = getattr(geomint, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _NUMERIC)


__version__ = "0.1.0"

__all__ = [
    "AlgebroidElement",
    "CapacityError",
    "CheckReport",
    "CoeffPoly",
    "ConfigurationError",
    "ExperimentConfig",
    "ExperimentResult",
    "Forest",
    "NumericError",
    "ParseError",
    "PlanarTree",
    "TensorElement",
    "TruncatedSeries",
    "braid_pair",
    "check_braiding",
    "divergence",
    "divergence_free_field",
    "enumerate_forests",
    "exp_concat",
    "exp_gl",
    "field_series",
    "format_forest",
    "format_tree",
    "geometric_grid",
    "gl_antipode",
    "gl_product",
    "left_graft",
    "log_gl",
    "make_reference_stepper",
    "modified_field",
    "parse_element",
    "parse_forest",
    "parse_tree",
    "random_rotation",
    "run_experiment",
    "step_volume",
    "suite_axioms",
    "theta",
    "trees_of_size",
    "triangle",
]
