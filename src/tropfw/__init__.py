"""Exact solver for the weighted asymmetric tropical Fermat-Weber problem.

Everything is computed in exact rational arithmetic: distances, covector
cells, the optimal cell of the Fermat-Weber objective, inverse weights,
and tropical consensus trees.
"""

from .covector import (CovectorCell, CovectorGraph, cell_from_graph,
                       cell_vertices, covector_at, enumerate_bounded_cells,
                       in_tconv, pseudovertices)
from .errors import (DimensionError, InfeasibleError, InternalError,
                     ParseError, ScaleGuardError, TropFWError, ValidationError)
from .forests import (SpanningForest, realize_cell, spanning_forest,
                      weights_from_forest)
from .fw import FermatWeberResult, is_fw_point, solve_fw
# The package itself does not use linalg; it is imported because the
# benchmark tracer (tropbench/tracing.py) looks up tropfw.linalg.rank.
from . import linalg  # noqa: F401
from .points import (DataSet, TropicalPoint, WeightVector, asym_distance,
                     asym_distance_general, normalize)
from .rationals import Rational, format_rational, parse_rational
from .signomial import (TropicalLinearForm, WeightedObjective, argmax_set,
                        eval_form, eval_objective, on_hypersurface)
from .transport import (CentralCell, TransportationInstance,
                        central_cayley_cell, solve_transport)
from .trees import (ParetoReport, PhyloTree, TreeNode, TreePoint, Ultrametric,
                    check_pareto, check_ultrametric, consensus, parse_newick,
                    rooted_triples, tree_to_ultrametric, ultrametric_to_tree,
                    write_newick)

__version__ = "0.1.0"
