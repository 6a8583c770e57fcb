"""Loop-free backpressure routing over dynamically re-oriented DAGs.

The package root re-exports the quick-start names; everything else lives in
the submodules (``graph``, ``flow``, ``overload``, ``reversal``, ``sim``,
``protocol``, ``cli``).
"""

from .graph import Network, initial_dag
from .flow import max_flow, smallest_min_cut
from .overload import lex_min_overload
from .reversal import converge

__all__ = ["Network", "converge", "initial_dag", "lex_min_overload", "max_flow", "smallest_min_cut"]

__version__ = "0.1.0"
