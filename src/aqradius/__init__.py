"""Weighted q-numerical radius and Crawford number toolbox.

Computes the q-numerical radius and q-Crawford number of complex matrices over
a positive-semidefinite weighted semi-inner product (``semispace`` reduces to
the standard one, ``radius`` estimates with witness pairs), their gaps against
the weighted operator seminorm, closed forms for 2x2 matrices and the 3x3
Jordan block (``exact``), an executable suite of the inequalities these
quantities satisfy (``laws``), and convergence experiments for operator and
parameter sequences (``sequences``).
"""

# each submodule's __all__ is the one list of its public names, republished here
from .exact import *
from .laws import *
from .radius import *
from .semispace import *
from .sequences import *

__version__ = "0.1.0"
