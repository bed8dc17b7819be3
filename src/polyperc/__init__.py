"""Exact conversions between polyhedra presented by half-space schemes
and single-output threshold perceptron networks.

Everything runs on rational arithmetic: strict and lax half-spaces stay
distinct, membership bits are exact, and all conversions are verified
pointwise rather than numerically.
"""

from .errors import *
from .feasibility import *
from .forms import *
from .geometry import *
from .indexing import *
from .network import *
from .polyhedra import *
from .transform import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__
    + feasibility.__all__
    + forms.__all__
    + geometry.__all__
    + indexing.__all__
    + network.__all__
    + polyhedra.__all__
    + transform.__all__
)
