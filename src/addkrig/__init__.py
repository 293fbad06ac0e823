"""Additive kriging: GP regression with additive kernels and relaxed likelihood maximization."""

from .bench import *
from .estimate import *
from .gp import *
from .kernels import *

__version__ = "0.1.0"
