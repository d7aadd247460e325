"""Jones polynomial values of three-strand braid closures.

Braid words map to 2x2 unitaries through a two-projector Temperley-Lieb
representation; traces of those unitaries give the Kauffman bracket, the
normalized invariant f and Jones values of the closure.  An independent
state-sum oracle cross-checks every number, an ensemble expectation-value
quantum computer simulation estimates the traces end to end, and a pulse
compiler turns the controlled gates into verified two-spin pulse programs.

Each submodule's ``__all__`` states its public names; the package exports
all of them.
"""

from .braid import *
from .invariants import *
from .nmr import *
from .pathmodel import *
from .pulses import *
from .tlrep import *
from .cli import *

__version__ = "0.1.0"
