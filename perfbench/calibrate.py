"""Fixed reference program that measures the speed of the host.

The benchmark times it in a fresh interpreter next to every CLI run and
scales the end-to-end times by it (README.md, "Host drift").  It imports
the third-party modules fractrans imports, which is interpreter-bound
work of the same kind as the CLI's own, and it does not import fractrans,
so no change to the package can move it.
"""

import numpy
import scipy.integrate
import scipy.optimize
import scipy.sparse
import scipy.special
