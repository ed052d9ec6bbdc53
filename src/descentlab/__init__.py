"""descentlab: numerical experiments on double descent and implicit bias.

The package is organized around the objects of the theory:

- ``linalg``: SVD, Moore-Penrose pseudo-inverse, minimum-norm least squares.
- ``descent``: gradient descent on least squares and on classification
  losses; the classification runs record their trajectory.
- ``sparse_regression``: closed-form and Monte Carlo risk of regression
  on a random feature subset (the double-descent curve in p).
- ``rff``: random Fourier features and kernel approximation, plus the
  double-descent sweep in model width N.
- ``separable``: the hard-margin SVM and the implicit max-margin bias
  of gradient descent on separable data.
- ``polyfit``: Legendre polynomial regression and the bias-variance
  decomposition.
- ``harness``: configs, datasets (IDX/MNIST and synthetic), the EMC
  estimator, CSV output, and the ``descentlab`` CLI.

Import the module you use (``from descentlab import rff``, or
``from descentlab.rff import sample_map``); the package itself imports
none of them, so a program loads only what it needs.  The errors live in
``errors``, the seeding helpers in ``seeding``, and ``parallel`` spreads
Monte Carlo trials over the usable CPUs.
"""

__version__ = "0.1.0"
