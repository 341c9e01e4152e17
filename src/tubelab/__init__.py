"""tubelab: exact dyadic tube incidence geometry and maximal-operator experiments.

Names are imported from their module, e.g. ``from tubelab.core import DyadicScale``.
"""

__version__ = "0.1.0"
