"""Bounds on time-sampled squeezing, an OPA variance model, and a
meta-analysis pipeline for published squeezing records.

Importing the package loads none of its modules; import the one you use,
e.g. ``from sqzqi.qi_bound import bound_value``.
"""

__version__ = "0.1.0"
