"""tensorlab: desk-scale exact experiments in tensor geometry.

Exact rank and secant-variety dimensions, symmetric-group characters and
Kronecker coefficients, Pfaffian matchgate signatures, and matrix-subspace
minimum-rank constructions, all verifiable with rational arithmetic.
"""

__version__ = "0.2.0"
