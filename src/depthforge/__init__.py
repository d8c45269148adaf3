"""depthforge: exact computations around depth-graded Lie algebras,
period polynomials, Eisenstein series and GL2 character calculus.

Everything is exact: `int` for integers, `fractions.Fraction` for other rationals; no floats.

The modules are the API: callers import from ``depthforge.exactla``,
``depthforge.depthlie`` and the rest.  The package namespace holds only
``__version__``.
"""

__version__ = "0.1.0"
