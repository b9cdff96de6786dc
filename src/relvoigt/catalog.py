"""What the command line can run, named without importing numpy.

PARAMETERS maps each function that ``eval`` and ``sweep`` run to its
parameter names, in the order its evaluator takes them, and SUITE_NAMES
lists the ``verify`` suites.  This module imports nothing, so the CLI
checks its arguments against these names before it loads any numeric
module; ``sweep.FUNCTIONS`` and ``verify.SUITE_NAMES`` are built from them.
"""

PARAMETERS = {
    "h0": ("a", "u"),
    "h2": ("a", "u1", "u2"),
    "v0": ("e", "mu", "gamma", "sigma"),
    "v2": ("e", "mu", "gamma", "sigma"),
    "d0": ("sigma", "gamma", "mu"),
    "d2": ("sigma", "gamma", "mu"),
    "i2": ("a", "u1", "u2"),
}

# the four suites in the order "all" runs them, then "all"
SUITE_NAMES = ("symmetry", "oracle", "representations", "limits", "all")
