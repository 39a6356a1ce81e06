"""The distinguished measures r^d dr dtheta ds, stated once.

This module imports nothing, so the command line can offer the names as
``--measure`` choices without loading the numerics; :mod:`leraykit.symbol`
re-exports the table and resolves the exponents.
"""

# kind -> (the exponent d as a function of gamma, and the closed form of the
# norm: attained at mode 0, the high-frequency "limit", or None where no
# closed form is proven).  A double gamma takes the float operations, a
# Fraction gives the exact d.
DISTINGUISHED_MEASURES = {
    "pairing": (lambda g: g - 1, "mode 0"),
    "preferred": (lambda g: (g + 1) / 3, "limit"),
    "dual_preferred": (lambda g: (5 * g - 7) / 3, None),
    "lebesgue": (lambda g: 1, "mode 0"),
}
