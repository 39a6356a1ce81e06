"""scipy's QUADPACK ``quad``, imported on the first call instead of at start-up.

Only the ``certify`` cross-checks integrate numerically, so every other
command runs without loading scipy.
"""


def quad(*args, **kwargs):
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)
