"""Independent reference for the training objective's minimum.

Used by the solver tests and by acceptance criterion 4 (k=1 equivalence),
so that both run without scikit-learn.
"""

import numpy as np


def lbfgsb_reference(design, y, w, penalty, lam):
    """Minimum of the training objective by scipy's L-BFGS-B, written
    independently of the production solver; l1 is split as u - v, u, v >= 0.

    Returns the minimum, its parameters (bias, then the coefficients, split
    for l1) and the objective as a function of such parameters."""
    from scipy.optimize import minimize

    d = design.shape[1]
    split = penalty == "l1"

    def objective(params):
        coef = params[1:d + 1] - params[d + 1:] if split else params[1:]
        z = params[0] + design @ coef
        r = w * (1 / (1 + np.exp(-z)) - y)
        g_coef = design.T @ r
        value = float(w @ (np.logaddexp(0, z) - y * z))
        if penalty == "l2":
            value += lam * float(coef @ coef)
            g_coef = g_coef + 2 * lam * coef
        if split:
            value += lam * float(params[1:].sum())
            g_coef = np.concatenate([g_coef + lam, -g_coef + lam])
        return value, np.concatenate([[r.sum()], g_coef])

    size = 1 + (2 * d if split else d)
    bounds = [(None, None)] + [(0, None) if split else (None, None)] * (size - 1)
    res = minimize(objective, np.zeros(size), jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": 100_000, "maxfun": 100_000, "ftol": 1e-15, "gtol": 1e-12})
    return res.fun, res.x, objective
