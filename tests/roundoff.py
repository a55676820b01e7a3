"""Roundoff bounds stated from the operands.

The standard model of floating-point arithmetic (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, section 3.1) bounds
the error of a computed sum of k products, a dot product or one entry of a
gemv, by gamma_k times the sum of the absolute values of its terms:

    |fl(sum_i x_i y_i) - sum_i x_i y_i|  <=  gamma_k sum_i |x_i y_i|.

The differential tests state their bounds through `roundoff_bound`, with k
the number of rounded operations a term passes through; two computations
of the same quantity, each within that bound, differ by at most twice it.
"""

import numpy as np

EPS = np.finfo(float).eps


def gamma(k: int) -> float:
    """k eps / (1 - k eps), Higham's gamma_k."""
    return k * EPS / (1.0 - k * EPS)


def roundoff_bound(k: int, terms) -> np.ndarray:
    """gamma_k sum |terms| over the last axis: a bound on the rounding error
    of a dot product (terms of shape (k,)) or of each entry of a gemv (one
    row of terms per entry)."""
    return gamma(k) * np.sum(np.abs(terms), axis=-1)
