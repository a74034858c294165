"""The matrix form of `make_quadratic`'s family, kept as a reference for the
closed form in `netshuffle.objective`: every component as
0.5 ||A_il x - b_il||^2 with A_il = Q_il diag(s) and b_il = A_il t_il, built
from the same keyed draws, one (n, m, p, p) normal draw and one QR of the
whole stack.  `general` evaluates it through the general `QuadraticObjective`."""

import numpy as np

from netshuffle.objective import QuadraticObjective
from netshuffle.shuffling import PURPOSE_MC, keyed_rng


def matrix_form(n, m, p, seed, condition=1.0, hetero=1.0, spread=1.0,
                consistent=False) -> tuple:
    """(A, b, targets, L) of `make_quadratic(n, m, p, seed, ...)`."""
    rng = keyed_rng(seed, PURPOSE_MC, agent=2, epoch=0)
    scale = np.logspace(0.0, 0.5 * np.log10(condition), p)
    A = np.linalg.qr(rng.normal(size=(n, m, p, p)))[0]
    A *= scale
    x_hat = rng.normal(size=p)
    if consistent:
        targets = np.broadcast_to(x_hat, (n, m, p)).copy()
    else:
        h = hetero * rng.normal(size=(n, 1, p))
        targets = rng.normal(size=(n, m, p))
        targets *= spread
        targets += x_hat + h
    b = np.einsum("imkp,imp->imk", A, targets)
    return A, b, targets, float(scale.max() ** 2)


def general(n, m, p, seed, **kw) -> QuadraticObjective:
    """`make_quadratic`'s objective, evaluated through its matrices."""
    A, b, _, L = matrix_form(n, m, p, seed, **kw)
    return QuadraticObjective(A, b, L=L)
