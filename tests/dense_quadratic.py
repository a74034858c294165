"""The matrix form of `make_quadratic`'s family, kept as a reference for the
closed form in `netshuffle.objective`: every component as
0.5 ||A_il x - b_il||^2 with A_il = Q_il diag(s) and b_il = A_il t_il, built
from the same keyed draws, one normal draw and one QR per block of agents.
`general` evaluates it through the general `QuadraticObjective`."""

import numpy as np

from netshuffle.objective import QuadraticObjective, _agent_blocks
from netshuffle.shuffling import PURPOSE_MC, keyed_rng


def matrix_form(n, m, p, seed, condition=1.0, hetero=1.0, spread=1.0,
                consistent=False) -> tuple:
    """(A, b, targets, L) of `make_quadratic(n, m, p, seed, ...)`."""
    rng = keyed_rng(seed, PURPOSE_MC, agent=2, epoch=0)
    scale = np.logspace(0.0, 0.5 * np.log10(condition), p)
    A = np.empty((n, m, p, p))
    for blk in _agent_blocks(A):
        np.multiply(np.linalg.qr(rng.normal(size=blk.shape))[0], scale, out=blk)
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
