"""One adaptive filter advanced through ``filters.update_rows`` as a batch of one."""

import numpy as np

from sparsenlms import filters


def update_one(weights, grad_avg, x, y, params):
    """Run one update of a single filter and return ``(error, step_size)``.

    ``weights`` and ``grad_avg`` are complex vectors of the regressor's
    length, updated in place; ``params`` is a one-row ``filters.RowParams``.
    """
    x = np.asarray(x, dtype=np.complex128)
    errors, steps = filters.update_rows(
        weights[None], grad_avg[None], x.conj(), filters.row_energy(x),
        np.array([y], dtype=np.complex128), params,
    )
    return errors[0], float(steps[0])

