"""Small symmetric-matrix helpers shared by the solver modules."""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError


def sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition; tiny negatives clipped.
    A stack of matrices takes one batched `eigh`, with each matrix's own bits."""
    w, U = np.linalg.eigh(sym(np.atleast_2d(np.asarray(a, dtype=float))))
    w = np.clip(w, 0.0, None)
    return (U * np.sqrt(w)[..., None, :]) @ U.swapaxes(-1, -2)


def logdet_pd(a: np.ndarray) -> float:
    sign, ld = np.linalg.slogdet(a)
    if sign <= 0:
        raise PreconditionError("matrix not positive definite in logdet")
    return float(ld)
