"""Closed forms and numpy-only primitives the benchmark checks outputs with.

Nothing here imports the package under test: every verdict the CLI
prints is re-derived from a closed form or from plain numpy linear
algebra, so a bug in the package cannot hide behind its own helpers.

Conventions match the package's documented ones: a bipartite operator on
M_n (x) M_m has basis vector (i, k) at row i * m + k, and the Choi matrix
of a map is C = sum_ij e_ij (x) phi(e_ij).
"""
from __future__ import annotations

import json

import numpy as np

# Best violation the choi3 search reaches (0.051355 at 300 iterations,
# every seed probed); the miss rule allows 1e-4 below it.
SEARCH_OPTIMUM = 0.051355
SEARCH_OPTIMUM_SLACK = 1e-4


# ----------------------------------------------------------------------
# JSON documents in the format the CLI reads (README "File formats").


def matrix_doc(x: np.ndarray) -> dict:
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    entries = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": a.shape[0], "cols": a.shape[1], "entries": entries}


def matrix_from_doc(doc: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in doc["entries"]])
    return flat.reshape(doc["rows"], doc["cols"])


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# Plain linear algebra.


def partial_transpose(h: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the second tensor factor."""
    n, m = dims
    return h.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)


def least_eigenvalue(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


def apply_second_literal(h: np.ndarray, choi: np.ndarray, n: int, m: int) -> np.ndarray:
    """(id (x) phi)(h) by the literal block trace formula.

    Slice h into m x m blocks h_ij and send each through
    phi(B) = Tr_1[(B^T (x) I) C]; reassemble sum_ij e_ij (x) phi(h_ij).
    """
    out = np.zeros((n * m, n * m), dtype=np.complex128)
    eye = np.eye(m)
    for i in range(n):
        for j in range(n):
            block = h[m * i:m * i + m, m * j:m * j + m]
            prod = (np.kron(block.T, eye) @ choi).reshape(m, m, m, m)
            out[m * i:m * i + m, m * j:m * j + m] = np.einsum("ikil->kl", prod)
    return out


# ----------------------------------------------------------------------
# Generalized Choi maps Phi[a,b,c] (Cho-Kye-Lee, LAA 171, 1992):
# Phi(X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
#               b x11 + c x22 + a x33) - X, with b, c >= 0.


def generalized_choi(a: float, b: float, c: float) -> np.ndarray:
    """Choi matrix of Phi[a,b,c]; Phi[2,0,1] is the package's choi3."""
    weights = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
    c4 = np.zeros((3, 3, 3, 3), dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3))
            unit[i, j] = 1.0
            image = -unit
            if i == j:
                image = image + np.diag(weights[:, i])
            c4[i, :, j, :] = image
    return c4.reshape(9, 9)


def phi_is_cp(a: float, b: float, c: float) -> bool:
    return bool(a >= 3.0)


def phi_is_copositive(a: float, b: float, c: float) -> bool:
    return bool(a >= 1.0 and b * c >= 1.0)


def phi_is_positive(a: float, b: float, c: float) -> bool:
    if a < 1.0 or a + b + c < 3.0:
        return False
    if a <= 2.0:
        return bool(b * c >= (2.0 - a) ** 2)
    return True


# ----------------------------------------------------------------------
# Horodecki alpha-states on C^3 (x) C^3:
# sigma_a = 2/7 P+ + a/7 sigma+ + (5 - a)/7 sigma-, a in [2, 5].

SEPARABLE = "separable"
PPT_ENTANGLED = "ppt-entangled"
NPT = "npt"


def alpha_state(alpha: float) -> np.ndarray:
    def proj(i: int, k: int) -> np.ndarray:
        v = np.zeros(9)
        v[3 * i + k] = 1.0
        return np.outer(v, v)

    psi = np.zeros(9)
    psi[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
    sigma_plus = sum(proj(i, (i + 1) % 3) for i in range(3)) / 3.0
    sigma_minus = sum(proj((i + 1) % 3, i) for i in range(3)) / 3.0
    h = (
        2.0 / 7.0 * np.outer(psi, psi)
        + alpha / 7.0 * sigma_plus
        + (5.0 - alpha) / 7.0 * sigma_minus
    )
    return h.astype(np.complex128)


def alpha_class(alpha: float) -> str:
    if alpha <= 3.0:
        return SEPARABLE
    if alpha <= 4.0:
        return PPT_ENTANGLED
    return NPT
