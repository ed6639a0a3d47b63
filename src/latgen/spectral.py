"""Real transforms on numpy.fft shared by the kernel tables and the fast CBC.

`cosine_dft` turns a residue-folded series into its table of values at every
residue (`kernel.fourier_decay_table`, `error.vartheta_table`). `convolver`
caches the spectrum of a fixed sequence so that each cyclic convolution with
it costs one rfft/irfft pair; the fast CBC scoring plan builds its kernel
spectra this way and applies them itself.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Convolver", "convolver", "cosine_dft"]


def cosine_dft(c) -> np.ndarray:
    """tab[a] = sum_j c[j] cos(2 pi j a / n) for a real sequence c of length n.

    Stored exactly symmetric, tab[a] == tab[n - a], which the fast CBC needs
    of its kernel tables.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.shape[0] < 1:
        raise ValueError("need a nonempty 1-d sequence")
    tab = np.ascontiguousarray(np.fft.fft(c).real)
    tab[1:] = 0.5 * (tab[1:] + tab[1:][::-1])
    return tab


@dataclass(frozen=True)
class Convolver:
    """The cached spectrum for cyclic convolution with a fixed real b.

    c_k = sum_j a_j b_{(k-j) mod n} is
    irfft(rfft(a, size) * spectrum, size)[offset : offset + n]. A power-of-two
    n multiplies length-n spectra. Any other n takes the linear convolution of
    a with two periods of b, zero-padded to a power of two size >= 2n, and
    reads c at n..2n-1, so numpy.fft never meets a length with large prime
    factors.
    """

    size: int  # transform length
    offset: int  # c starts here in the inverse transform
    spectrum: np.ndarray  # rfft of what was transformed, at length size
    norm: float  # 2-norm of what was transformed


def convolver(b) -> Convolver:
    """The cached spectrum of b, on the route its length takes."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] < 1:
        raise ValueError("need a nonempty 1-d sequence")
    n = b.shape[0]
    if n & (n - 1) == 0:
        return Convolver(n, 0, np.fft.rfft(b), float(np.linalg.norm(b)))
    bb = np.concatenate([b, b])
    size = 1 << (2 * n - 1).bit_length()
    return Convolver(size, n, np.fft.rfft(bb, size), float(np.linalg.norm(bb)))
