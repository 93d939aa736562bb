"""Ground-truth channels, Toeplitz training matrices, and noisy observations.

The channel is a length-L tap vector with T dominant complex-Gaussian taps
(Rayleigh-fading magnitudes) at uniformly random positions and exact zeros
elsewhere. The training matrix is built from a length N+L-1 i.i.d. probe
sequence arranged with constant diagonals (linear-convolution structure);
probe entries have variance 1/N so every column has unit expected squared
norm. All generators take explicit seeds and are bit-reproducible.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

TRAINING_DISTRIBUTIONS = ("gaussian", "rademacher", "complex_gaussian")

# Nonzero values of the fixed five-tap demo channel.
DEMO_TAP_VALUES = (
    0.8 + 0.4j,
    -0.5 + 0.7j,
    -0.1 + 0.15j,
    0.6 - 0.3j,
    -0.8 - 0.7j,
)
DEMO_CHANNEL_LENGTH = 60


@dataclass(frozen=True)
class SparseChannel:
    """Length-L tap vector, zero exactly off the dominant-tap support."""

    taps: np.ndarray
    support: tuple[int, ...]

    @property
    def length(self) -> int:
        return self.taps.size

    @property
    def sparsity(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class ToeplitzTraining:
    """N x L training matrix with matrix[i, j] = probe[i - j + L - 1]; its
    first row and first column hold every probe entry."""

    matrix: np.ndarray

    @property
    def N(self) -> int:
        return self.matrix.shape[0]

    @property
    def L(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Observation:
    """Received vector y = X h + z and its noise variance."""

    y: np.ndarray
    noise_variance: float


@dataclass(frozen=True)
class RicEstimate:
    """Restricted isometry constant of order T.

    `delta` is the raw max over the enumerated supports of
    max(1 - lambda_min, lambda_max - 1) of the support Gram matrix; values
    >= 1 mean the isometry property is violated at this order
    (`rip_violated`). `exact` is False when only a sampled subset of
    supports was enumerated, in which case `delta` is a lower bound.
    """

    delta: float
    rip_violated: bool
    exact: bool
    supports_checked: int
    per_support_extremes: tuple[tuple[tuple[int, ...], float, float], ...] = field(repr=False)


def generate_sparse_channel(L: int, T: int, seed: int) -> SparseChannel:
    """Draw a T-sparse channel: uniform random support, unit-variance
    circular complex Gaussian dominant taps."""
    if not 1 <= T <= L:
        raise ValueError(f"need 1 <= T <= L, got T={T}, L={L}")
    rng = np.random.default_rng(seed)
    support = rng.choice(L, size=T, replace=False)
    support.sort()
    taps = np.zeros(L, dtype=np.complex128)
    values = (rng.standard_normal(T) + 1j * rng.standard_normal(T)) / math.sqrt(2.0)
    taps[support] = values
    return SparseChannel(taps=taps, support=tuple(support.tolist()))


def fixed_channel_figure_demo(seed: int = 0) -> SparseChannel:
    """The five-tap demo channel: fixed coefficient values on a length-60
    channel, at the positions `generate_sparse_channel` draws from `seed`."""
    support = generate_sparse_channel(DEMO_CHANNEL_LENGTH, len(DEMO_TAP_VALUES), seed).support
    taps = np.zeros(DEMO_CHANNEL_LENGTH, dtype=np.complex128)
    taps[list(support)] = DEMO_TAP_VALUES
    return SparseChannel(taps=taps, support=support)


def build_toeplitz_training(
    N: int, L: int, distribution: str = "gaussian", seed: int = 0
) -> ToeplitzTraining:
    """Build the N x L constant-diagonal training matrix from a fresh probe.

    Probe entries are i.i.d. with variance 1/N: real Gaussian by default,
    "rademacher" gives +-1/sqrt(N), "complex_gaussian" gives circular
    complex Gaussian entries.
    """
    if N < 1 or L < 1:
        raise ValueError(f"need N >= 1 and L >= 1, got N={N}, L={L}")
    if distribution not in TRAINING_DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; choose from {TRAINING_DISTRIBUTIONS}")
    rng = np.random.default_rng(seed)
    size = N + L - 1
    scale = 1.0 / math.sqrt(N)
    if distribution == "gaussian":
        probe = rng.standard_normal(size) * scale
    elif distribution == "rademacher":
        probe = (2.0 * rng.integers(0, 2, size=size) - 1.0) * scale
    else:
        probe = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * (
            scale / math.sqrt(2.0)
        )
    return ToeplitzTraining(matrix=probe[_toeplitz_index(N, L)])


@functools.lru_cache
def _toeplitz_index(N: int, L: int) -> np.ndarray:
    """The probe index i - j + L - 1 of each entry (i, j) of an N x L
    training matrix, read-only, as every call with this shape shares it."""
    index = np.arange(N)[:, None] - np.arange(L)[None, :] + (L - 1)
    index.flags.writeable = False
    return index


def l2_norm(v: np.ndarray):
    """np.linalg.norm(v) of a real or complex array, bit for bit, without
    its Python layer: the root of the dot product of the flattened entries
    with themselves, over the real and the imaginary parts for complex v."""
    v = v.ravel(order="K")
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(v.dot(v))


def observe(X: ToeplitzTraining, h: SparseChannel, snr_db: float, seed: int) -> Observation:
    """Form y = X h + z at the requested per-sample SNR.

    Noise variance is sigma^2 = ||X h||^2 / (N * 10^(snr_db/10)), i.e. SNR is
    per-sample signal power over total complex noise variance, independent
    of N. snr_db = +inf yields the noiseless y = X h; NaN and -inf are rejected.
    """
    if X.L != h.length:
        raise ValueError(f"training matrix has L={X.L} but channel has length {h.length}")
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    signal = X.matrix @ h.taps
    if snr_db == math.inf:
        return Observation(y=signal, noise_variance=0.0)
    sigma2 = float(l2_norm(signal) ** 2) / (X.N * 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(X.N) + 1j * rng.standard_normal(X.N)) * math.sqrt(sigma2 / 2.0)
    return Observation(y=signal + z, noise_variance=sigma2)


def measurement_budget(T: int, p: int, c: float = 2.0) -> int:
    """Minimum training length n_min = ceil(c * T * ln(p/T))."""
    if not 1 <= T < p:
        raise ValueError(f"need 1 <= T < p, got T={T}, p={p}")
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"need a finite c > 0, got c={c}")
    budget = c * T * math.log(p / T)
    if not math.isfinite(budget):
        raise ValueError(f"c={c} gives a non-finite budget c * T * ln(p/T) for T={T}, p={p}")
    return math.ceil(budget)


def restricted_isometry_constant(
    X: ToeplitzTraining, T: int, max_supports: int = 100_000, seed: int = 0
) -> RicEstimate:
    """Isometry constant of order T by support enumeration.

    Enumerates every size-T column subset when the count fits within
    `max_supports` (exact result); otherwise evaluates a uniform random
    sample of supports and flags the estimate as a lower bound. Each
    support contributes the eigenvalue extremes of its Gram matrix.
    """
    if not 1 <= T <= X.L:
        raise ValueError(f"need 1 <= T <= L, got T={T}, L={X.L}")
    if max_supports < 1:
        raise ValueError(f"max_supports must be >= 1, got {max_supports}")
    total = math.comb(X.L, T)
    if total <= max_supports:
        supports = itertools.combinations(range(X.L), T)
        exact = True
        count = total
    else:
        rng = np.random.default_rng(seed)
        supports = (
            tuple(int(i) for i in np.sort(rng.choice(X.L, size=T, replace=False)))
            for _ in range(max_supports)
        )
        exact = False
        count = max_supports

    delta = 0.0
    table = []
    for support in supports:
        cols = X.matrix[:, list(support)]
        # np.conj copies cols, so on real training the product runs as gemm
        # rather than as syrk on a transposed view of cols itself.
        gram = np.asarray(np.conj(cols).T @ cols, dtype=np.complex128)
        w = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        lo, hi = float(w[0]), float(w[-1])
        table.append((tuple(support), lo, hi))
        delta = max(delta, 1.0 - lo, hi - 1.0)
    return RicEstimate(
        delta=float(delta),
        rip_violated=delta >= 1.0,
        exact=exact,
        supports_checked=count,
        per_support_extremes=tuple(table),
    )


def save_taps_csv(path, taps: np.ndarray) -> None:
    """Write a tap vector as rows of (index, real, imag)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "real", "imag"])
        for i, v in enumerate(taps):
            writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
