"""Federated FM noise: central calibration, additive bit-level shares,
and party-local perturbation.

Three noise modes, one calibration
----------------------------------
The Functional Mechanism's sweep noise is a standardized i.i.d. Laplace
sample of shape ``(n_eps, 1 + d + d^2)`` scaled per epsilon by
``Delta / epsilon`` (see :class:`~repro.engine.sweep.EpsilonSweepEngine`).
The federation keys that sample by the shared seed:

``central``
    The coordinator draws the sample itself from
    ``derive_substream(seed, [FED_NOISE_TAG])`` — exactly the generator a
    single-box ``sweep`` would be handed, which is what
    makes the federated fit *bitwise identical* to single-box ingestion
    of the concatenated rows.

``share``
    No single endpoint draws the sample.  Each party ships an additive
    share over the mod-2^64 ring: party ``k`` draws a uniform mask
    ``U_k`` from its keyed substream and contributes ``U_k - U_{k+1 mod
    K}`` (party 0 additionally folds in the IEEE-754 bit pattern of the
    central sample).  The pairwise masks telescope away, so the mod-2^64
    sum over all K shares is the central sample's bit pattern **exactly**
    — float arithmetic never touches the shares, hence the reconstruction
    is bit-perfect, not merely close.  Any K-1 shares are jointly
    uniformly distributed (each contains an unshared one-time-pad mask),
    so no proper subset reveals the noise.  *Simulation caveat*: here
    every mask derives from the one shared seed, so any holder of the
    seed could recompute all shares; a real deployment would derive each
    pairwise mask from a Diffie–Hellman-agreed per-edge secret instead —
    the ring algebra, wire format, and coordinator are unchanged by that
    substitution.

``party``
    Local perturbation: each party adds its *own* full-scale calibrated
    Laplace noise (drawn from its keyed substream, mapped to the
    coefficient blocks exactly like ``perturb_quadratic``) to its own
    aggregated objective, and only the noisy coefficients leave the
    party.  The coordinator never sees clean statistics.  Because the
    parties hold disjoint rows, replacing one tuple changes one party's
    release only — parallel composition — so the combined release at
    sweep point ``i`` is still ``epsilon_i``-DP, at the accuracy cost of
    K independent noise draws instead of one (per-coefficient standard
    deviation grows by ``sqrt(K)``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.polynomial import QuadraticForm
from ..privacy.rng import derive_substream
from ..runtime.kernels import fm_noise_stack

__all__ = [
    "FED_NOISE_TAG",
    "FED_MASK_TAG",
    "FED_PARTY_TAG",
    "central_raw_sample",
    "noise_share",
    "combine_shares",
    "party_noise_rng",
    "perturb_form_stack",
]

#: Substream tag of the central standardized sweep sample.
FED_NOISE_TAG = 0xFED01

#: Substream tag family of the per-party one-time-pad masks (share mode).
FED_MASK_TAG = 0xFED02

#: Substream tag family of the per-party local noise (party mode).
FED_PARTY_TAG = 0xFED03

#: Full-range uint64 draw bound (``integers`` endpoint-inclusive high).
_U64_MAX = np.uint64(2**64 - 1)


def _sample_shape(n_eps: int, dim: int) -> tuple[int, int]:
    return (int(n_eps), 1 + int(dim) + int(dim) * int(dim))


def central_raw_sample(seed: int, n_eps: int, dim: int) -> np.ndarray:
    """The standardized sweep sample the central calibration is defined by.

    This is bit-for-bit the first draw of
    ``EpsilonSweepEngine.sweep(epsilons, rng=derive_substream(seed,
    [FED_NOISE_TAG]))`` — the single definition every noise mode's release
    traces back to.
    """
    gen = derive_substream(int(seed), [FED_NOISE_TAG])
    return gen.laplace(0.0, 1.0, size=_sample_shape(n_eps, dim))


def _mask(seed: int, party_id: int, n_eps: int, dim: int) -> np.ndarray:
    gen = derive_substream(int(seed), [FED_MASK_TAG, int(party_id)])
    return gen.integers(
        0, _U64_MAX, size=_sample_shape(n_eps, dim), dtype=np.uint64, endpoint=True
    )


def noise_share(
    seed: int,
    party_id: int,
    parties: int,
    n_eps: int,
    dim: int,
) -> np.ndarray:
    """Party ``party_id``'s additive share of the central sample's bits.

    ``share_k = U_k - U_{(k+1) mod K}`` over the mod-2^64 ring, with the
    central sample's IEEE-754 bit pattern folded into party 0's share.
    Summing all K shares (uint64 wraparound addition) telescopes the
    masks away and yields the central bit pattern exactly.
    """
    parties = int(parties)
    party_id = int(party_id)
    if not 0 <= party_id < parties:
        raise ValueError(f"party id {party_id} outside [0, {parties})")
    own = _mask(seed, party_id, n_eps, dim)
    nxt = _mask(seed, (party_id + 1) % parties, n_eps, dim)
    with np.errstate(over="ignore"):
        share = own - nxt  # mod-2^64 wraparound is the point
        if party_id == 0:
            raw = central_raw_sample(seed, n_eps, dim)
            share = share + raw.view(np.uint64)
    return share


def combine_shares(shares: Sequence[np.ndarray]) -> np.ndarray:
    """Mod-2^64 sum of all shares, reinterpreted as the float64 sample."""
    if not shares:
        raise ValueError("combine_shares needs at least one share")
    total = np.zeros_like(np.asarray(shares[0], dtype=np.uint64))
    with np.errstate(over="ignore"):
        for share in shares:
            total = total + np.asarray(share, dtype=np.uint64)
    return total.view(np.float64)


def party_noise_rng(seed: int, party_id: int) -> np.random.Generator:
    """The keyed substream party ``party_id`` draws its local noise from."""
    return derive_substream(int(seed), [FED_PARTY_TAG, int(party_id)])


def perturb_form_stack(
    form: QuadraticForm,
    epsilons: Sequence[float],
    sensitivity: float,
    gen: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Algorithm-1 perturbation of ``form`` per sweep point.

    Draws a single standardized ``(n_eps, 1 + d + d^2)`` sample from
    ``gen`` and maps row ``i`` (scaled by ``sensitivity / epsilon_i``)
    onto the coefficient blocks exactly the way
    :meth:`~repro.core.mechanism.FunctionalMechanism.perturb_quadratic`
    consumes its stream — scalar, then ``d`` linear draws, then a
    ``d x d`` matrix whose strict upper triangle splits as ``w/2`` onto
    the symmetric pair (:func:`~repro.runtime.kernels.fm_noise_stack`).
    Returns stacked ``(M, alpha, beta)`` arrays.
    """
    scales = float(sensitivity) / np.asarray(epsilons, dtype=float)
    raw = gen.laplace(0.0, 1.0, size=_sample_shape(len(scales), form.dim))
    M_stack, alpha_stack = fm_noise_stack(form.M, form.alpha, raw, scales)
    return M_stack, alpha_stack, form.beta + scales * raw[:, 0]
