"""Random-number-generator plumbing shared by every randomized component.

The library never touches numpy's global random state.  Every randomized
function takes either a :class:`numpy.random.Generator`, an integer seed, or
``None`` (fresh OS entropy), and normalizes it through :func:`ensure_rng`.
Experiments derive independent child streams with :func:`spawn` so that, for
example, each cross-validation repetition sees its own reproducible stream
regardless of how many random draws earlier repetitions consumed.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = [
    "RngLike",
    "ensure_rng",
    "spawn",
    "derive_substream",
]

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

#: Domain separator appended (together with the tag length) by
#: :func:`derive_substream`.  The value is arbitrary but pinned: changing it
#: reshuffles every derived stream.
_DOMAIN_WORD = 0x5D5EC0DE


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Normalize ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged, so callers can thread one
        stream through a pipeline).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.

    Raises
    ------
    TypeError
        If ``rng`` is of an unsupported type (e.g. the legacy
        ``numpy.random.RandomState``), to keep the library on one RNG API.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    raise TypeError(
        f"expected None, int, SeedSequence or numpy.random.Generator, "
        f"got {type(rng).__name__}"
    )


def spawn(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Child streams are derived through ``SeedSequence.spawn`` semantics: the
    parent generator's bit stream is used once to seed a ``SeedSequence``,
    whose children seed the returned generators.  Consuming draws from one
    child does not perturb its siblings, which keeps sweep points of an
    experiment independent of each other's draw counts.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = ensure_rng(rng)
    # 4 words of 32-bit entropy from the parent stream seed the sequence.
    entropy = parent.integers(0, 2**32, size=4, dtype=np.uint64)
    seq = np.random.SeedSequence(entropy.tolist())
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def derive_substream(
    rng: RngLike,
    tag: Sequence[int] | int,
) -> np.random.Generator:
    """Derive a child generator keyed by ``tag``.

    Unlike :func:`spawn`, this does not consume draws from the parent when it
    is an integer seed: the same ``(seed, tag)`` pair always yields the same
    stream.  Used to give each (figure, panel, sweep-point, repetition) cell
    of an experiment a reproducible, addressable stream.

    The entropy is ``[seed, *tag, len(tag), 0x5D5EC0DE]``: the tag length
    and a fixed domain separator keep nested namespaces apart.
    ``numpy.random.SeedSequence`` zero-pads entropy to its 4-word pool, so
    without the length word ``[a, b]`` and ``[a, b, 0]`` would alias one
    stream (e.g. the harness's ``[key, rep]`` data stream and its
    ``[key, rep, 0]`` fold-0 noise stream); with it they derive
    ``[s, a, b, 2, D]`` and ``[s, a, b, 0, 3, D]`` and are independent.
    """
    if isinstance(tag, (int, np.integer)):
        tag = [int(tag)]
    tag_list = [int(t) for t in tag]
    tag_list += [len(tag_list), _DOMAIN_WORD]
    if isinstance(rng, (int, np.integer)):
        seq = np.random.SeedSequence([int(rng), *tag_list])
        return np.random.default_rng(seq)
    parent = ensure_rng(rng)
    entropy = parent.integers(0, 2**32, size=2, dtype=np.uint64)
    seq = np.random.SeedSequence([*entropy.tolist(), *tag_list])
    return np.random.default_rng(seq)
