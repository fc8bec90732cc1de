"""Stream independence and stability of the harness's cell substreams.

The reproducibility contract of the cell runtime has two legs:

* every (algorithm, repetition, fold) cell owns a statistically independent
  substream — no two cells may collide, or their "independent" noise draws
  would be identical;
* the per-algorithm key derivation is **stable**: the values below are part
  of the on-disk reproducibility story, and silently changing them (for
  example by renaming an algorithm) would reshuffle every published noise
  stream.  A rename must therefore show up here as a failing pin.
"""

import numpy as np
import pytest

from repro.experiments.config import FULL, SMOKE
from repro.privacy.rng import derive_substream
from repro.runtime import algorithm_stream_key

#: All registered Table-2 algorithms (linear + logistic panels + extensions).
ALGORITHMS = (
    "FM",
    "DPME",
    "FP",
    "NoPrivacy",
    "Truncated",
    "ObjectivePerturbation",
    "OutputPerturbation",
)

#: Pinned key values.  These MUST NOT change: they seed every published
#: noise stream.  If this test fails after renaming an algorithm, the rename
#: silently reshuffled the noise — revert or bump results explicitly.
PINNED_KEYS = {
    "FM": 3698514594,
    "DPME": 2956131501,
    "FP": 2223591879,
    "NoPrivacy": 3776807705,
    "Truncated": 3654941939,
    "ObjectivePerturbation": 1643546876,
    "OutputPerturbation": 2366692690,
}


class TestStreamKeyStability:
    def test_pinned_values(self):
        for name, expected in PINNED_KEYS.items():
            assert algorithm_stream_key(name) == expected, name

    def test_case_sensitive(self):
        # The registry lower-cases lookups but the stream key is derived
        # from the display name; a case change is a rename.
        assert algorithm_stream_key("FM") != algorithm_stream_key("fm")

    def test_all_algorithm_keys_distinct(self):
        keys = [algorithm_stream_key(name) for name in ALGORITHMS]
        assert len(set(keys)) == len(keys)


class TestSubstreamIndependence:
    @pytest.mark.parametrize("preset", [SMOKE, FULL], ids=lambda p: p.name)
    def test_no_collisions_across_cells(self, preset):
        """First 64-bit draws of every (algorithm, rep, fold) cell differ.

        At the paper's FULL scale this covers 7 x 50 x 5 = 1750 cells; a
        single shared draw would make two cells' "independent" Laplace
        noise identical.
        """
        draws = {}
        for name in ALGORITHMS:
            key = algorithm_stream_key(name)
            for rep in range(preset.repetitions):
                for fold in range(preset.folds):
                    gen = derive_substream(0, [key, rep, fold])
                    value = int(gen.integers(0, 2**63))
                    assert value not in draws, (
                        f"substream collision: {(name, rep, fold)} vs "
                        f"{draws[value]}"
                    )
                    draws[value] = (name, rep, fold)

    def test_rep_streams_disjoint_from_fold_streams(self):
        """No (key, rep) data stream equals any cell stream, fold 0 included.

        ``numpy.random.SeedSequence`` zero-pads entropy to its 4-word pool,
        so a derivation of ``[seed, *tag]`` alone would make the ``[key,
        rep]`` data stream and the ``[key, rep, 0]`` fold-0 noise stream
        one stream: the fold-0 noise would replay the bits that drew the
        subsample and the shuffle.
        """
        keys = [algorithm_stream_key(name) for name in ALGORITHMS]
        reps = range(FULL.repetitions)
        cell_draws = {
            int(derive_substream(0, [key, rep, fold]).integers(0, 2**63))
            for key in keys
            for rep in reps
            for fold in range(FULL.folds)
        }
        for key in keys:
            for rep in reps:
                gen = derive_substream(0, [key, rep])
                assert int(gen.integers(0, 2**63)) not in cell_draws, (key, rep)

    def test_same_tag_reproduces(self):
        key = algorithm_stream_key("FM")
        a = derive_substream(7, [key, 3, 1]).laplace(0.0, 1.0, size=8)
        b = derive_substream(7, [key, 3, 1]).laplace(0.0, 1.0, size=8)
        np.testing.assert_array_equal(a, b)

    def test_seed_separates_everything(self):
        key = algorithm_stream_key("FM")
        a = derive_substream(0, [key, 0, 0]).integers(0, 2**63)
        b = derive_substream(1, [key, 0, 0]).integers(0, 2**63)
        assert a != b


class TestDerivationFormat:
    """The derivation appends ``[len(tag), 0x5D5EC0DE]`` to the entropy."""

    @pytest.mark.parametrize(
        "tag",
        [[algorithm_stream_key("FM"), 3], [1, 2], [5], [0]],
        ids=lambda tag: "-".join(map(str, tag)),
    )
    def test_trailing_zero_tags_do_not_alias(self, tag):
        """``[*tag]`` and ``[*tag, 0]`` are different streams."""
        a = derive_substream(0, tag).integers(0, 2**63)
        b = derive_substream(0, [*tag, 0]).integers(0, 2**63)
        assert a != b

    def test_first_draw_pinned(self):
        """The first draw MUST NOT change: it moves every noise stream."""
        assert derive_substream(0, [1, 2]).integers(0, 2**63) == 4791994034454347323

    def test_version_keyword_is_gone(self):
        with pytest.raises(TypeError):
            derive_substream(0, [1], stream_version=2)
