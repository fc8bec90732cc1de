"""The ``python -m repro verify`` subcommand, end to end through main()."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    pytestmark = pytest.mark.tier1

    def test_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.tier == "1"
        assert args.epsilon == 1.0
        assert args.trials is None
        assert not args.regen_golden

    def test_tier_choices(self):
        parser = build_parser()
        assert parser.parse_args(["verify", "--tier", "3"]).tier == "3"
        for removed in ("4", "numeric"):
            with pytest.raises(SystemExit):
                parser.parse_args(["verify", "--tier", removed])

    def test_golden_options(self):
        args = build_parser().parse_args(
            [
                "verify", "--tier", "3",
                "--golden-groups", "figure5-linear-sv2",
                "--golden-configs", "batched-serial-tile1",
                "--golden-store", "/tmp/x.json",
                "--regen-golden",
            ]
        )
        assert args.golden_groups == "figure5-linear-sv2"
        assert args.regen_golden


class TestTier1:
    pytestmark = pytest.mark.tier1

    def test_passes(self, capsys):
        assert main(["verify", "--tier", "1"]) == 0
        out = capsys.readouterr().out
        assert "tier 1: OK" in out
        assert "sensitivity certificate" in out
        assert "auditor teeth" in out

    def test_fails_on_broken_golden_store(self, tmp_path, capsys):
        bad = tmp_path / "store.json"
        bad.write_text("{}")
        assert main(["verify", "--tier", "1", "--golden-store", str(bad)]) == 1
        assert "[FAIL] golden store well-formed" in capsys.readouterr().out


class TestTier2:
    pytestmark = pytest.mark.tier2

    def test_filtered_audit_passes(self, capsys):
        code = main(
            ["verify", "--tier", "2", "--trials", "600", "--mechanisms", "FM"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tier 2: OK" in out
        assert "eps_lower" in out

    def test_full_panel_smoke(self, capsys):
        """All five private mechanisms at smoke trials: certified lower
        bounds must sit within budget (the acceptance criterion, scaled
        down for the default suite; CI runs the full-trials version)."""
        code = main(["verify", "--tier", "2", "--trials", "400"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("FM", "DPME", "FP", "OutputPerturbation", "ObjectivePerturbation"):
            assert name in out
        assert "not audited (no privacy claim): NoPrivacy, Truncated" in out

    def test_unknown_mechanism_errors(self, capsys):
        code = main(["verify", "--tier", "2", "--mechanisms", "Nope"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTier3:
    pytestmark = pytest.mark.tier1  # the filtered run is tier-1 sized

    def test_filtered_verify_passes(self, capsys):
        code = main(
            [
                "verify", "--tier", "3",
                "--golden-groups", "figure6-linear-sv2",
                "--golden-configs",
                "batched-serial-tiledefault,percell-thread-tile1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bitwise-equal" in out

    def test_regen_into_custom_store(self, tmp_path, capsys):
        store = tmp_path / "golden.json"
        code = main(
            [
                "verify", "--tier", "3", "--regen-golden",
                "--golden-store", str(store),
                "--golden-groups", "figure5-linear-sv2",
                "--golden-configs", "batched-serial-tiledefault,batched-process-tile1",
            ]
        )
        assert code == 0
        assert store.exists()
        assert "pinned" in capsys.readouterr().out
        code = main(
            [
                "verify", "--tier", "3",
                "--golden-store", str(store),
                "--golden-groups", "figure5-linear-sv2",
                "--golden-configs", "batched-serial-tiledefault",
            ]
        )
        assert code == 0

    def test_stale_store_fails(self, tmp_path, capsys):
        from repro.verify.golden import save_store

        store = tmp_path / "golden.json"
        save_store({"figure5-linear-sv2": "a" * 64}, store)
        code = main(
            [
                "verify", "--tier", "3",
                "--golden-store", str(store),
                "--golden-groups", "figure5-linear-sv2",
                "--golden-configs", "batched-serial-tiledefault",
            ]
        )
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out
