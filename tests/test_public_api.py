"""Tests for the top-level public API surface."""

import subprocess
import sys

import pytest

import repro


class TestPublicAPI:
    def test_version_and_paper_metadata(self):
        assert repro.__version__
        assert "Centaur" in repro.PAPER_TITLE
        assert repro.PAPER_VENUE == "ISCA 2020"
        assert len(repro.PAPER_AUTHORS) == 4

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_quickstart_flow(self):
        """The README quickstart must work exactly as written."""
        from repro import DLRM, UniformTraceGenerator, CentaurDevice
        from repro import CPUOnlyRunner, CentaurRunner
        from repro.config import DLRM1, HARPV2_SYSTEM
        from repro.config.models import homogeneous_dlrm

        # A scaled-down model keeps the functional path fast in CI.
        config = homogeneous_dlrm(
            "quickstart", num_tables=4, rows_per_table=1_000, gathers_per_table=5
        )
        model = DLRM.from_config(config, seed=0)
        batch = UniformTraceGenerator(seed=1).model_batch(config, batch_size=4)
        probabilities = CentaurDevice(model, HARPV2_SYSTEM).predict(batch)
        assert probabilities.shape == (4,)

        cpu = CPUOnlyRunner(HARPV2_SYSTEM).run(DLRM1, 16)
        fpga = CentaurRunner(HARPV2_SYSTEM).run(DLRM1, 16)
        assert fpga.speedup_over(cpu) > 1.0

    def test_paper_models_accessible_from_top_level(self):
        assert len(repro.PAPER_MODELS) == 6
        assert repro.dlrm_preset(2).name == "DLRM(2)"

    def test_headline_summary_callable_from_top_level(self):
        summary = repro.headline_summary(
            repro.HARPV2_SYSTEM, models=[repro.DLRM1], batch_sizes=[1, 16]
        )
        assert summary["centaur_speedup_max"] > 1.0

    def test_package_imports_are_warning_free(self):
        """`import repro` and its subpackages must not emit DeprecationWarning."""
        subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro, repro.serving, repro.dlrm, repro.workloads, "
                "repro.experiment, repro.cli",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
