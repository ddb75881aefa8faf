"""Serial vs ``--jobs N`` equivalence of the fleet view.

The fleet artifacts (``fleet_metrics.json``, ``fleet_snapshots.jsonl``,
``slo_report.json``) are built post-batch from the committed per-task
metrics in sorted task order — so a serial run, a ``--jobs`` run, and a
rerun of either must agree byte-for-byte.  The faults experiment's
injected retransmits/RNR-NAKs are the demonstrably-firing burn-rate
alert the SLO acceptance demands.
"""

import contextlib
import io
import json
import pathlib

import pytest

from repro.experiments.__main__ import main
from repro.obs.__main__ import main as obs_main
from repro.obs.fleet import merge_snapshots

SPEC = str(pathlib.Path(__file__).resolve().parents[2]
           / "examples" / "slo_spec.json")
EXPERIMENTS = ["table5", "faults", "--smoke"]
FLEET_ARTIFACTS = ("fleet_metrics.json", "fleet_snapshots.jsonl",
                   "slo_report.json")


#: --fleet-metrics without --slo, run serially and supervised; two
#: experiments, since a single name under --jobs 2 runs serially.
NO_SLO_MODES = {"serial": [], "jobs2": ["--jobs", "2"]}


@pytest.fixture(scope="module")
def no_slo_runs(tmp_path_factory):
    """Run each :data:`NO_SLO_MODES` batch once per module; returns
    ``(out_dir, stderr)``."""
    runs: dict = {}

    def run(mode):
        if mode not in runs:
            out = tmp_path_factory.mktemp(f"no-slo-{mode}")
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                status = main(["table5", "table1", "--smoke",
                               *NO_SLO_MODES[mode], "--fleet-metrics",
                               "--out", str(out)])
            assert status == 0
            runs[mode] = (out, stderr.getvalue())
        return runs[mode]

    return run


def _fleet_bytes(path) -> dict:
    return {name: (pathlib.Path(path) / name).read_bytes()
            for name in FLEET_ARTIFACTS}


class TestFleetParallel:
    def test_serial_jobs_and_rerun_byte_identical(self, tmp_path, capsys):
        ser = tmp_path / "serial"
        par = tmp_path / "parallel"
        rerun = tmp_path / "rerun"
        for out, jobs in ((ser, []), (par, ["--jobs", "2"]),
                          (rerun, ["--jobs", "2"])):
            assert main([*EXPERIMENTS, *jobs, "--slo", SPEC,
                         "--out", str(out)]) == 0
            capsys.readouterr()
        serial_bytes = _fleet_bytes(ser)
        assert serial_bytes == _fleet_bytes(par)
        assert serial_bytes == _fleet_bytes(rerun)

        report = json.loads(serial_bytes["slo_report.json"])
        assert report["spec"] == "ragnar-fleet"
        # the injected faults burn the wire-error budget: alerts fire
        assert report["alerts"], "expected burn-rate alerts on faults"
        assert report["compliant"] is False
        fired = {alert["objective"] for alert in report["alerts"]}
        assert "wire-errors" in fired

    @pytest.mark.parametrize("mode", sorted(NO_SLO_MODES))
    def test_fleet_metrics_without_slo(self, mode, no_slo_runs):
        out, stderr = no_slo_runs(mode)
        assert "[fleet: merged 2 task(s)" in stderr
        assert not (out / "slo_report.json").exists()
        merged = json.loads((out / "fleet_metrics.json").read_text())
        assert merged == merge_snapshots(
            json.loads((out / f"{name}.metrics.json").read_text())
            for name in ("table1", "table5"))
        # serial and --jobs 2 build the fleet view by the same pass
        reference, _ = no_slo_runs("serial")
        for name in ("fleet_metrics.json", "fleet_snapshots.jsonl"):
            assert (out / name).read_bytes() \
                == (reference / name).read_bytes()

    def test_obs_slo_reevaluation_matches_run_report(self, tmp_path,
                                                     capsys):
        run = tmp_path / "run"
        assert main([*EXPERIMENTS, "--slo", SPEC, "--out", str(run)]) == 0
        capsys.readouterr()
        out = tmp_path / "reevaluated.json"
        # exit 1: the faults run violates the spec — that IS the signal
        assert obs_main(["slo", str(run), "--spec", SPEC,
                         "--out", str(out)]) == 1
        capsys.readouterr()
        assert out.read_bytes() == (run / "slo_report.json").read_bytes()
