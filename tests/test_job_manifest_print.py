"""job_manifest.py --print writes the lines of the given seeds, and with
--workload only those of one workload, without running anything else."""

import pytest

import job_manifest


def test_print_one_workload(monkeypatch, capsys):
    monkeypatch.setattr(job_manifest, "line",
                        lambda workload, index, argv, seed: (
                            f"{workload} {seed} {index}"))
    assert job_manifest.main(["--print", "5", "9", "--workload",
                              "oracle"]) == 0
    want = [f"oracle {seed} {index}" for seed in (5, 9)
            for workload, index, _ in job_manifest.jobs(seed)
            if workload == "oracle"]
    assert len(want) == 2 * job_manifest.COUNTS["oracle"]
    assert capsys.readouterr().out.splitlines() == want


def test_workload_needs_print(capsys):
    with pytest.raises(SystemExit) as exc:
        job_manifest.main(["--workload", "oracle"])
    assert exc.value.code == 2
    assert "--workload needs --print" in capsys.readouterr().err
