"""CLI surface of the perf tooling (`repro perf report` / `perf diff`).

Pins the ``perf report --backend`` choices — including the ``all``
side-by-side comparison — and the mismatch contract of ``perf diff``
(strict vs resident): non-zero exit plus a one-line *stderr* summary
naming the first mismatching cell (backend, model, size, seed) and the
first diverging byte offset.
"""

from __future__ import annotations

import pytest

from repro.cli.main import main


def test_perf_report_accepts_resident_backend(capsys):
    rc = main(
        [
            "perf", "report",
            "--shares", "2,1",
            "--seconds", "2",
            "--backend", "resident",
        ]
    )
    assert rc == 0
    assert "events" in capsys.readouterr().out


def test_perf_report_backend_all_prints_side_by_side(capsys):
    rc = main(
        [
            "perf", "report",
            "--shares", "2,1",
            "--seconds", "2",
            "--backend", "all",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "fastloop" not in out
    # One throughput row per backend, side by side.
    rows = [line.split()[0] for line in out.splitlines()[1:3]]
    assert rows == ["strict", "resident"]
    assert "events/sec" in out
    assert "all backends agree" in out


def test_perf_report_rejects_retired_backends(capsys):
    for retired in ("optimized", "batch"):
        with pytest.raises(SystemExit):
            main(["perf", "report", "--backend", retired])
    capsys.readouterr()


def test_perf_diff_accepts_resident_challenger(capsys):
    rc = main(
        [
            "perf", "diff",
            "--sizes", "5",
            "--seeds", "0",
            "--seconds", "1",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "0 mismatches" in captured.out
    assert "strict and resident backends agree" in captured.out
    assert captured.err == ""  # summary line only appears on mismatch


def test_perf_diff_mismatch_names_cell_and_byte_offset_on_stderr(
    capsys, monkeypatch
):
    import repro.perf.differential as differential
    from repro.perf.differential import CellComparison
    from repro.workloads.shares import ShareDistribution

    cells = [
        CellComparison(
            model=ShareDistribution.SKEWED,
            n=10,
            seed=0,
            matches=True,
            strict_digest="a" * 16,
            resident_digest="a" * 16,
        ),
        CellComparison(
            model=ShareDistribution.LINEAR,
            n=20,
            seed=2,
            matches=False,
            strict_digest="b" * 16,
            resident_digest="c" * 16,
            detail="trace line 4: strict='x' resident='y'",
            diverged_section="trace",
            diverged_byte=137,
        ),
    ]
    monkeypatch.setattr(
        differential, "differential_check", lambda **kwargs: cells
    )
    rc = main(["perf", "diff"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "1 mismatches" in captured.out
    summary = captured.err.strip()
    assert summary.startswith("perf diff: first mismatch:")
    assert "backend=resident" in summary
    assert "model=linear" in summary
    assert "n=20" in summary
    assert "seed=2" in summary
    assert "trace byte 137" in summary


def test_first_divergent_byte_locates_the_offset():
    from repro.perf.differential import RunFingerprint, first_divergent_byte

    a = RunFingerprint(
        cycle_log=b"abcdef", trace=b"xyz", events=3, final_now=10
    )
    same = RunFingerprint(
        cycle_log=b"abcdef", trace=b"xyz", events=3, final_now=10
    )
    assert first_divergent_byte(a, same) == ("", -1)
    flipped = RunFingerprint(
        cycle_log=b"abcXef", trace=b"xyz", events=3, final_now=10
    )
    assert first_divergent_byte(a, flipped) == ("cycle_log", 3)
    longer = RunFingerprint(
        cycle_log=b"abcdef", trace=b"xyzmore", events=4, final_now=10
    )
    assert first_divergent_byte(a, longer) == ("trace", 3)
    scalar_only = RunFingerprint(
        cycle_log=b"abcdef", trace=b"xyz", events=4, final_now=11
    )
    assert first_divergent_byte(a, scalar_only) == ("", -1)
