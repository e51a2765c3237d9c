"""Report goldens: the SHA-256 of the report each pinned command writes,
at every worker count that must give the same bytes."""

import hashlib
import json
from pathlib import Path

import pytest

from nisets.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

TREE_SWEEP = "0df32eed34562777e8aab7e9d6df96f7eaf73d930d3bac8af3234db23fe687c6"
GOLDENS = [
    (("verify",), "474ebb740581bb186cb5fe99b6d376b93ad9601047fb775b10ee893a02f97f01"),
    (("conjecture", "--orders", "4:17"), TREE_SWEEP),
    (("scan", "--population", "graphs", "--order", "7"),
     "b3ee3962b926099af9ab561b59739c5fa7c7c9c9d38776c97c8a52d51739bbd4"),
    (("conjecture", "--orders", "4:17", "--workers", "2"), TREE_SWEEP),
    (("conjecture", "--orders", "4:17", "--workers", "3"), TREE_SWEEP),
    (("conjecture", "--orders", "4:17", "--workers", "3", "--top", "40"),
     "9e1b9f91b4fb9d158388cb924154205282152041675a87b492ca5475f70bb281"),
    (("conjecture", "--orders", "4:16", "--workers", "2", "--spot-check-rate", "0.01"),
     "d91302b857ff8f95d0739d711ff6c3959efe4de52584137ebb821927c5f4ef4c"),
    (("scan", "--population", "trees", "--order", "13", "--objective", "sigma-ratio",
      "--workers", "2", "--witness-cap", "-1"),
     "c66fcdf04c4c3142d919ed32034dac033e6f98c8096098500fda136c7a1914b5"),
]


@pytest.mark.parametrize("argv, digest", GOLDENS, ids=[" ".join(argv) for argv, _ in GOLDENS])
def test_report_matches_its_golden(tmp_path, argv, digest):
    report = tmp_path / "report.json"
    assert main([*argv, "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_first_goldens_are_the_benchmark_references():
    golden = json.loads(REFERENCE.read_text())["golden"]
    assert [digest for _, digest in GOLDENS[:3]] == [
        golden["verify-default"], golden["tree-sweep"], golden["graph-scan"]]
