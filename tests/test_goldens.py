"""Report goldens: the SHA-256 of the report each pinned command writes,
at every worker count that must give the same bytes, and of the free-tree
file ``trees`` writes at every order to 16.  ``ORDER_22``, ``ORDER_24`` and
``TREE_BAND_18`` are checked by CI only, past tier-1's orders."""

import hashlib
import json
from pathlib import Path

import pytest

from nisets.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

TREE_SWEEP = "0df32eed34562777e8aab7e9d6df96f7eaf73d930d3bac8af3234db23fe687c6"
TOP_40 = "9e1b9f91b4fb9d158388cb924154205282152041675a87b492ca5475f70bb281"
SPOT_CHECKED_SCAN = "117d43faeb965b0e291f92c3741a78f9d6ce596adcdadf97a4aa9d0ad01c92bf"
# every graph claim to order 7 with full witness lists, so a change in tie
# order past the default cap of 100 witnesses shows
GRAPH_CLAIMS = "449e91bdfa5e4bf00b749b0e658604e576da3e39aa30e26defc1212eb26af2aa"
FILTER_CONNECTED = ("scan", "--population", "graphs", "--order", "7", "--filter", "connected",
                    "--objective", "sigma-ratio", "--witness-cap", "-1")
FILTER_DEGREE_TWO = ("scan", "--population", "graphs", "--order", "7", "--filter",
                     "no-isolated-max-deg-2", "--witness-cap", "-1")
GOLDENS = [
    (("verify",), "474ebb740581bb186cb5fe99b6d376b93ad9601047fb775b10ee893a02f97f01"),
    (("conjecture", "--orders", "4:17"), TREE_SWEEP),
    (("scan", "--population", "graphs", "--order", "7"),
     "b3ee3962b926099af9ab561b59739c5fa7c7c9c9d38776c97c8a52d51739bbd4"),
    (("conjecture", "--orders", "4:17", "--workers", "2"), TREE_SWEEP),
    (("conjecture", "--orders", "4:17", "--workers", "3"), TREE_SWEEP),
    (("conjecture", "--orders", "4:17", "--workers", "3", "--top", "40"), TOP_40),
    (("conjecture", "--orders", "4:17", "--top", "40"), TOP_40),
    # one entry cuts between order 6's two tied maximisers
    *((("conjecture", "--orders", "4:12", "--top", "1", "--workers", workers),
       "fb82dd8dc27618931f5606c5c425f51f67dada5275dceecf82fd3f0cc5dfcd9b")
      for workers in ("1", "2")),
    (("conjecture", "--orders", "4:12", "--top", "0", "--workers", "2"),
     "d2705c4f4daf88f89ad83637af694e8a526e6cd5f60f8e955baa0b2a3c75a40d"),
    (("conjecture", "--orders", "4:16", "--workers", "2", "--spot-check-rate", "0.01"),
     "d91302b857ff8f95d0739d711ff6c3959efe4de52584137ebb821927c5f4ef4c"),
    (("scan", "--population", "trees", "--order", "13", "--objective", "sigma-ratio",
      "--workers", "2", "--witness-cap", "-1"),
     "c66fcdf04c4c3142d919ed32034dac033e6f98c8096098500fda136c7a1914b5"),
    # order 16 is two runs at two workers, each spot-checking its own trees
    *((("scan", "--population", "trees", "--order", "16", "--spot-check-rate", "0.01",
        "--workers", workers), SPOT_CHECKED_SCAN) for workers in ("1", "2")),
    # every tree of orders 2-12 (986) checked against the oracle on the claims' sweep
    (("verify", "--claims",
      "tree-average-lower,tree-average-band,tree-average-cap,internal-degree-cap",
      "--max-tree-order", "12", "--spot-check-rate", "1"),
     "c6919ae56a6c612da557cfe6e98e4d99158facdd758b93af7012033a4dcfef0a"),
    (("verify", "--claims", "graph-average-lower,graph-average-upper,union-size-sandwich,"
      "edge-average-bracket,residual-count-sandwich", "--max-graph-order", "7",
      "--witness-cap", "-1"), GRAPH_CLAIMS),
    # the two structural filters, which test each class as a Graph
    (FILTER_CONNECTED, "4344de236e416afd70b3f5443ce2dbb4adff847da5d02c3f5e1510cc9bc58f8c"),
    (FILTER_DEGREE_TWO, "60d7b50e8fa575c795a423e271dd96edf7728b84324f679c219552782b3ccc3e"),
]

# the SHA-256 of the graph6 file ``trees --order n`` writes, one free tree a line
TREES = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    3: "881159da90c6f28631b6a3eafd6d6d13cda0d0e4cc09d828374719d272f3da34",
    4: "fca32a9fe1fd1a400c423e69ebee00e2a06fb15691a3b08274f2950e9c7e7a02",
    5: "cadaf2507e308dfd2348560b661a75cb5cd600724913693e828e0e1b7018f29a",
    6: "ebd2e76a890da0bffc86a3d516300f5064f87137b4e65e717b50098c00399843",
    7: "883bedb3adcf7a801849f22d7a95ce56a95449cb78ae442c92ee48e164fb2979",
    8: "a8c4f337ebc1e38bceec63e04d4786ec8346da5abc3996e8a8bba0def8c4e411",
    9: "4de29cae1bfa7aea5dd4cc0e05dc2ef62fa263bdb14de74db069711ed10b5bda",
    10: "3e064a325cd6531ce55fd125cadbc3d5d62091fe521ac2ed7c3a9558756175b0",
    11: "b805b2aa54a8478c047ecd09a7dcdcfc6a3dad97a9d7cf9dce134860914b8615",
    12: "e74f2d9e2ca9736d213b89ef046dffd1102857e9e3602f39560502d7c121da87",
    13: "e9285ea8b757a16a55f55ec8dba1ee0e1066272d48fa1f34fb48022c47321225",
    14: "f6dc48f24d3cf47354d9f5153b1a3258ae621ab88546dc32a2a0a42df8d483e4",
    15: "6f26fa9caf4e799e5a92c38c94e098a42fcfecd532de53051e7fdf1cefb08d3a",
    16: "b85ca0c739da75deb7359b528450b771cfe249e9582d8211345aee13e5e77ca7",
}

# the SHA-256 of the report ``conjecture --orders 22:22`` writes, whose rooted
# tables reach size 21; a CI step checks it, since it takes seconds
ORDER_22 = "a3948a63d1b1053eadab9e894469b5a0e5216c3a5bdc8e01d0698ba6144df4b6"
# and of ``conjecture --orders 24:24``, at the tree order limit, where a
# sweep's tree keys reach their largest values
ORDER_24 = "53fca6f9e6058e2faf45692b54cacc87e4141c0c2ced9bb6d9bfd1c80df30329"
# and of ``verify --claims tree-average-band --max-tree-order 18
# --spot-check-rate 0.01``, whose 2,054 spot checks share oracle passes of
# several trees to order 17 and take one tree a pass at order 18
TREE_BAND_18 = "faa1b694c397c643a7f803c43928e60c6d92d18ca8ffa85ca35e7baeb9903024"


@pytest.mark.parametrize("argv, digest", GOLDENS, ids=[" ".join(argv) for argv, _ in GOLDENS])
def test_report_matches_its_golden(tmp_path, argv, digest):
    report = tmp_path / "report.json"
    assert main([*argv, "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_first_goldens_are_the_benchmark_references():
    golden = json.loads(REFERENCE.read_text())["golden"]
    assert [digest for _, digest in GOLDENS[:3]] == [
        golden["verify-default"], golden["tree-sweep"], golden["graph-scan"]]


@pytest.mark.parametrize("n", sorted(TREES))
def test_trees_file_matches_its_golden(tmp_path, n):
    trees = tmp_path / "trees.g6"
    assert main(["trees", "--order", str(n), "--out", str(trees)]) == 0
    assert hashlib.sha256(trees.read_bytes()).hexdigest() == TREES[n]
