"""Pinned program and device fingerprints, plus the graph-generator oracle.

``tests/data/pinned_fingerprints.json`` holds the content fingerprints of
every benchmark-suite program at every scale and of the preset targets
(topology, and for the ``*-cal`` presets the seeded calibration).  A change
to a workload generator, a coupling-map constructor or the calibration seeding
moves these and fails here, even when every compile still succeeds.  After an
intended change, regenerate the data with::

    PYTHONPATH=src python tests/test_pinned_outputs.py > tests/data/pinned_fingerprints.json
"""

import json
import os
import sys

import pytest

_DATA = os.path.join(os.path.dirname(__file__), "data", "pinned_fingerprints.json")

#: (preset, sizes) pinned by ``target_fingerprint``; heavy-hex sizes span
#: several lattice sizes because ``heavy_hex_for`` grows the lattice.
_PINNED_TARGETS = (
    ("xy-line", (2, 5, 12)),
    ("xy-grid", (4, 7, 16)),
    ("heavy-hex", (5, 12, 30, 60)),
    ("all-to-all", (3, 6)),
    ("xy-line-cal", (3, 5, 8, 12)),
    ("xy-grid-cal", (4, 7, 9, 16)),
    ("heavy-hex-cal", (5, 12, 30)),
)


def current_fingerprints():
    """Fingerprints of the suite programs and preset targets, as pinned."""
    from repro.incremental import program_fingerprint, target_fingerprint
    from repro.target.target import resolve_target
    from repro.workloads.suite import benchmark_suite

    programs = {}
    for scale in ("tiny", "small", "medium"):
        cases = benchmark_suite(scale=scale)
        programs[scale] = {case.name: program_fingerprint(case.circuit) for case in cases}
        assert len(programs[scale]) == len(cases)
    targets = {
        f"{preset}-{size}": target_fingerprint(resolve_target(preset, num_qubits=size))
        for preset, sizes in _PINNED_TARGETS
        for size in sizes
    }
    return {"programs": programs, "targets": targets}


@pytest.fixture(scope="module")
def pinned():
    with open(_DATA, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def current():
    return current_fingerprints()


@pytest.mark.parametrize("scale", ["tiny", "small", "medium"])
def test_suite_programs_match_pinned_fingerprints(pinned, current, scale):
    assert current["programs"][scale] == pinned["programs"][scale]


def test_preset_targets_match_pinned_fingerprints(pinned, current):
    assert current["targets"] == pinned["targets"]


def test_graph_generators_match_networkx():
    nx = pytest.importorskip("networkx")
    from repro.compiler.routing.coupling_map import CouplingMap, _hexagonal_lattice
    from repro.workloads.algorithms import random_regular_edges

    for num_nodes in range(2, 30):
        for degree in range(min(num_nodes, 6)):
            if num_nodes * degree % 2:
                continue
            for seed in range(4):
                expected = nx.random_regular_graph(degree, num_nodes, seed=seed)
                expected_edges = sorted(tuple(sorted(edge)) for edge in expected.edges)
                actual = random_regular_edges(degree, num_nodes, seed)
                assert actual == expected_edges, (degree, num_nodes, seed)

    for rows in range(1, 6):
        for columns in range(1, 6):
            expected = nx.hexagonal_lattice_graph(rows, columns)
            lattice = _hexagonal_lattice(rows, columns)
            assert lattice == sorted(tuple(sorted(edge)) for edge in expected.edges)
            assert {node for edge in lattice for node in edge} == set(expected.nodes)
            heavy = CouplingMap.heavy_hex(rows, columns)
            assert heavy.num_qubits == expected.number_of_nodes() + expected.number_of_edges()
            assert max(len(entries) for entries in heavy.neighbor_lists()) <= 3


if __name__ == "__main__":
    json.dump(current_fingerprints(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
