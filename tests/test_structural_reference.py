"""metrics, node_depths and consumer_counts against node-by-node references.

The library walks the circuit arrays in bulk; the references here ask the
circuit one node at a time through fanins(), is_input() and kind(), the
plain reading of each definition.
"""

import pytest

from addergen.circuit import Metrics, metrics, node_depths, prune_dead
from addergen.families import (
    FAMILIES, AdderSpec, build_adder, build_full_adder,
)
from addergen.mig import build_mig_adder


def ref_consumer_counts(c):
    counts = [0] * len(c)
    for nid in range(len(c)):
        for f in c.fanins(nid):
            counts[f] += 1
    for oid in c.output_ids:
        counts[oid] += 1
    return counts


def ref_node_depths(c):
    depths = [0] * len(c)
    for nid in range(len(c)):
        fans = c.fanins(nid)
        if fans:
            depths[nid] = 1 + max(depths[f] for f in fans)
    return depths


def ref_metrics(c):
    histogram = {}
    for nid in range(len(c)):
        if not c.is_input(nid):
            histogram[c.kind(nid)] = histogram.get(c.kind(nid), 0) + 1
    return Metrics(depth=max(ref_node_depths(c)), size=c.num_gates,
                   max_fanout=max(ref_consumer_counts(c)), histogram=histogram)


def assert_matches_reference(c):
    m = metrics(c)
    ref = ref_metrics(c)
    assert m == ref
    assert list(m.histogram.items()) == list(ref.histogram.items())
    assert node_depths(c) == ref_node_depths(c)
    assert c.consumer_counts() == ref_consumer_counts(c)


@pytest.mark.parametrize("full", [False, True], ids=["carry", "full"])
@pytest.mark.parametrize("n", [5, 16, 100, 1024])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_matches_reference(family, n, full):
    spec = AdderSpec(family, n)
    assert_matches_reference(
        build_full_adder(spec) if full else build_adder(spec))


def test_pruned_raw_mig_matches_reference():
    assert_matches_reference(prune_dead(build_mig_adder(64, prune=False)))
