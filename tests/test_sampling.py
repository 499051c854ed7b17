"""The interior-point sampler against the one-request loop it replaces.

``random_interior_point_sets`` serves many requests ``(rng, dom, k)`` at
once; ``reference_interior_points`` in ``conftest`` is the loop it was
before, one request at a time through ``rng.uniform``.  For every request
the batch must give the same points bit for bit and leave its stream
where the loop leaves it, whatever else is in the batch.
"""

import numpy as np
import pytest

from normratio import sampling
from normratio.facets import edge_slacks, edge_table
from normratio.geometry import ConvexDomain, diamond, disc, square, triangle
from normratio.sampling import (keyed_rng, random_envelope_descriptor,
                                random_interior_point_sets,
                                random_interior_points)
from normratio.verify import Block

from conftest import (corpus_domains, reference_envelope_descriptor,
                      reference_interior_points)


class CountingRng:
    """A generator that counts the draws made through it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.rng, name)


def sliver(n_tilt=0.03):
    """A thin parallelogram along the diagonal: a few percent of its
    bounding box, so a request of 20 points takes several rounds."""
    return ConvexDomain([(0.0, 0.0), (1.0, 1.0 - n_tilt), (1.0, 1.0),
                         (0.0, n_tilt)])


def assert_batch_matches_loop(requests, key=0):
    """Draw ``requests`` ``(dom, k)`` as one batch and each alone through
    the reference loop, from equal fresh streams; compare the points and
    each stream's next draw bit for bit."""
    batch = [keyed_rng(9100, key, i) for i in range(len(requests))]
    alone = [keyed_rng(9100, key, i) for i in range(len(requests))]
    got = random_interior_point_sets(
        [(rng, dom, k) for rng, (dom, k) in zip(batch, requests)])
    assert len(got) == len(requests)
    for (dom, k), pts, a, b in zip(requests, got, batch, alone):
        ref = reference_interior_points(b, dom, k)
        assert pts.shape == (k, 2)
        np.testing.assert_array_equal(pts, ref)
        assert a.random() == b.random()


def test_corpus_batch_matches_the_loop():
    doms = corpus_domains(42, 48)
    assert_batch_matches_loop([(dom, 1 + i % 5) for i, dom in
                               enumerate(doms)] + [(doms[3], 25)], key=1)


def test_mixed_edge_counts_and_shared_domains_match_the_loop():
    doms = [triangle(0, 0, 2, 0, 1, 1), square(), diamond(), disc(6),
            disc(9), disc(12), *corpus_domains(7, 6)]
    assert sorted({d.n for d in doms})[::len({d.n for d in doms}) - 1] \
        == [3, 12]
    # each domain object serves several requests, one of them with k = 0
    requests = [(dom, k) for dom in doms for k in (3, 0, 25)]
    assert_batch_matches_loop(requests, key=2)
    assert_batch_matches_loop(requests[::-1], key=3)


def test_one_shared_domain_matches_the_loop():
    # the broadcast form: all the requests on one domain object
    dom = corpus_domains(11, 1)[0]
    assert_batch_matches_loop([(dom, k) for k in (1, 5, 25, 2)], key=4)


def test_large_domain_batch_of_one_matches_the_loop():
    assert_batch_matches_loop([(disc(512), 85)], key=5)
    rng, ref = keyed_rng(9101), keyed_rng(9101)
    np.testing.assert_array_equal(random_interior_points(rng, disc(512), 3),
                                  reference_interior_points(ref, disc(512), 3))
    assert rng.random() == ref.random()


def test_thin_domains_take_several_rounds_and_match_the_loop():
    thin = [sliver(), sliver(0.05), ConvexDomain(sliver().vertices * 3.0)]
    rng = CountingRng(keyed_rng(9102))
    random_interior_points(rng, thin[0], 20)
    assert rng.calls > 2            # several rounds of rng.random
    assert_batch_matches_loop([(dom, 20) for dom in thin]
                              + [(square(), 4)], key=6)


def test_descriptors_match_the_loop():
    for i, dom in enumerate(corpus_domains(5, 12)):
        a, b = keyed_rng(9103, i), keyed_rng(9103, i)
        assert random_envelope_descriptor(a, dom) == \
            reference_envelope_descriptor(b, dom)
        assert a.random() == b.random()


@pytest.mark.parametrize("seed", [42, 31337])
def test_block_descriptors_match_the_loop(seed):
    # a block draws all its cases' descriptors in one sampler call
    block = Block.build(seed, range(16, 32))
    for case in block:
        for j, u in enumerate(case.envelopes):
            assert u.descriptor == reference_envelope_descriptor(
                keyed_rng(seed, case.index, 1 + j), case.domain)


def test_edge_slacks_are_the_boundary_distance():
    doms = [triangle(0, 0, 2, 0, 1, 1), disc(12), *corpus_domains(3, 5)]
    normals, offsets, margins = edge_table(doms)
    rng = keyed_rng(9104)
    pts = rng.uniform(-3.0, 3.0, size=(70, 2))
    of = np.arange(70) % len(doms)
    dist = np.full(70, np.inf)
    for slack in edge_slacks(normals, offsets, pts, of):
        dist = np.minimum(dist, slack)
    for c, dom in enumerate(doms):
        np.testing.assert_array_equal(
            dist[of == c], dom.signed_boundary_distance(pts[of == c]))
        assert margins[c] == dom.margin


def test_too_thin_domain_raises_at_once():
    flat = ConvexDomain([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-8)])
    rng = CountingRng(keyed_rng(9105))
    with pytest.raises(ValueError, match="too thin"):
        random_interior_points(rng, flat, 3)
    assert rng.calls == 1
    with pytest.raises(ValueError, match="too thin"):
        random_interior_point_sets([(keyed_rng(1), square(), 3),
                                    (keyed_rng(2), flat, 3)])


def test_request_still_short_after_the_rounds_raises(monkeypatch):
    monkeypatch.setattr(sampling, "ROUNDS", 1)
    with pytest.raises(ValueError, match="failed after 1 rounds"):
        random_interior_points(keyed_rng(9106), sliver(), 20)


def test_a_generator_serves_one_request():
    rng = keyed_rng(9107)
    with pytest.raises(ValueError, match="its own generator"):
        random_interior_point_sets([(rng, square(), 2), (rng, square(), 2)])


def test_empty_batch():
    assert random_interior_point_sets([]) == []
