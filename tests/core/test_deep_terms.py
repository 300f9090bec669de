"""Compliance on terms far deeper than the interpreter stack: hashing,
closedness and projection must not recurse over term depth."""

import pytest

from repro.core.compliance import check_compliance
from repro.core.syntax import EPSILON, internal, receive, send


def linear_pair(length, defect=None):
    """An alternating chain of *length* messages (the client sends the
    even ones) and its dual server; at the odd index *defect* the server
    may also send an output the client never expects."""
    client = server = EPSILON
    for index in reversed(range(length)):
        channel = f"m{index}"
        if index % 2 == 0:
            client = send(channel, client)
            server = receive(channel, server)
        else:
            client = receive(channel, client)
            server = (internal((channel, server), ("bad", EPSILON))
                      if index == defect else send(channel, server))
    return client, server


def test_long_chain_is_compliant():
    result = check_compliance(*linear_pair(2000))
    assert result.compliant
    assert result.explored_states == 2001


def test_deep_defect_gives_a_full_length_trace():
    result = check_compliance(*linear_pair(2000, defect=1501))
    assert not result.compliant
    assert len(result.trace) == 1502
    assert result.witness == result.trace[-1]


@pytest.mark.parametrize("defect", [None, 1501])
def test_fresh_rebuild_checks_the_same(defect):
    first = check_compliance(*linear_pair(2000, defect))
    second = check_compliance(*linear_pair(2000, defect))
    assert second == first
