"""The hash-consing contract of history-expression nodes: one object per
structurally distinct term, a cached hash equal to the field tuple's, and
copies, pickles and concurrent construction that all return the interned
node."""

import copy
import gc
import os
import pathlib
import pickle
import subprocess
import sys
import threading
import uuid
import weakref

import pytest

from repro.analysis.planner import find_valid_plans
from repro.core.actions import Event, Receive, Send
from repro.core.syntax import (EPSILON, ClosePending, Epsilon, EventNode,
                               ExternalChoice, FrameClosePending, Framing,
                               InternalChoice, Mu, Request, Seq, Var,
                               external, free_variables, internal, is_closed,
                               receive, send)
from repro.lang.module import parse_module
from repro.policies.library import forbid

REPO = pathlib.Path(__file__).resolve().parents[2]
HOTEL = REPO / "examples" / "hotel_booking.sus"


def wide_pair(width, depth, salt):
    """The S1 wide client and its compliant server, with channel names
    salted so the terms are new to the unique table."""
    client = server = EPSILON
    for level in range(depth):
        answers = tuple((f"{salt}ans_{level}_{i}",
                         send(f"{salt}fin_{level}_{i}", client))
                        for i in range(width))
        client = internal(*((f"{salt}msg_{level}_{i}", external(*answers))
                            for i in range(width)))
        replies = tuple((f"{salt}ans_{level}_{i}",
                         receive(f"{salt}fin_{level}_{i}", server))
                        for i in range(width))
        server = external(*((f"{salt}msg_{level}_{i}", internal(*replies))
                            for i in range(width)))
    return client, server


def one_of_each():
    """One node of every class, paired with its field values in
    declaration order."""
    policy = forbid("x")
    body = send("a")
    branches_in = ((Receive("b"), body),)
    branches_out = ((Send("a"), EPSILON),)
    return [
        (Epsilon(), ()),
        (Var("h"), ("h",)),
        (Mu("h", send("a", Var("h"))), ("h", send("a", Var("h")))),
        (EventNode(Event("e", (1,))), (Event("e", (1,)),)),
        (Seq(body, receive("b")), (body, receive("b"))),
        (ExternalChoice(branches_in), (branches_in,)),
        (InternalChoice(branches_out), (branches_out,)),
        (Request("1", policy, body), ("1", policy, body)),
        (ClosePending("1", policy), ("1", policy)),
        (Framing(policy, body), (policy, body)),
        (FrameClosePending(policy), (policy,)),
    ]


class TestUniqueness:
    def test_positional_and_keyword_construction_agree(self):
        body = send("a")
        assert Seq(body, EPSILON) is Seq(first=body, second=EPSILON)
        assert Seq(body, EPSILON) is Seq(body, second=EPSILON)
        assert Mu("h", body) is Mu(body=body, var="h")
        assert Request("1", None, body) is Request(
            policy=None, body=body, request="1")
        assert Epsilon() is EPSILON

    def test_equal_terms_are_identical(self):
        salt = uuid.uuid4().hex
        assert wide_pair(3, 3, salt) == wide_pair(3, 3, salt)
        first, second = wide_pair(3, 3, salt), wide_pair(3, 3, salt)
        assert first[0] is second[0] and first[1] is second[1]

    def test_distinct_terms_are_unequal(self):
        assert send("a") != send("b")
        assert send("a") != receive("a")

    def test_bad_arguments_raise_type_error(self):
        with pytest.raises(TypeError):
            Seq(send("a"))
        with pytest.raises(TypeError):
            Seq(send("a"), EPSILON, EPSILON)
        with pytest.raises(TypeError):
            Seq(send("a"), third=EPSILON)

    def test_nodes_are_frozen(self):
        node = send("a")
        with pytest.raises(AttributeError):
            node.branches = ()
        with pytest.raises(AttributeError):
            del node.branches

    def test_unique_table_holds_nodes_weakly(self):
        client, _ = wide_pair(2, 2, uuid.uuid4().hex)
        probe = weakref.ref(client)
        del client
        gc.collect()
        assert probe() is None


class TestValueProtocol:
    @pytest.mark.parametrize("index", range(11))
    def test_hash_is_the_field_tuple_hash(self, index):
        node, fields = one_of_each()[index]
        assert hash(node) == hash(fields)

    def test_every_node_class_is_covered(self):
        classes = {type(node) for node, _ in one_of_each()}
        assert len(classes) == 11

    @pytest.mark.parametrize("index", range(11))
    def test_copies_and_pickles_return_the_interned_node(self, index):
        node, _ = one_of_each()[index]
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node

    def test_repr_keeps_the_dataclass_format(self):
        assert repr(send("a")) == ("InternalChoice(branches=((Send("
                                   "channel='a'), Epsilon()),))")

    def test_free_variables_are_cached_per_node(self):
        loop = Mu("h", send("a", Var("h")))
        assert free_variables(loop.body) == {"h"}
        assert free_variables(loop) == frozenset()
        assert is_closed(loop) and not is_closed(loop.body)
        assert free_variables(Seq(Var("x"), Var("y"))) == {"x", "y"}
        assert free_variables(Mu("x", Seq(Var("x"), Var("y")))) == {"y"}


class TestConcurrency:
    @pytest.mark.parametrize("round_", range(10))
    def test_threads_building_the_same_terms_get_one_object(self, round_):
        salt = uuid.uuid4().hex
        barrier = threading.Barrier(8)
        built = [None] * 8

        def build(slot):
            barrier.wait(timeout=60)
            built[slot] = wide_pair(3, 4, salt)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(slot,))
                       for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert None not in built
        client, server = built[0]
        for other_client, other_server in built[1:]:
            assert other_client is client and other_server is server

    def test_parallel_planning_equals_serial(self):
        module = parse_module(HOTEL.read_text(), path=str(HOTEL))
        for name, client in module.clients.items():
            serial = find_valid_plans(client, module.repository,
                                      location=name)
            parallel = find_valid_plans(client, module.repository,
                                        location=name, parallel=4)
            assert parallel.valid_plans == serial.valid_plans
            assert parallel.invalid_plans == serial.invalid_plans


def test_interpreter_exit_is_silent():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", str(HOTEL)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.stderr == ""
    assert done.returncode == 0
