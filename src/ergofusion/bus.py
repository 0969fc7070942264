"""In-process publish/subscribe bus with serial and threaded schedulers.

Nodes declare the topics they subscribe to and publish on; each topic
has exactly one publisher and at least one subscriber, and the node
graph must be acyclic. Messages on one topic are always delivered in
FIFO order. Two interchangeable schedulers run a graph:

- ``serial``: one deterministic event loop drains a global FIFO queue;
  the mode of record for bitwise-reproducibility checks.
- ``threads``: every node is a sequential actor on its own thread with
  a bounded inbox; per-topic FIFO still holds, and node logic is written
  to be insensitive to cross-topic interleaving.

End of stream is signaled by per-topic sentinels that cascade through
the graph, so every node finishes processing before its subscribers
shut down.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

QUEUE_CAPACITY = 256
SYNC_DROP_LAG = 3


class BusError(ValueError):
    """Invalid node-graph wiring."""


@dataclass(frozen=True, slots=True)
class Message:
    """One record on a topic: the frame it belongs to and its payload.

    ``frame_index`` is the run's one frame index, numbered by the source;
    a payload carries no copy of it.
    """

    topic: str
    frame_index: int
    payload: object


@dataclass(frozen=True)
class _Sentinel:
    topic: str


class Node:
    """A sequential actor: consumes its subscriptions, may publish."""

    name: str = "node"
    subscribes: tuple[str, ...] = ()
    publishes: tuple[str, ...] = ()

    def handle(self, message: Message, publish: Callable[[Message], None]) -> None:
        raise NotImplementedError

    def finish(self, publish: Callable[[Message], None]) -> None:
        """Called once after all subscribed topics are exhausted."""


class NodeGraph:
    """Wired set of nodes plus the source topics fed by the driver."""

    def __init__(self, nodes: Iterable[Node], source_topics: Iterable[str]):
        self.nodes = list(nodes)
        self.source_topics = tuple(source_topics)
        self._validate()
        # Each topic's subscribers in node order, built once per graph.
        topics = dict.fromkeys(t for node in self.nodes for t in node.subscribes)
        self._subscribers = {t: tuple(n for n in self.nodes if t in n.subscribes)
                             for t in topics}

    def _validate(self) -> None:
        publishers: dict[str, str] = {}
        for topic in self.source_topics:
            publishers[topic] = "<driver>"
        for node in self.nodes:
            for topic in node.publishes:
                if topic in publishers:
                    raise BusError(
                        f"topic {topic!r} published by both {publishers[topic]!r} "
                        f"and {node.name!r}")
                publishers[topic] = node.name
        subscribed = {t for node in self.nodes for t in node.subscribes}
        unpublished = subscribed - set(publishers)
        if unpublished:
            raise BusError(f"subscribed topics with no publisher: {sorted(unpublished)}")
        orphaned = set(publishers) - subscribed
        if orphaned:
            raise BusError(f"published topics with no subscriber: {sorted(orphaned)}")

        # Cycle check on the node-level dependency graph.
        consumers: dict[str, list[int]] = {}
        for i, node in enumerate(self.nodes):
            for topic in node.subscribes:
                consumers.setdefault(topic, []).append(i)
        edges: dict[int, set[int]] = {i: set() for i in range(len(self.nodes))}
        for i, node in enumerate(self.nodes):
            for topic in node.publishes:
                edges[i].update(consumers.get(topic, ()))
        state = [0] * len(self.nodes)  # 0 unvisited, 1 on stack, 2 done

        def visit(i: int) -> None:
            if state[i] == 1:
                raise BusError(f"node graph contains a cycle through {self.nodes[i].name!r}")
            if state[i] == 2:
                return
            state[i] = 1
            for j in edges[i]:
                visit(j)
            state[i] = 2

        for i in range(len(self.nodes)):
            visit(i)
        # visit refers to itself through its closure, and the closure holds
        # the graph: without this, every node, with all it holds, would
        # outlive the graph until the cyclic garbage collector runs.
        del visit

    def subscribers(self, topic: str) -> tuple[Node, ...]:
        return self._subscribers.get(topic, ())


def run_serial(graph: NodeGraph, source: Iterator[Message]) -> None:
    """Drain the whole graph on one thread, strictly FIFO."""
    pending: deque[Message | _Sentinel] = deque()
    publish = pending.append
    # Per node, the subscribed topics whose sentinel has not arrived yet.
    waiting = {node: set(node.subscribes) for node in graph.nodes}

    def drain() -> None:
        while pending:
            item = pending.popleft()
            if isinstance(item, _Sentinel):
                for node in graph.subscribers(item.topic):
                    topics = waiting[node]
                    topics.discard(item.topic)
                    if not topics:
                        node.finish(publish)
                        for topic in node.publishes:
                            pending.append(_Sentinel(topic))
                continue
            for node in graph.subscribers(item.topic):
                node.handle(item, publish)

    for message in source:
        pending.append(message)
        drain()
    for topic in graph.source_topics:
        pending.append(_Sentinel(topic))
    drain()


def run_threaded(graph: NodeGraph, source: Iterator[Message]) -> None:
    """Run every node as its own thread with a bounded inbox."""
    inboxes: dict[str, queue.Queue] = {
        node.name: queue.Queue(maxsize=QUEUE_CAPACITY) for node in graph.nodes}

    def publish(item) -> None:
        for node in graph.subscribers(item.topic):
            inboxes[node.name].put(item)

    errors: list[BaseException] = []

    def worker(node: Node) -> None:
        # On failure the node keeps draining (and discarding) its inbox so
        # bounded upstream queues never block; sentinels still cascade.
        waiting = set(node.subscribes)
        inbox = inboxes[node.name]
        failed = False
        while waiting:
            item = inbox.get()
            if isinstance(item, _Sentinel):
                waiting.discard(item.topic)
                continue
            if failed:
                continue
            try:
                node.handle(item, publish)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                failed = True
        if not failed:
            try:
                node.finish(publish)
            except BaseException as exc:
                errors.append(exc)
        for topic in node.publishes:
            publish(_Sentinel(topic))

    threads = [threading.Thread(target=worker, args=(node,), daemon=True)
               for node in graph.nodes]
    for t in threads:
        t.start()
    for message in source:
        publish(message)
    for topic in graph.source_topics:
        publish(_Sentinel(topic))
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class FrameSynchronizer:
    """Align per-camera messages into complete per-frame bundles.

    A bundle for frame k is released only when every camera has reported
    frame k and every earlier frame has been resolved (released or
    dropped). A frame skipped by some camera is dropped (and counted)
    once *every* camera has progressed ``SYNC_DROP_LAG`` frames past it;
    measuring the lag against the slowest camera, not the fastest, keeps
    a merely slow-to-deliver camera from causing spurious drops when
    nodes run concurrently. Bundles are keyed by camera id and released in strictly
    increasing frame order, so arrival order cannot change the output.
    ``dropped`` counts the dropped frames and ``dropped_by_camera``, per
    camera id in id order, those of them that camera had not reported.
    """

    def __init__(self, camera_ids: Iterable[str]):
        self.camera_ids = frozenset(camera_ids)
        if not self.camera_ids:
            raise BusError("synchronizer needs at least one camera id")
        self.dropped = 0
        self.dropped_by_camera = dict.fromkeys(sorted(self.camera_ids), 0)
        self._pending: dict[int, dict[str, object]] = {}
        self._progress: dict[str, int] = {c: -1 for c in self.camera_ids}

    def add(self, camera_id: str, frame_index: int, payload) -> list[tuple[int, dict[str, object]]]:
        """Feed one camera message; return the bundles released by it."""
        if camera_id not in self.camera_ids:
            raise BusError(f"unknown camera id {camera_id!r}")
        self._pending.setdefault(frame_index, {})[camera_id] = payload
        self._progress[camera_id] = max(self._progress[camera_id], frame_index)
        return self._flush(final=False)

    def finish(self) -> list[tuple[int, dict[str, object]]]:
        """End of stream: drop stragglers, release any complete remainder."""
        return self._flush(final=True)

    def _flush(self, final: bool) -> list[tuple[int, dict[str, object]]]:
        released, pending = [], self._pending
        while pending:
            head = min(pending)
            if len(pending[head]) == len(self.camera_ids):
                released.append((head, pending.pop(head)))
            elif final or min(self._progress.values()) - head >= SYNC_DROP_LAG:
                for camera_id in self.camera_ids.difference(pending.pop(head)):
                    self.dropped_by_camera[camera_id] += 1
                self.dropped += 1
            else:
                break
        return released
