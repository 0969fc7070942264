import gc
import itertools
import weakref

import numpy as np
import pytest

from ergofusion.bus import (BusError, FrameSynchronizer, Message, Node,
                            NodeGraph, run_serial, run_threaded)

CAMS = ("c1", "c2", "c3")


class Doubler(Node):
    name = "doubler"
    subscribes = ("in",)
    publishes = ("out",)

    def handle(self, message, publish):
        publish(Message("out", message.frame_index, message.payload * 2))


class Collector(Node):
    name = "collector"
    subscribes = ("out",)
    publishes = ()

    def __init__(self):
        self.items = []
        self.finished = False

    def handle(self, message, publish):
        self.items.append((message.frame_index, message.payload))

    def finish(self, publish):
        self.finished = True


def source(n=20):
    for k in range(n):
        yield Message("in", k, k)


class TestNodeGraphValidation:
    def test_valid_graph(self):
        NodeGraph([Doubler(), Collector()], source_topics=("in",))

    def test_orphan_topic_rejected(self):
        with pytest.raises(BusError, match="no subscriber"):
            NodeGraph([Doubler()], source_topics=("in",))

    def test_unpublished_subscription_rejected(self):
        with pytest.raises(BusError, match="no publisher"):
            NodeGraph([Collector()], source_topics=("in",))

    def test_duplicate_publisher_rejected(self):
        with pytest.raises(BusError, match="published by both"):
            NodeGraph([Doubler(), Doubler(), Collector()], source_topics=("in",))

    def test_cycle_rejected(self):
        class Loop(Node):
            name = "loop"
            subscribes = ("out",)
            publishes = ("in2",)

            def handle(self, message, publish):
                pass

        class Back(Node):
            name = "back"
            subscribes = ("in2",)
            publishes = ("out",)

            def handle(self, message, publish):
                pass

        with pytest.raises(BusError, match="cycle"):
            NodeGraph([Loop(), Back()], source_topics=())


class TestSchedulers:
    @pytest.mark.parametrize("runner", [run_serial, run_threaded])
    def test_a_run_graph_is_freed_without_the_cycle_collector(self, runner):
        # Nodes hold a segment's arrays: they must go when the graph does.
        collector = Collector()
        graph = NodeGraph([Doubler(), collector], source_topics=("in",))
        freed = weakref.ref(collector)
        gc.disable()
        try:
            runner(graph, source())
            del graph, collector
            assert freed() is None
        finally:
            gc.enable()

    def test_serial_delivers_in_order(self):
        collector = Collector()
        graph = NodeGraph([Doubler(), collector], source_topics=("in",))
        run_serial(graph, source())
        assert collector.items == [(k, 2 * k) for k in range(20)]
        assert collector.finished

    def test_threaded_matches_serial(self):
        serial = Collector()
        run_serial(NodeGraph([Doubler(), serial], source_topics=("in",)), source())
        threaded = Collector()
        run_threaded(NodeGraph([Doubler(), threaded], source_topics=("in",)), source())
        assert threaded.items == serial.items
        assert threaded.finished

    def test_threaded_surfaces_handler_errors(self):
        class Boom(Node):
            name = "boom"
            subscribes = ("in",)
            publishes = ()

            def handle(self, message, publish):
                raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError, match="kaboom"):
            run_threaded(NodeGraph([Boom()], source_topics=("in",)), source(3))


class TestFrameSynchronizer:
    def test_complete_frame_released(self):
        sync = FrameSynchronizer(CAMS)
        assert sync.add("c1", 0, "a") == []
        assert sync.add("c2", 0, "b") == []
        released = sync.add("c3", 0, "c")
        assert released == [(0, {"c1": "a", "c2": "b", "c3": "c"})]
        assert sync.dropped == 0

    def test_skipped_frame_dropped_after_lag(self):
        sync = FrameSynchronizer(CAMS)
        released = []
        # c1 skips frame 0 entirely; everyone proceeds through frame 3.
        for k in range(4):
            for cam in CAMS:
                if cam == "c1" and k == 0:
                    continue
                released += sync.add(cam, k, f"{cam}/{k}")
        assert sync.dropped == 1
        assert [k for k, _ in released] == [1, 2, 3]

    def test_slow_camera_causes_no_drops(self):
        # One camera delivers everything late: frames must wait, not drop.
        sync = FrameSynchronizer(CAMS)
        released = []
        for k in range(10):
            released += sync.add("c1", k, k)
            released += sync.add("c2", k, k)
        for k in range(10):
            released += sync.add("c3", k, k)
        assert sync.dropped == 0
        assert [k for k, _ in released] == list(range(10))

    def test_release_order_is_strictly_increasing(self):
        rng = np.random.default_rng(3)
        sync = FrameSynchronizer(CAMS)
        events = [(cam, k) for k in range(8) for cam in CAMS]
        # Shuffle within a sliding window to emulate bounded skew.
        for i in range(0, len(events), 6):
            window = events[i:i + 6]
            rng.shuffle(window)
            events[i:i + 6] = window
        released = []
        for cam, k in events:
            released += sync.add(cam, k, k)
        indices = [k for k, _ in released]
        assert indices == sorted(indices)

    def test_bundles_invariant_to_within_frame_order(self):
        def run(order):
            sync = FrameSynchronizer(CAMS)
            out = []
            for k in range(5):
                for cam in order:
                    out += sync.add(cam, k, f"{cam}@{k}")
            return out

        baseline = run(CAMS)
        for order in itertools.permutations(CAMS):
            assert run(order) == baseline

    def test_finish_drops_incomplete_tail(self):
        sync = FrameSynchronizer(CAMS)
        sync.add("c1", 0, "x")
        sync.add("c2", 0, "y")
        assert sync.finish() == []
        assert sync.dropped == 1
        assert sync.dropped_by_camera == {"c1": 0, "c2": 0, "c3": 1}

    def test_drops_are_counted_per_missing_camera(self):
        # c1 skips frame 0 and c2 and c3 skip frame 2, dropped once every
        # camera is 3 frames past them; c3 never sends frame 6, dropped at
        # the end.
        skipped = {("c1", 0), ("c2", 2), ("c3", 2), ("c3", 6)}
        sync = FrameSynchronizer(CAMS)
        released = []
        for k in range(7):
            for cam in CAMS:
                if (cam, k) not in skipped:
                    released += sync.add(cam, k, k)
        assert sync.dropped_by_camera == {"c1": 1, "c2": 1, "c3": 1}
        released += sync.finish()
        assert [k for k, _ in released] == [1, 3, 4, 5]
        assert sync.dropped == 3
        assert sync.dropped_by_camera == {"c1": 1, "c2": 1, "c3": 2}

    def test_unknown_camera_rejected(self):
        sync = FrameSynchronizer(CAMS)
        with pytest.raises(BusError):
            sync.add("cx", 0, None)
