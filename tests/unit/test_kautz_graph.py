"""Unit tests for the static Kautz graph K(d, k)."""

from __future__ import annotations

import pytest

from repro.kautz import strings as ks

from oracles import KautzGraph


class TestStructure:
    def test_node_count(self):
        assert KautzGraph(2, 3).node_count == 12
        assert KautzGraph(2, 4).node_count == 24

    def test_out_degree_is_constant(self):
        graph = KautzGraph(2, 3)
        for node in graph.nodes():
            assert len(graph.out_neighbors(node)) == 2

    def test_in_degree_is_constant(self):
        graph = KautzGraph(2, 3)
        for node in graph.nodes():
            assert len(graph.in_neighbors(node)) == 2

    def test_paper_figure1_examples(self):
        # Figure 1 shows K(2,3); node 012 has out-edges to 120 and 121.
        graph = KautzGraph(2, 3)
        assert sorted(graph.out_neighbors("012")) == ["120", "121"]
        assert sorted(graph.out_neighbors("212")) == ["120", "121"]
        assert graph.has_edge("010", "102")
        assert not graph.has_edge("010", "010")

    def test_in_out_consistency(self):
        graph = KautzGraph(2, 3)
        for node in graph.nodes():
            for neighbor in graph.out_neighbors(node):
                assert node in graph.in_neighbors(neighbor)

    def test_wrong_length_node_rejected(self):
        graph = KautzGraph(2, 3)
        with pytest.raises(ks.KautzStringError):
            graph.out_neighbors("01")
        with pytest.raises(ks.KautzStringError):
            graph.in_neighbors("0102")


class TestPaths:
    def test_shortest_path_endpoints(self):
        graph = KautzGraph(2, 3)
        path = graph.shortest_path("012", "201")
        assert path[0] == "012"
        assert path[-1] == "201"
        for first, second in zip(path, path[1:]):
            assert graph.has_edge(first, second)

    def test_shortest_path_to_self(self):
        graph = KautzGraph(2, 3)
        assert graph.shortest_path("012", "012") == ["012"]

    def test_kautz_path_follows_splice(self):
        graph = KautzGraph(2, 3)
        path = graph.kautz_path("212", "120")
        assert path[0] == "212"
        assert path[-1] == "120"
        for first, second in zip(path, path[1:]):
            assert graph.has_edge(first, second)

    def test_kautz_path_length_at_most_k(self):
        graph = KautzGraph(2, 4)
        nodes = list(graph.nodes())
        for source in nodes[:6]:
            for target in nodes[-6:]:
                path = graph.kautz_path(source, target)
                assert len(path) - 1 <= graph.length

    def test_kautz_path_never_shorter_than_shortest(self):
        graph = KautzGraph(2, 3)
        nodes = list(graph.nodes())
        for source in nodes[:4]:
            for target in nodes[:4]:
                shortest = graph.shortest_path(source, target)
                kautz = graph.kautz_path(source, target)
                assert len(kautz) >= len(shortest)

    def test_diameter_is_k(self):
        # The Kautz graph K(d, k) has optimal diameter k.
        assert KautzGraph(2, 2).diameter() == 2
        assert KautzGraph(2, 3).diameter() == 3
