"""Unit tests for the shared range-query scheme interface helpers."""

from __future__ import annotations

import pytest

from repro.rangequery.armada_scheme import ArmadaScheme
from repro.rangequery.base import (
    AttributeSpace,
    QueryMeasurement,
    RangeQueryScheme,
    normalise,
    record_query,
)


class TestQueryMeasurement:
    def test_mesg_ratio(self):
        measurement = QueryMeasurement(delay_hops=5, messages=20, destination_peers=10)
        assert measurement.mesg_ratio() == 2.0

    def test_mesg_ratio_zero_destinations(self):
        assert QueryMeasurement(1, 5, 0).mesg_ratio() == 0.0

    def test_incre_ratio(self):
        measurement = QueryMeasurement(delay_hops=5, messages=30, destination_peers=11)
        assert measurement.incre_ratio(log_n=10.0) == pytest.approx(2.0)

    def test_incre_ratio_single_destination(self):
        assert QueryMeasurement(1, 5, 1).incre_ratio(10.0) == 0.0

    def test_record_query_coerces_types(self):
        measurement = record_query(3.0, 7.0, 2.0, matches=[1.0, 2.0])
        assert measurement.delay_hops == 3
        assert measurement.messages == 7
        assert measurement.destination_peers == 2
        assert measurement.matches == [1.0, 2.0]


class TestAttributeSpace:
    def test_normalise_and_clamp(self):
        space = AttributeSpace(0.0, 1000.0)
        assert space.normalise(0.0) == 0.0
        assert space.normalise(500.0) == pytest.approx(0.5)
        assert space.normalise(1000.0) < 1.0
        assert space.clamp(-5.0) == 0.0
        assert space.clamp(1200.0) == 1000.0
        assert space.span() == 1000.0

    def test_normalise_function_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            normalise(1.0, 5.0, 5.0)


class TestSchemeInterface:
    def test_describe_and_defaults(self):
        class Dummy(RangeQueryScheme):
            name = "dummy"
            underlying_degree = "4"
            delay_bounded = True

            def build(self, num_peers, seed):
                self._size = num_peers

            def load(self, values):
                pass

            def query(self, low, high):
                return record_query(1, 1, 1)

            @property
            def size(self):
                return getattr(self, "_size", 0)

        scheme = Dummy()
        scheme.build(1024, seed=1)
        description = scheme.describe()
        assert description["scheme"] == "dummy"
        assert description["delay_bounded"] is True
        assert scheme.log_size() == pytest.approx(10.0)
        with pytest.raises(NotImplementedError):
            scheme.load_multi([(1.0, 2.0)])
        with pytest.raises(NotImplementedError):
            scheme.query_multi([(1.0, 2.0)])

    def test_requires_build(self):
        with pytest.raises(RuntimeError):
            ArmadaScheme().query(100.0, 180.0)
