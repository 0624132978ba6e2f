"""Tests for admission control: bounds, priorities, shedding."""

import pytest

from repro.conv.tensors import ConvProblem
from repro.errors import ReproError
from repro.fleet import AdmissionController, FleetRouter
from repro.fleet import admission
from repro.obs.metrics import Registry
from repro.serve.request import ConvRequest


def make_request(req_id, arrival_s=0.0, priority="standard",
                 deadline_s=None, n=32):
    problem = ConvProblem.square(n, 3, channels=2, filters=4)
    image, filters = problem.random_instance(seed=req_id)
    return ConvRequest(req_id=req_id, problem=problem, image=image,
                       filters=filters, arrival_s=arrival_s,
                       priority=priority, deadline_s=deadline_s)


def controller(replicas=2, queue_depth=2, window_s=1e-3, registry=None,
               **kwargs):
    registry = registry if registry is not None else Registry()
    return AdmissionController(
        FleetRouter(replicas, registry=registry),
        queue_depth=queue_depth, window_s=window_s, registry=registry,
        **kwargs)


class TestAdmission:
    def test_admits_under_bound(self):
        ctl = controller()
        assert ctl.admit(make_request(0)) is not None
        assert ctl.admitted == 1
        assert ctl.shed == 0

    def test_home_replica_matches_router_affinity(self):
        ctl = controller()
        request = make_request(0)
        assert ctl.admit(request) == ctl.router.affinity(request.problem)

    def test_sheds_overload_when_fleet_full(self):
        # queue_depth=1 and simultaneous arrivals: one per replica fits,
        # the next standard request finds the whole fleet at the bound.
        ctl = controller(replicas=1, queue_depth=1)
        assert ctl.admit(make_request(0)) == 0
        assert ctl.admit(make_request(1)) is None
        assert ctl.shed == 1
        record = ctl.shed_records[0]
        assert record.reason == "overload"
        assert record.req_id == 1

    def test_batch_shed_before_standard_spills(self):
        # Same shape, home full: batch is shed, standard spills.
        ctl = controller(replicas=2, queue_depth=1)
        home = ctl.router.affinity(make_request(0).problem)
        assert ctl.admit(make_request(0)) == home
        assert ctl.admit(make_request(1, priority="batch")) is None
        spilled = ctl.admit(make_request(2, priority="standard"))
        assert spilled is not None and spilled != home

    def test_critical_admitted_past_the_bound(self):
        ctl = controller(replicas=1, queue_depth=1)
        assert ctl.admit(make_request(0)) == 0
        assert ctl.admit(make_request(1, priority="critical")) == 0

    def test_expired_deadline_shed_on_arrival(self):
        ctl = controller()
        request = make_request(0, arrival_s=2.0, deadline_s=1.0)
        assert ctl.admit(request) is None
        assert ctl.shed_records[0].reason == "expired"

    def test_future_deadline_admitted(self):
        ctl = controller()
        assert ctl.admit(
            make_request(0, arrival_s=0.0, deadline_s=1.0)) is not None

    def test_window_frees_capacity(self):
        ctl = controller(replicas=1, queue_depth=1, window_s=1e-3)
        assert ctl.admit(make_request(0, arrival_s=0.0)) == 0
        assert ctl.admit(make_request(1, arrival_s=0.5e-3)) is None
        # Past the window, the first arrival has flushed to the device.
        assert ctl.admit(make_request(2, arrival_s=2e-3)) == 0

    def test_unknown_priority_rejected(self):
        ctl = controller()
        request = make_request(0)
        request.priority = "bogus"
        with pytest.raises(ReproError, match="priority classes"):
            ctl.admit(request)


class TestValidation:
    def test_zero_queue_depth_rejected(self):
        with pytest.raises(ReproError):
            controller(queue_depth=0)

    def test_negative_window_rejected(self):
        with pytest.raises(ReproError):
            controller(window_s=-1.0)


class TestAccounting:
    def test_shed_rate_and_stats(self):
        registry = Registry()
        ctl = controller(replicas=1, queue_depth=1, registry=registry)
        ctl.admit(make_request(0))
        ctl.admit(make_request(1))                       # overload shed
        ctl.admit(make_request(2, arrival_s=5.0, deadline_s=1.0))  # expired
        assert ctl.shed_rate == pytest.approx(2 / 3)
        stats = ctl.stats()
        assert stats["admitted"] == 1
        assert stats["shed"] == 2
        assert stats["shed_by_reason"] == {
            "overload/standard": 1, "expired/standard": 1}
        shed_counter = registry.get("fleet_shed_total")
        assert shed_counter.value(reason="overload", priority="standard") == 1

    def test_depth_gauge_published(self):
        registry = Registry()
        ctl = controller(replicas=1, queue_depth=4, registry=registry)
        ctl.admit(make_request(0, arrival_s=0.0))
        ctl.admit(make_request(1, arrival_s=0.0))
        assert registry.get("fleet_queue_depth").value(replica="0") == 2


class TestEdgeCases:
    def test_arrival_exactly_at_window_boundary_frees_capacity(self):
        # The occupancy window is half-open, (t - window_s, t]: an
        # arrival exactly window_s after the previous one sees it as
        # already flushed.
        ctl = controller(replicas=1, queue_depth=1, window_s=1e-3)
        assert ctl.admit(make_request(0, arrival_s=0.0)) == 0
        assert ctl.admit(make_request(1, arrival_s=1e-3)) == 0
        assert ctl.shed == 0

    def test_arrival_just_inside_window_still_occupies(self):
        ctl = controller(replicas=1, queue_depth=1, window_s=1e-3)
        assert ctl.admit(make_request(0, arrival_s=0.0)) == 0
        assert ctl.admit(make_request(1, arrival_s=1e-3 - 1e-9)) is None
        assert ctl.shed_records[-1].reason == "overload"

    def test_zero_remaining_deadline_is_expired(self):
        # deadline == arrival: zero budget left, serving is pointless.
        ctl = controller()
        assert ctl.admit(
            make_request(0, arrival_s=1.0, deadline_s=1.0)) is None
        assert ctl.shed_records[-1].reason == "expired"

    def test_negative_remaining_deadline_is_expired(self):
        ctl = controller()
        assert ctl.admit(
            make_request(0, arrival_s=2.0, deadline_s=1.5)) is None
        assert ctl.shed_records[-1].reason == "expired"

    def test_expired_wins_over_overload(self):
        # A request that is both expired AND arriving into a full fleet
        # sheds as "expired": deadline checks precede routing, so the
        # record blames the cause the operator can actually fix.
        ctl = controller(replicas=1, queue_depth=1)
        assert ctl.admit(make_request(0, arrival_s=0.0)) == 0
        late = make_request(1, arrival_s=0.0, deadline_s=-1.0)
        assert ctl.admit(late) is None
        assert ctl.shed_records[-1].reason == "expired"
        assert ctl.stats()["shed_by_reason"] == {"expired/standard": 1}


class TestShedRecordRingBuffer:
    def test_detail_bounded_but_counters_exact(self, monkeypatch):
        monkeypatch.setattr(admission, "DEFAULT_SHED_RECORD_CAP", 5)
        ctl = controller(replicas=1, queue_depth=1)
        ctl.admit(make_request(0))
        for req_id in range(1, 13):
            assert ctl.admit(make_request(req_id)) is None
        assert ctl.shed == 12                      # aggregate stays exact
        assert len(ctl.shed_records) == 5          # detail is bounded
        # The ring keeps the newest records.
        assert [r.req_id for r in ctl.shed_records] == [8, 9, 10, 11, 12]
        assert ctl.stats()["shed_record_cap"] == 5

    def test_default_cap_is_10k(self):
        from repro.fleet import DEFAULT_SHED_RECORD_CAP

        assert DEFAULT_SHED_RECORD_CAP == 10_000
        assert controller().stats()["shed_record_cap"] == 10_000

    def test_record_abandoned_uses_failed_reason(self):
        ctl = controller()
        request = make_request(0)
        assert ctl.admit(request) is not None
        ctl.record_abandoned(request)
        assert ctl.shed_records[-1].reason == "failed"
        assert ctl.stats()["shed_by_reason"] == {"failed/standard": 1}
