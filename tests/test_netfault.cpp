// Network fault injection: dynamic NetworkSpec state (radio scales, link
// up/down) and its plan-cache equality contract, mid-flight transfer
// re-timing and abort accounting, per-transfer timeout watchdogs, the
// Cluster link-churn authority (epoch + kLink fan-out), degradation
// processes (scripted, Gilbert–Elliott), injector scheduling, engine
// failure + service replan on dead/degraded links, granular cost-model
// invalidation, degradation-aware probing, and fleet partition failover.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/hidp_strategy.hpp"
#include "net/prober.hpp"
#include "runtime/churn.hpp"
#include "runtime/fleet.hpp"
#include "runtime/metrics.hpp"
#include "runtime/netfault.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"

namespace hidp::runtime {
namespace {

using dnn::zoo::ModelId;

std::vector<platform::NodeModel> uniform_cluster(std::size_t n) {
  std::vector<platform::NodeModel> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(platform::make_device("Jetson TX2"));
  return nodes;
}

// ---- NetworkSpec dynamic state ---------------------------------------------

TEST(NetworkSpecDegradation, RadioScaleAffectsLinksNotLoopback) {
  net::NetworkSpec spec(platform::paper_cluster());
  const net::LinkSpec healthy = spec.link(0, 1);
  spec.set_radio_scale(1, 0.5, 2.0);
  const net::LinkSpec degraded = spec.link(0, 1);
  EXPECT_DOUBLE_EQ(degraded.bandwidth_bps, std::min(spec.base_radio_bw_bps(0),
                                                    spec.base_radio_bw_bps(1) * 0.5));
  // Only node 1's protocol latency doubles; node 0's is untouched.
  EXPECT_DOUBLE_EQ(degraded.latency_s,
                   spec.base_radio_latency_s(0) + 2.0 * spec.base_radio_latency_s(1));
  EXPECT_LT(degraded.bandwidth_bps, healthy.bandwidth_bps);
  // The base characteristics are preserved for restoration.
  EXPECT_DOUBLE_EQ(spec.base_radio_bw_bps(1), healthy.bandwidth_bps);
  // Loopback stays free regardless of the node's radio health.
  const net::LinkSpec loop = spec.link(1, 1);
  EXPECT_DOUBLE_EQ(loop.latency_s, 0.0);
  EXPECT_LT(loop.transfer_s(1 << 20), 1e-5);
  // 1.0/1.0 restores exactly (absolute, not cumulative).
  spec.set_radio_scale(1, 0.5, 2.0);
  spec.set_radio_scale(1, 1.0, 1.0);
  const net::LinkSpec restored = spec.link(0, 1);
  EXPECT_DOUBLE_EQ(restored.bandwidth_bps, healthy.bandwidth_bps);
  EXPECT_DOUBLE_EQ(restored.latency_s, healthy.latency_s);
  EXPECT_THROW(spec.set_radio_scale(0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(spec.set_radio_scale(0, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(spec.set_radio_scale(9, 1.0, 1.0), std::out_of_range);
}

TEST(NetworkSpecDegradation, EqualityTracksDynamicState) {
  net::NetworkSpec a(platform::paper_cluster());
  net::NetworkSpec b(platform::paper_cluster());
  EXPECT_TRUE(a == b);
  a.set_radio_scale(2, 0.25, 1.0);
  EXPECT_TRUE(a != b);
  a.set_radio_scale(2, 1.0, 1.0);
  EXPECT_TRUE(a == b);
  a.set_link_up(0, 3, false);
  EXPECT_TRUE(a != b);
  a.set_link_up(3, 0, true);  // symmetric endpoints
  EXPECT_TRUE(a == b);
}

TEST(NetworkSpecDegradation, DownLinkHasInfiniteTransferAndZeroBeta) {
  net::NetworkSpec spec(platform::paper_cluster());
  EXPECT_FALSE(spec.any_link_down());
  spec.set_link_up(0, 1, false);
  EXPECT_TRUE(spec.any_link_down());
  EXPECT_FALSE(spec.link_up(0, 1));
  EXPECT_FALSE(spec.link_up(1, 0));  // symmetric
  EXPECT_TRUE(spec.link_up(0, 2));
  const net::LinkSpec down = spec.link(0, 1);
  EXPECT_FALSE(down.up);
  EXPECT_TRUE(std::isinf(down.transfer_s(1)));
  EXPECT_DOUBLE_EQ(spec.beta_bps(0, 1), 0.0);
  EXPECT_GT(spec.beta_bps(0, 2), 0.0);
  spec.set_link_up(0, 1, true);
  EXPECT_TRUE(spec.link_up(0, 1));
  EXPECT_FALSE(spec.any_link_down());
  EXPECT_THROW(spec.set_link_up(1, 1, false), std::invalid_argument);
}

// ---- WirelessNetwork: re-timing, aborts, watchdogs -------------------------

TEST(WirelessNetworkDegradation, MidFlightTransferRetimesAtNewRate) {
  sim::Simulator sim;
  net::WirelessNetwork net(sim, platform::paper_cluster());
  const double healthy_end = net.spec().link(0, 1).transfer_s(80'000'000);
  double delivered = -1.0;
  net.transfer(0, 1, 80'000'000, 0.0, [&](sim::Time t) { delivered = t; });
  sim.schedule_at(0.5, [&] { net.set_radio_scale(1, 0.5, 1.0); });
  sim.run();
  // The remaining payload fraction is re-priced at the halved rate from
  // the degradation instant (the spec still carries the 0.5 scale here).
  const double slow_full = net.spec().link(0, 1).transfer_s(80'000'000);
  const double expected = 0.5 + ((healthy_end - 0.5) / healthy_end) * slow_full;
  EXPECT_NEAR(delivered, expected, 1e-9);
  EXPECT_GT(delivered, healthy_end);
  // A delivered transfer still accounts its full payload.
  EXPECT_EQ(net.bytes_transferred(), 80'000'000);
  EXPECT_EQ(net.transfers_in_flight(), 0u);
}

TEST(WirelessNetworkDegradation, LinkDownAbortsMidFlightWithProRatedAccounting) {
  sim::Simulator sim;
  net::WirelessNetwork net(sim, platform::paper_cluster());
  const double end = net.spec().link(0, 1).transfer_s(80'000'000);  // 1.004 s
  double delivered = -1.0;
  std::vector<net::TransferAbort> aborts;
  net.transfer(
      0, 1, 80'000'000, 0.0, [&](sim::Time t) { delivered = t; },
      [&](const net::TransferAbort& a) { aborts.push_back(a); });
  const double abort_at = end / 2.0;
  sim.schedule_at(abort_at, [&] { net.set_link_up(0, 1, false); });
  sim.run();
  // No ghost delivery; exactly one abort at the partition instant.
  EXPECT_DOUBLE_EQ(delivered, -1.0);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].cause, net::TransferAbort::Cause::kLinkDown);
  EXPECT_DOUBLE_EQ(aborts[0].time_s, abort_at);
  // Half the wall-clock window elapsed: half the payload was delivered,
  // and bytes_transferred() rolled back the undelivered remainder.
  EXPECT_EQ(aborts[0].bytes_delivered, 40'000'000);
  EXPECT_EQ(net.bytes_transferred(), 40'000'000);
  // The radios freed at the abort instant, not the original end.
  EXPECT_NEAR(net.radio_busy_s(0), abort_at, 1e-9);
  EXPECT_NEAR(net.radio_busy_s(1), abort_at, 1e-9);
  EXPECT_EQ(net.transfers_in_flight(), 0u);
  // New transfers on the dead link are rejected; other pairs still work.
  EXPECT_THROW(net.transfer(0, 1, 100, 0.0, [](sim::Time) {}), std::runtime_error);
  double ok = -1.0;
  net.transfer(0, 2, 100, 0.0, [&](sim::Time t) { ok = t; });
  sim.run();
  EXPECT_GT(ok, 0.0);
}

TEST(WirelessNetworkDegradation, TimeoutWatchdogAbortsSlowTransfer) {
  sim::Simulator sim;
  net::WirelessNetwork net(sim, platform::paper_cluster());
  double delivered = -1.0;
  std::vector<net::TransferAbort> aborts;
  net.transfer(
      0, 1, 80'000'000, 0.0, [&](sim::Time t) { delivered = t; },
      [&](const net::TransferAbort& a) { aborts.push_back(a); }, /*timeout_s=*/0.5);
  sim.run();
  EXPECT_DOUBLE_EQ(delivered, -1.0);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].cause, net::TransferAbort::Cause::kTimeout);
  EXPECT_DOUBLE_EQ(aborts[0].time_s, 0.5);
  EXPECT_GT(aborts[0].bytes_delivered, 0);
  EXPECT_LT(aborts[0].bytes_delivered, 80'000'000);
  EXPECT_EQ(net.bytes_transferred(), aborts[0].bytes_delivered);
  // A fast transfer under the same watchdog delivers normally.
  double fast = -1.0;
  std::size_t fast_aborts = 0;
  net.transfer(
      2, 3, 1'000'000, sim.now(), [&](sim::Time t) { fast = t; },
      [&](const net::TransferAbort&) { ++fast_aborts; }, /*timeout_s=*/0.5);
  sim.run();
  EXPECT_GT(fast, 0.0);
  EXPECT_EQ(fast_aborts, 0u);
}

TEST(WirelessNetworkDegradation, SharedMediumFreedAtAbortInstant) {
  sim::Simulator sim;
  net::WirelessNetwork net(sim, platform::paper_cluster(), net::MediumMode::kSharedMedium);
  const double end = net.spec().link(0, 1).transfer_s(80'000'000);
  net.transfer(
      0, 1, 80'000'000, 0.0, [](sim::Time) { FAIL() << "aborted transfer delivered"; },
      [](const net::TransferAbort&) {});
  sim.schedule_at(0.5, [&] { net.set_link_up(0, 1, false); });
  // Submitted after the abort: the shared medium must be free at 0.6, not
  // still reserved until the doomed transfer's original end.
  double second = -1.0;
  sim.schedule_at(0.6, [&] {
    net.transfer(2, 3, 8'000'000, sim.now(), [&](sim::Time t) { second = t; });
  });
  sim.run();
  ASSERT_GT(second, 0.0);
  EXPECT_LT(second, end);  // would finish after `end` had the medium stayed busy
  EXPECT_NEAR(second, 0.6 + net.spec().link(2, 3).transfer_s(8'000'000), 1e-9);
}

TEST(WirelessNetworkDegradation, LoopbackUnaffectedByScalingAndPartitions) {
  sim::Simulator sim;
  net::WirelessNetwork net(sim, platform::paper_cluster());
  net.set_radio_scale(1, 0.01, 10.0);
  net.set_link_up(0, 1, false);
  double delivered = -1.0;
  net.transfer(1, 1, 1 << 30, 0.5, [&](sim::Time t) { delivered = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(delivered, 0.5);
  EXPECT_EQ(net.bytes_transferred(), 0);
  EXPECT_DOUBLE_EQ(net.radio_busy_s(1), 0.0);
}

// ---- Cluster as the link-churn authority -----------------------------------

TEST(ClusterLinkChurn, RadioScaleBumpsEpochAndFansOutKLink) {
  Cluster cluster(uniform_cluster(3));
  std::vector<NodeEvent> events;
  cluster.add_observer([&](const NodeEvent& e) { events.push_back(e); });
  cluster.set_radio_scale(1, 1.0, 1.0);  // already healthy: no-op
  EXPECT_EQ(cluster.membership_epoch(), 0u);
  EXPECT_TRUE(events.empty());
  cluster.set_radio_scale(1, 0.25, 2.0);
  EXPECT_EQ(cluster.membership_epoch(), 1u);
  EXPECT_DOUBLE_EQ(cluster.radio_bw_scale(1), 0.25);
  EXPECT_DOUBLE_EQ(cluster.radio_latency_scale(1), 2.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, NodeEvent::Kind::kLink);
  EXPECT_EQ(events[0].node, 1u);
  EXPECT_EQ(events[0].peer, NodeEvent::kNoPeer);
  EXPECT_DOUBLE_EQ(events[0].bw_scale, 0.25);
  EXPECT_DOUBLE_EQ(events[0].latency_scale, 2.0);
  cluster.set_radio_scale(1, 0.25, 2.0);  // idempotent
  EXPECT_EQ(cluster.membership_epoch(), 1u);
  EXPECT_EQ(events.size(), 1u);
  EXPECT_THROW(cluster.set_radio_scale(9, 0.5, 1.0), std::out_of_range);
  EXPECT_THROW(cluster.set_radio_scale(0, -1.0, 1.0), std::invalid_argument);
}

TEST(ClusterLinkChurn, LinkUpDownBumpsEpochAndFansOutKLink) {
  Cluster cluster(uniform_cluster(3));
  std::vector<NodeEvent> events;
  cluster.add_observer([&](const NodeEvent& e) { events.push_back(e); });
  cluster.set_link_up(0, 2, true);  // already up: no-op
  EXPECT_EQ(cluster.membership_epoch(), 0u);
  cluster.set_link_up(0, 2, false);
  EXPECT_EQ(cluster.membership_epoch(), 1u);
  EXPECT_FALSE(cluster.link_up(0, 2));
  EXPECT_FALSE(cluster.link_up(2, 0));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, NodeEvent::Kind::kLink);
  EXPECT_EQ(events[0].node, 0u);
  EXPECT_EQ(events[0].peer, 2u);
  EXPECT_FALSE(events[0].link_up);
  cluster.set_link_up(2, 0, false);  // idempotent (symmetric endpoints)
  EXPECT_EQ(cluster.membership_epoch(), 1u);
  cluster.set_link_up(0, 2, true);
  EXPECT_EQ(cluster.membership_epoch(), 2u);
  EXPECT_TRUE(cluster.link_up(0, 2));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[1].link_up);
  EXPECT_THROW(cluster.set_link_up(1, 1, false), std::invalid_argument);
  EXPECT_THROW(cluster.set_link_up(0, 9, false), std::out_of_range);
}

// ---- degradation processes and the injector --------------------------------

TEST(NetDegradationProcesses, ScriptedReplaysSortedTrace) {
  NetEvent late;
  late.time_s = 0.5;
  late.action = NetEvent::Action::kLinkUp;
  late.node = 0;
  late.peer = 1;
  NetEvent early;
  early.time_s = 0.2;
  early.action = NetEvent::Action::kRadioScale;
  early.node = 2;
  early.bw_scale = 0.1;
  NetEvent mid;
  mid.time_s = 0.3;
  mid.action = NetEvent::Action::kLinkDown;
  mid.node = 0;
  mid.peer = 1;
  ScriptedDegradation trace({late, early, mid});
  auto e1 = trace.next(0.0);
  auto e2 = trace.next(0.0);
  auto e3 = trace.next(0.0);
  ASSERT_TRUE(e1 && e2 && e3);
  EXPECT_DOUBLE_EQ(e1->time_s, 0.2);
  EXPECT_EQ(e1->action, NetEvent::Action::kRadioScale);
  EXPECT_DOUBLE_EQ(e2->time_s, 0.3);
  EXPECT_DOUBLE_EQ(e3->time_s, 0.5);
  EXPECT_FALSE(trace.next(0.0).has_value());
}

TEST(NetDegradationProcesses, GilbertElliottDeterministicAlternatingAndBounded) {
  GilbertElliottDegradation::Options options;
  options.nodes = {0, 2};
  options.good_s = 0.3;
  options.bad_s = 0.15;
  options.bad_bw_scale = 0.1;
  options.bad_latency_scale = 2.0;
  options.horizon_s = 4.0;
  options.seed = 7;
  const auto drain = [](GilbertElliottDegradation& process) {
    std::vector<NetEvent> events;
    while (auto event = process.next(0.0)) events.push_back(*event);
    return events;
  };
  GilbertElliottDegradation a(options), b(options);
  const auto ea = drain(a);
  const auto eb = drain(b);
  ASSERT_FALSE(ea.empty());
  ASSERT_EQ(ea.size(), eb.size());
  double last = 0.0;
  std::vector<bool> degraded(3, false);
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_DOUBLE_EQ(ea[i].time_s, eb[i].time_s);
    EXPECT_EQ(ea[i].node, eb[i].node);
    EXPECT_DOUBLE_EQ(ea[i].bw_scale, eb[i].bw_scale);
    EXPECT_GE(ea[i].time_s, last);
    EXPECT_LT(ea[i].time_s, options.horizon_s);
    last = ea[i].time_s;
    EXPECT_EQ(ea[i].action, NetEvent::Action::kRadioScale);
    // Each node strictly alternates degrade -> heal -> degrade ...
    if (!degraded[ea[i].node]) {
      EXPECT_DOUBLE_EQ(ea[i].bw_scale, options.bad_bw_scale);
      EXPECT_DOUBLE_EQ(ea[i].latency_scale, options.bad_latency_scale);
    } else {
      EXPECT_DOUBLE_EQ(ea[i].bw_scale, 1.0);
      EXPECT_DOUBLE_EQ(ea[i].latency_scale, 1.0);
    }
    degraded[ea[i].node] = !degraded[ea[i].node];
  }
  options.seed = 8;
  GilbertElliottDegradation c(options);
  const auto ec = drain(c);
  bool differs = ec.size() != ea.size();
  for (std::size_t i = 0; !differs && i < ec.size(); ++i) {
    differs = ec[i].time_s != ea[i].time_s || ec[i].node != ea[i].node;
  }
  EXPECT_TRUE(differs) << "different seeds produced the same event stream";
}

TEST(NetFaultInjector, AppliesEventsThroughClusterAtScheduledTimes) {
  Cluster cluster(uniform_cluster(3));
  NetEvent scale;
  scale.time_s = 0.25;
  scale.action = NetEvent::Action::kRadioScale;
  scale.node = 1;
  scale.bw_scale = 0.5;
  NetEvent down;
  down.time_s = 0.5;
  down.action = NetEvent::Action::kLinkDown;
  down.node = 0;
  down.peer = 2;
  NetEvent up;
  up.time_s = 0.75;
  up.action = NetEvent::Action::kLinkUp;
  up.node = 0;
  up.peer = 2;
  ScriptedDegradation trace({scale, down, up});
  NetFaultInjector injector(cluster, trace);
  injector.start();
  std::vector<std::pair<double, std::uint64_t>> observed;  // (time, epoch)
  cluster.add_observer([&](const NodeEvent& event) {
    observed.emplace_back(event.time_s, event.epoch);
  });
  cluster.simulator().run();
  EXPECT_EQ(injector.applied(), 3u);
  EXPECT_EQ(cluster.membership_epoch(), 3u);
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_DOUBLE_EQ(observed[0].first, 0.25);
  EXPECT_DOUBLE_EQ(observed[1].first, 0.5);
  EXPECT_DOUBLE_EQ(observed[2].first, 0.75);
  EXPECT_DOUBLE_EQ(cluster.radio_bw_scale(1), 0.5);
  EXPECT_TRUE(cluster.link_up(0, 2));
}

// ---- engine + service: failure and replan on degraded links ----------------

/// Ships bytes to node 1 then computes there when the network says node 1
/// is healthily reachable; otherwise computes on the leader. Replans after
/// a link failure visibly route around the degradation. Optionally leads
/// with a compute task, keeping the transfer *pending* (undispatched) for
/// `lead_compute_s` — the window where only the engine's link sweep, not a
/// network-level abort, can fail the run.
class LinkAwareStrategy : public IStrategy {
 public:
  explicit LinkAwareStrategy(double lead_compute_s = 0.0)
      : lead_compute_s_(lead_compute_s) {}
  std::string name() const override { return "LinkAware"; }
  PlanResult plan(const PlanRequest& request) override {
    const ClusterSnapshot& snap = request.snapshot;
    seen_bw_scale.push_back(snap.network.bw_scale(1));
    Plan plan;
    plan.strategy = name();
    plan.leader = snap.leader;
    const bool remote_ok = snap.available.size() > 1 && snap.available[1] &&
                           snap.network.link_up(snap.leader, 1) &&
                           snap.network.bw_scale(1) > 0.99;
    int deps_base = -1;
    // The lead compute runs on a bystander node (2), so a replanned run is
    // never queued behind the failed run's leftover processor reservation —
    // the failure instant stays visible in the finish time.
    if (lead_compute_s_ > 0.0 && remote_ok) {
      PlanTask lead;
      lead.kind = PlanTask::Kind::kCompute;
      lead.node = 2;
      lead.proc = 0;
      lead.seconds = lead_compute_s_;
      lead.flops = 1e9;
      plan.tasks.push_back(lead);
      deps_base = 0;
    }
    if (remote_ok) {
      PlanTask send;
      send.kind = PlanTask::Kind::kTransfer;
      send.from = snap.leader;
      send.to = 1;
      send.bytes = 40'000'000;  // ~0.5 s on the healthy paper link
      if (deps_base >= 0) send.deps = {deps_base};
      plan.tasks.push_back(send);
      PlanTask compute;
      compute.kind = PlanTask::Kind::kCompute;
      compute.node = 1;
      compute.proc = 0;
      compute.seconds = 0.1;
      compute.flops = 1e9;
      compute.deps = {static_cast<int>(plan.tasks.size()) - 1};
      plan.tasks.push_back(compute);
      plan.nodes_used = 2;
    } else {
      PlanTask local;
      local.kind = PlanTask::Kind::kCompute;
      local.node = snap.leader;
      local.proc = 0;
      local.seconds = 0.2;
      local.flops = 1e9;
      if (deps_base >= 0) local.deps = {deps_base};
      plan.tasks.push_back(local);
      plan.nodes_used = 1;
    }
    return PlanResult{std::move(plan), false};
  }

  std::vector<double> seen_bw_scale;

 private:
  double lead_compute_s_;
};

TEST(EngineLinkFailure, MidTransferPartitionFailsRunAndRetryRoutesAround) {
  Cluster cluster(platform::paper_cluster());
  LinkAwareStrategy strategy;
  ServiceOptions options;
  options.max_retries = 1;
  InferenceService service(cluster, strategy, /*leader=*/0, options);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
  NetEvent down;
  down.time_s = 0.3;  // mid-transfer (healthy transfer ends ~0.504)
  down.action = NetEvent::Action::kLinkDown;
  down.node = 0;
  down.peer = 1;
  ScriptedDegradation trace({down});
  NetFaultInjector injector(cluster, trace);
  injector.start();
  const auto records = service.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  // Failed at the partition instant, replanned local (0.2 s on the leader).
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.5);
  EXPECT_EQ(service.stats().retries, 1u);
  EXPECT_EQ(service.stats().completed, 1u);
  EXPECT_EQ(service.stats().failed, 0u);
  // The retry saw the degraded network and planned around it.
  ASSERT_EQ(strategy.seen_bw_scale.size(), 2u);
}

TEST(EngineLinkFailure, PendingTransferOnDeadLinkFailsBeforeDispatch) {
  Cluster cluster(platform::paper_cluster());
  // The transfer waits behind a 0.5 s leading compute; the link dies at
  // 0.3 while the transfer is still pending inside the engine.
  LinkAwareStrategy strategy(/*lead_compute_s=*/0.5);
  ServiceOptions options;
  options.max_retries = 1;
  InferenceService service(cluster, strategy, 0, options);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
  NetEvent down;
  down.time_s = 0.3;
  down.action = NetEvent::Action::kLinkDown;
  down.node = 0;
  down.peer = 1;
  ScriptedDegradation trace({down});
  NetFaultInjector injector(cluster, trace);
  injector.start();
  const auto records = service.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  // The pending-transfer sweep failed the run at the event instant (0.3),
  // not at the transfer's dispatch (0.5): the local retry finishes at
  // 0.3 + 0.2. A dispatch-time-only check would land at 0.7.
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.5);
  EXPECT_EQ(service.stats().retries, 1u);
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(EngineLinkFailure, PendingTransferOverWatchdogBudgetFailsAtStart) {
  Cluster cluster(platform::paper_cluster());
  // The transfer waits behind a 0.5 s leading compute; node 1's radio
  // collapses at 0.3 while the transfer is still pending inside the engine.
  LinkAwareStrategy strategy(/*lead_compute_s=*/0.5);
  ServiceOptions options;
  options.max_retries = 1;
  options.transfer_timeout_factor = 2.0;
  InferenceService service(cluster, strategy, 0, options);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
  NetEvent collapse;
  collapse.time_s = 0.3;
  collapse.action = NetEvent::Action::kRadioScale;
  collapse.node = 1;
  collapse.bw_scale = 0.01;
  ScriptedDegradation trace({collapse});
  NetFaultInjector injector(cluster, trace);
  injector.start();
  const auto records = service.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  // When the transfer starts (0.5) its live price is far over its 2x
  // watchdog budget, so the run fails there instead of reserving both
  // radios until the watchdog fires (~1.5): the local retry finishes at
  // 0.5 + 0.2.
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.7);
  EXPECT_EQ(service.stats().retries, 1u);
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(EngineLinkFailure, TransferTimeoutDetectsSilentDegradationAndReplans) {
  ModelSet models;
  const auto run_once = [&](double timeout_factor) {
    Cluster cluster(platform::paper_cluster());
    LinkAwareStrategy strategy;
    ServiceOptions options;
    options.max_retries = 1;
    options.transfer_timeout_factor = timeout_factor;
    InferenceService service(cluster, strategy, 0, options);
    service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
    // Node 1's radio silently collapses to 1% bandwidth right after the
    // transfer starts — no partition, so only a watchdog can notice.
    NetEvent collapse;
    collapse.time_s = 0.1;
    collapse.action = NetEvent::Action::kRadioScale;
    collapse.node = 1;
    collapse.bw_scale = 0.01;
    ScriptedDegradation trace({collapse});
    NetFaultInjector injector(cluster, trace);
    injector.start();
    const auto records = service.run();
    return std::make_pair(records, service.stats());
  };
  const auto [with_watchdog, watchdog_stats] = run_once(2.0);
  const auto [without, without_stats] = run_once(0.0);
  ASSERT_EQ(with_watchdog.size(), 1u);
  ASSERT_EQ(without.size(), 1u);
  EXPECT_EQ(with_watchdog[0].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(without[0].outcome, RequestOutcome::kCompleted);
  // The watchdog fires at 2x the planned transfer time, the retry runs
  // locally; the unguarded service crawls through the degraded link.
  EXPECT_EQ(watchdog_stats.retries, 1u);
  EXPECT_EQ(without_stats.retries, 0u);
  EXPECT_LT(with_watchdog[0].finish_s, without[0].finish_s / 2.0);
  EXPECT_THROW(
      [] {
        ServiceOptions bad;
        bad.transfer_timeout_factor = 0.5;  // would kill healthy transfers
        Cluster c(uniform_cluster(2));
        LinkAwareStrategy s;
        InferenceService doomed(c, s, 0, bad);
      }(),
      std::invalid_argument);
}

TEST(EngineLinkFailure, StaleNetworkPlanningStaysBlindToDegradation) {
  ModelSet models;
  const auto run_once = [&](bool stale) {
    Cluster cluster(platform::paper_cluster());
    LinkAwareStrategy strategy;
    ServiceOptions options;
    options.stale_network_planning = stale;
    InferenceService service(cluster, strategy, 0, options);
    // Radio collapses before the request arrives.
    NetEvent collapse;
    collapse.time_s = 0.1;
    collapse.action = NetEvent::Action::kRadioScale;
    collapse.node = 1;
    collapse.bw_scale = 0.01;
    ScriptedDegradation trace({collapse});
    NetFaultInjector injector(cluster, trace);
    injector.start();
    service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.5});
    const auto records = service.run();
    return std::make_pair(records, strategy.seen_bw_scale);
  };
  const auto [aware_records, aware_saw] = run_once(false);
  const auto [stale_records, stale_saw] = run_once(true);
  // The aware strategy sees the degraded scale and plans locally; the
  // stale one plans against the construction-time spec and ships bytes
  // into the collapsed link.
  ASSERT_FALSE(aware_saw.empty());
  ASSERT_FALSE(stale_saw.empty());
  EXPECT_DOUBLE_EQ(aware_saw[0], 0.01);
  EXPECT_DOUBLE_EQ(stale_saw[0], 1.0);
  ASSERT_EQ(aware_records.size(), 1u);
  ASSERT_EQ(stale_records.size(), 1u);
  EXPECT_LT(aware_records[0].finish_s, stale_records[0].finish_s / 2.0);
}

// ---- granular invalidation (plan cache + cost models) ----------------------

TEST(GranularInvalidation, RadioScaleRepricesWithoutCostModelRebuild) {
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy hidp;
  InferenceService service(cluster, hidp, 1);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kVgg19), 0.0});
  service.run();
  EXPECT_EQ(hidp.cost_model_rebuilds(), 0u);
  EXPECT_EQ(hidp.network_repricings(), 0u);

  // Network-only change on the leader's radio: the cached plan touches the
  // leader, so it drops at the event instant (scoped), and the next plan
  // re-points transfer pricing but keeps every compute memo.
  const std::size_t scoped_before = hidp.plan_cache_stats().scoped_invalidations;
  cluster.set_radio_scale(1, 0.5, 1.0);
  EXPECT_GT(hidp.plan_cache_stats().scoped_invalidations, scoped_before);
  service.submit(RequestSpec{1, &models.graph(ModelId::kVgg19), cluster.simulator().now() + 0.1});
  service.run();
  EXPECT_EQ(hidp.cost_model_rebuilds(), 0u);
  EXPECT_GE(hidp.network_repricings(), 1u);
  const std::uint64_t repricings_after_scale = hidp.network_repricings();

  // Compute change: the node's cost-model rows are re-priced at the event
  // instant — no rebuild, before or after the next plan, and no extra
  // network repricing.
  cluster.set_dvfs_scale(0, 0.5);
  EXPECT_GT(hidp.plan_cache_stats().partial_repriced_rows, 0u);
  EXPECT_EQ(hidp.cost_model_rebuilds(), 0u);
  service.submit(RequestSpec{2, &models.graph(ModelId::kVgg19), cluster.simulator().now() + 0.1});
  service.run();
  EXPECT_EQ(hidp.cost_model_rebuilds(), 0u);
  EXPECT_EQ(hidp.network_repricings(), repricings_after_scale);

  // Availability churn is part of the cache key: neither counter moves and
  // the plan cache keeps its epoch.
  const std::uint64_t epoch = hidp.plan_cache_epoch();
  cluster.set_node_available(3, false);
  cluster.set_node_available(3, true);
  EXPECT_EQ(hidp.cost_model_rebuilds(), 0u);
  EXPECT_EQ(hidp.network_repricings(), repricings_after_scale);
  EXPECT_EQ(hidp.plan_cache_epoch(), epoch);
}

TEST(GranularInvalidation, LinkEventScopesPlanCacheEagerly) {
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy hidp;
  InferenceService service(cluster, hidp, 1);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kVgg19), 0.0});
  service.run();
  const std::uint64_t epoch = hidp.plan_cache_epoch();
  const std::size_t scoped_before = hidp.plan_cache_stats().scoped_invalidations;
  // A partition of a link at the leader drops the cached plan (it touches
  // the leader) at the event instant, without a wholesale flush.
  cluster.set_link_up(1, 3, false);
  EXPECT_GT(hidp.plan_cache_stats().scoped_invalidations, scoped_before);
  EXPECT_EQ(hidp.plan_cache_epoch(), epoch);
}

TEST(GranularInvalidation, ProbeNoiseNeverLeaksIntoCacheKeys) {
  // Regression: the prober's noisy beta measurements must not perturb the
  // plan-cache key — two identical steady-state requests with heavy probe
  // noise still produce a cache hit on the second.
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy::Options options;
  options.probe_noise_fraction = 0.3;
  core::HidpStrategy hidp(options);
  InferenceService service(cluster, hidp, 1);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
  service.submit(RequestSpec{1, &models.graph(ModelId::kEfficientNetB0), 5.0});
  const auto records = service.run();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_GE(hidp.plan_cache_stats().hits, 1u);
}

// ---- degradation-aware probing ---------------------------------------------

TEST(ProberDegradation, DegradedLinkReportedAvailableButSlow) {
  net::NetworkSpec spec(platform::paper_cluster());
  spec.set_radio_scale(1, 0.5, 1.0);
  net::ClusterProber prober(spec, 1024, /*noise_fraction=*/0.0);
  util::Rng rng(1);
  const auto report = prober.probe(0, std::vector<bool>(spec.size(), true), rng);
  ASSERT_EQ(report.degraded.size(), spec.size());
  EXPECT_TRUE(report.available[1]);
  EXPECT_TRUE(report.degraded[1]);
  EXPECT_FALSE(report.degraded[2]);
  EXPECT_EQ(report.degraded_count(), 1u);
  // Measured beta reflects the degraded link, not the base rate.
  EXPECT_LT(report.beta_bps[1], 0.9 * std::min(spec.base_radio_bw_bps(0),
                                               spec.base_radio_bw_bps(1)));
  EXPECT_GT(report.beta_bps[1], 0.0);
}

TEST(ProberDegradation, PartitionedNodeReportedUnavailable) {
  net::NetworkSpec spec(platform::paper_cluster());
  spec.set_link_up(0, 2, false);
  net::ClusterProber prober(spec, 1024, 0.0);
  util::Rng rng(1);
  const auto report = prober.probe(0, std::vector<bool>(spec.size(), true), rng);
  EXPECT_FALSE(report.available[2]);
  EXPECT_DOUBLE_EQ(report.beta_bps[2], 0.0);
  EXPECT_FALSE(report.degraded[2]);
  EXPECT_TRUE(report.available[1]);
  EXPECT_EQ(report.available_count(), spec.size() - 1);
}

// ---- fleet partition failover ----------------------------------------------

class LeaderLocalStrategy : public IStrategy {
 public:
  explicit LeaderLocalStrategy(double seconds) : seconds_(seconds) {}
  std::string name() const override { return "LeaderLocal"; }
  PlanResult plan(const PlanRequest& request) override {
    Plan plan;
    plan.strategy = name();
    plan.leader = request.snapshot.leader;
    PlanTask task;
    task.kind = PlanTask::Kind::kCompute;
    task.node = request.snapshot.leader;
    task.proc = 0;
    task.seconds = seconds_;
    task.flops = 1e9;
    plan.tasks.push_back(task);
    plan.nodes_used = 1;
    return PlanResult{std::move(plan), false};
  }

 private:
  double seconds_;
};

class AllToZeroRouting : public RoutingPolicy {
 public:
  std::string_view name() const override { return "all-to-zero"; }
  std::size_t route(const RequestSpec&, const ServiceFleet&) override { return 0; }
  bool routes_on_arrival() const override { return false; }
};

TEST(FleetPartition, PartitionedShardEvacuatesToSibling) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.2), b(0.2);
  AllToZeroRouting routing;
  FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
  FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
  shard_a.service.max_in_flight = 1;
  shard_b.service.max_in_flight = 1;
  FleetOptions options;
  options.failover.enabled = true;
  options.failover.min_live_nodes = 2;  // the partition drops shard 0 to 1
  ServiceFleet fleet(cluster, {shard_a, shard_b}, routing, options);
  const auto stream = periodic_stream(model, 6, 0.05);
  for (const auto& spec : stream) fleet.submit(spec);
  // No node dies — shard 0's worker is partitioned from its leader.
  NetEvent down;
  down.time_s = 0.3;
  down.action = NetEvent::Action::kLinkDown;
  down.node = 0;
  down.peer = 1;
  ScriptedDegradation trace({down});
  NetFaultInjector injector(cluster, trace);
  injector.start();
  const auto records = fleet.run();
  ASSERT_EQ(records.size(), 6u);
  for (const auto& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted) << "request " << record.id;
  }
  EXPECT_GT(fleet.evacuations(), 0u);
}

// ---- zero-degradation bit-identity -----------------------------------------

TEST(NetFaultDeterminism, EmptyInjectorLeavesRunsBitIdentical) {
  ModelSet models;
  const auto run_once = [&](bool with_injector) {
    Cluster cluster(platform::paper_cluster());
    core::HidpStrategy hidp;
    ServiceOptions options;
    options.max_in_flight = 2;
    InferenceService service(cluster, hidp, 1, options);
    PoissonArrivals::Options poisson;
    poisson.rate_hz = 30.0;
    poisson.count = 25;
    poisson.seed = 9;
    PoissonArrivals arrivals(models, {ModelId::kEfficientNetB0, ModelId::kResNet152},
                             poisson);
    service.attach(&arrivals);
    ScriptedDegradation empty({});
    NetFaultInjector injector(cluster, empty);
    if (with_injector) injector.start();
    return service.run();
  };
  const auto baseline = run_once(false);
  const auto injected = run_once(true);
  ASSERT_EQ(baseline.size(), 25u);
  ASSERT_EQ(baseline.size(), injected.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].id, injected[i].id);
    EXPECT_EQ(baseline[i].outcome, injected[i].outcome);
    EXPECT_DOUBLE_EQ(baseline[i].dispatch_s, injected[i].dispatch_s);
    EXPECT_DOUBLE_EQ(baseline[i].finish_s, injected[i].finish_s);
    EXPECT_DOUBLE_EQ(baseline[i].flops, injected[i].flops);
  }
}

}  // namespace
}  // namespace hidp::runtime
