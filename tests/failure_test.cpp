// Failure-injection tests: relay crashes, unreachable extend targets,
// missing echo servers, circuits torn down mid-measurement, packet loss,
// link degradation, and consensus churn under a running scan — the
// measurement pipeline must fail *explicitly* (classified error results,
// timeouts), never hang or silently return garbage.
#include <gtest/gtest.h>

#include <memory>

#include "scenario/faults.h"
#include "scenario/testbed.h"
#include "simnet/fault_plan.h"
#include "ting/half_circuit_cache.h"
#include "ting/measurer.h"
#include "ting/scheduler.h"
#include "tor/onion_proxy.h"

namespace ting::meas {
namespace {

scenario::TestbedOptions calm(std::uint64_t seed) {
  scenario::TestbedOptions o;
  o.seed = seed;
  o.differential_fraction = 0;
  o.latency.jitter_mean_ms = 0.05;
  o.latency.jitter_spike_prob = 0;
  return o;
}

TEST(FailureTest, HostDownDropsTrafficAndPings) {
  simnet::EventLoop loop;
  simnet::Network net(loop, {}, 71);
  const simnet::HostId a = net.add_host(IpAddr(10, 0, 0, 1), {40, -74});
  const simnet::HostId b = net.add_host(IpAddr(10, 0, 0, 2), {41, -75});
  net.listen(b, 80);

  net.set_host_down(b);
  bool connected = false, failed = false;
  net.connect(a, Endpoint{IpAddr(10, 0, 0, 2), 80}, simnet::Protocol::kTcp,
              [&](simnet::ConnPtr) { connected = true; },
              [&](const std::string&) { failed = true; });
  std::optional<std::optional<Duration>> ping_result;
  net.ping(a, IpAddr(10, 0, 0, 2),
           [&](std::optional<Duration> rtt) { ping_result = rtt; },
           Duration::millis(300));
  loop.run();
  EXPECT_FALSE(connected);
  EXPECT_TRUE(failed);
  ASSERT_TRUE(ping_result.has_value());
  EXPECT_FALSE(ping_result->has_value());

  // Revive: connects succeed again.
  net.set_host_down(b, false);
  bool ok = false;
  net.connect(a, Endpoint{IpAddr(10, 0, 0, 2), 80}, simnet::Protocol::kTcp,
              [&](simnet::ConnPtr) { ok = true; });
  loop.run();
  EXPECT_TRUE(ok);
}

TEST(FailureTest, InFlightTrafficToCrashedHostIsLost) {
  simnet::EventLoop loop;
  simnet::Network net(loop, {}, 72);
  const simnet::HostId a = net.add_host(IpAddr(10, 0, 0, 1), {40, -74});
  const simnet::HostId b = net.add_host(IpAddr(10, 0, 0, 2), {41, -75});
  simnet::Listener* lis = net.listen(b, 80);
  int received = 0;
  lis->set_on_accept([&](simnet::ConnPtr c) {
    c->set_on_message([&received](Bytes) { ++received; });
  });
  simnet::ConnPtr client;
  net.connect(a, Endpoint{IpAddr(10, 0, 0, 2), 80}, simnet::Protocol::kTcp,
              [&](simnet::ConnPtr c) { client = c; });
  loop.run();
  ASSERT_NE(client, nullptr);

  client->send(Bytes{1});
  net.set_host_down(b);  // crashes while the message is in flight
  client->send(Bytes{2});
  loop.run();
  EXPECT_EQ(received, 0);
}

TEST(FailureTest, MeasurementFailsCleanlyWhenRelayCrashes) {
  scenario::Testbed tb = scenario::planetlab31(calm(801));
  TingConfig cfg;
  cfg.samples = 50;
  cfg.sample_timeout = Duration::seconds(5);
  cfg.build_timeout = Duration::seconds(30);
  TingMeasurer measurer(tb.ting(), cfg);

  const auto x = tb.fp(2), y = tb.fp(9);
  // Crash x before measuring: the C_xy circuit build cannot complete and
  // the measurement must report an error within its deadline.
  tb.net().set_host_down(tb.host_of(x));
  const PairResult r = measurer.measure_blocking(x, y);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());

  // A healthy pair still measures fine afterwards.
  const PairResult ok = measurer.measure_blocking(tb.fp(3), tb.fp(9));
  EXPECT_TRUE(ok.ok) << ok.error;
}

TEST(FailureTest, MeasurementFailsWhenRelayCrashesMidSampling) {
  scenario::Testbed tb = scenario::planetlab31(calm(802));
  TingConfig cfg;
  cfg.samples = 2000;  // long enough that we can interrupt it
  cfg.sample_timeout = Duration::millis(2500);
  TingMeasurer measurer(tb.ting(), cfg);

  const auto x = tb.fp(4), y = tb.fp(11);
  std::optional<PairResult> result;
  measurer.measure(x, y, [&](PairResult r) { result = std::move(r); });

  // Let the measurement get going, then crash x.
  tb.loop().run_until(tb.loop().now() + Duration::seconds(20));
  EXPECT_FALSE(result.has_value());
  tb.net().set_host_down(tb.host_of(x));

  tb.loop().run_while_waiting_for([&] { return result.has_value(); },
                                  Duration::seconds(3600 * 24));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
}

TEST(FailureTest, ExtendToUnreachableRelayFailsCircuit) {
  scenario::Testbed tb = scenario::planetlab31(calm(803));
  // A descriptor whose ORPort nothing listens on.
  dir::RelayDescriptor phantom = tb.relay(5).descriptor();
  crypto::X25519Key k;
  k.fill(0xcc);
  phantom.onion_key = k;
  phantom.fingerprint = dir::Fingerprint::of_identity(k);
  phantom.nickname = "phantom";
  phantom.or_port = 9999;
  tb.ting().op().add_descriptor(phantom);

  bool failed = false;
  tb.ting().op().build_circuit(
      {tb.ting().w_fp(), tb.fp(0), phantom.fingerprint, tb.ting().z_fp()},
      [](tor::CircuitHandle) { FAIL() << "circuit should not build"; },
      [&](const std::string&) { failed = true; });
  tb.loop().run_while_waiting_for([&] { return failed; },
                                  Duration::seconds(120));
  EXPECT_TRUE(failed);
  // Relay 0 must not leak the half-built circuit.
  tb.loop().run_until(tb.loop().now() + Duration::seconds(2));
  EXPECT_EQ(tb.relay(0).open_circuits(), 0u);
}

TEST(FailureTest, MissingEchoServerEndsStream) {
  scenario::Testbed tb = scenario::planetlab31(calm(804));
  bool built = false;
  tor::CircuitHandle handle = 0;
  tb.ting().op().build_circuit(
      {tb.ting().w_fp(), tb.fp(1), tb.ting().z_fp()},
      [&](tor::CircuitHandle h) {
        built = true;
        handle = h;
      },
      {});
  tb.loop().run_while_waiting_for([&] { return built; },
                                  Duration::seconds(60));
  ASSERT_TRUE(built);

  // Target an address z's policy allows but where nothing listens.
  bool stream_failed = false;
  tb.ting().op().open_stream(
      handle, Endpoint{tb.net().ip_of(tb.measurement_host()), 12345},
      [] { FAIL() << "nothing listens there"; },
      [&](const std::string&) { stream_failed = true; });
  tb.loop().run_while_waiting_for([&] { return stream_failed; },
                                  Duration::seconds(60));
  EXPECT_TRUE(stream_failed);
}

TEST(FailureTest, CircuitClosedUnderActiveStreamNotifiesIt) {
  scenario::Testbed tb = scenario::planetlab31(calm(805));
  bool built = false;
  tor::CircuitHandle handle = 0;
  tb.ting().op().build_circuit(
      {tb.ting().w_fp(), tb.fp(2), tb.ting().z_fp()},
      [&](tor::CircuitHandle h) {
        built = true;
        handle = h;
      },
      {});
  tb.loop().run_while_waiting_for([&] { return built; },
                                  Duration::seconds(60));
  ASSERT_TRUE(built);

  bool connected = false, closed = false;
  auto stream = tb.ting().op().open_stream(
      handle, tb.ting().echo_endpoint(), [&] { connected = true; }, {});
  tb.loop().run_while_waiting_for([&] { return connected; },
                                  Duration::seconds(60));
  ASSERT_TRUE(connected);
  stream->set_on_close([&] { closed = true; });

  tb.ting().op().close_circuit(handle);
  tb.loop().run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(stream->state(), tor::StreamState::kClosed);
}

TEST(FailureTest, ScanSurvivesACrashedRelay) {
  scenario::Testbed tb = scenario::planetlab31(calm(806));
  TingConfig cfg;
  cfg.samples = 20;
  cfg.sample_timeout = Duration::seconds(2);
  cfg.build_timeout = Duration::seconds(20);
  TingMeasurer measurer(tb.ting(), cfg);
  RttMatrix cache;
  ParallelScanner scanner({&measurer}, cache);

  tb.net().set_host_down(tb.host_of(tb.fp(1)));
  std::vector<dir::Fingerprint> nodes{tb.fp(0), tb.fp(1), tb.fp(2)};
  ScanOptions options;
  options.attempts_per_pair = 1;
  const ScanReport report = scanner.scan(nodes, options);
  EXPECT_EQ(report.measured, 1u);  // only (0, 2)
  EXPECT_EQ(report.failed, 2u);
  // Crashes are transient (the relay may come back), never permanent.
  EXPECT_EQ(report.failed_transient, 2u);
  EXPECT_EQ(report.failed_permanent, 0u);
  EXPECT_EQ(report.failed_churned, 0u);
  EXPECT_TRUE(cache.contains(tb.fp(0), tb.fp(2)));
}

// ---- packet loss ------------------------------------------------------------

TEST(FailureTest, PacketLossDelaysButDeliversReliableTraffic) {
  simnet::EventLoop loop;
  simnet::Network net(loop, {}, 73);
  const simnet::HostId a = net.add_host(IpAddr(10, 0, 0, 1), {40, -74});
  const simnet::HostId b = net.add_host(IpAddr(10, 0, 0, 2), {41, -75});
  simnet::Listener* lis = net.listen(b, 80);
  int received = 0;
  lis->set_on_accept([&](simnet::ConnPtr c) {
    c->set_on_message([&received](Bytes) { ++received; });
  });

  // Heavy loss: reliable transports model it as retransmission delay, so
  // the connect and the message still go through — late, not never. A
  // scan under loss slows down; it must not stall or drop pairs.
  net.set_packet_loss(b, 0.9);
  simnet::ConnPtr client;
  net.connect(a, Endpoint{IpAddr(10, 0, 0, 2), 80}, simnet::Protocol::kTcp,
              [&](simnet::ConnPtr c) { client = c; });
  loop.run();
  ASSERT_NE(client, nullptr);
  client->send(Bytes{1});
  loop.run();
  EXPECT_EQ(received, 1);
  // At 90% loss at least one leg retransmitted (1 s RTO per retry).
  EXPECT_GE(loop.now().sec(), 1.0);

  // Clearing the fault restores direct delivery.
  net.set_packet_loss(b, 0.0);
  const TimePoint before = loop.now();
  client->send(Bytes{2});
  loop.run();
  EXPECT_EQ(received, 2);
  EXPECT_LT((loop.now() - before).sec(), 1.0);
}

TEST(FailureTest, PingsAreDroppedUnderFullLoss) {
  simnet::EventLoop loop;
  simnet::Network net(loop, {}, 74);
  const simnet::HostId a = net.add_host(IpAddr(10, 0, 0, 1), {40, -74});
  net.add_host(IpAddr(10, 0, 0, 2), {41, -75});
  net.set_packet_loss(a, 1.0);

  std::optional<std::optional<Duration>> result;
  net.ping(a, IpAddr(10, 0, 0, 2),
           [&](std::optional<Duration> rtt) { result = rtt; },
           Duration::millis(500));
  loop.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->has_value());  // timed out, not delivered late
}

TEST(FailureTest, DegradedLinkInflatesRtt) {
  simnet::EventLoop loop;
  simnet::Network net(loop, {}, 75);
  const simnet::HostId a = net.add_host(IpAddr(10, 0, 0, 1), {40, -74});
  const simnet::HostId b = net.add_host(IpAddr(10, 0, 0, 2), {41, -75});

  const auto ping_ms = [&]() {
    std::optional<Duration> rtt;
    net.ping(a, IpAddr(10, 0, 0, 2),
             [&](std::optional<Duration> r) { rtt = r; },
             Duration::seconds(5));
    loop.run();
    return rtt.value().ms();
  };

  const double base = ping_ms();
  net.set_link_degradation(b, Duration::millis(50), Duration());
  // +50 ms one-way on b's access link shows up twice in an RTT.
  EXPECT_GE(ping_ms(), base + 95.0);
  net.set_link_degradation(b, Duration(), Duration());
  EXPECT_LT(ping_ms(), base + 10.0);
}

// ---- crash windows ----------------------------------------------------------

TEST(FailureTest, ScanRecoversAfterCrashWindow) {
  scenario::Testbed tb = scenario::planetlab31(calm(807));
  TingConfig cfg;
  cfg.samples = 10;
  cfg.sample_timeout = Duration::seconds(2);
  cfg.build_timeout = Duration::seconds(20);
  cfg.max_build_attempts = 1;
  TingMeasurer measurer(tb.ting(), cfg);

  // Relay 1 is down from the start and recovers after 60 s; the engine's
  // transient retries with backoff must pick it back up.
  simnet::FaultPlan plan(tb.net());
  plan.crash_window(tb.host_of(tb.fp(1)), Duration(), Duration::seconds(60));
  RttMatrix cache;
  ParallelScanner scanner(
      {ScanWorld{.measurers = {&measurer}, .fault_plan = &plan}}, cache);

  std::vector<dir::Fingerprint> nodes{tb.fp(0), tb.fp(1), tb.fp(2)};
  ScanOptions options;
  options.attempts_per_pair = 5;
  const ScanReport report = scanner.scan(nodes, options);

  EXPECT_EQ(report.measured, 3u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GE(report.retries, 1u);
  EXPECT_TRUE(cache.contains(tb.fp(0), tb.fp(1)));
  EXPECT_TRUE(cache.contains(tb.fp(1), tb.fp(2)));
  // Both the crash and the recovery were annotated on the report.
  ASSERT_EQ(report.fault_events.size(), 2u);
  EXPECT_NE(report.fault_events[0].what.find("crash"), std::string::npos);
  EXPECT_NE(report.fault_events[1].what.find("recover"), std::string::npos);
}

// ---- churn during a scan ----------------------------------------------------

TEST(FailureTest, SequentialScanReresolvesChurnedRelay) {
  scenario::Testbed tb = scenario::planetlab31(calm(808));
  TingConfig cfg;
  cfg.samples = 10;
  TingMeasurer measurer(tb.ting(), cfg);

  // fp(2) leaves the consensus 1 s into the scan and rejoins at 51 s.
  simnet::FaultPlan plan(tb.net());
  auto stash = std::make_shared<std::optional<dir::RelayDescriptor>>();
  plan.at(Duration::seconds(1), "consensus: -" + tb.fp(2).short_name(),
          [&tb, stash]() { *stash = tb.directory_remove(tb.fp(2)); });
  plan.at(Duration::seconds(51), "consensus: +" + tb.fp(2).short_name(),
          [&tb, stash]() { tb.directory_restore(**stash); });
  RttMatrix cache;
  ParallelScanner scanner({ScanWorld{.measurers = {&measurer},
                                     .live_consensus = &tb.consensus(),
                                     .fault_plan = &plan}},
                          cache);

  std::vector<dir::Fingerprint> nodes{tb.fp(0), tb.fp(1), tb.fp(2)};
  ScanOptions options;
  options.attempts_per_pair = 4;
  options.randomize_order = false;  // (0,1) first, then the churned pairs
  options.churn_requeue_delay = Duration::seconds(30);
  const ScanReport report = scanner.scan(nodes, options);

  // Every pair eventually measures: churned attempts waited for a fresh
  // consensus, re-resolved fp(2), and re-injected its descriptor.
  EXPECT_EQ(report.measured, 3u) << "failed: " << report.failed;
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GE(report.retries, 1u);
  EXPECT_GE(report.churn_reresolved, 1u);
  EXPECT_TRUE(cache.contains(tb.fp(0), tb.fp(2)));
  EXPECT_TRUE(cache.contains(tb.fp(1), tb.fp(2)));
  EXPECT_EQ(report.fault_events.size(), 2u);
}

TEST(FailureTest, ChurnReresolvedHalfReplacesCallersStaleEntry) {
  // The engine scans against a copy of the caller's half cache. Churn
  // re-resolution drops fp(2)'s half from that copy and measures it again;
  // the fresh half must replace the caller's pre-churn entry, although
  // both carry the deterministic zero stamp.
  scenario::Testbed tb = scenario::planetlab31(calm(808));
  TingConfig cfg;
  cfg.samples = 10;
  TingMeasurer measurer(tb.ting(), cfg);

  simnet::FaultPlan plan(tb.net());
  auto stash = std::make_shared<std::optional<dir::RelayDescriptor>>();
  plan.at(Duration::seconds(1), "consensus: -" + tb.fp(2).short_name(),
          [&tb, stash]() { *stash = tb.directory_remove(tb.fp(2)); });
  plan.at(Duration::seconds(51), "consensus: +" + tb.fp(2).short_name(),
          [&tb, stash]() { tb.directory_restore(**stash); });
  RttMatrix cache;
  ParallelScanner scanner(
      {ScanWorld{.measurers = {&measurer},
                 .reseed = [&tb](std::uint64_t s) { tb.reseed_stochastics(s); },
                 .live_consensus = &tb.consensus(),
                 .fault_plan = &plan}},
      cache);

  constexpr double kSentinel = 9999;
  const dir::Fingerprint w = measurer.host().w_fp();
  HalfCircuitCache halves;
  halves.store(w, tb.fp(2), kSentinel, TimePoint{}, 10);
  halves.store(w, tb.fp(5), kSentinel, TimePoint{}, 10);  // not scanned

  std::vector<dir::Fingerprint> nodes{tb.fp(0), tb.fp(1), tb.fp(2)};
  ScanOptions options;
  options.deterministic = true;
  options.half_cache = &halves;
  options.attempts_per_pair = 4;
  options.randomize_order = false;
  options.churn_requeue_delay = Duration::seconds(30);
  const ScanReport report = scanner.scan(nodes, options);

  ASSERT_EQ(report.measured, 3u) << "failed: " << report.failed;
  EXPECT_EQ(report.churn_reresolved, 1u);
  const std::optional<double> rtt = cache.rtt(tb.fp(0), tb.fp(2));
  ASSERT_TRUE(rtt.has_value());
  EXPECT_LT(*rtt, 1000);  // not computed off the sentinel half
  const HalfCircuitCache::Entry* half = halves.lookup(w, tb.fp(2));
  ASSERT_NE(half, nullptr);
  EXPECT_NE(half->rtt_ms, kSentinel);
  EXPECT_EQ(halves.lookup(w, tb.fp(5))->rtt_ms, kSentinel);
}

TEST(FailureTest, ParallelScanReresolvesChurnedRelay) {
  scenario::Testbed tb = scenario::planetlab31(calm(809));
  TingConfig cfg;
  cfg.samples = 10;
  std::vector<std::unique_ptr<TingMeasurer>> owned;
  std::vector<TingMeasurer*> pool;
  for (meas::MeasurementHost* host : tb.measurement_pool(2)) {
    owned.push_back(std::make_unique<TingMeasurer>(*host, cfg));
    pool.push_back(owned.back().get());
  }
  simnet::FaultPlan plan(tb.net());
  auto stash = std::make_shared<std::optional<dir::RelayDescriptor>>();
  plan.at(Duration::seconds(1), "consensus: -" + tb.fp(3).short_name(),
          [&tb, stash]() { *stash = tb.directory_remove(tb.fp(3)); });
  plan.at(Duration::seconds(51), "consensus: +" + tb.fp(3).short_name(),
          [&tb, stash]() { tb.directory_restore(**stash); });
  RttMatrix cache;
  ParallelScanner scanner({ScanWorld{.measurers = pool,
                                     .live_consensus = &tb.consensus(),
                                     .fault_plan = &plan}},
                          cache);

  std::vector<dir::Fingerprint> nodes{tb.fp(0), tb.fp(1), tb.fp(2), tb.fp(3)};
  ScanOptions options;
  options.attempts_per_pair = 5;
  options.churn_requeue_delay = Duration::seconds(30);
  const ScanReport report = scanner.scan(nodes, options);

  EXPECT_EQ(report.measured, 6u) << "failed: " << report.failed;
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GE(report.churn_reresolved, 1u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_TRUE(cache.contains(tb.fp(i), tb.fp(3)));
}

// ---- the acceptance scenario ------------------------------------------------

// A 20-node parallel scan under a fault plan combining relay churn and 5%
// packet loss everywhere, plus one relay that was never in the consensus:
//  - the scan completes without stalling,
//  - permanent failures consume exactly one attempt,
//  - churned relays are re-resolved against the live consensus and their
//    pairs measured,
//  - the per-class failure counters are consistent with failed/retries.
TEST(FailureTest, TwentyNodeScanUnderChurnAndLoss) {
  scenario::Testbed tb = scenario::planetlab31(calm(810));
  TingConfig cfg;
  cfg.samples = 5;
  cfg.sample_timeout = Duration::seconds(2);
  cfg.build_timeout = Duration::seconds(20);

  // 19 real relays + one ghost that no consensus has ever listed.
  std::vector<dir::Fingerprint> real;
  for (std::size_t i = 0; i < 19; ++i) real.push_back(tb.fp(i));
  crypto::X25519Key ghost_key;
  ghost_key.fill(0xdd);
  const dir::Fingerprint ghost = dir::Fingerprint::of_identity(ghost_key);
  std::vector<dir::Fingerprint> nodes = real;
  nodes.push_back(ghost);

  // Faults over the *real* relays: 5% loss on every link plus two scripted
  // consensus leave/rejoin cycles (the spec goes through the same parser
  // the CLI's --faults flag uses).
  simnet::FaultPlan plan(tb.net());
  // Churn timing vs retries: leaves at 20 s and 60 s, rejoins at 80 s and
  // 120 s. A churn failure can only happen at t >= 20, and with 6 attempts
  // spaced by the 20 s requeue delay the last attempt lands at t + 100 >=
  // 120 — after every rejoin — so no pair can exhaust on churn alone.
  const auto spec =
      scenario::FaultSpec::parse("loss:*:0.05;churn:2:20:40:60");
  scenario::apply_fault_spec(spec, tb, real, plan, /*seed=*/810);

  std::vector<std::unique_ptr<TingMeasurer>> owned;
  std::vector<TingMeasurer*> pool;
  for (meas::MeasurementHost* host : tb.measurement_pool(6)) {
    owned.push_back(std::make_unique<TingMeasurer>(*host, cfg));
    pool.push_back(owned.back().get());
  }
  RttMatrix cache;
  ParallelScanner scanner({ScanWorld{.measurers = pool,
                                     .live_consensus = &tb.consensus(),
                                     .fault_plan = &plan}},
                          cache);
  ScanOptions options;
  options.attempts_per_pair = 6;
  options.churn_requeue_delay = Duration::seconds(20);
  options.retry_backoff_base = Duration::seconds(10);
  const ScanReport report = scanner.scan(nodes, options);

  const std::size_t pairs = nodes.size() * (nodes.size() - 1) / 2;  // 190
  EXPECT_EQ(report.pairs_total, pairs);

  // The 19 ghost pairs are the only failures, all permanent, and each
  // consumed exactly one attempt (no retries were wasted on them).
  EXPECT_EQ(report.failed, 19u);
  EXPECT_EQ(report.failed_permanent, 19u);
  EXPECT_EQ(report.failed_transient + report.failed_churned, 0u);
  for (const auto& f : report.failed_pairs)
    EXPECT_TRUE(f.a == ghost || f.b == ghost);

  // Everything else measured despite loss and churn; churned relays were
  // re-resolved and their pairs completed.
  EXPECT_EQ(report.measured, pairs - 19u);
  EXPECT_EQ(report.measured + report.from_cache + report.failed, pairs);
  EXPECT_GE(report.churn_reresolved, 1u);

  // Counter consistency: per-class counts sum to failed, one FailedPair
  // record per failure, and the retry histogram accounts every pair.
  EXPECT_EQ(report.failed_transient + report.failed_permanent +
                report.failed_churned,
            report.failed);
  EXPECT_EQ(report.failed_pairs.size(), report.failed);
  std::size_t histogram_total = 0, histogram_retries = 0;
  for (std::size_t k = 0; k < report.retry_histogram.size(); ++k) {
    histogram_total += report.retry_histogram[k];
    histogram_retries += k * report.retry_histogram[k];
  }
  EXPECT_EQ(histogram_total, report.measured + report.failed);
  EXPECT_EQ(histogram_retries, report.retries);

  // The consensus events fired inside the scan window and were annotated.
  EXPECT_GE(report.fault_events.size(), 4u);
}

}  // namespace
}  // namespace ting::meas
