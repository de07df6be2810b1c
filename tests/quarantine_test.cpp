// Relay-quarantine tests: the circuit-breaker state machine itself, then
// the acceptance scenario — a relay scripted dead via the fault-spec
// parser's `die:` clause is quarantined after `threshold` consecutive
// permanent failures; its pending pairs are held (not burned at one doomed
// attempt each), re-probed on probation when the window expires, and
// written off (deferred, accounted in ScanReport) once the window budget
// is spent. The scan engine's deterministic driver and its pool must
// implement the same policy with the same counts.
#include <gtest/gtest.h>

#include "scenario/faults.h"
#include "scenario/testbed.h"
#include "simnet/fault_plan.h"
#include "ting/measurer.h"
#include "ting/quarantine.h"
#include "ting/scheduler.h"

namespace ting::meas {
namespace {

QuarantineOptions breaker() {
  QuarantineOptions q;
  q.enabled = true;
  q.threshold = 3;
  q.cooldown = Duration::seconds(600);
  q.max_windows = 2;
  return q;
}

TimePoint at_s(double s) { return TimePoint{} + Duration::seconds(s); }

dir::Fingerprint some_relay() {
  crypto::X25519Key k;
  k.fill(0xab);
  return dir::Fingerprint::of_identity(k);
}

// ---- the state machine ------------------------------------------------------

TEST(RelayQuarantineTest, StaysClearBelowThreshold) {
  RelayQuarantine q(breaker());
  const dir::Fingerprint r = some_relay();
  EXPECT_FALSE(q.on_permanent_failure(r, at_s(0)));
  EXPECT_FALSE(q.on_permanent_failure(r, at_s(1)));
  EXPECT_EQ(q.state(r, at_s(2)), RelayQuarantine::State::kClear);
  EXPECT_TRUE(q.events().empty());
}

TEST(RelayQuarantineTest, OpensAfterThresholdConsecutiveFailures) {
  RelayQuarantine q(breaker());
  const dir::Fingerprint r = some_relay();
  q.on_permanent_failure(r, at_s(0));
  q.on_permanent_failure(r, at_s(1));
  EXPECT_TRUE(q.on_permanent_failure(r, at_s(2)));  // the transition
  EXPECT_EQ(q.state(r, at_s(3)), RelayQuarantine::State::kQuarantined);
  EXPECT_EQ(q.release_at(r).ns(), at_s(602).ns());
  ASSERT_EQ(q.events().size(), 1u);
  EXPECT_EQ(q.events()[0].failures, 3);
  EXPECT_FALSE(q.events()[0].terminal);
}

TEST(RelayQuarantineTest, FailureInsideWindowDoesNotExtendIt) {
  RelayQuarantine q(breaker());
  const dir::Fingerprint r = some_relay();
  for (int i = 0; i < 3; ++i) q.on_permanent_failure(r, at_s(i));
  // A pair dispatched before the window opened finishes inside it: counted,
  // but no new window and no new event.
  EXPECT_FALSE(q.on_permanent_failure(r, at_s(100)));
  EXPECT_EQ(q.release_at(r).ns(), at_s(602).ns());
  EXPECT_EQ(q.events().size(), 1u);
}

TEST(RelayQuarantineTest, ExpiryGivesProbationAndFailureReopens) {
  RelayQuarantine q(breaker());
  const dir::Fingerprint r = some_relay();
  for (int i = 0; i < 3; ++i) q.on_permanent_failure(r, at_s(i));
  EXPECT_EQ(q.state(r, at_s(700)), RelayQuarantine::State::kProbation);
  EXPECT_TRUE(q.on_permanent_failure(r, at_s(700)));  // re-opens window 2
  EXPECT_EQ(q.state(r, at_s(701)), RelayQuarantine::State::kQuarantined);
  EXPECT_EQ(q.release_at(r).ns(), at_s(1300).ns());
  EXPECT_EQ(q.events().size(), 2u);
}

TEST(RelayQuarantineTest, TerminalOnceWindowBudgetIsSpent) {
  RelayQuarantine q(breaker());
  const dir::Fingerprint r = some_relay();
  for (int i = 0; i < 3; ++i) q.on_permanent_failure(r, at_s(i));
  q.on_permanent_failure(r, at_s(700));   // window 2
  EXPECT_TRUE(q.on_permanent_failure(r, at_s(1400)));  // budget spent
  EXPECT_EQ(q.state(r, at_s(1401)), RelayQuarantine::State::kTerminal);
  EXPECT_EQ(q.state(r, at_s(1e9)), RelayQuarantine::State::kTerminal);
  ASSERT_EQ(q.events().size(), 3u);
  EXPECT_TRUE(q.events()[2].terminal);
  EXPECT_EQ(q.events()[2].failures, 5);
  // Terminal is sticky: further failures neither transition nor re-event.
  EXPECT_FALSE(q.on_permanent_failure(r, at_s(2000)));
  EXPECT_EQ(q.events().size(), 3u);
}

TEST(RelayQuarantineTest, SuccessClearsNonTerminalBreaker) {
  RelayQuarantine q(breaker());
  const dir::Fingerprint r = some_relay();
  for (int i = 0; i < 3; ++i) q.on_permanent_failure(r, at_s(i));
  EXPECT_EQ(q.state(r, at_s(10)), RelayQuarantine::State::kQuarantined);
  q.on_success(r);
  EXPECT_EQ(q.state(r, at_s(10)), RelayQuarantine::State::kClear);
  // Consecutive-failure count restarts from zero.
  EXPECT_FALSE(q.on_permanent_failure(r, at_s(20)));
}

TEST(RelayQuarantineTest, DisabledBreakerNeverOpens) {
  QuarantineOptions off = breaker();
  off.enabled = false;
  RelayQuarantine q(off);
  const dir::Fingerprint r = some_relay();
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(q.on_permanent_failure(r, at_s(i)));
  EXPECT_EQ(q.state(r, at_s(11)), RelayQuarantine::State::kClear);
}

// ---- the acceptance scenario ------------------------------------------------

scenario::TestbedOptions calm(std::uint64_t seed) {
  scenario::TestbedOptions o;
  o.seed = seed;
  o.differential_fraction = 0;
  o.latency.jitter_mean_ms = 0.05;
  o.latency.jitter_spike_prob = 0;
  return o;
}

/// Check one engine's report against the designed scenario: 8 scan nodes,
/// node 7 scripted permanently dead (`die:7`), threshold 3, 2 windows.
/// Walkthrough in scan order: (0,7)(1,7)(2,7) fail and open window 1;
/// (3..6,7) are held; probation probe (3,7) fails and opens window 2;
/// probation probe (4,7) fails and goes terminal; (5,7)(6,7) defer. So 5
/// permanent failures — NOT 7, the breaker saved two doomed probes — plus
/// 2 deferrals, 2 probation probes, 3 breaker events, and 21 measured
/// healthy pairs.
void check_quarantine_report(const ScanReport& r, const dir::Fingerprint& dead,
                             const char* engine) {
  SCOPED_TRACE(engine);
  EXPECT_EQ(r.pairs_total, 28u);
  EXPECT_EQ(r.measured, 21u);
  EXPECT_EQ(r.failed, 5u);
  EXPECT_EQ(r.failed_permanent, 5u);
  EXPECT_EQ(r.deferred, 2u);
  EXPECT_EQ(r.probation_probes, 2u);
  EXPECT_FALSE(r.interrupted);
  EXPECT_EQ(r.measured + r.from_cache + r.failed + r.deferred +
                r.interrupted_pairs,
            r.pairs_total);
  // Every failure and every deferral touches the dead relay, and every
  // deferral names it as the culprit.
  for (const FailedPair& f : r.failed_pairs)
    EXPECT_TRUE(f.a == dead || f.b == dead);
  ASSERT_EQ(r.deferred_pairs.size(), 2u);
  for (const DeferredPair& d : r.deferred_pairs) {
    EXPECT_EQ(d.relay, dead);
    EXPECT_TRUE(d.a == dead || d.b == dead);
  }
  // Breaker history: window, re-opened window, terminal write-off.
  ASSERT_EQ(r.quarantine_events.size(), 3u);
  for (const QuarantineEvent& ev : r.quarantine_events)
    EXPECT_EQ(ev.relay, dead);
  EXPECT_FALSE(r.quarantine_events[0].terminal);
  EXPECT_EQ(r.quarantine_events[0].failures, 3);
  EXPECT_FALSE(r.quarantine_events[1].terminal);
  EXPECT_EQ(r.quarantine_events[1].failures, 4);
  EXPECT_TRUE(r.quarantine_events[2].terminal);
  EXPECT_EQ(r.quarantine_events[2].failures, 5);
  EXPECT_GE(r.quarantine_events[1].at.ns(), r.quarantine_events[0].until.ns());
}

std::vector<dir::Fingerprint> scan_nodes(scenario::Testbed& tb) {
  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < 8; ++i) nodes.push_back(tb.fp(i));
  return nodes;
}

ScanOptions quarantine_scan_options() {
  ScanOptions o;
  o.randomize_order = false;  // the walkthrough above assumes scan order
  o.quarantine = breaker();
  return o;
}

TEST(QuarantineScanTest, SerialEngineQuarantinesScriptedDeadRelay) {
  scenario::Testbed tb = scenario::live_tor(10, calm(901));
  const std::vector<dir::Fingerprint> nodes = scan_nodes(tb);
  // The `die:` clause with start 0 removes node 7 from the consensus (and
  // every onion proxy) before the scan snapshots it: never-known, so its
  // failures classify permanent — the breaker's trigger class.
  simnet::FaultPlan plan(tb.net());
  scenario::apply_fault_spec(scenario::FaultSpec::parse("die:7"), tb, nodes,
                             plan, 901);

  TingConfig cfg;
  cfg.samples = 10;
  TingMeasurer measurer(tb.ting(), cfg);
  RttMatrix cache;
  // Deterministic replay: strictly one pair at a time, world reseeded per
  // probe.
  ParallelScanner scanner(
      {ScanWorld{.measurers = {&measurer},
                 .reseed = [&tb](std::uint64_t s) {
                   tb.reseed_stochastics(s);
                 }}},
      cache);
  ScanOptions options = quarantine_scan_options();
  options.deterministic = true;
  const ScanReport report = scanner.scan(nodes, options);
  check_quarantine_report(report, nodes[7], "deterministic");
  // The healthy 7-node clique all landed in the cache.
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = i + 1; j < 7; ++j)
      EXPECT_TRUE(cache.contains(nodes[i], nodes[j]));
}

TEST(QuarantineScanTest, ParallelEngineQuarantinesScriptedDeadRelay) {
  scenario::Testbed tb = scenario::live_tor(10, calm(902));
  const std::vector<dir::Fingerprint> nodes = scan_nodes(tb);
  simnet::FaultPlan plan(tb.net());
  scenario::apply_fault_spec(scenario::FaultSpec::parse("die:7"), tb, nodes,
                             plan, 902);

  TingConfig cfg;
  cfg.samples = 10;
  TingMeasurer measurer(tb.ting(), cfg);
  RttMatrix cache;
  // One measurer: pairs resolve in claim order, so the same walkthrough
  // (and the same counts) applies to the pool's pump.
  ParallelScanner scanner({&measurer}, cache);
  const ScanReport report = scanner.scan(nodes, quarantine_scan_options());
  check_quarantine_report(report, nodes[7], "pool");
}

TEST(QuarantineScanTest, DisabledBreakerKeepsPerPairSemantics) {
  // With the breaker off (the library default) every dead-relay pair burns
  // its one permanent attempt, exactly as before this feature existed.
  scenario::Testbed tb = scenario::live_tor(10, calm(903));
  const std::vector<dir::Fingerprint> nodes = scan_nodes(tb);
  simnet::FaultPlan plan(tb.net());
  scenario::apply_fault_spec(scenario::FaultSpec::parse("die:7"), tb, nodes,
                             plan, 903);

  TingConfig cfg;
  cfg.samples = 10;
  TingMeasurer measurer(tb.ting(), cfg);
  RttMatrix cache;
  ParallelScanner scanner({&measurer}, cache);
  ScanOptions options;
  options.randomize_order = false;
  const ScanReport report = scanner.scan(nodes, options);
  EXPECT_EQ(report.failed_permanent, 7u);
  EXPECT_EQ(report.deferred, 0u);
  EXPECT_TRUE(report.quarantine_events.empty());
  EXPECT_EQ(report.measured, 21u);
}

}  // namespace
}  // namespace ting::meas
