// Tests for the Ting core: the Eq. (4) identity against simulator ground
// truth, sample-size behaviour, the strawman's failure on protocol-
// differential networks, forwarding-delay estimation, and the RTT matrix.
#include <gtest/gtest.h>

#include <cmath>

#include "scenario/testbed.h"
#include "ting/forwarding_delay.h"
#include "ting/measurer.h"
#include "ting/rtt_matrix.h"

namespace ting::meas {
namespace {

scenario::TestbedOptions calm_options(std::uint64_t seed = 11,
                                      double differential = 0.0) {
  scenario::TestbedOptions o;
  o.seed = seed;
  o.differential_fraction = differential;
  o.latency.jitter_mean_ms = 0.05;
  o.latency.jitter_spike_prob = 0.002;
  o.latency.jitter_spike_ms = 4.0;
  return o;
}

TEST(TingMeasurerTest, EstimateMatchesGroundTruthPlusForwardingDelays) {
  scenario::Testbed tb = scenario::planetlab31(calm_options());
  TingConfig cfg;
  cfg.samples = 100;
  TingMeasurer measurer(tb.ting(), cfg);

  for (const auto& [i, j] : std::vector<std::pair<int, int>>{
           {0, 9}, {3, 15}, {16, 18}, {5, 24}}) {
    const dir::Fingerprint x = tb.fp(static_cast<std::size_t>(i));
    const dir::Fingerprint y = tb.fp(static_cast<std::size_t>(j));
    const PairResult r = measurer.measure_blocking(x, y);
    ASSERT_TRUE(r.ok) << r.error;
    const double truth = tb.net().latency()
                             .rtt(tb.host_of(x), tb.host_of(y),
                                  simnet::Protocol::kTor)
                             .ms();
    // Eq. (4): estimate = R(x,y) + F_x + F_y; with ~100 samples jitter
    // leaves a small residue. The per-relay base forwarding delay is
    // 0.1–2.2 ms, so the estimate sits within ~[truth, truth+5].
    EXPECT_GT(r.rtt_ms, truth - 1.0) << i << "," << j;
    EXPECT_LT(r.rtt_ms, truth + 6.0) << i << "," << j;
  }
}

TEST(TingMeasurerTest, AccuracyWithin10PercentForMostPairs) {
  // A smaller version of the §4.2 headline claim on a handful of pairs.
  scenario::Testbed tb = scenario::planetlab31(calm_options(23));
  TingConfig cfg;
  cfg.samples = 60;
  TingMeasurer measurer(tb.ting(), cfg);
  Rng rng(5);
  int within_10pct = 0, total = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto idx = rng.sample_indices(tb.relay_count(), 2);
    const auto x = tb.fp(idx[0]), y = tb.fp(idx[1]);
    const PairResult r = measurer.measure_blocking(x, y);
    ASSERT_TRUE(r.ok) << r.error;
    const double truth = tb.net().latency()
                             .rtt(tb.host_of(x), tb.host_of(y),
                                  simnet::Protocol::kTor)
                             .ms();
    ++total;
    // §4.2's caveat: an apparently large relative error on a close pair is
    // a small absolute error (the estimate carries F_x + F_y).
    if (std::abs(r.rtt_ms - truth) / truth <= 0.10 ||
        std::abs(r.rtt_ms - truth) <= 5.0)
      ++within_10pct;
  }
  EXPECT_GE(within_10pct, total - 1);
}

TEST(TingMeasurerTest, RejectsInvalidPairs) {
  scenario::Testbed tb = scenario::planetlab31(calm_options(31));
  TingMeasurer measurer(tb.ting());
  const PairResult same = measurer.measure_blocking(tb.fp(0), tb.fp(0));
  EXPECT_FALSE(same.ok);
  const PairResult with_w =
      measurer.measure_blocking(tb.fp(0), tb.ting().w_fp());
  EXPECT_FALSE(with_w.ok);
}

TEST(TingMeasurerTest, MoreSamplesNeverWorse) {
  scenario::Testbed tb = scenario::planetlab31(calm_options(37));
  TingConfig cfg;
  cfg.samples = 120;
  cfg.keep_raw_samples = true;
  TingMeasurer measurer(tb.ting(), cfg);
  const PairResult r = measurer.measure_blocking(tb.fp(2), tb.fp(20));
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.cxy.raw_samples_ms.size(), 120u);
  // Prefix-minimum estimates are monotonically refined toward the final
  // value: each circuit's prefix min is non-increasing in k.
  double prev = 1e18;
  for (std::size_t k = 1; k <= 120; k += 10) {
    double m = 1e18;
    for (std::size_t i = 0; i < k; ++i)
      m = std::min(m, r.cxy.raw_samples_ms[i]);
    EXPECT_LE(m, prev + 1e-12);
    prev = m;
  }
  // And the k=full prefix estimate equals the reported estimate.
  EXPECT_NEAR(r.estimate_with_prefix(120), r.rtt_ms, 1e-9);
}

TEST(TingMeasurerTest, CircuitMeasurementMatchesEquationOne) {
  // Zero out every noise source and check Eq. (1) exactly: the C_xy echo
  // RTT equals the sum of link RTTs plus 2F per relay (local relays' F
  // included), using configured bases.
  scenario::TestbedOptions o = calm_options(41);
  o.latency.jitter_mean_ms = 1e-7;
  o.latency.jitter_spike_prob = 0;
  scenario::Testbed tb = scenario::planetlab31(o);
  TingConfig cfg;
  cfg.samples = 400;  // drive relay queueing minima toward the base
  TingMeasurer measurer(tb.ting(), cfg);

  const auto x = tb.fp(1), y = tb.fp(12);
  const CircuitMeasurement m = measurer.measure_circuit_blocking({x, y}, 400);
  ASSERT_TRUE(m.ok) << m.error;

  const auto& lat = tb.net().latency();
  const simnet::HostId h = tb.measurement_host();
  const simnet::HostId hx = tb.host_of(x), hy = tb.host_of(y);
  const double links = lat.rtt(h, h, simnet::Protocol::kTor).ms() * 2 +
                       lat.rtt(h, hx, simnet::Protocol::kTor).ms() +
                       lat.rtt(hx, hy, simnet::Protocol::kTor).ms() +
                       lat.rtt(hy, h, simnet::Protocol::kTor).ms();
  const double f = 2 * (tb.relay(1).config().base_forward_ms +
                        tb.relay(12).config().base_forward_ms +
                        2 * 0.2 /* w and z base */);
  EXPECT_NEAR(m.min_rtt_ms, links + f, 1.5);
}

TEST(TingMeasurerTest, StrawmanFailsOnDifferentialNetworksTingDoesNot) {
  // §3.2's motivation: on networks that slow ICMP, the ping-corrected
  // strawman misestimates while Ting stays near truth.
  scenario::TestbedOptions o = calm_options(47, /*differential=*/0.0);
  scenario::Testbed tb = scenario::planetlab31(o);
  // Give x's network a strong ICMP penalty by hand.
  const auto x = tb.fp(4), y = tb.fp(22);
  simnet::NetworkPolicy bias;
  bias.icmp_extra_ms = 18.0;
  tb.net().latency().set_policy(tb.host_of(x), bias);

  TingConfig cfg;
  cfg.samples = 80;
  TingMeasurer measurer(tb.ting(), cfg);
  const double truth = tb.net().latency()
                           .rtt(tb.host_of(x), tb.host_of(y),
                                simnet::Protocol::kTor)
                           .ms();

  const PairResult ting = measurer.measure_blocking(x, y);
  ASSERT_TRUE(ting.ok) << ting.error;
  EXPECT_LT(std::abs(ting.rtt_ms - truth), 6.0);

  const PairResult straw = measurer.strawman_measure_blocking(x, y, 80);
  ASSERT_TRUE(straw.ok) << straw.error;
  // The strawman subtracts an ICMP RTT inflated by ~18 ms.
  EXPECT_LT(straw.rtt_ms, truth - 10.0);
}

TEST(ForwardingDelayTest, RecoversConfiguredBaseOnNeutralNetworks) {
  scenario::TestbedOptions o = calm_options(53, 0.0);
  o.latency.jitter_mean_ms = 1e-7;
  o.latency.jitter_spike_prob = 0;
  scenario::Testbed tb = scenario::planetlab31(o);
  TingConfig cfg;
  TingMeasurer measurer(tb.ting(), cfg);
  ForwardingDelayEstimator est(measurer, /*probes=*/150);

  for (std::size_t i : {0u, 7u}) {
    const ForwardingDelayResult r = est.measure_blocking(tb.fp(i));
    ASSERT_TRUE(r.ok) << r.error;
    const double base = tb.relay(i).config().base_forward_ms;
    EXPECT_NEAR(r.icmp_based_ms, base, 0.8) << "relay " << i;
    EXPECT_NEAR(r.tcp_based_ms, base, 0.8) << "relay " << i;
  }
}

TEST(ForwardingDelayTest, NegativeEstimateOnIcmpPenalisedNetwork) {
  scenario::TestbedOptions o = calm_options(59, 0.0);
  o.latency.jitter_mean_ms = 1e-7;
  o.latency.jitter_spike_prob = 0;
  scenario::Testbed tb = scenario::planetlab31(o);
  const auto x = tb.fp(3);
  simnet::NetworkPolicy bias;
  bias.icmp_extra_ms = 15.0;  // ping much slower than Tor
  tb.net().latency().set_policy(tb.host_of(x), bias);

  TingMeasurer measurer(tb.ting());
  ForwardingDelayEstimator est(measurer, 100);
  const ForwardingDelayResult r = est.measure_blocking(x);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LT(r.icmp_based_ms, -5.0);          // the Fig 5 anomaly
  EXPECT_GT(r.tcp_based_ms, -1.0);           // TCP probe unaffected here
}

// ------------------------------------------------------------------ matrix

dir::Fingerprint fake_fp(std::uint8_t b) {
  crypto::X25519Key k;
  k.fill(b);
  return dir::Fingerprint::of_identity(k);
}

TEST(RttMatrixTest, SymmetricSetGet) {
  RttMatrix m;
  m.set(fake_fp(1), fake_fp(2), 42.5);
  EXPECT_EQ(m.rtt(fake_fp(1), fake_fp(2)), 42.5);
  EXPECT_EQ(m.rtt(fake_fp(2), fake_fp(1)), 42.5);
  EXPECT_FALSE(m.rtt(fake_fp(1), fake_fp(3)).has_value());
  EXPECT_TRUE(m.contains(fake_fp(2), fake_fp(1)));
  EXPECT_EQ(m.size(), 1u);
}

TEST(RttMatrixTest, RejectsSelfPairs) {
  RttMatrix m;
  EXPECT_THROW(m.set(fake_fp(1), fake_fp(1), 1.0), CheckError);
}

TEST(RttMatrixTest, OverwriteAndStats) {
  RttMatrix m;
  m.set(fake_fp(1), fake_fp(2), 10.0);
  m.set(fake_fp(2), fake_fp(1), 20.0);  // overwrite, symmetric key
  m.set(fake_fp(1), fake_fp(3), 40.0);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(*m.rtt(fake_fp(1), fake_fp(2)), 20.0);
  EXPECT_EQ(m.nodes().size(), 3u);
  EXPECT_EQ(m.values().size(), 2u);
}

TEST(RttMatrixTest, FreshnessWindow) {
  RttMatrix m;
  const TimePoint t0 = TimePoint::from_ns(0);
  m.set(fake_fp(1), fake_fp(2), 5.0, t0 + Duration::seconds(100), 10);
  EXPECT_TRUE(m.is_fresh(fake_fp(1), fake_fp(2),
                         t0 + Duration::seconds(150), Duration::seconds(60)));
  EXPECT_FALSE(m.is_fresh(fake_fp(1), fake_fp(2),
                          t0 + Duration::seconds(200), Duration::seconds(60)));
  EXPECT_FALSE(m.is_fresh(fake_fp(1), fake_fp(3), t0, Duration::seconds(60)));
}

TEST(RttMatrixTest, CsvRoundTrip) {
  RttMatrix m;
  m.set(fake_fp(1), fake_fp(2), 12.25, TimePoint::from_ns(777), 200);
  m.set(fake_fp(3), fake_fp(4), 99.5, TimePoint::from_ns(888), 100);
  const RttMatrix n = RttMatrix::from_csv(m.to_csv());
  EXPECT_EQ(n.size(), 2u);
  EXPECT_EQ(n.rtt(fake_fp(2), fake_fp(1)), 12.25);
  const auto* e = n.entry(fake_fp(3), fake_fp(4));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->measured_at.ns(), 888);
  EXPECT_EQ(e->samples, 100);
}

TEST(RttMatrixTest, CsvRejectsGarbage) {
  EXPECT_THROW(RttMatrix::from_csv("header\nnot,enough"), CheckError);
  const std::string header = "fp_a,fp_b,rtt_ms,measured_at_ns,samples\n";
  EXPECT_THROW(RttMatrix::from_csv(header + "not,enough"), CheckError);
  // A headerless file must not load minus its first row.
  RttMatrix m;
  m.set(fake_fp(1), fake_fp(2), 12.25, TimePoint::from_ns(777), 200);
  m.set(fake_fp(3), fake_fp(4), 99.5, TimePoint::from_ns(888), 100);
  const std::string csv = m.to_csv();
  ASSERT_EQ(csv.substr(0, header.size()), header);
  const std::string headerless = csv.substr(header.size());
  try {
    RttMatrix::from_csv(headerless);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(RttMatrixTest, CsvRejectsCorruptNumericFields) {
  const std::string a = fake_fp(1).hex(), b = fake_fp(2).hex();
  const std::string header = "fp_a,fp_b,rtt_ms,measured_at_ns,samples\n";
  // Non-numeric rtt: stod would throw std::invalid_argument; we want a
  // CheckError naming the row instead.
  EXPECT_THROW(RttMatrix::from_csv(header + a + "," + b + ",oops,777,200"),
               CheckError);
  // Trailing garbage after a valid prefix ("12.5x") must also be rejected.
  EXPECT_THROW(RttMatrix::from_csv(header + a + "," + b + ",12.5x,777,200"),
               CheckError);
  // Out-of-range timestamp (std::out_of_range from stoll).
  EXPECT_THROW(RttMatrix::from_csv(header + a + "," + b +
                                   ",12.5,99999999999999999999999999,200"),
               CheckError);
  // Non-numeric sample count.
  EXPECT_THROW(RttMatrix::from_csv(header + a + "," + b + ",12.5,777,many"),
               CheckError);
  // stod parses these, but they are not RTTs.
  for (const char* rtt : {"nan", "NaN", "inf", "-inf", "infinity"})
    EXPECT_THROW(
        RttMatrix::from_csv(header + a + "," + b + "," + rtt + ",777,200"),
        CheckError)
        << rtt;
  // A negative estimate is legal: R_Cxy - R_Cx/2 - R_Cy/2 can dip below 0.
  EXPECT_EQ(RttMatrix::from_csv(header + a + "," + b + ",-0.5,777,200")
                .rtt(fake_fp(1), fake_fp(2)),
            -0.5);
  // The error message should carry the offending line for debugging.
  try {
    RttMatrix::from_csv(header + a + "," + b + ",oops,777,200");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos);
  }
  try {
    RttMatrix::from_csv(header + a + "," + b + ",12.5,777,200\n" + b + "," +
                        a + ",nan,777,200");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ting::meas

namespace ting::meas {
namespace {

TEST(TingMeasurerTest, TransientBuildFailureIsRetried) {
  scenario::Testbed tb = scenario::planetlab31(calm_options(61));
  TingConfig cfg;
  cfg.samples = 20;
  cfg.sample_timeout = Duration::seconds(2);
  cfg.build_timeout = Duration::seconds(15);
  cfg.max_build_attempts = 20;
  TingMeasurer measurer(tb.ting(), cfg);

  // Crash x, start the measurement, and revive x shortly after: early
  // attempts fail fast (connection refused -> DESTROY), a later retry
  // succeeds.
  const auto x = tb.fp(6), y = tb.fp(19);
  tb.net().set_host_down(tb.host_of(x));
  std::optional<PairResult> result;
  measurer.measure(x, y, [&](PairResult r) { result = std::move(r); });
  tb.loop().run_until(tb.loop().now() + Duration::seconds(3));
  EXPECT_FALSE(result.has_value());  // still retrying
  tb.net().set_host_down(tb.host_of(x), false);
  tb.loop().run_while_waiting_for([&] { return result.has_value(); },
                                  Duration::seconds(36000));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
}

TEST(TingMeasurerTest, AttemptsAreBounded) {
  scenario::Testbed tb = scenario::planetlab31(calm_options(62));
  TingConfig cfg;
  cfg.samples = 10;
  cfg.sample_timeout = Duration::seconds(1);
  cfg.build_timeout = Duration::seconds(5);
  cfg.max_build_attempts = 2;
  TingMeasurer measurer(tb.ting(), cfg);

  const auto x = tb.fp(7), y = tb.fp(20);
  tb.net().set_host_down(tb.host_of(x));  // permanently down
  const TimePoint before = tb.loop().now();
  const PairResult r = measurer.measure_blocking(x, y);
  EXPECT_FALSE(r.ok);
  // Two attempts' worth of deadline, not more.
  const double budget_s =
      2 * (cfg.build_timeout + cfg.sample_timeout * cfg.samples).sec();
  EXPECT_LE((tb.loop().now() - before).sec(), budget_s + 5.0);
}

}  // namespace
}  // namespace ting::meas
