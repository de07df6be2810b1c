// Parameterized property tests: invariants swept across seeds, sizes, and
// protocol parameters with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <tuple>

#include "cells/cell.h"
#include "cells/relay_payload.h"
#include "crypto/handshake.h"
#include "crypto/hash.h"
#include "crypto/x25519.h"
#include "dir/exit_policy.h"
#include "echo/echo.h"
#include "simnet/latency_model.h"
#include "simnet/network.h"
#include "tor/hop_crypto.h"
#include "tor/onion_proxy.h"
#include "tor/relay.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ting {
namespace {

// ---------------------------------------------------------- onion layering

/// Property: for any number of hops, applying all forward layers at the
/// client and removing one per relay yields the original payload, and the
/// rolling digests recognize exactly the addressed hop — across a whole
/// sequence of cells.
class OnionLayersProperty : public ::testing::TestWithParam<int> {};

TEST_P(OnionLayersProperty, SealAndPeelAcrossManyCells) {
  const int hops = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(hops));

  // Mirrored client/relay hop states from real handshakes.
  std::vector<std::unique_ptr<tor::HopCrypto>> client_side, relay_side;
  for (int h = 0; h < hops; ++h) {
    const crypto::IdentityKeys id = crypto::IdentityKeys::generate(rng);
    const crypto::ClientHandshake ch = crypto::ClientHandshake::start(rng);
    const crypto::RelayHandshakeResult rr =
        crypto::relay_handshake(id, ch.ephemeral_public, rng);
    const auto keys =
        ch.finish(id.public_key, rr.ephemeral_public, rr.keys.auth);
    ASSERT_TRUE(keys.has_value());
    client_side.push_back(std::make_unique<tor::HopCrypto>(*keys));
    relay_side.push_back(std::make_unique<tor::HopCrypto>(rr.keys));
  }

  // Send 20 cells, each addressed to a hop that cycles through the path.
  for (int n = 0; n < 20; ++n) {
    const int target = n % hops;
    cells::RelayPayload p;
    p.command = cells::RelayCommand::kData;
    p.stream_id = static_cast<std::uint16_t>(n);
    p.data = Bytes{static_cast<std::uint8_t>(n), 0xaa};

    Bytes wire = cells::encode_relay(
        p, client_side[static_cast<std::size_t>(target)]->forward_digest());
    for (int h = target; h >= 0; --h)
      client_side[static_cast<std::size_t>(h)]->apply_forward(wire);

    for (int h = 0; h <= target; ++h) {
      relay_side[static_cast<std::size_t>(h)]->apply_forward(wire);
      const auto parsed = cells::try_parse_relay(
          std::span<const std::uint8_t>(wire.data(), wire.size()),
          relay_side[static_cast<std::size_t>(h)]->forward_digest());
      if (h < target) {
        EXPECT_FALSE(parsed.has_value())
            << "hop " << h << " recognized a cell for hop " << target;
      } else {
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->stream_id, n);
        EXPECT_EQ(parsed->data, p.data);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HopCounts, OnionLayersProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

// ------------------------------------------------------------------ X25519

class X25519Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(X25519Property, DiffieHellmanCommutes) {
  Rng rng(GetParam());
  auto random_key = [&rng]() {
    crypto::X25519Key k;
    for (auto& b : k) b = static_cast<std::uint8_t>(rng.next_u64());
    return k;
  };
  for (int i = 0; i < 10; ++i) {
    const crypto::X25519Key a = random_key(), b = random_key();
    EXPECT_EQ(crypto::x25519(a, crypto::x25519_base(b)),
              crypto::x25519(b, crypto::x25519_base(a)));
  }
}

TEST_P(X25519Property, HandshakeAgreesForSeed) {
  Rng rng(GetParam() ^ 0x5555);
  const crypto::IdentityKeys id = crypto::IdentityKeys::generate(rng);
  const crypto::ClientHandshake ch = crypto::ClientHandshake::start(rng);
  const crypto::RelayHandshakeResult rr =
      crypto::relay_handshake(id, ch.ephemeral_public, rng);
  const auto keys = ch.finish(id.public_key, rr.ephemeral_public,
                              rr.keys.auth);
  ASSERT_TRUE(keys.has_value());
  EXPECT_EQ(keys->forward_key, rr.keys.forward_key);
  EXPECT_EQ(keys->backward_key, rr.keys.backward_key);
}

INSTANTIATE_TEST_SUITE_P(Seeds, X25519Property,
                         ::testing::Values(1u, 7u, 12345u, 0xdeadbeefu,
                                           0xffffffffffffffffull));

// -------------------------------------------------------------------- hash

class HashProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashProperty, IncrementalMatchesOneShotAtEverySplit) {
  const std::size_t len = GetParam();
  Rng rng(len + 9);
  Bytes msg(len);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
  const crypto::Digest whole =
      crypto::hash(std::span<const std::uint8_t>(msg.data(), msg.size()));
  for (std::size_t split : {std::size_t{0}, len / 3, len / 2, len}) {
    crypto::Hasher h;
    h.update(std::span<const std::uint8_t>(msg.data(), split));
    h.update(std::span<const std::uint8_t>(msg.data() + split, len - split));
    EXPECT_EQ(h.finalize(), whole) << "split at " << split;
  }
}

TEST_P(HashProperty, SingleBitFlipChangesDigest) {
  const std::size_t len = GetParam();
  if (len == 0) GTEST_SKIP();
  Bytes msg(len, 0x3c);
  const crypto::Digest base =
      crypto::hash(std::span<const std::uint8_t>(msg.data(), msg.size()));
  msg[len / 2] ^= 0x10;
  EXPECT_NE(crypto::hash(std::span<const std::uint8_t>(msg.data(), msg.size())),
            base);
}

INSTANTIATE_TEST_SUITE_P(Lengths, HashProperty,
                         ::testing::Values(0u, 1u, 23u, 24u, 31u, 32u, 33u,
                                           63u, 64u, 65u, 509u, 4096u));

// ----------------------------------------------------------- latency model

class LatencyModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatencyModelProperty, InvariantsHoldForRandomTopologies) {
  simnet::LatencyConfig cfg;
  cfg.seed = GetParam();
  simnet::LatencyModel model(cfg);
  Rng rng(GetParam() + 1);
  std::vector<simnet::HostId> hosts;
  for (int i = 0; i < 12; ++i)
    hosts.push_back(model.add_host(
        {rng.uniform(-60.0, 70.0), rng.uniform(-180.0, 180.0)}));

  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      const Duration rtt = model.base_rtt(hosts[i], hosts[j]);
      // Symmetry and determinism.
      EXPECT_EQ(rtt, model.base_rtt(hosts[j], hosts[i]));
      EXPECT_EQ(rtt, model.base_rtt(hosts[i], hosts[j]));
      EXPECT_GT(rtt.ns(), 0);
      if (i == j) continue;
      // Speed-of-light floor and inflation ceiling.
      const double floor_ms = geo::min_rtt_ms_for_distance(
          geo::great_circle_km(model.location(hosts[i]),
                               model.location(hosts[j])));
      EXPECT_GE(rtt.ms() + 1e-9, std::min(floor_ms, cfg.min_rtt_ms));
      EXPECT_LE(rtt.ms(),
                std::max(floor_ms * cfg.inflation_max, cfg.min_rtt_ms) + 1e-9);
      // Samples never dip below half the protocol RTT.
      for (int s = 0; s < 50; ++s)
        EXPECT_GE(model
                      .sample_one_way(hosts[i], hosts[j],
                                      simnet::Protocol::kTcp, rng)
                      .ms(),
                  model.rtt(hosts[i], hosts[j], simnet::Protocol::kTcp).ms() /
                          2 -
                      1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyModelProperty,
                         ::testing::Values(2u, 33u, 444u, 5555u, 66666u));

// ------------------------------------------------------------- exit policy

struct PolicyCase {
  const char* policy;
  const char* ip;
  std::uint16_t port;
  bool expect_allowed;
};

// Without this, gtest prints the case as raw bytes, pointer values
// included, so the discovered ctest names changed from build to build.
void PrintTo(const PolicyCase& c, std::ostream* os) {
  std::string policy = c.policy;
  for (std::size_t nl = policy.find('\n'); nl != std::string::npos;
       nl = policy.find('\n', nl))
    policy.replace(nl, 1, ", ");
  *os << '{' << policy << "} " << c.ip << ':' << c.port;
}

class ExitPolicyProperty : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(ExitPolicyProperty, MatchesExpectation) {
  const PolicyCase& c = GetParam();
  const dir::ExitPolicy policy = dir::ExitPolicy::parse(c.policy);
  EXPECT_EQ(policy.allows(*IpAddr::parse(c.ip), c.port), c.expect_allowed)
      << c.policy << " vs " << c.ip << ":" << c.port;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, ExitPolicyProperty,
    ::testing::Values(
        PolicyCase{"accept *:*", "1.2.3.4", 80, true},
        PolicyCase{"reject *:*", "1.2.3.4", 80, false},
        PolicyCase{"accept *:80\nreject *:*", "9.9.9.9", 80, true},
        PolicyCase{"accept *:80\nreject *:*", "9.9.9.9", 81, false},
        PolicyCase{"reject 10.0.0.0/8:*\naccept *:*", "10.200.3.4", 443, false},
        PolicyCase{"reject 10.0.0.0/8:*\naccept *:*", "11.0.0.1", 443, true},
        PolicyCase{"accept 5.6.7.8:4000-5000\nreject *:*", "5.6.7.8", 4500,
                   true},
        PolicyCase{"accept 5.6.7.8:4000-5000\nreject *:*", "5.6.7.8", 5001,
                   false},
        PolicyCase{"accept 5.6.7.8:4000-5000\nreject *:*", "5.6.7.9", 4500,
                   false},
        PolicyCase{"accept 192.168.0.0/16:*", "192.168.255.1", 1, true},
        PolicyCase{"accept 192.168.0.0/16:*", "192.169.0.1", 1, false},
        // Empty policy: implicit default reject.
        PolicyCase{"", "1.1.1.1", 1, false}));

// ------------------------------------------------------------- relay cells

class CellRoundTripProperty
    : public ::testing::TestWithParam<std::tuple<cells::RelayCommand,
                                                 std::size_t>> {};

TEST_P(CellRoundTripProperty, EncodeParsePreservesEverything) {
  const auto [command, data_len] = GetParam();
  Rng rng(data_len + 77);
  cells::RelayPayload p;
  p.command = command;
  p.stream_id = static_cast<std::uint16_t>(rng.next_below(65536));
  p.data.resize(data_len);
  for (auto& b : p.data) b = static_cast<std::uint8_t>(rng.next_u64());

  crypto::Digest seed{};
  seed.fill(3);
  cells::RollingDigest sender(seed), receiver(seed);
  const Bytes wire = cells::encode_relay(p, sender);
  const auto parsed = cells::try_parse_relay(
      std::span<const std::uint8_t>(wire.data(), wire.size()), receiver);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->command, p.command);
  EXPECT_EQ(parsed->stream_id, p.stream_id);
  EXPECT_EQ(parsed->data, p.data);
}

INSTANTIATE_TEST_SUITE_P(
    CommandsAndSizes, CellRoundTripProperty,
    ::testing::Combine(::testing::Values(cells::RelayCommand::kBegin,
                                         cells::RelayCommand::kData,
                                         cells::RelayCommand::kEnd,
                                         cells::RelayCommand::kExtend,
                                         cells::RelayCommand::kExtended),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{100},
                                         cells::kRelayDataMax)));

// --------------------------------------------------- circuits of any length

class CircuitLengthProperty : public ::testing::TestWithParam<int> {};

TEST_P(CircuitLengthProperty, EchoWorksThroughAnyLength) {
  const int hops = GetParam();
  simnet::EventLoop loop;
  simnet::LatencyConfig lc;
  lc.jitter_mean_ms = 0.01;
  lc.jitter_spike_prob = 0;
  simnet::Network net(loop, lc, 600 + static_cast<std::uint64_t>(hops));

  dir::Consensus consensus;
  std::vector<std::unique_ptr<tor::Relay>> relays;
  for (int i = 0; i < hops; ++i) {
    const simnet::HostId h = net.add_host(
        IpAddr(10, static_cast<std::uint8_t>(50 + i), 0, 1),
        {20.0 + 3.0 * i, -70.0 + 4.0 * i});
    tor::RelayConfig rc;
    rc.nickname = "len" + std::to_string(i);
    rc.exit_policy = dir::ExitPolicy::accept_all();
    rc.base_forward_ms = 0.2;
    rc.queue_mean_ms = 0.1;
    relays.push_back(std::make_unique<tor::Relay>(
        net, h, rc, 900 + static_cast<std::uint64_t>(i)));
    consensus.add(relays.back()->descriptor());
  }
  const simnet::HostId op_host = net.add_host(IpAddr(10, 2, 0, 1), {40, -100});
  const simnet::HostId echo_host =
      net.add_host(IpAddr(10, 2, 0, 2), {40, -100.01});
  tor::OnionProxy op(net, op_host, {}, 19);
  op.set_consensus(consensus);
  echo::EchoServer server(net, echo_host);

  std::vector<dir::Fingerprint> path;
  for (const auto& r : relays) path.push_back(r->fingerprint());

  bool built = false;
  const tor::CircuitHandle h = op.build_circuit(
      path, [&](tor::CircuitHandle) { built = true; },
      [&](const std::string& e) { FAIL() << e; });
  loop.run_while_waiting_for([&] { return built; }, Duration::seconds(120));
  ASSERT_TRUE(built);

  bool connected = false;
  auto stream =
      op.open_stream(h, server.endpoint(), [&] { connected = true; }, {});
  loop.run_while_waiting_for([&] { return connected; },
                             Duration::seconds(120));
  ASSERT_TRUE(connected);

  std::string reply;
  stream->set_on_message(
      [&](Bytes data) { reply.assign(data.begin(), data.end()); });
  stream->send(Bytes{'o', 'k'});
  loop.run_while_waiting_for([&] { return !reply.empty(); },
                             Duration::seconds(120));
  EXPECT_EQ(reply, "ok");

  op.close_circuit(h);
  loop.run();
  for (const auto& r : relays) EXPECT_EQ(r->open_circuits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CircuitLengthProperty,
                         ::testing::Values(2, 3, 4, 5, 7, 10));

// ----------------------------------------------------------- rng invariants

class RngProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngProperty, BoundsAndPermutations) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  std::vector<int> v(20);
  for (int i = 0; i < 20; ++i) v[static_cast<std::size_t>(i)] = i;
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
  const auto sample = rng.sample_indices(100, 10);
  EXPECT_EQ(std::set<std::size_t>(sample.begin(), sample.end()).size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngProperty,
                         ::testing::Values(0u, 1u, 42u, 31337u,
                                           0xfedcba9876543210ull));

}  // namespace
}  // namespace ting
