#include "probes.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>

#include "cells/cell.h"
#include "cells/relay_payload.h"
#include "crypto/chacha.h"
#include "crypto/handshake.h"
#include "crypto/hash.h"
#include "serve/detour_index.h"
#include "simnet/event_loop.h"
#include "util/rng.h"

namespace perfbench {

using namespace ting;

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw ProbeError("probe check failed: " + what);
}

/// Keeps a value observable so the timed loop is not optimised away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

}  // namespace

std::size_t ProbeSink::scaled(std::size_t n) const {
  const double s = std::ceil(static_cast<double>(n) * scale);
  return s < 1 ? 1 : static_cast<std::size_t>(s);
}

void probe_data_plane(ProbeSink& sink, std::uint64_t seed) {
  Rng rng(seed);
  Bytes payload(cells::kPayloadSize);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::span<std::uint8_t> cell(payload.data(), payload.size());

  crypto::Key key{};
  crypto::Nonce nonce{};
  std::array<crypto::ChaChaCipher, 3> layers{
      crypto::ChaChaCipher(key, nonce, 0), crypto::ChaChaCipher(key, nonce, 1),
      crypto::ChaChaCipher(key, nonce, 2)};
  const std::array<crypto::ChaChaCipher*, 3> layer_ptrs{&layers[0], &layers[1],
                                                        &layers[2]};
  sink.time_ops("crypto.onion_ns_per_cell", 20000, 1e9, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      crypto::ChaChaCipher::apply_layers(layer_ptrs, cell);
      keep(payload[0]);
    }
  });
  crypto::ChaChaCipher one(key, nonce);
  sink.time_ops("crypto.chacha_ns_per_cell", 50000, 1e9, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      one.apply(cell);
      keep(payload[0]);
    }
  });
  sink.time_ops("crypto.digest_ns_per_cell", 20000, 1e9, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const crypto::Digest d = crypto::hash(
          std::span<const std::uint8_t>(payload.data(), payload.size()));
      payload[0] ^= d[0];
    }
  });

  const crypto::IdentityKeys relay_id = crypto::IdentityKeys::generate(rng);
  sink.time_ops("crypto.handshake_us", 200, 1e6, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const crypto::ClientHandshake client = crypto::ClientHandshake::start(rng);
      const crypto::RelayHandshakeResult relay =
          crypto::relay_handshake(relay_id, client.ephemeral_public, rng);
      const std::optional<crypto::HopKeys> keys = client.finish(
          relay_id.public_key, relay.ephemeral_public, relay.keys.auth);
      require(keys.has_value() &&
                  keys->forward_key == relay.keys.forward_key &&
                  keys->backward_key == relay.keys.backward_key,
              "handshake keys disagree");
    }
  });
  sink.time_ops("crypto.keygen_us", 500, 1e6, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const crypto::IdentityKeys k = crypto::IdentityKeys::generate(rng);
      keep(k.public_key[0]);
    }
  });

  const cells::Cell relay_cell =
      cells::Cell::make(42, cells::CellCommand::kRelay, payload);
  sink.time_ops("cells.codec_ns", 200000, 1e9, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const Bytes wire = relay_cell.encode();
      const cells::Cell back = cells::Cell::decode(
          std::span<const std::uint8_t>(wire.data(), wire.size()));
      require(back.circ_id == 42 && back.payload == relay_cell.payload,
              "cell codec round trip");
    }
  });

  const crypto::Digest digest_seed = crypto::hash(std::string("perfbench"));
  cells::RollingDigest sender(digest_seed);
  cells::RollingDigest receiver(digest_seed);
  cells::RelayPayload body;
  body.command = cells::RelayCommand::kData;
  body.stream_id = 7;
  body.data = Bytes(payload.begin(), payload.begin() + 400);
  sink.time_ops("cells.relay_ns", 20000, 1e9, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const Bytes wire = cells::encode_relay(body, sender);
      const std::optional<cells::RelayPayload> parsed = cells::try_parse_relay(
          std::span<const std::uint8_t>(wire.data(), wire.size()), receiver);
      require(parsed.has_value() && parsed->stream_id == 7,
              "relay payload not recognised");
    }
  });

  sink.time_ops("simnet.event_ns", 1000000, 1e9, [&](std::size_t n) {
    constexpr std::size_t kPerLoop = 1000;
    std::size_t fired = 0;
    for (std::size_t done = 0; done < n; done += kPerLoop) {
      simnet::EventLoop loop;
      const std::size_t batch = std::min(kPerLoop, n - done);
      for (std::size_t i = 0; i < batch; ++i)
        loop.schedule(Duration::micros(static_cast<std::int64_t>(i)),
                      [&fired] { ++fired; });
      loop.run();
    }
    require(fired == n, "event loop dropped events");
  });
}

void probe_store(ProbeSink& sink, const meas::SparseRttMatrix& store,
                 const std::vector<dir::Fingerprint>& nodes, TimePoint now,
                 Duration ttl, const std::string& save_path,
                 std::uint64_t seed) {
  require(nodes.size() >= 2, "store probe needs two relays");
  // A fixed list of consensus pairs, drawn before timing: the planner's
  // probe pattern (present and missing pairs alike).
  Rng rng(seed);
  std::vector<std::pair<std::size_t, std::size_t>> pairs(4096);
  for (auto& [i, j] : pairs) {
    i = static_cast<std::size_t>(rng.next_below(nodes.size()));
    do {
      j = static_cast<std::size_t>(rng.next_below(nodes.size()));
    } while (j == i);
  }
  sink.time_ops("ting.store.contains_ns", 1000000, 1e9, [&](std::size_t n) {
    std::size_t hits = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const auto& [i, j] = pairs[k % pairs.size()];
      hits += store.contains(nodes[i], nodes[j]) ? 1 : 0;
    }
    keep(hits);
  });

  // Whole-store operations: a few repetitions, at most ~2 s of work each.
  const auto repeat = [&](const std::string& metric, auto op) {
    std::vector<double> times;
    const Clock::time_point begin = Clock::now();
    while (times.size() < 3 &&
           (times.empty() || seconds_between(begin, Clock::now()) < 2.0)) {
      const Clock::time_point t0 = Clock::now();
      op();
      const Clock::time_point t1 = Clock::now();
      sink.tracer.add("probe", t0, t1, sink.parent, -1,
                      metric + " ops=" + std::to_string(store.size()));
      times.push_back(seconds_between(t0, t1));
    }
    std::sort(times.begin(), times.end());
    sink.values[metric] = times[times.size() / 2];
    sink.ops[metric] = times.size();
  };
  repeat("ting.store.save_s", [&] { store.save_bin(save_path); });
  repeat("ting.store.coverage_s", [&] {
    const auto c = store.coverage(nodes, now, ttl);
    require(c.fresh + c.stale + c.missing == c.total, "coverage census");
  });
}

void probe_testbed(ProbeSink& sink, scenario::Testbed& world,
                   const std::vector<dir::Fingerprint>& nodes,
                   const meas::TingConfig& config) {
  meas::MeasurementHost& host = world.ting();
  require(host.ready(), "measurement host has no controller connection");
  sink.time_ops("ctrl.getinfo_us", 2000, 1e6, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::optional<std::string> reply;
      host.controller().get_info("version",
                                 [&reply](std::string r) { reply = r; });
      host.loop().run_while_waiting_for([&reply] { return reply.has_value(); },
                                        Duration::seconds(60));
      require(reply.has_value() && !reply->empty(), "GETINFO unanswered");
    }
  });

  // A fixed pair list over the final consensus, measured serially on the
  // reference world: the measurer without the engine around it.
  require(nodes.size() >= 4, "measurer probe needs four relays");
  meas::TingMeasurer measurer(host, config);
  std::size_t next = 0;
  sink.time_ops("ting.measurer.pair_ms", 20, 1e3, [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k, ++next) {
      const std::size_t i = next % nodes.size();
      const std::size_t j = (i + 1) % nodes.size();
      const meas::PairResult r = measurer.measure_blocking(nodes[i], nodes[j]);
      require(r.ok && r.rtt_ms > 0, "measurer pair failed: " + r.error);
    }
  });
}

void probe_detour_build(ProbeSink& sink,
                        const serve::MatrixSnapshot& snapshot) {
  const Clock::time_point t0 = Clock::now();
  const serve::DetourIndex index = serve::DetourIndex::build(snapshot);
  const Clock::time_point t1 = Clock::now();
  require(index.node_count() == snapshot.node_count(), "detour index size");
  sink.tracer.add("probe", t0, t1, sink.parent, -1,
                  "serve.detour_build_s ops=1");
  sink.values["serve.detour_build_s"] = seconds_between(t0, t1);
  sink.ops["serve.detour_build_s"] = 1;
}

}  // namespace perfbench
