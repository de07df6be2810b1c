// Testbed builders: assemble a complete simulated world — network, relays,
// measurement host — for the paper's two experimental settings:
//
//  - planetlab31(): the §4.1 ground-truth testbed. 31 relays spanning 6
//    European countries, 9 US states, and at least one relay each in Asia,
//    South America, Australia, and the Middle East, with restrictive exit
//    policies; a configurable fraction of their networks treat
//    ICMP/TCP/Tor traffic differently (the §4.3 anomaly).
//
//  - live_tor(n): an approximation of the live network (§4.5): n relays
//    placed with Tor's US/EU concentration, bandwidth-weighted flags,
//    residential/datacenter membership and rDNS names (§5.3).
//
//  - build_testbed(): the general entry point taking explicit RelaySpecs.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "dir/consensus.h"
#include "geo/cities.h"
#include "geo/geolocation.h"
#include "geo/ipalloc.h"
#include "scenario/rdns.h"
#include "scenario/topology.h"
#include "simnet/network.h"
#include "ting/measurement_host.h"
#include "tor/relay.h"

namespace ting::scenario {

// TestbedOptions and RelaySpec live in scenario/topology.h (the frozen
// topology is built from them); re-exported here for existing includers.

class Testbed {
 public:
  simnet::EventLoop& loop() { return *loop_; }
  simnet::Network& net() { return *net_; }
  meas::MeasurementHost& ting() { return *ting_host_; }
  geo::GeolocationService& geolocation() { return geolocation_; }
  const dir::Consensus& consensus() const { return consensus_; }

  std::size_t relay_count() const { return relays_.size(); }
  tor::Relay& relay(std::size_t i) { return *relays_.at(i); }
  const dir::Fingerprint& fp(std::size_t i) const {
    return relays_.at(i)->fingerprint();
  }
  std::vector<dir::Fingerprint> all_fingerprints() const;

  /// Host id of a relay, for ground-truth queries against the latency model.
  simnet::HostId host_of(const dir::Fingerprint& fp) const;
  /// Ground-truth RTT between two relays (what Ting should estimate),
  /// measured at the neutral TCP class (no jitter, no forwarding delay).
  double true_rtt_ms(const dir::Fingerprint& a, const dir::Fingerprint& b) const;
  /// Ground-truth RTT as ICMP ping sees it (the paper's "real" baseline).
  double ping_rtt_ms(const dir::Fingerprint& a, const dir::Fingerprint& b) const;

  simnet::HostId measurement_host() const { return measurement_host_; }

  /// A pool of `count` measurement hosts for parallel scanning: the primary
  /// host plus count-1 extras created (and started) on demand, each a full
  /// apparatus — own simnet host, w/z relays, echo pair, onion proxy, and
  /// controller session — placed alongside the primary (a rack of
  /// measurement machines). Extras persist across calls; asking for a
  /// smaller count returns a prefix of a previous pool.
  std::vector<meas::MeasurementHost*> measurement_pool(std::size_t count);

  /// Directory churn: remove a relay from the consensus AND from every
  /// measurement host's onion-proxy view (what the next consensus fetch
  /// would do). Returns the removed descriptor so a churn script can
  /// restore it later; nullopt if the relay was not in the consensus.
  std::optional<dir::RelayDescriptor> directory_remove(
      const dir::Fingerprint& fp);
  /// Re-add a previously removed relay to the directory consensus only.
  /// Measurement hosts re-learn it through scanner re-resolution (their
  /// own "consensus fetch").
  void directory_restore(const dir::RelayDescriptor& desc);

  /// Reset every stochastic component of the world — network jitter rng,
  /// all relay queue rngs (plus their load watermarks), and each
  /// measurement host's apparatus — to a deterministic function of `seed`.
  /// Topology, fingerprints, and established sessions are untouched. This
  /// is the deterministic scan's per-pair world reseed (ScanWorld::reseed):
  /// two same-seed testbeds given the same reseed produce identical
  /// subsequent stochastic behaviour.
  void reseed_stochastics(std::uint64_t seed);

  /// The frozen immutable layer this world was instantiated from. Shard
  /// engines reuse it to build sibling worlds without re-deriving the
  /// topology (never null: every construction path goes through one).
  const TopologyPtr& topology() const { return topology_; }

 private:
  friend Testbed testbed_from_topology(TopologyPtr topology);

  TopologyPtr topology_;
  std::unique_ptr<simnet::EventLoop> loop_;
  std::unique_ptr<simnet::Network> net_;
  std::vector<std::unique_ptr<tor::Relay>> relays_;
  std::map<dir::Fingerprint, simnet::HostId> host_by_fp_;
  dir::Consensus consensus_;
  geo::GeolocationService geolocation_;
  std::unique_ptr<geo::IpAllocator> ipalloc_;
  std::uint64_t seed_ = 1;
  std::unique_ptr<meas::MeasurementHost> ting_host_;
  std::vector<std::unique_ptr<meas::MeasurementHost>> pool_extras_;
  simnet::HostId measurement_host_ = 0;
};

/// Instantiate the mutable half of a world — event loop, network,
/// connections, relays, measurement host — over a frozen shared topology.
/// Bit-identical to a from-scratch build of the same specs/options; cheap
/// enough to call once per shard (no keygen, no geometry, no RTT trig).
Testbed testbed_from_topology(TopologyPtr topology);

/// Instantiate a world from explicit specs (builds a private topology).
Testbed build_testbed(const std::vector<RelaySpec>& specs,
                      const TestbedOptions& options);

/// The §4.1 PlanetLab-style ground-truth testbed (31 relays).
Testbed planetlab31(const TestbedOptions& options = {});

/// A live-Tor-like network with `n` relays.
Testbed live_tor(std::size_t n, const TestbedOptions& options = {});

}  // namespace ting::scenario
