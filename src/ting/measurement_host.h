// The Ting measurement apparatus (§3.3): one host h running
//   s — the echo client (driven through the OP's SOCKS port),
//   d — the echo server,
//   w — our entry-side Tor relay,
//   z — our exit-side Tor relay (exit policy allows only d),
// plus the onion proxy, its control port, and a Controller session — the
// exact four-processes-on-one-machine deployment the paper describes.
#pragma once

#include <functional>
#include <memory>

#include "ctrl/control_server.h"
#include "ctrl/controller.h"
#include "dir/consensus.h"
#include "echo/echo.h"
#include "simnet/network.h"
#include "tor/onion_proxy.h"
#include "tor/relay.h"

namespace ting::meas {

struct MeasurementHostConfig {
  /// Suffix for the w/z relay nicknames ("tingW" + label), so the members
  /// of a scan pool are distinguishable in logs and control replies.
  std::string label;
  std::uint16_t socks_port = 9050;
  std::uint16_t control_port = 9051;
  std::uint16_t echo_port = 4242;
  std::uint16_t w_or_port = 9001;
  std::uint16_t z_or_port = 9002;
  /// Our relays are dedicated and idle, so their forwarding delays are
  /// small and stable; they cancel in Eq. (4) regardless.
  double local_relay_base_ms = 0.2;
  double local_relay_queue_ms = 0.1;
};

class MeasurementHost {
 public:
  /// Installs everything on `host`. The OP starts with `consensus` plus the
  /// injected descriptors of w and z (the "PublishDescriptors 0" route).
  MeasurementHost(simnet::Network& net, simnet::HostId host,
                  dir::Consensus consensus,
                  MeasurementHostConfig config = {}, std::uint64_t seed = 7100);

  /// Open the controller session (AUTHENTICATE + SETEVENTS + SETCONF
  /// __LeaveStreamsUnattached=1). Must complete before measuring.
  void start(std::function<void()> on_ready);
  /// Blocking convenience: pumps the event loop until ready.
  void start_blocking();

  bool ready() const { return controller_ != nullptr; }

  /// Reseed the apparatus's stochastic state (w/z relay rngs, the OP rng)
  /// deterministically — part of the deterministic scan's per-pair world
  /// reseed. Fingerprints and established sessions are untouched.
  void reseed(std::uint64_t seed);

  simnet::Network& net() { return net_; }
  simnet::EventLoop& loop() { return net_.loop(); }
  simnet::HostId host() const { return host_; }
  tor::OnionProxy& op() { return *op_; }
  ctrl::Controller& controller() { return *controller_; }
  tor::Relay& w() { return *w_; }
  tor::Relay& z() { return *z_; }
  const dir::Fingerprint& w_fp() const { return w_->fingerprint(); }
  const dir::Fingerprint& z_fp() const { return z_->fingerprint(); }
  Endpoint echo_endpoint() const { return echo_->endpoint(); }
  Endpoint socks_endpoint() const;

 private:
  simnet::Network& net_;
  simnet::HostId host_;
  MeasurementHostConfig config_;
  std::unique_ptr<tor::Relay> w_;
  std::unique_ptr<tor::Relay> z_;
  std::unique_ptr<tor::OnionProxy> op_;
  std::unique_ptr<ctrl::ControlServer> control_server_;
  std::unique_ptr<echo::EchoServer> echo_;
  ctrl::Controller::Ptr controller_;
};

}  // namespace ting::meas
