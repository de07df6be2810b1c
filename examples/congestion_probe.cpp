// congestion_probe: run the §5.1 attack end to end with no oracle.
//
// A victim builds a circuit and chats with a server the attacker controls.
// The attacker knows only the exit, its own RTT to the exit, and the
// end-to-end RTT. It orders candidates with Algorithm 1 over a Ting
// all-pairs matrix and tests each with a real Murdoch–Danezis congestion
// probe (flooding its own circuit through the candidate and watching the
// victim's latency) until the entry and middle relays are identified.
#include <cstdio>

#include "analysis/congestion.h"
#include "analysis/deanon.h"
#include "echo/echo.h"
#include "scenario/testbed.h"

int main() {
  using namespace ting;
  using namespace ting::analysis;

  scenario::TestbedOptions options;
  options.seed = 424;
  options.differential_fraction = 0;
  scenario::Testbed world = scenario::planetlab31(options);

  // ---- the victim -------------------------------------------------------
  const std::size_t entry = 4, middle = 9, exit = 13;
  bool built = false;
  tor::CircuitHandle handle = 0;
  world.ting().op().build_circuit(
      {world.fp(entry), world.fp(middle), world.fp(exit), world.ting().z_fp()},
      [&](tor::CircuitHandle h) {
        built = true;
        handle = h;
      },
      {});
  world.loop().run_while_waiting_for([&] { return built; },
                                     Duration::seconds(120));
  bool connected = false;
  auto victim = world.ting().op().open_stream(
      handle, world.ting().echo_endpoint(), [&] { connected = true; }, {});
  world.loop().run_while_waiting_for([&] { return connected; },
                                     Duration::seconds(120));
  std::printf("victim circuit up: entry=relay%zu middle=relay%zu "
              "exit=relay%zu\n", entry, middle, exit);

  // ---- the attacker's knowledge -----------------------------------------
  std::vector<std::size_t> universe{0, 2, 4, 6, 8, 9, 11, 13, 15, 18, 21, 25};
  meas::RttMatrix matrix;
  for (std::size_t a = 0; a < universe.size(); ++a)
    for (std::size_t b = a + 1; b < universe.size(); ++b)
      matrix.set(world.fp(universe[a]), world.fp(universe[b]),
                 world.true_rtt_ms(world.fp(universe[a]),
                                   world.fp(universe[b])));
  // The attack names relays by snapshot index (fingerprint order).
  const auto snapshot = serve::MatrixSnapshot::build(matrix);
  const DeanonWorld dw(snapshot);

  AttackerView view;
  view.exit = *snapshot.index_of(world.fp(exit));
  view.exit_to_dst_ms = world.net()
                            .latency()
                            .rtt(world.host_of(world.fp(exit)),
                                 world.measurement_host(),
                                 simnet::Protocol::kTcp)
                            .ms();
  std::optional<double> e2e;
  echo::measure_stream_rtt(world.loop(), victim,
                           [&](std::optional<Duration> r) {
                             if (r.has_value()) e2e = r->ms();
                           });
  world.loop().run_while_waiting_for([&] { return e2e.has_value(); },
                                     Duration::seconds(60));
  view.e2e_ms = *e2e;
  std::printf("attacker view: exit known, r=%.1fms, Re2e=%.1fms, "
              "%zu candidates\n", view.exit_to_dst_ms, view.e2e_ms,
              dw.node_count() - 1);

  // ---- the attack --------------------------------------------------------
  CongestionProbeConfig pcfg;
  pcfg.rounds = 4;
  pcfg.burst_spacing = Duration::millis(1);
  std::size_t total_flood_cells = 0;
  Rng rng(9);
  const DeanonResult result = deanonymize_with_probe(
      dw, view, Strategy::kInformed, rng, [&](std::size_t node) {
        const CongestionVerdict v =
            congestion_probe(world.ting(), victim, snapshot.node(node), pcfg);
        total_flood_cells += v.flood_cells;
        std::printf("  probe relay $%s: %s (on %.1fms / off %.1fms, "
                    "d=%.2f)\n", snapshot.node(node).short_name().c_str(),
                    v.on_path ? "ON PATH" : "off path", v.mean_on_ms,
                    v.mean_off_ms, v.effect_size);
        return v.on_path;
      });

  if (!result.success) {
    std::printf("attack inconclusive\n");
    return 1;
  }
  std::printf("\ncircuit deanonymized with %d congestion probes "
              "(%.0f%% of candidates, %zu flood cells):\n",
              result.probes, 100 * result.fraction_probed,
              total_flood_cells);
  for (std::size_t idx : result.identified) {
    const dir::Fingerprint& fp = snapshot.node(idx);
    std::printf("  identified: $%s (%s)\n", fp.short_name().c_str(),
                fp == world.fp(entry)    ? "the entry — correct"
                : fp == world.fp(middle) ? "the middle — correct"
                                         : "WRONG");
  }
  return 0;
}
