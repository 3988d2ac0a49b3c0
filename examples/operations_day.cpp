// A day in the life of the Spider operations team (Sections IV and VI).
//
// The example walks the operational toolchain end to end on a simulated
// day: the DDN poller sampling controllers, a disk failure and rebuild
// window, a controller failover, health-event coalescing that separates
// the hardware fault from the Lustre noise it caused, Nagios-style checks,
// the nightly LustreDU scan, and the scratch purge sweep.
#include <iomanip>
#include <iostream>
#include <memory>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/center.hpp"
#include "core/scenario.hpp"
#include "core/spider_config.hpp"
#include "fs/purge.hpp"
#include "tools/health.hpp"
#include "tools/lustredu.hpp"

using namespace spider;

int main() {
  Rng rng(7);
  core::CenterModel center(core::scaled_config(core::spider2_config(), 0.25),
                           rng);
  center.set_client_placement(core::ClientPlacement::kRandom, rng);

  sim::Simulator sim;
  core::ScenarioRunner runner(center, sim);
  tools::HealthMonitor monitor;
  tools::DdnPoller poller;

  // --- production load all day: users checkpointing on a cadence ---------
  for (double t = 300.0; t < 20.0 * 3600.0; t += 1800.0) {
    workload::IoBurst burst;
    burst.start = sim::from_seconds(t);
    burst.clients = 512;
    burst.bytes_per_client = 1_GiB;
    runner.submit_burst(burst,
                        [&center](std::size_t w) { return w % center.total_osts(); },
                        nullptr, 32);
  }

  // --- DDN tool: poll the controller plane every 5 minutes ----------------
  for (double t = 0.0; t < 24.0 * 3600.0; t += 300.0) {
    sim.schedule_at(sim::from_seconds(t), [&, t] {
      const auto& map = runner.map();
      for (std::size_t s = 0; s < center.num_ssus(); ++s) {
        const auto& stats = runner.network().stats(map.controller[s]);
        tools::ControllerSample sample;
        sample.time = sim.now();
        sample.controller = static_cast<std::uint32_t>(s);
        sample.write_bw = stats.current_load *
                          center.ssu(s).controller().delivered_bw();
        sample.read_bw = 0.0;
        sample.avg_request_size = 1_MiB;
        poller.record(sample);
      }
    });
  }

  // --- 09:12 a disk in SSU 2 fails; rebuild window begins -----------------
  const auto& map = runner.map();
  sim.schedule_at(sim::from_seconds(9.2 * 3600.0), [&] {
    auto& group = center.ssu(2).group(5);
    group.fail_member(3);
    group.start_rebuild(3);
    monitor.ingest({sim.now(), tools::EventSource::kHardware,
                    tools::Severity::kWarning, "ssu2-g5",
                    "disk 3 failed; hot spare engaged"});
    // The OST serves degraded bandwidth during the rebuild.
    const std::size_t ost = 2 * center.config().ssu.raid_groups + 5;
    runner.network().set_capacity(
        map.ost[ost], center.ost_at(ost).bandwidth(block::IoMode::kSequential,
                                                   block::IoDir::kWrite));
    monitor.ingest({sim.now(), tools::EventSource::kLustre,
                    tools::Severity::kInfo, "ssu2-g5",
                    "ost in rebuild mode; clients see reduced bandwidth"});
    // Rebuild completes after the group's rebuild time.
    sim.schedule_in(sim::from_seconds(group.rebuild_time_s()), [&, ost] {
      center.ssu(2).group(5).finish_rebuild(3);
      runner.network().set_capacity(
          map.ost[ost], center.ost_at(ost).bandwidth(
                            block::IoMode::kSequential, block::IoDir::kWrite));
      monitor.ingest({sim.now(), tools::EventSource::kLustre,
                      tools::Severity::kInfo, "ssu2-g5", "rebuild complete"});
    });
  });

  // --- 14:40 controller failover in SSU 3, recovered two hours later ------
  sim.schedule_at(sim::from_seconds(14.66 * 3600.0), [&] {
    center.ssu(3).controller().fail_one();
    runner.network().set_capacity(map.controller[3],
                                  center.ssu(3).controller().delivered_bw());
    monitor.ingest({sim.now(), tools::EventSource::kHardware,
                    tools::Severity::kCritical, "ssu3-ctrl",
                    "controller A unresponsive; failed over"});
    monitor.ingest({sim.now() + 2 * sim::kSecond, tools::EventSource::kLustre,
                    tools::Severity::kWarning, "ssu3-ctrl",
                    "lustre: slow I/O on OSTs behind ssu3"});
  });
  sim.schedule_at(sim::from_seconds(16.7 * 3600.0), [&] {
    center.ssu(3).controller().recover();
    runner.network().set_capacity(map.controller[3],
                                  center.ssu(3).controller().delivered_bw());
    monitor.ingest({sim.now(), tools::EventSource::kHardware,
                    tools::Severity::kInfo, "ssu3-ctrl",
                    "controller A replaced; active-active restored"});
  });

  sim.run(sim::kDay);

  // --- shift-end reporting -------------------------------------------------
  std::cout << "=== operations day summary ===\n\n";
  std::cout << "DDN tool: " << poller.samples() << " controller samples; "
            << "peak aggregate " << to_gbps(poller.peak_total_bw(0))
            << " GB/s\n\n";

  std::cout << "health incidents (coalescing window 10 min):\n";
  for (const auto& inc : monitor.coalesce(10 * sim::kMinute)) {
    std::cout << "  [" << std::fixed << std::setprecision(1)
              << sim::to_hours(inc.first) << "h] " << inc.component << ": "
              << inc.events.size() << " events, "
              << (inc.hardware_related ? "HARDWARE-RELATED" : "software only")
              << (inc.worst == tools::Severity::kCritical ? " (critical)" : "")
              << "\n";
  }

  tools::CheckScheduler checks;
  checks.add_check({"ssu2-g5 raid state", [&] {
                      return center.ssu(2).group(5).state() ==
                                     block::RaidState::kNormal
                                 ? tools::CheckResult{tools::CheckStatus::kOk, ""}
                                 : tools::CheckResult{
                                       tools::CheckStatus::kWarning,
                                       "group not back to normal"};
                    }});
  checks.add_check({"ssu3 controller pair", [&] {
                      return center.ssu(3).controller().state() ==
                                     block::PairState::kActiveActive
                                 ? tools::CheckResult{tools::CheckStatus::kOk, ""}
                                 : tools::CheckResult{
                                       tools::CheckStatus::kCritical,
                                       "still failed over"};
                    }});
  const auto report = checks.run_all();
  std::cout << "\nNagios sweep: " << report.ok << " ok, " << report.warning
            << " warning, " << report.critical << " critical\n";

  // --- nightly LustreDU scan and the 2am purge sweep -----------------------
  auto& scratch = center.filesystem().ns(0);
  Rng file_rng(21);
  for (int day_offset = -30; day_offset <= 0; ++day_offset) {
    const auto when =
        sim::kDay + static_cast<sim::SimTime>(day_offset) * sim::kDay;
    for (int f = 0; f < 200; ++f) {
      scratch.create_file(1 + f % 10, 20_GiB, when, file_rng);
    }
  }
  tools::LustreDu lustredu;
  lustredu.daily_scan(scratch);
  std::cout << "\nnightly LustreDU scan: project 3 uses "
            << to_tb(lustredu.usage(3).bytes_reported)
            << " TB (zero MDS cost; a client du would have cost "
            << tools::client_du(scratch, 3, 0.5).mds_ops
            << " weighted MDS ops)\n";

  const auto purge =
      fs::run_purge(scratch, sim.now() + sim::kDay, fs::PurgePolicy{14.0});
  std::cout << "2am purge sweep: scanned " << purge.scanned
            << " files, purged " << purge.purged << ", freed "
            << to_tb(purge.freed) << " TB; scratch now "
            << scratch.fullness() * 100.0 << "% full\n";

  return 0;
}
