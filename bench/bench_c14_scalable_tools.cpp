// C14 (Section VI-C, Lesson 19): standard Linux tools do not work at scale.
//
// du hammers the MDS (hence server-side LustreDU); cp/find/tar are
// single-threaded and latency-bound (hence dcp/dfind/dtar from the
// OLCF/LLNL/LANL/DDN collaboration).
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "block/raid.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fs/fs_namespace.hpp"
#include "tools/lustredu.hpp"
#include "tools/ptools.hpp"

int main() {
  using namespace spider;
  using namespace spider::tools;

  bench::banner("C14a: du vs LustreDU on a 1M-file namespace");
  Rng rng(2014);
  std::vector<std::unique_ptr<block::Raid6Group>> groups;
  std::vector<std::unique_ptr<fs::Ost>> osts;
  std::vector<fs::Ost*> ptrs;
  for (int i = 0; i < 32; ++i) {
    std::vector<block::Disk> members;
    for (int m = 0; m < 10; ++m) {
      members.emplace_back(block::DiskParams{}, m, 1.0, 1e-4);
    }
    groups.push_back(std::make_unique<block::Raid6Group>(block::RaidParams{},
                                                         std::move(members)));
    osts.push_back(std::make_unique<fs::Ost>(i, groups.back().get()));
    ptrs.push_back(osts.back().get());
  }
  fs::FsNamespace ns("atlas1", ptrs);
  for (int f = 0; f < 1'000'000; ++f) {
    ns.create_file(f % 50, 8_MiB, 0, rng);
  }

  const auto du_cost = client_du(ns, 7, /*background_util=*/0.5);
  LustreDu lustredu;
  lustredu.daily_scan(ns);
  const auto ldu_cost = lustredu.usage(7);

  Table du_table;
  du_table.set_columns({"tool", "MDS ops", "wall time s", "bytes reported TB"});
  du_table.add_row({std::string("client du (under 50% MDS load)"),
                    du_cost.mds_ops, du_cost.wall_s, to_tb(du_cost.bytes_reported)});
  du_table.add_row({std::string("LustreDU (daily server snapshot)"),
                    ldu_cost.mds_ops, ldu_cost.wall_s,
                    to_tb(ldu_cost.bytes_reported)});
  du_table.print(std::cout);

  bench::banner("C14b: serial vs parallel tree tools (1M files, 8 MiB mean)");
  TreeSpec tree;
  ToolEnvironment env;
  Table t;
  t.set_columns({"tool", "ranks", "wall time", "speedup", "MDS util"});
  const auto sfind = run_serial_find(tree, env);
  const auto scp = run_serial_cp(tree, env);
  const auto star = run_serial_tar(tree, env);
  auto add = [&t](const std::string& name, unsigned ranks,
                  const ToolRunResult& r, double base) {
    t.add_row({name, static_cast<std::int64_t>(ranks),
               r.wall_s > 120.0 ? std::to_string(r.wall_s / 60.0) + " min"
                                : std::to_string(r.wall_s) + " s",
               base / r.wall_s, r.mds_utilization});
  };
  add("find", 1, sfind, sfind.wall_s);
  add("dfind", 4, run_dfind(tree, env, 4), sfind.wall_s);
  add("dfind", 32, run_dfind(tree, env, 32), sfind.wall_s);
  add("cp -r", 1, scp, scp.wall_s);
  add("dcp", 16, run_dcp(tree, env, 16), scp.wall_s);
  add("dcp", 128, run_dcp(tree, env, 128), scp.wall_s);
  add("tar -c", 1, star, star.wall_s);
  add("dtar", 16, run_dtar(tree, env, 16), star.wall_s);
  add("dtar", 128, run_dtar(tree, env, 128), star.wall_s);
  t.print(std::cout);
  std::cout << "\n";

  bench::ShapeChecker checker;
  checker.check(du_cost.mds_ops > 5e5,
                "client du costs ~a million weighted MDS ops on a 1M-file tree");
  checker.check(ldu_cost.mds_ops == 0.0 && ldu_cost.wall_s < 1e-2,
                "LustreDU answers at zero MDS cost from the snapshot");
  checker.check(ldu_cost.bytes_reported == du_cost.bytes_reported,
                "LustreDU agrees with the exhaustive walk");
  const auto dfind32 = run_dfind(tree, env, 32);
  checker.check(sfind.wall_s / dfind32.wall_s > 4.0,
                "dfind speeds up the walk several-fold");
  const auto dcp128 = run_dcp(tree, env, 128);
  checker.check(scp.wall_s / dcp128.wall_s > 20.0,
                "dcp turns a day-scale copy into minutes");
  return checker.exit_code();
}
