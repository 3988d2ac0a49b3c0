// The gated-bench harness in bench/bench_util.hpp: GatedRun's flags, exit
// codes and gate floor, the JsonReport renderer, and json_number read
// against the baselines checked in under ci/.
#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using spider::bench::GatedRun;
using spider::bench::JsonReport;
using spider::bench::json_number;

/// A mutable argv over owned strings, as GatedRun::parse takes it.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    for (std::string& a : args_) ptrs_.push_back(a.data());
  }
  Argv(const Argv&) = delete;
  Argv& operator=(const Argv&) = delete;

  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "bench_harness_" + name;
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = temp_path(name);
  std::ofstream(path) << text;
  return path;
}

struct Gated {
  int exit_code = 0;
  std::string stdout_text;
  std::string report;
};

/// One run that writes no report, gates `measured` as `<group>.<field>`
/// against `baseline` text, and finishes.
Gated gate_once(const std::string& file, const std::string& baseline,
                const std::string& group, const std::string& field,
                double measured) {
  Argv args({"bench", "--spider-json=",
             "--baseline=" + write_temp(file, baseline)});
  GatedRun run("t", "");
  EXPECT_EQ(run.parse(args.argc(), args.argv()), 0);
  ::testing::internal::CaptureStdout();
  run.gate(group, field, measured);
  Gated out;
  out.exit_code = run.finish();
  out.stdout_text = ::testing::internal::GetCapturedStdout();
  out.report = run.report().render();
  return out;
}

constexpr const char* kLintLikeBaseline =
    R"({"metrics": {"serial": {"files_per_sec": 100}}})";

TEST(BenchHarness, GatePassesAtTheFloorAndFailsJustBelow) {
  const Gated at = gate_once("floor.json", kLintLikeBaseline, "serial",
                             "files_per_sec", 60.0);
  EXPECT_EQ(at.exit_code, 0);
  EXPECT_EQ(at.stdout_text,
            "[PASS] serial: 0.60x of baseline 100 files/sec (floor 0.60x)\n");
  const std::string gated_group =
      R"("serial": {"baseline_files_per_sec": 100, "vs_baseline": 0.6})";
  EXPECT_NE(at.report.find(gated_group), std::string::npos) << at.report;

  const Gated below = gate_once("below.json", kLintLikeBaseline, "serial",
                                "files_per_sec", 59.99);
  EXPECT_EQ(below.exit_code, 1);
  EXPECT_EQ(below.stdout_text,
            "[FAIL] serial: 0.60x of baseline 100 files/sec (floor 0.60x)\n");
}

TEST(BenchHarness, MissingGroupOrFieldFailsAsAbsentEntry) {
  const Gated group = gate_once("nogroup.json", kLintLikeBaseline, "parallel",
                                "files_per_sec", 1e9);
  EXPECT_EQ(group.exit_code, 1);
  EXPECT_EQ(group.stdout_text, "[FAIL] parallel: baseline entry present\n");

  const Gated field = gate_once("nofield.json", kLintLikeBaseline, "serial",
                                "records_per_sec", 1e9);
  EXPECT_EQ(field.exit_code, 1);
  EXPECT_EQ(field.stdout_text, "[FAIL] serial: baseline entry present\n");
  EXPECT_EQ(field.report.find("vs_baseline"), std::string::npos);
}

TEST(BenchHarness, ZeroBaselineFails) {
  const Gated zero =
      gate_once("zero.json", R"({"metrics": {"d": {"ops_per_sec": 0}}})", "d",
                "ops_per_sec", 1e6);
  EXPECT_EQ(zero.exit_code, 1);
  EXPECT_EQ(zero.stdout_text,
            "[FAIL] d: 0.00x of baseline 0 ops/sec (floor 0.60x)\n");
}

TEST(BenchHarness, GateIsANoOpWithoutBaseline) {
  Argv args({"bench", "--spider-json="});
  GatedRun run("t", "");
  ASSERT_EQ(run.parse(args.argc(), args.argv()), 0);
  ::testing::internal::CaptureStdout();
  run.gate("serial", "files_per_sec", 0.0);
  EXPECT_EQ(run.finish(), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(run.report().render().find("serial"), std::string::npos);
}

TEST(BenchHarness, UnknownFlagIsAUsageErrorUnlessPassedThrough) {
  Argv strict({"bench", "--smoke", "--benchmark_filter=X"});
  GatedRun strict_run("t", "");
  EXPECT_EQ(strict_run.parse(strict.argc(), strict.argv()), 2);

  Argv loose({"bench", "--benchmark_filter=X", "--smoke", "pos"});
  GatedRun loose_run("t", "");
  std::vector<char*> rest;
  ASSERT_EQ(loose_run.parse(loose.argc(), loose.argv(), &rest), 0);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(std::string(rest[0]), "--benchmark_filter=X");
  EXPECT_EQ(std::string(rest[1]), "pos");
  EXPECT_TRUE(loose_run.smoke());
  EXPECT_NE(loose_run.report().render().find(R"("mode": "smoke")"),
            std::string::npos);
}

TEST(BenchHarness, UnreadableBaselineExitsOne) {
  Argv args({"bench", "--baseline=" + temp_path("no_such_dir/base.json")});
  GatedRun run("t", "");
  EXPECT_EQ(run.parse(args.argc(), args.argv()), 1);
}

TEST(BenchHarness, EmptySpiderJsonWritesNoReport) {
  const std::string default_path = temp_path("default_report.json");
  std::filesystem::remove(default_path);

  Argv silent({"bench", "--spider-json="});
  GatedRun silent_run("t", default_path);
  ASSERT_EQ(silent_run.parse(silent.argc(), silent.argv()), 0);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(silent_run.finish(), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
  EXPECT_FALSE(std::filesystem::exists(default_path));

  Argv plain({"bench"});
  GatedRun plain_run("t", default_path);
  ASSERT_EQ(plain_run.parse(plain.argc(), plain.argv()), 0);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(plain_run.finish(), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            "wrote " + default_path + "\n");
  std::string written;
  ASSERT_TRUE(spider::bench::read_text_file(default_path, written));
  EXPECT_EQ(written, plain_run.report().render());
  std::filesystem::remove(default_path);
}

TEST(BenchHarness, JsonNumberReadsEveryCheckedInBaseline) {
  struct Known {
    const char* file;
    const char* group;
    const char* field;
    double value;
  };
  const Known known[] = {
      {"engine", "schedule_dispatch", "ops_per_sec", 1600000},
      {"scale", "serial_16x", "events_per_sec", 4600000},
      {"fsck", "serial_16384", "slots_per_sec", 2.35051e+06},
      {"changelog", "incremental_4096", "records_per_sec", 5.788e+07},
      {"lint", "serial", "files_per_sec", 2989.04},
  };
  for (const Known& k : known) {
    SCOPED_TRACE(k.file);
    std::string text;
    ASSERT_TRUE(spider::bench::read_text_file(
        std::string(SPIDER_BENCH_BASELINE_DIR) + "/bench-baseline-" + k.file +
            ".json",
        text));
    double got = 0.0;
    ASSERT_TRUE(json_number(text, k.group, k.field, got));
    EXPECT_EQ(got, k.value);
    EXPECT_FALSE(json_number(text, "no_such_group", k.field, got));
    EXPECT_FALSE(json_number(text, k.group, "no_such_field", got));
  }
}

TEST(BenchHarness, JsonReportRendersGroupsInInsertionOrder) {
  JsonReport report("demo", "full");
  report.add("b", "x", 1.0);
  report.add("a", "y", 0.5);
  report.add("b", "z", 1234567.0);
  EXPECT_EQ(report.render(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"mode\": \"full\",\n"
            "  \"metrics\": {\n"
            "    \"b\": {\"x\": 1, \"z\": 1.23457e+06},\n"
            "    \"a\": {\"y\": 0.5}\n"
            "  }\n"
            "}\n");
}

}  // namespace
