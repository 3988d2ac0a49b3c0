// spiderlint self-tests: each rule fires on its fixture at the exact line,
// suppressions silence it, and both renderers carry the findings.
//
// Fixtures live in tests/lint_fixtures/ (outside src/, so the in-tree lint
// gate never sees them); classification is forced per fixture the same way
// the CLI's --treat-as does it.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/lint.hpp"
#include "tools/lint/report.hpp"
#include "tools/lint/rules.hpp"

namespace spider::lint {
namespace {

std::string fixture(const std::string& name) {
  return std::string(SPIDER_LINT_FIXTURES_DIR) + "/" + name;
}

LintReport lint_fixture(const std::string& name, FileClass cls) {
  LintOptions opts;
  opts.forced_class = cls;
  std::vector<std::string> errors;
  LintReport report = lint_paths({fixture(name)}, opts, errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  return report;
}

constexpr FileClass kSimCritical{.in_src = true, .sim_critical = true};
constexpr FileClass kSrc{.in_src = true};
constexpr FileClass kSrcHeader{.in_src = true, .is_header = true};

TEST(SpiderLint, L1FiresOnDeclarationAndIteration) {
  const LintReport r =
      lint_fixture("l1_unordered_iteration.cpp", kSimCritical);
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].rule, "L1");
  EXPECT_EQ(r.findings[0].line, 10u);  // unordered_map member declaration
  EXPECT_EQ(r.findings[0].severity, Severity::kError);
  EXPECT_EQ(r.findings[1].rule, "L1");
  EXPECT_EQ(r.findings[1].line, 14u);  // range-for over the tracked member
  EXPECT_NE(r.findings[1].message.find("flows_"), std::string::npos);
}

TEST(SpiderLint, L2FiresOnAmbientRandomness) {
  const LintReport r = lint_fixture("l2_nondet_source.cpp", kSrc);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "L2");
  EXPECT_EQ(r.findings[0].line, 9u);  // std::random_device rd;
  EXPECT_EQ(r.findings[0].severity, Severity::kError);
  EXPECT_NE(r.findings[0].message.find("random_device"), std::string::npos);
}

TEST(SpiderLint, L3FiresOnUnitBearingDoubleInHeader) {
  const LintReport r = lint_fixture("l3_raw_unit_double.hpp", kSrcHeader);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "L3");
  EXPECT_EQ(r.findings[0].line, 10u);  // double transfer_bytes
  EXPECT_EQ(r.findings[0].severity, Severity::kWarning);
  EXPECT_NE(r.findings[0].message.find("transfer_bytes"), std::string::npos);
}

TEST(SpiderLint, L3NeedsHeaderScope) {
  // The same file linted as a non-header translation unit stays quiet:
  // L3 is a public-interface rule.
  const LintReport r = lint_fixture("l3_raw_unit_double.hpp", kSrc);
  EXPECT_TRUE(r.clean());
}

TEST(SpiderLint, L4FiresOnSitelessSchedule) {
  const LintReport r = lint_fixture("l4_missing_site.cpp", kSrc);
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].rule, "L4");
  EXPECT_EQ(r.findings[0].line, 14u);  // q.schedule(100, 1);
  EXPECT_EQ(r.findings[0].severity, Severity::kError);
  // Fault-plan entry points must declare a replay-site parameter too.
  EXPECT_EQ(r.findings[1].line, 22u);  // inject(const Injection&)
  EXPECT_NE(r.findings[1].message.find("inject"), std::string::npos);
  EXPECT_EQ(r.findings[2].line, 23u);  // arm(const FaultPlan&)
  EXPECT_NE(r.findings[2].message.find("arm"), std::string::npos);
}

TEST(SpiderLint, SuppressionsSilenceEveryScopedRule) {
  // The file is linted under every class at once: unordered_map + a
  // unit-bearing double are both present, both justified.
  const LintReport r = lint_fixture(
      "suppressed_ok.cpp",
      FileClass{.in_src = true, .sim_critical = true, .is_header = true});
  EXPECT_TRUE(r.clean()) << render_text(r, /*fix_hints=*/false);
}

TEST(SpiderLint, TextReportCarriesFileLineRule) {
  const LintReport r =
      lint_fixture("l1_unordered_iteration.cpp", kSimCritical);
  const std::string text = render_text(r, /*fix_hints=*/false);
  EXPECT_NE(
      text.find("l1_unordered_iteration.cpp:10:8: error: [L1]"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("2 findings (2 errors, 0 warnings)"), std::string::npos)
      << text;
}

TEST(SpiderLint, TextReportHintsOnRequest) {
  const LintReport r = lint_fixture("l3_raw_unit_double.hpp", kSrcHeader);
  const std::string plain = render_text(r, /*fix_hints=*/false);
  const std::string hinted = render_text(r, /*fix_hints=*/true);
  EXPECT_EQ(plain.find("units.hpp vocabulary"), std::string::npos);
  EXPECT_NE(hinted.find("units.hpp vocabulary"), std::string::npos) << hinted;
}

TEST(SpiderLint, RuleTableIsComplete) {
  ASSERT_EQ(rules().size(), 7u);
  const char* ids[] = {"L1", "L2", "L3", "L4", "L5", "L7", "L8"};
  for (const char* id : ids) {
    const RuleInfo* info = rule(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_FALSE(info->name.empty());
    EXPECT_FALSE(info->suppression.empty());
    EXPECT_FALSE(info->hint.empty());
  }
  // Retired ids stay retired: they are never reused for a new rule.
  for (const char* retired : {"L6", "L9", "L10", "L11", "L12", "L13"}) {
    EXPECT_EQ(rule(retired), nullptr) << retired;
  }
}

TEST(SpiderLint, CollectSourcesIsSortedAndDeduplicated) {
  std::vector<std::string> errors;
  const std::vector<std::string> once =
      collect_sources({SPIDER_LINT_FIXTURES_DIR}, errors);
  const std::vector<std::string> twice = collect_sources(
      {SPIDER_LINT_FIXTURES_DIR, fixture("l2_nondet_source.cpp")}, errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(once.size(), 15u) << "fixture census drifted";
  EXPECT_EQ(once, twice);
  EXPECT_TRUE(std::is_sorted(once.begin(), once.end()));
}

// ---------------------------------------------------------------------------
// Semantic rules (L5, L7, L8): each fixture pins one true positive at an
// exact file:line and carries engineered false positives that must stay
// quiet (the count assertion is the false-positive check).

constexpr FileClass kCalib{.in_src = true, .calib_scope = true};

TEST(SpiderLint, L5FlagsUpwardIncludeAndCycle) {
  // The fixture tree has four downward edges (engineered false positives)
  // plus one upward include and one two-file cycle.
  const LintReport r = lint_fixture("l5_layering", kSrc);
  ASSERT_EQ(r.findings.size(), 2u) << render_text(r, /*fix_hints=*/false);
  EXPECT_EQ(r.findings[0].rule, "L5");
  EXPECT_TRUE(r.findings[0].file.ends_with("l5_layering/src/block/dev.hpp"));
  EXPECT_EQ(r.findings[0].line, 5u);  // #include "workload/gen.hpp"
  EXPECT_NE(r.findings[0].message.find("workload/gen.hpp"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("points up"), std::string::npos);
  EXPECT_EQ(r.findings[1].rule, "L5");
  EXPECT_TRUE(r.findings[1].file.ends_with("l5_layering/src/sim/cycle_a.hpp"));
  EXPECT_NE(
      r.findings[1].message.find(
          "sim/cycle_a.hpp -> sim/cycle_b.hpp -> sim/cycle_a.hpp"),
      std::string::npos);
}

TEST(SpiderLint, L7FlagsPrivateSitelessScheduleOnly) {
  // relaunch() and relaunch_cross() fire; the public entry point and both
  // loc-threading helpers are the engineered false positives.
  const LintReport r = lint_fixture("l7_schedule_flow.cpp", kSrc);
  ASSERT_EQ(r.findings.size(), 2u) << render_text(r, /*fix_hints=*/false);
  EXPECT_EQ(r.findings[0].rule, "L7");
  EXPECT_EQ(r.findings[0].line, 24u);  // sim_.schedule_at(10, 0)
  EXPECT_EQ(r.findings[0].severity, Severity::kError);
  EXPECT_NE(r.findings[0].message.find("relaunch"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("sim::Site"), std::string::npos);
  // The cross-shard mailbox send is held to the same site-flow contract.
  EXPECT_EQ(r.findings[1].rule, "L7");
  EXPECT_EQ(r.findings[1].line, 34u);  // engine_.schedule_cross(0, 1, 10, 0)
  EXPECT_NE(r.findings[1].message.find("relaunch_cross"), std::string::npos);
  EXPECT_NE(r.findings[1].message.find("schedule_cross"), std::string::npos);
}

TEST(SpiderLint, L8FlagsBareCalibrationLiteralOnly) {
  // The bare 1e3 fires; the constexpr constant, hex mask, unit literal, and
  // default member initializer are the engineered false positives.
  const LintReport r = lint_fixture("l8_calibration.cpp", kCalib);
  ASSERT_EQ(r.findings.size(), 1u) << render_text(r, /*fix_hints=*/false);
  EXPECT_EQ(r.findings[0].rule, "L8");
  EXPECT_EQ(r.findings[0].line, 12u);  // return seconds * 1e3;
  EXPECT_EQ(r.findings[0].severity, Severity::kWarning);
  EXPECT_NE(r.findings[0].message.find("1e3"), std::string::npos);
}

TEST(SpiderLint, TokenizerEdgeCasesStayQuiet) {
  // Raw strings, spanning block comments, #if 0 regions, and digit
  // separators all contain rule triggers; none may fire.
  const LintReport r = lint_fixture("tok_edges.cpp", kSimCritical);
  EXPECT_TRUE(r.clean()) << render_text(r, /*fix_hints=*/false);
}

TEST(SpiderLint, SuppressionScopesAreExactlyScoped) {
  // Same-line, line-above, next-line, and file-scope suppressions silence
  // their targets; the declaration one line past a `spiderlint-next-line`
  // still fires — the scope is exactly one line.
  const LintReport r = lint_fixture("suppress_scopes.cpp", kSimCritical);
  ASSERT_EQ(r.findings.size(), 1u) << render_text(r, /*fix_hints=*/false);
  EXPECT_EQ(r.findings[0].rule, "L1");
  EXPECT_EQ(r.findings[0].line, 26u);  // d_ past the next-line scope
}

// ---------------------------------------------------------------------------
// SARIF rendering.

TEST(SpiderLint, SarifReportIsWellFormed) {
  const LintReport r = lint_fixture("l8_calibration.cpp", kCalib);
  const std::string sarif = render_sarif(r);
  // Required SARIF 2.1.0 skeleton.
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"runs\""), std::string::npos);
  EXPECT_NE(sarif.find("\"driver\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"spiderlint\""), std::string::npos);
  // The full rule table rides along so viewers can show rule metadata.
  EXPECT_NE(sarif.find("\"id\": \"L1\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"L8\""), std::string::npos);
  // The finding itself.
  EXPECT_NE(sarif.find("\"ruleId\": \"L8\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": 6"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"physicalLocation\""), std::string::npos);
  EXPECT_NE(sarif.find("\"artifactLocation\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(sarif.find("\"startColumn\": 49"), std::string::npos);
}

}  // namespace
}  // namespace spider::lint
