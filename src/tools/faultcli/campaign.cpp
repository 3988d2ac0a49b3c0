// Fault-campaign engine (campaign.hpp). Each campaign owns one serial
// sim::Simulator; spiderfault --jobs runs whole campaigns side by side.

#include "tools/faultcli/campaign.hpp"

#include <algorithm>
#include <sstream>

#include "common/json.hpp"
#include "fs/recovery.hpp"

namespace spider::tools {

namespace {

constexpr double kSlack = 1e-6;

block::SsuParams make_ssu_params(const CampaignConfig& cfg) {
  block::SsuParams params;
  params.raid_groups = cfg.raid_groups;
  params.enclosures = cfg.enclosures;
  return params;
}

void fire(std::vector<sim::OracleViolation>& out, std::string oracle,
          sim::SimTime now, std::string detail) {
  out.push_back(
      sim::OracleViolation{std::move(oracle), now, std::move(detail)});
}

/// Fold one fsck stage outcome into a verdict's repair section.
void fill_repair(RunVerdict& verdict, const FaultCampaign::FsckOutcome& out) {
  verdict.repair.ran = true;
  verdict.repair.findings = out.report.findings.size();
  verdict.repair.repairs = out.report.repairs_applied;
  for (const Finding& f : out.report.findings) {
    const std::string name(finding_kind_name(f.kind));
    if (verdict.repair.kinds.empty() || verdict.repair.kinds.back() != name) {
      verdict.repair.kinds.push_back(name);
    }
  }
  verdict.repair.findings_hash = out.report.findings_hash;
  verdict.repair.state_hash = out.report.state_hash;
  verdict.repair.post_violations = out.post_violations.size();
  verdict.repair.post_clean = out.post_clean();
}

}  // namespace

// --- RebuildTracker --------------------------------------------------------

void RebuildTracker::on_start(std::size_t group, sim::SimTime now,
                              double duration_s) {
  active_[group] = Active{now, duration_s};
  samples_.push_back(Sample{group, 0.0, /*fresh=*/true});
}

void RebuildTracker::on_finish(std::size_t group) {
  if (active_.erase(group) > 0) {
    samples_.push_back(Sample{group, 1.0, /*fresh=*/false});
  }
}

void RebuildTracker::on_abort(std::size_t group) { active_.erase(group); }

void RebuildTracker::sample(sim::SimTime now) {
  for (const auto& [group, active] : active_) {
    const double elapsed = sim::to_seconds(now - active.start);
    const double fraction =
        active.duration_s > 0.0
            ? std::min(1.0, elapsed / active.duration_s)
            : 1.0;
    samples_.push_back(Sample{group, fraction, /*fresh=*/false});
  }
}

// --- oracle factories ------------------------------------------------------

std::unique_ptr<sim::Oracle> make_accounting_oracle(const WriteLedger& ledger) {
  return sim::make_oracle(
      "write-accounting",
      [&ledger, prev_issued = 0.0, prev_acked = 0.0](
          sim::SimTime now, std::vector<sim::OracleViolation>& out) mutable {
        if (ledger.acked > ledger.issued * (1.0 + kSlack) + kSlack) {
          std::ostringstream os;
          os << "acked bytes " << ledger.acked << " exceed issued bytes "
             << ledger.issued;
          fire(out, "write-accounting", now, os.str());
        }
        if (ledger.issued < prev_issued - kSlack) {
          fire(out, "write-accounting", now, "issued bytes went backwards");
        }
        if (ledger.acked < prev_acked - kSlack) {
          fire(out, "write-accounting", now, "acked bytes went backwards");
        }
        prev_issued = ledger.issued;
        prev_acked = ledger.acked;
      });
}

std::unique_ptr<sim::Oracle> make_raid_read_oracle(
    std::vector<const block::Raid6Group*> groups) {
  return sim::make_oracle(
      "raid-read-safety",
      [groups = std::move(groups),
       prev = std::vector<std::uint64_t>{}](
          sim::SimTime now, std::vector<sim::OracleViolation>& out) mutable {
        prev.resize(groups.size(), 0);
        for (std::size_t g = 0; g < groups.size(); ++g) {
          const std::uint64_t unsafe = groups[g]->unsafe_reads();
          if (unsafe > prev[g]) {
            std::ostringstream os;
            os << "group " << g << " served " << (unsafe - prev[g])
               << " read(s) from non-online members";
            fire(out, "raid-read-safety", now, os.str());
          }
          prev[g] = unsafe;
        }
      });
}

std::unique_ptr<sim::Oracle> make_rebuild_monotone_oracle(
    const RebuildTracker& tracker) {
  return sim::make_oracle(
      "rebuild-monotone",
      [&tracker, idx = std::size_t{0},
       last = std::map<std::size_t, double>{}](
          sim::SimTime now, std::vector<sim::OracleViolation>& out) mutable {
        const auto& samples = tracker.samples();
        for (; idx < samples.size(); ++idx) {
          const auto& s = samples[idx];
          if (s.fresh) {
            last[s.group] = s.fraction;
            continue;
          }
          auto it = last.find(s.group);
          if (it != last.end() && s.fraction < it->second - 1e-9) {
            std::ostringstream os;
            os << "group " << s.group << " rebuild progress moved backwards: "
               << it->second << " -> " << s.fraction;
            fire(out, "rebuild-monotone", now, os.str());
          }
          last[s.group] = std::max(it == last.end() ? 0.0 : it->second,
                                   s.fraction);
        }
      });
}

std::unique_ptr<sim::Oracle> make_namespace_journal_oracle(
    const fs::FsNamespace& ns, const OpJournal& journal) {
  return sim::make_oracle(
      "namespace-journal",
      [&ns, &journal](sim::SimTime now,
                      std::vector<sim::OracleViolation>& out) {
        if (ns.total_created() != journal.creates) {
          std::ostringstream os;
          os << "namespace created " << ns.total_created()
             << " files but journal replay says " << journal.creates;
          fire(out, "namespace-journal", now, os.str());
        } else if (journal.unlinks > journal.creates) {
          fire(out, "namespace-journal", now,
               "journal unlinks exceed journal creates");
        } else if (ns.live_files() != journal.creates - journal.unlinks) {
          std::ostringstream os;
          os << "namespace holds " << ns.live_files()
             << " live files but journal replay says "
             << (journal.creates - journal.unlinks);
          fire(out, "namespace-journal", now, os.str());
        }
        if (ns.used() > ns.capacity()) {
          fire(out, "namespace-journal", now,
               "used bytes exceed namespace capacity");
        }
      });
}

std::unique_ptr<sim::Oracle> make_purge_age_oracle(
    const std::vector<fs::PurgeReport>& reports, double window_days) {
  return sim::make_oracle(
      "purge-age",
      [&reports, window_days, idx = std::size_t{0}](
          sim::SimTime now, std::vector<sim::OracleViolation>& out) mutable {
        const double min_age_s = window_days * 86400.0;
        for (; idx < reports.size(); ++idx) {
          const auto& report = reports[idx];
          if (report.purged == 0) continue;  // nothing purged: vacuously safe
          if (!report.has_min_age()) {
            // purged > 0 with no recorded age is a malformed report — the
            // +inf sentinel must never survive a real purge.
            fire(out, "purge-age", now,
                 "sweep purged files but recorded no minimum age");
            continue;
          }
          if (report.min_purged_age_s < min_age_s * (1.0 - kSlack)) {
            std::ostringstream os;
            os << "purge deleted a file aged " << report.min_purged_age_s
               << "s, younger than the " << min_age_s << "s policy window";
            fire(out, "purge-age", now, os.str());
          }
        }
      });
}

// Registered per namespace by the churn runner (churn.cpp), not by the suite.
std::unique_ptr<sim::Oracle> make_changelog_oracle(
    const fs::FsNamespace& ns, const fs::OpLog& log,
    fs::ChangelogAccounting& accounting) {
  return sim::make_oracle(
      "changelog-consistency",
      [&ns, &log, &accounting](sim::SimTime now,
                               std::vector<sim::OracleViolation>& out) {
        fs::ConsumeResult res = accounting.consume(log);
        if (res.cursor_ahead) {
          fire(out, "changelog-consistency", now,
               "consumer cursor ahead of the committed prefix (a crash "
               "rewound the log); rebuilding from the committed records");
          res = accounting.rebuild(log);
        }
        if (res.gap) {
          std::ostringstream os;
          os << "changelog has an interior txid gap starting at "
             << res.first_gap_txid << " — accounting is untrustworthy";
          fire(out, "changelog-consistency", now, os.str());
          return;
        }
        // Ground truth: the one namespace walk in the changelog era is the
        // oracle auditing the books, never the query path.
        const auto truth = ns.usage_by_project();
        const auto derived = accounting.usage();
        if (derived != truth) {
          std::ostringstream os;
          os << "changelog-derived usage diverges from namespace ground "
                "truth (" << derived.size() << " vs " << truth.size()
             << " projects";
          for (const auto& [project, bytes] : truth) {
            const auto it = derived.find(project);
            if (it == derived.end() || it->second != bytes) {
              os << "; project " << project << ": derived "
                 << (it == derived.end() ? 0 : it->second) << " truth "
                 << bytes;
              break;
            }
          }
          os << ")";
          fire(out, "changelog-consistency", now, os.str());
        }
        std::uint64_t derived_live = 0;
        for (const auto& [project, row] : accounting.rows()) {
          derived_live += row.files;
        }
        if (derived_live != ns.live_files()) {
          std::ostringstream os;
          os << "changelog-derived live-file count " << derived_live
             << " != namespace " << ns.live_files();
          fire(out, "changelog-consistency", now, os.str());
        }
      });
}

// --- verdicts --------------------------------------------------------------

sim::PlanBounds campaign_bounds(const CampaignConfig& cfg) {
  sim::PlanBounds bounds;
  bounds.groups = static_cast<std::uint32_t>(cfg.raid_groups);
  block::RaidParams raid;
  bounds.members =
      static_cast<std::uint32_t>(raid.data_disks + raid.parity_disks);
  bounds.enclosures = static_cast<std::uint32_t>(cfg.enclosures);
  bounds.resources = static_cast<std::uint32_t>(cfg.raid_groups) + 2;
  return bounds;
}

std::string verdict_json(const RunVerdict& verdict) {
  std::ostringstream os;
  os << "{\"plan\": \"" << json_escape(verdict.plan)
     << "\", \"seed\": " << verdict.seed
     << ", \"replay_hash\": \"" << to_hex(verdict.replay_hash)
     << "\", \"stream_hash\": \"" << to_hex(verdict.stream_hash)
     << "\", \"events\": " << verdict.events
     << ", \"injections\": " << verdict.injections_fired
     << ", \"reverts\": " << verdict.reverts_fired
     << ", \"files_created\": " << verdict.files_created
     << ", \"files_purged\": " << verdict.files_purged
     << ", \"delivered\": " << verdict.delivered
     << ", \"data_lost\": " << (verdict.data_lost ? "true" : "false")
     << ", \"clean\": " << (verdict.clean() ? "true" : "false");
  if (verdict.repair.ran) {
    os << ", \"repair\": {\"findings\": " << verdict.repair.findings
       << ", \"repairs\": " << verdict.repair.repairs << ", \"kinds\": [";
    for (std::size_t i = 0; i < verdict.repair.kinds.size(); ++i) {
      if (i > 0) os << ", ";
      os << "\"" << json_escape(verdict.repair.kinds[i]) << "\"";
    }
    os << "], \"findings_hash\": \"" << to_hex(verdict.repair.findings_hash)
       << "\", \"state_hash\": \"" << to_hex(verdict.repair.state_hash)
       << "\", \"post_violations\": " << verdict.repair.post_violations
       << ", \"post_repair_clean\": "
       << (verdict.repair.post_clean ? "true" : "false") << "}";
  }
  os << ", \"violations\": " << sim::violations_json(verdict.violations)
     << "}";
  return os.str();
}

RunVerdict run_campaign(const sim::FaultPlan& plan, std::uint64_t seed,
                        const CampaignConfig& cfg) {
  FaultCampaign campaign(plan, seed, cfg);
  return campaign.run();
}

// --- FaultCampaign ---------------------------------------------------------

FaultCampaign::FaultCampaign(const sim::FaultPlan& plan, std::uint64_t seed,
                             const CampaignConfig& cfg)
    : plan_(plan),
      seed_(seed),
      cfg_(cfg),
      rng_(seed),
      ssu_(make_ssu_params(cfg), 0, rng_),
      net_(sim_),
      injector_(sim_),
      suite_(sim_) {
  horizon_ = sim::from_seconds(cfg_.horizon_s > 0.0 ? cfg_.horizon_s
                                                    : plan_.horizon_s);
  osts_.reserve(ssu_.groups());
  std::vector<fs::Ost*> ost_ptrs;
  for (std::size_t g = 0; g < ssu_.groups(); ++g) {
    osts_.emplace_back(static_cast<std::uint32_t>(g), &ssu_.group(g));
  }
  for (auto& ost : osts_) ost_ptrs.push_back(&ost);
  ns_ = std::make_unique<fs::FsNamespace>("campaign", std::move(ost_ptrs));
  // The namespace journals its own creates/unlinks now (ROADMAP item 2);
  // the mask keeps the record stream byte-identical to the era when the
  // campaign appended records by hand (no setattr/resize noise), which the
  // golden verdict hashes pin. Commit cadence stays the campaign's job.
  ns_->attach_oplog(&oplog_, fs::kLogCreate | fs::kLogUnlink);
  for (std::size_t g = 0; g < ssu_.groups(); ++g) {
    ost_res_.push_back(net_.add_resource(
        "ost" + std::to_string(g),
        osts_[g].bandwidth(block::IoMode::kSequential, block::IoDir::kWrite)));
  }
  controller_res_ =
      net_.add_resource("controller", ssu_.controller().delivered_bw());
  router_base_capacity_ = ssu_.controller().delivered_bw();
  router_res_ = net_.add_resource("router", router_base_capacity_);
  recorder_.attach(sim_);
  bind_faults();
  bind_triggers();
  add_oracles();
}

void FaultCampaign::sync_network() {
  for (std::size_t g = 0; g < ost_res_.size(); ++g) {
    net_.set_capacity(
        ost_res_[g],
        osts_[g].bandwidth(block::IoMode::kSequential, block::IoDir::kWrite));
  }
  net_.set_capacity(controller_res_, ssu_.controller().delivered_bw());
}

void FaultCampaign::start_rebuild(std::size_t g, std::size_t m) {
  auto& group = ssu_.group(g);
  if (group.member_state(m) != block::MemberState::kFailed) return;
  group.start_rebuild(m);
  const double duration_s = group.rebuild_time_s();
  rebuilds_.on_start(g, sim_.now(), duration_s);
  // spiderlint: flow-ok — rebuild completions are campaign-internal bookkeeping
  sim_.schedule_in(sim::from_seconds(duration_s), [this, g, m] {
    auto& rebuilt = ssu_.group(g);
    // An enclosure restore (or data loss) may have changed the member's
    // state since the rebuild began; finish only a still-running rebuild.
    if (rebuilt.member_state(m) == block::MemberState::kRebuilding) {
      rebuilt.finish_rebuild(m);
      rebuilds_.on_finish(g);
    } else {
      rebuilds_.on_abort(g);
    }
    sync_network();
    suite_.check_now();
  });
}

void FaultCampaign::bind_faults() {
  using sim::FaultKind;
  using sim::Injection;
  const auto edge = [this] {
    sync_network();
    suite_.check_now();
  };

  injector_.bind(FaultKind::kDiskFail, [this, edge](const Injection& inj) {
    const std::size_t g = inj.group % ssu_.groups();
    auto& group = ssu_.group(g);
    const std::size_t m = inj.member % group.width();
    if (group.member_state(m) == block::MemberState::kOnline) {
      group.fail_member(m);
      if (!group.data_lost()) start_rebuild(g, m);
    }
    edge();
  });

  injector_.bind(FaultKind::kDiskPartial, [this, edge](const Injection& inj) {
    const std::size_t g = inj.group % ssu_.groups();
    auto& group = ssu_.group(g);
    const std::size_t m = inj.member % group.width();
    group.degrade_member(m,
                         std::min(1.0, 1.0 / std::max(1.0, inj.magnitude)));
    edge();
  });

  injector_.bind(FaultKind::kSlowDiskOnset, [this, edge](const Injection& inj) {
    const std::size_t g = inj.group % ssu_.groups();
    auto& group = ssu_.group(g);
    const std::size_t m = inj.member % group.width();
    group.degrade_member(
        m, std::clamp(1.0 - 0.05 * inj.magnitude, 0.5, 1.0));
    edge();
  });

  injector_.bind(
      FaultKind::kEnclosureLoss,
      [this, edge](const Injection& inj) {
        ssu_.enclosure_down(static_cast<std::uint32_t>(
            inj.enclosure % ssu_.params().enclosures));
        edge();
      },
      [this, edge](const Injection& inj) {
        ssu_.enclosure_up(static_cast<std::uint32_t>(
            inj.enclosure % ssu_.params().enclosures));
        edge();
      });

  injector_.bind(
      FaultKind::kControllerFailover,
      [this, edge](const Injection&) {
        ssu_.controller().fail_one();
        edge();
      },
      [this, edge](const Injection&) {
        ssu_.controller().recover();
        edge();
      });

  injector_.bind(
      FaultKind::kMdsStall,
      [this, edge](const Injection&) {
        ns_->mds().set_stalled(true);
        edge();
      },
      [this, edge](const Injection&) {
        ns_->mds().set_stalled(false);
        edge();
      });

  injector_.bind(
      FaultKind::kRouterDrop,
      [this, edge](const Injection&) {
        net_.set_capacity(router_res_, 0.0);
        edge();
      },
      [this, edge](const Injection&) {
        net_.set_capacity(router_res_, router_base_capacity_);
        edge();
      });

  injector_.bind(
      FaultKind::kCongestionSpike,
      [this, edge](const Injection& inj) {
        net_.set_capacity(router_res_,
                          router_base_capacity_ / std::max(1.0, inj.magnitude));
        edge();
      },
      [this, edge](const Injection&) {
        net_.set_capacity(router_res_, router_base_capacity_);
        edge();
      });
}

void FaultCampaign::bind_triggers() {
  injector_.bind_trigger(
      sim::TriggerKind::kOnRebuildActive, [this](const sim::Injection&) {
        for (std::size_t g = 0; g < ssu_.groups(); ++g) {
          if (ssu_.group(g).state() == block::RaidState::kRebuilding) {
            return true;
          }
        }
        return false;
      });
  injector_.bind_trigger(
      sim::TriggerKind::kOnFullnessAbove, [this](const sim::Injection& inj) {
        return ns_->fullness() > inj.threshold;
      });
}

void FaultCampaign::add_oracles() {
  suite_.add(sim::make_flow_conservation_oracle(net_));
  suite_.add(make_accounting_oracle(ledger_));
  std::vector<const block::Raid6Group*> groups;
  for (std::size_t g = 0; g < ssu_.groups(); ++g) {
    groups.push_back(&ssu_.group(g));
  }
  suite_.add(make_raid_read_oracle(std::move(groups)));
  suite_.add(make_rebuild_monotone_oracle(rebuilds_));
  suite_.add(make_namespace_journal_oracle(*ns_, journal_));
  suite_.add(make_purge_age_oracle(purge_reports_, kPurgeWindowDays));
}

void FaultCampaign::every(sim::SimTime interval, std::function<void()> fn) {
  std::function<void()>& slot = drivers_.emplace_back();
  slot = [this, interval, fn = std::move(fn), &slot] {
    fn();
    // spiderlint: flow-ok — the periodic-probe trampoline is the site by design
    if (sim_.now() + interval <= horizon_) sim_.schedule_in(interval, slot);
  };
  sim_.schedule_in(interval, slot);  // spiderlint: flow-ok — seeds the trampoline
}

void FaultCampaign::do_create() {
  // A stalled MDS serves no creates; the op queues behind the stall (the
  // campaign simply skips it, keeping journal and namespace in agreement).
  if (ns_->mds().stalled()) return;
  const Bytes size = (4 + rng_.uniform_index(61)) * 1_MiB;
  const auto project = static_cast<std::uint32_t>(rng_.uniform_index(4));
  const fs::FileId id = ns_->create_file(project, size, sim_.now(), rng_);
  if (id == fs::kNoFile) return;
  ++journal_.creates;
  // create_file already appended the kCreate record (attached changelog);
  // the campaign models the MDS commit boundary after each op.
  oplog_.commit(oplog_.last_txid());
  files_.push_back(id);
  const auto stripes = ns_->stripes_of(ns_->file(id));
  const std::size_t g =
      stripes.empty() ? 0 : stripes.front() % ost_res_.size();
  const double bytes = static_cast<double>(size);
  ledger_.issued += bytes;
  sim::FlowDesc flow;
  flow.path = {{ost_res_[g], 1.0}, {controller_res_, 1.0}, {router_res_, 1.0}};
  flow.size = bytes;
  flow.on_complete = [this, bytes](sim::FlowId, sim::SimTime) {
    ledger_.acked += bytes;
  };
  net_.start_flow(std::move(flow));
}

void FaultCampaign::do_read() {
  if (!files_.empty()) {
    const fs::FileId id = files_[rng_.uniform_index(files_.size())];
    if (ns_->exists(id) && !ns_->mds().stalled()) {
      ns_->read_file(id, sim_.now());
    }
  }
  // Block-layer read: only from members the group reports as safe.
  auto& group = ssu_.group(rng_.uniform_index(ssu_.groups()));
  const auto readable = group.readable_members();
  if (!readable.empty()) {
    group.note_read(readable[rng_.uniform_index(readable.size())]);
  }
}

void FaultCampaign::do_purge() {
  fs::PurgePolicy policy;
  policy.window_days = kPurgeWindowDays;
  // Every unlink the sweep performs lands in the op journal through the
  // attached changelog (state only — no simulator events — so replay
  // hashes are untouched); the campaign commits the batch afterwards,
  // modeling one MDS transaction per sweep.
  const fs::PurgeReport report = fs::run_purge(*ns_, sim_.now(), policy);
  journal_.unlinks += report.purged;
  oplog_.commit(oplog_.last_txid());
  purge_reports_.push_back(report);
}

FsckTarget FaultCampaign::fsck_target() {
  FsckTarget target;
  target.ns = ns_.get();
  target.journal = &oplog_;
  return target;
}

FaultCampaign::FsckOutcome FaultCampaign::fsck_and_reverify() {
  FsckOutcome out;
  const FsckTarget target = fsck_target();
  out.report = run_fsck(target, FsckOptions{.repair = true});
  // Repairs converge in one pass, so a dry re-check must come back clean.
  out.converged = run_fsck(target).clean();

  // The namespace-journal oracle watches the campaign's counters; rebuild
  // them from the repaired op log so the re-sweep judges repaired state.
  const fs::OpLogSummary summary = fs::replay_op_log(oplog_);
  journal_.creates = summary.creates;
  journal_.unlinks = summary.unlinks;

  out.post_violations = suite_.recheck_now();
  return out;
}

RunVerdict FaultCampaign::run() {
  prepare();
  sim_.run(horizon_);
  return finish();
}

void FaultCampaign::prepare() {
  injector_.arm(plan_);
  suite_.schedule_checks(kOracleInterval, horizon_);
  every(kCreateInterval, [this] { do_create(); });
  every(kReadInterval, [this] { do_read(); });
  every(kPurgeInterval, [this] { do_purge(); });
  every(kOracleInterval, [this] { rebuilds_.sample(sim_.now()); });
}

RunVerdict FaultCampaign::finish() {
  recorder_.record_resource_stats(net_);

  RunVerdict verdict;
  verdict.plan = plan_.name;
  verdict.seed = seed_;
  verdict.replay_hash = recorder_.combined_hash();
  verdict.stream_hash = recorder_.stream_hash();
  verdict.events = recorder_.events_recorded();
  verdict.injections_fired = injector_.injections_fired();
  verdict.reverts_fired = injector_.reverts_fired();
  verdict.files_created = ns_->total_created();
  verdict.files_purged = journal_.unlinks;
  verdict.delivered = net_.total_delivered();
  for (std::size_t g = 0; g < ssu_.groups(); ++g) {
    verdict.data_lost = verdict.data_lost || ssu_.group(g).data_lost();
  }
  verdict.violations = suite_.violations();
  return verdict;
}

RunVerdict run_campaign_checked(const sim::FaultPlan& plan, std::uint64_t seed,
                                const CampaignConfig& cfg) {
  FaultCampaign campaign(plan, seed, cfg);
  RunVerdict verdict = campaign.run();
  fill_repair(verdict, campaign.fsck_and_reverify());
  return verdict;
}

}  // namespace spider::tools
