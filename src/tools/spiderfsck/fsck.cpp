#include "tools/spiderfsck/fsck.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/hash.hpp"
#include "fs/recovery.hpp"
#include "sim/time.hpp"

namespace spider::tools {

namespace {

std::string to_hex(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kDigits[(v >> shift) & 0xf];
  }
  return out;
}

void json_escape(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
}

/// Canonical finding order: repair-phase order and output order.
bool finding_less(const Finding& a, const Finding& b) {
  return std::tie(a.kind, a.file, a.ost, a.expect_a, a.detail) <
         std::tie(b.kind, b.file, b.ost, b.expect_a, b.detail);
}

/// Per-OST reservation of one live file: the allocator reserves
/// ceil(size / stripe_count) on each chosen OST (fs/striping.cpp), and
/// unlink releases by the same formula — fsck's "expected" side must match
/// it exactly or a clean tree would report drift.
Bytes per_stripe_share(const fs::FileRecord& rec) {
  if (rec.stripe_count == 0) return 0;
  return (rec.size + rec.stripe_count - 1) / rec.stripe_count;
}

/// Phase-1 accumulators that phase 2 cross-references.
struct Scan {
  std::vector<Finding> findings;
  std::vector<std::uint64_t> live_ids;  ///< canonical ids of live slots
  std::vector<Bytes> ref_bytes;         ///< expected bytes per OST index
  std::vector<std::uint64_t> ref_objects;
};

/// Scan one inode-table slot into `out`. Dead slots are still checked for
/// zombie ids; only live slots feed the live set and OST accounting.
void scan_slot(fs::FsNamespace& ns, std::size_t slot,
               const std::map<std::uint32_t, std::size_t>& ost_index,
               Scan& out) {
  const fs::FileRecord& rec = ns.slot_record(slot);
  const std::uint32_t gen = fs::generation_of_file_id(rec.id);
  const std::uint64_t canonical = fs::file_id_for_slot(gen, slot);
  if (rec.id != canonical) {
    Finding f;
    f.kind = FindingKind::kBadRecordId;
    f.file = canonical;
    f.detail = "slot " + std::to_string(slot) + " holds " +
               (rec.alive ? std::string("live") : std::string("dead")) +
               " id " + std::to_string(rec.id) + ", expected " +
               std::to_string(canonical);
    out.findings.push_back(std::move(f));
  }
  if (!rec.alive) return;
  out.live_ids.push_back(canonical);
  if (rec.stripe_count == 0) return;

  const std::size_t pool = ns.stripe_pool_size();
  const bool overrun =
      rec.stripe_offset > pool ||
      static_cast<std::size_t>(rec.stripe_count) > pool - rec.stripe_offset;
  const Bytes share = per_stripe_share(rec);
  std::uint32_t invalid = 0;
  for (std::uint32_t entry : ns.fsck_stripes(rec)) {
    const auto it = ost_index.find(entry);
    if (it == ost_index.end()) {
      ++invalid;
      continue;
    }
    out.ref_bytes[it->second] += share;
    out.ref_objects[it->second] += 1;
  }
  if (overrun || invalid > 0) {
    Finding f;
    f.kind = FindingKind::kDanglingStripe;
    f.file = canonical;
    f.detail = "file " + std::to_string(canonical) + ": " +
               std::to_string(invalid) + " stripe ref(s) name unknown OSTs" +
               (overrun ? ", stripe span overruns the pool" : "");
    out.findings.push_back(std::move(f));
  }
}

void repair_dangling_stripe(fs::FsNamespace& ns,
                            const std::map<std::uint32_t, std::size_t>& ost_index,
                            std::uint32_t lost_found, Finding& f) {
  fs::FileRecord& rec = ns.fsck_record(fs::slot_of_file_id(f.file));
  // The share each surviving stripe holds was fixed at allocation time by
  // the *claimed* stripe count; shrink the file to exactly the surviving
  // shares so a later unlink releases what is actually reserved.
  const Bytes share = per_stripe_share(rec);
  auto span = ns.fsck_stripes(rec);
  std::uint32_t kept = 0;
  for (std::uint32_t entry : span) {
    if (ost_index.find(entry) != ost_index.end()) span[kept++] = entry;
  }
  const std::uint32_t dropped = rec.stripe_count - kept;
  rec.stripe_count = kept;
  rec.size = share * kept;
  rec.project = lost_found;
  f.repair = "pruned " + std::to_string(dropped) +
             " dangling stripe ref(s), truncated to " +
             std::to_string(rec.size) + " bytes, relinked to lost+found";
}

}  // namespace

std::string_view finding_kind_name(FindingKind kind) {
  switch (kind) {
    case FindingKind::kBadRecordId: return "bad-record-id";
    case FindingKind::kDanglingStripe: return "dangling-stripe";
    case FindingKind::kJournalMissingCreate: return "journal-missing-create";
    case FindingKind::kJournalMissingUnlink: return "journal-missing-unlink";
    case FindingKind::kJournalGhostUnlink: return "journal-ghost-unlink";
    case FindingKind::kLiveCountDrift: return "live-count-drift";
    case FindingKind::kCreateCountDrift: return "create-count-drift";
    case FindingKind::kOrphanObjects: return "orphan-objects";
    case FindingKind::kLostObjects: return "lost-objects";
    case FindingKind::kDneLoadDrift: return "dne-load-drift";
  }
  return "unknown";
}

FsckReport run_fsck(const FsckTarget& target, const FsckOptions& options) {
  if (target.ns == nullptr) {
    throw std::invalid_argument("run_fsck: target.ns is required");
  }
  fs::FsNamespace& ns = *target.ns;

  std::map<std::uint32_t, std::size_t> ost_index;
  for (std::size_t i = 0; i < ns.num_osts(); ++i) {
    ost_index.emplace(ns.ost(i).id(), i);
  }

  // --- phase 1: one serial scan of every inode-table slot -----------------
  Scan scan;
  scan.ref_bytes.assign(ns.num_osts(), 0);
  scan.ref_objects.assign(ns.num_osts(), 0);
  for (std::size_t slot = 0; slot < ns.slot_count(); ++slot) {
    scan_slot(ns, slot, ost_index, scan);
  }
  FsckReport report;
  report.findings = std::move(scan.findings);
  report.slots_scanned = ns.slot_count();
  report.live_files = scan.live_ids.size();
  report.osts_scanned = ns.num_osts();
  report.journal_records = target.journal ? target.journal->size() : 0;
  std::vector<std::uint64_t>& table_live = scan.live_ids;
  std::sort(table_live.begin(), table_live.end());

  // --- phase 2: serial cross-reference ------------------------------------
  for (std::size_t i = 0; i < ns.num_osts(); ++i) {
    const Bytes actual_bytes = ns.ost(i).used();
    const std::uint64_t actual_objects = ns.ost(i).object_count();
    const Bytes expect_bytes = scan.ref_bytes[i];
    const std::uint64_t expect_objects = scan.ref_objects[i];
    if (actual_bytes == expect_bytes && actual_objects == expect_objects) {
      continue;
    }
    Finding f;
    f.kind = (actual_bytes >= expect_bytes && actual_objects >= expect_objects)
                 ? FindingKind::kOrphanObjects
                 : FindingKind::kLostObjects;
    f.ost = static_cast<std::int64_t>(i);
    f.expect_a = expect_bytes;
    f.expect_b = expect_objects;
    f.detail = "ost " + std::to_string(i) + " holds " +
               std::to_string(actual_bytes) + " bytes / " +
               std::to_string(actual_objects) +
               " objects, stripe maps reference " +
               std::to_string(expect_bytes) + " bytes / " +
               std::to_string(expect_objects) + " objects";
    report.findings.push_back(std::move(f));
  }

  std::map<std::uint64_t, fs::OpRecord> create_by_id;
  std::size_t missing_creates = 0;
  if (target.journal != nullptr) {
    const fs::OpLog& log = *target.journal;
    const fs::OpLogSummary summary = fs::replay_op_log(log);
    for (const fs::OpRecord& rec : log.records()) {
      if (rec.kind == fs::OpKind::kCreate) create_by_id.emplace(rec.file, rec);
    }
    // Ghost unlinks: records unlinking a file no create record mentions.
    for (const fs::OpRecord& rec : log.records()) {
      if (rec.kind != fs::OpKind::kUnlink) continue;
      if (create_by_id.find(rec.file) != create_by_id.end()) continue;
      Finding f;
      f.kind = FindingKind::kJournalGhostUnlink;
      f.file = rec.file;
      f.expect_a = rec.txid;
      f.detail = "journal txid " + std::to_string(rec.txid) +
                 " unlinks file " + std::to_string(rec.file) +
                 " which no create record mentions";
      report.findings.push_back(std::move(f));
    }
    // Table-live vs journal-live, both ascending-id.
    std::vector<std::uint64_t> only_table;
    std::set_difference(table_live.begin(), table_live.end(),
                        summary.live.begin(), summary.live.end(),
                        std::back_inserter(only_table));
    std::vector<std::uint64_t> only_journal;
    std::set_difference(summary.live.begin(), summary.live.end(),
                        table_live.begin(), table_live.end(),
                        std::back_inserter(only_journal));
    missing_creates = only_table.size();
    for (std::uint64_t id : only_table) {
      Finding f;
      f.kind = FindingKind::kJournalMissingCreate;
      f.file = id;
      f.detail = "live file " + std::to_string(id) +
                 " is absent from the journal replay's live set";
      report.findings.push_back(std::move(f));
    }
    for (std::uint64_t id : only_journal) {
      Finding f;
      f.kind = FindingKind::kJournalMissingUnlink;
      f.file = id;
      f.detail = "journal replay says file " + std::to_string(id) +
                 " is live but the inode table says it is dead";
      report.findings.push_back(std::move(f));
    }
    // total_created must match the journal's create count once the repair
    // phase has backfilled the creates found missing above.
    const std::uint64_t expected_creates = summary.creates + missing_creates;
    if (ns.total_created() != expected_creates) {
      Finding f;
      f.kind = FindingKind::kCreateCountDrift;
      f.expect_a = expected_creates;
      f.detail = "namespace says " + std::to_string(ns.total_created()) +
                 " files were created, journal replay says " +
                 std::to_string(expected_creates);
      report.findings.push_back(std::move(f));
    }
  }

  if (ns.live_files() != report.live_files) {
    Finding f;
    f.kind = FindingKind::kLiveCountDrift;
    f.expect_a = report.live_files;
    f.detail = "live-file counter says " + std::to_string(ns.live_files()) +
               ", slot recount says " + std::to_string(report.live_files);
    report.findings.push_back(std::move(f));
  }

  if (target.dne != nullptr) {
    for (std::size_t m = 0; m < target.dne->mdts(); ++m) {
      const double load = target.dne->load_of(m);
      if (std::isfinite(load) && load >= 0.0) continue;
      Finding f;
      f.kind = FindingKind::kDneLoadDrift;
      f.ost = static_cast<std::int64_t>(m);
      f.detail = "mdt " + std::to_string(m) + " accounted load is " +
                 std::to_string(load);
      report.findings.push_back(std::move(f));
    }
  }

  std::stable_sort(report.findings.begin(), report.findings.end(),
                   finding_less);
  std::uint64_t fh = kFnvOffsetBasis;
  for (const Finding& f : report.findings) {
    fh = fnv1a(fh, static_cast<std::uint64_t>(f.kind));
    fh = fnv1a(fh, f.file);
    fh = fnv1a(fh, static_cast<std::uint64_t>(f.ost));
    fh = fnv1a(fnv1a_bytes(fh, f.detail), f.detail.size());
  }
  report.findings_hash = fh;

  // --- phase 3: serial repair in canonical order --------------------------
  if (options.repair) {
    report.repaired = true;
    for (Finding& f : report.findings) {
      switch (f.kind) {
        case FindingKind::kBadRecordId:
          ns.fsck_record(fs::slot_of_file_id(f.file)).id = f.file;
          f.repair = "rewrote record id from slot position";
          break;
        case FindingKind::kDanglingStripe:
          repair_dangling_stripe(ns, ost_index, target.lost_found_project, f);
          break;
        case FindingKind::kJournalMissingCreate: {
          const fs::FileRecord& rec =
              ns.slot_record(fs::slot_of_file_id(f.file));
          target.journal->append(fs::OpKind::kCreate, f.file, rec.project,
                                 rec.size, rec.ctime);
          f.repair = "backfilled create record";
          break;
        }
        case FindingKind::kJournalMissingUnlink: {
          const auto it = create_by_id.find(f.file);
          const std::uint32_t project =
              it != create_by_id.end() ? it->second.project : 0;
          const Bytes size = it != create_by_id.end() ? it->second.size : 0;
          const std::int64_t at = it != create_by_id.end() ? it->second.at : 0;
          target.journal->append(fs::OpKind::kUnlink, f.file, project, size,
                                 at);
          f.repair = "backfilled unlink record";
          break;
        }
        case FindingKind::kJournalGhostUnlink: {
          auto& records = target.journal->records_mutable();
          for (std::size_t i = 0; i < records.size(); ++i) {
            if (records[i].txid == f.expect_a) {
              records.erase(records.begin() +
                            static_cast<std::ptrdiff_t>(i));
              break;
            }
          }
          f.repair = "dropped ghost unlink record";
          break;
        }
        case FindingKind::kLiveCountDrift:
          ns.fsck_set_live_files(ns.recount_live());
          f.repair = "reset live-file counter from slot recount";
          break;
        case FindingKind::kCreateCountDrift:
          ns.fsck_set_total_created(
              fs::replay_op_log(*target.journal).creates);
          f.repair = "reconciled created-file counter with journal replay";
          break;
        case FindingKind::kOrphanObjects:
        case FindingKind::kLostObjects: {
          fs::Ost& ost = ns.ost(static_cast<std::size_t>(f.ost));
          ost.set_used(f.expect_a);
          ost.fsck_set_object_count(f.expect_b);
          f.repair = "reset OST accounting to " + std::to_string(f.expect_a) +
                     " bytes / " + std::to_string(f.expect_b) + " objects";
          break;
        }
        case FindingKind::kDneLoadDrift:
          target.dne->fsck_set_load(static_cast<std::size_t>(f.ost), 0.0);
          f.repair = "clamped MDT load to zero";
          break;
      }
      f.repaired = true;
      ++report.repairs_applied;
    }
    // Journal-cursor replay (fs/recovery): fold the backfilled tail into
    // the committed prefix so the journal is durable again.
    if (target.journal != nullptr) {
      const fs::JournalReplayOutcome outcome =
          fs::replay_from_cursor(*target.journal, target.journal->committed());
      target.journal->commit(outcome.new_cursor);
      report.journal_replayed = outcome.replayed;
    }
  }
  report.journal_cursor =
      target.journal != nullptr ? target.journal->committed() : 0;

  report.state_hash = fsck_state_hash(target);
  return report;
}

std::string fsck_report_json(const FsckReport& report) {
  std::ostringstream os;
  os << "{\"slots_scanned\": " << report.slots_scanned
     << ", \"live_files\": " << report.live_files
     << ", \"osts_scanned\": " << report.osts_scanned
     << ", \"journal_records\": " << report.journal_records
     << ", \"journal_replayed\": " << report.journal_replayed
     << ", \"journal_cursor\": " << report.journal_cursor
     << ", \"repairs_applied\": " << report.repairs_applied
     << ", \"repaired\": " << (report.repaired ? "true" : "false")
     << ", \"clean\": " << (report.clean() ? "true" : "false")
     << ", \"findings_hash\": \"" << to_hex(report.findings_hash)
     << "\", \"state_hash\": \"" << to_hex(report.state_hash)
     << "\", \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i > 0) os << ", ";
    os << "{\"kind\": \"" << finding_kind_name(f.kind)
       << "\", \"file\": " << f.file << ", \"ost\": " << f.ost
       << ", \"detail\": \"";
    json_escape(os, f.detail);
    os << "\", \"repaired\": " << (f.repaired ? "true" : "false")
       << ", \"repair\": \"";
    json_escape(os, f.repair);
    os << "\"}";
  }
  os << "]}";
  return os.str();
}

std::uint64_t fsck_state_hash(const FsckTarget& target) {
  if (target.ns == nullptr) {
    throw std::invalid_argument("fsck_state_hash: target.ns is required");
  }
  fs::FsNamespace& ns = *target.ns;
  std::uint64_t h = fnv1a(kFnvOffsetBasis, ns.slot_count());
  for (std::size_t slot = 0; slot < ns.slot_count(); ++slot) {
    const fs::FileRecord& rec = ns.slot_record(slot);
    h = fnv1a(h, rec.id);
    h = fnv1a(h, rec.project);
    h = fnv1a(h, rec.size);
    h = fnv1a(h, static_cast<std::uint64_t>(rec.atime));
    h = fnv1a(h, static_cast<std::uint64_t>(rec.mtime));
    h = fnv1a(h, static_cast<std::uint64_t>(rec.ctime));
    h = fnv1a(h, rec.stripe_offset);
    h = fnv1a(h, rec.stripe_count);
    h = fnv1a(h, rec.alive ? 1 : 0);
    for (std::uint32_t entry : ns.fsck_stripes(rec)) h = fnv1a(h, entry);
  }
  h = fnv1a(h, ns.live_files());
  h = fnv1a(h, ns.total_created());
  for (std::size_t i = 0; i < ns.num_osts(); ++i) {
    h = fnv1a(h, ns.ost(i).used());
    h = fnv1a(h, ns.ost(i).object_count());
    h = fnv1a(h, ns.ost(i).capacity());
  }
  if (target.journal != nullptr) {
    h = fnv1a(h, target.journal->size());
    for (const fs::OpRecord& rec : target.journal->records()) {
      h = fnv1a(h, rec.txid);
      h = fnv1a(h, static_cast<std::uint64_t>(rec.kind));
      h = fnv1a(h, rec.file);
      h = fnv1a(h, rec.project);
      h = fnv1a(h, rec.size);
      h = fnv1a(h, static_cast<std::uint64_t>(rec.at));
    }
    h = fnv1a(h, target.journal->committed());
  }
  if (target.dne != nullptr) {
    h = fnv1a(h, target.dne->mdts());
    for (std::size_t m = 0; m < target.dne->mdts(); ++m) {
      h = fnv1a(h, std::bit_cast<std::uint64_t>(target.dne->load_of(m)));
    }
  }
  return h;
}

// --- seeded corruption ------------------------------------------------------

namespace {

std::vector<std::size_t> live_slots(const fs::FsNamespace& ns) {
  std::vector<std::size_t> slots;
  for (std::size_t slot = 0; slot < ns.slot_count(); ++slot) {
    if (ns.slot_record(slot).alive) slots.push_back(slot);
  }
  return slots;
}

}  // namespace

std::string inject_corruption(const FsckTarget& target, FindingKind kind,
                              Rng& rng) {
  if (target.ns == nullptr) return "";
  fs::FsNamespace& ns = *target.ns;
  switch (kind) {
    case FindingKind::kBadRecordId: {
      const auto slots = live_slots(ns);
      if (slots.empty()) return "";
      const std::size_t slot = slots[rng.uniform_index(slots.size())];
      fs::FileRecord& rec = ns.fsck_record(slot);
      rec.id += 1 + rng.uniform_index(7);
      return "corrupted record id in slot " + std::to_string(slot) + " to " +
             std::to_string(rec.id);
    }
    case FindingKind::kDanglingStripe: {
      auto slots = live_slots(ns);
      std::erase_if(slots, [&ns](std::size_t slot) {
        return ns.fsck_stripes(ns.slot_record(slot)).empty();
      });
      if (slots.empty()) return "";
      const std::size_t slot = slots[rng.uniform_index(slots.size())];
      auto span = ns.fsck_stripes(ns.slot_record(slot));
      std::uint32_t max_id = 0;
      for (std::size_t i = 0; i < ns.num_osts(); ++i) {
        max_id = std::max(max_id, ns.ost(i).id());
      }
      const std::size_t entry = rng.uniform_index(span.size());
      span[entry] =
          max_id + 1 + static_cast<std::uint32_t>(rng.uniform_index(8));
      return "pointed stripe ref " + std::to_string(entry) + " of slot " +
             std::to_string(slot) + " at unknown ost " +
             std::to_string(span[entry]);
    }
    case FindingKind::kJournalMissingCreate: {
      if (target.journal == nullptr) return "";
      auto& records = target.journal->records_mutable();
      std::vector<std::size_t> candidates;
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].kind == fs::OpKind::kCreate &&
            ns.exists(records[i].file)) {
          candidates.push_back(i);
        }
      }
      if (candidates.empty()) return "";
      const std::size_t idx = candidates[rng.uniform_index(candidates.size())];
      const std::uint64_t txid = records[idx].txid;
      records.erase(records.begin() + static_cast<std::ptrdiff_t>(idx));
      return "dropped create record txid " + std::to_string(txid);
    }
    case FindingKind::kJournalMissingUnlink: {
      if (target.journal == nullptr) return "";
      auto& records = target.journal->records_mutable();
      std::vector<std::size_t> candidates;
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].kind == fs::OpKind::kUnlink) candidates.push_back(i);
      }
      if (candidates.empty()) return "";
      const std::size_t idx = candidates[rng.uniform_index(candidates.size())];
      const std::uint64_t txid = records[idx].txid;
      records.erase(records.begin() + static_cast<std::ptrdiff_t>(idx));
      return "dropped unlink record txid " + std::to_string(txid);
    }
    case FindingKind::kJournalGhostUnlink: {
      if (target.journal == nullptr) return "";
      const std::uint64_t ghost = fs::file_id_for_slot(
          77, ns.slot_count() + 3 + rng.uniform_index(5));
      target.journal->append(fs::OpKind::kUnlink, ghost, 0, 1_MiB, 0);
      return "appended ghost unlink of file " + std::to_string(ghost);
    }
    case FindingKind::kLiveCountDrift: {
      const std::uint64_t bump = 1 + rng.uniform_index(5);
      ns.fsck_set_live_files(ns.live_files() + bump);
      return "bumped live-file counter by " + std::to_string(bump);
    }
    case FindingKind::kCreateCountDrift: {
      if (target.journal == nullptr) return "";
      const std::uint64_t bump = 1 + rng.uniform_index(5);
      ns.fsck_set_total_created(ns.total_created() + bump);
      return "bumped created-file counter by " + std::to_string(bump);
    }
    case FindingKind::kOrphanObjects: {
      const std::size_t i = rng.uniform_index(ns.num_osts());
      fs::Ost& ost = ns.ost(i);
      ost.set_used(ost.used() + 32_MiB);
      ost.fsck_set_object_count(ost.object_count() + 2);
      return "planted orphan space and objects on ost " + std::to_string(i);
    }
    case FindingKind::kLostObjects: {
      std::vector<std::size_t> candidates;
      for (std::size_t i = 0; i < ns.num_osts(); ++i) {
        if (ns.ost(i).used() > 0 || ns.ost(i).object_count() > 0) {
          candidates.push_back(i);
        }
      }
      if (candidates.empty()) return "";
      const std::size_t i = candidates[rng.uniform_index(candidates.size())];
      fs::Ost& ost = ns.ost(i);
      ost.set_used(ost.used() - std::min<Bytes>(ost.used(),
                                                ost.used() / 2 + 1));
      ost.fsck_set_object_count(ost.object_count() -
                                std::min<std::uint64_t>(ost.object_count(), 1));
      return "lost reserved space and an object on ost " + std::to_string(i);
    }
    case FindingKind::kDneLoadDrift: {
      if (target.dne == nullptr) return "";
      const std::size_t mdt = rng.uniform_index(target.dne->mdts());
      target.dne->fsck_set_load(mdt, -(1.0 + rng.uniform()));
      return "drove mdt " + std::to_string(mdt) + " load negative";
    }
  }
  return "";
}

// --- synthetic cluster ------------------------------------------------------

SyntheticFs make_synthetic_fs(const SyntheticFsConfig& cfg) {
  SyntheticFs out;
  Rng rng(cfg.seed);
  block::SsuParams ssu_params;
  ssu_params.raid_groups = cfg.raid_groups;
  out.ssu = std::make_unique<block::Ssu>(ssu_params, 0, rng);
  out.osts.reserve(out.ssu->groups());
  std::vector<fs::Ost*> ost_ptrs;
  for (std::size_t g = 0; g < out.ssu->groups(); ++g) {
    out.osts.emplace_back(static_cast<std::uint32_t>(g), &out.ssu->group(g));
  }
  for (fs::Ost& ost : out.osts) ost_ptrs.push_back(&ost);
  out.ns = std::make_unique<fs::FsNamespace>("synthetic", std::move(ost_ptrs));
  out.journal = std::make_unique<fs::OpLog>();
  fs::DneParams dne_params;
  dne_params.mdts = cfg.mdts;
  out.dne = std::make_unique<fs::DneNamespace>(dne_params);

  sim::SimTime now = 0;
  std::vector<fs::FileId> created;
  for (std::size_t i = 0; i < cfg.files; ++i) {
    now += sim::kSecond;
    const Bytes size = (4 + rng.uniform_index(61)) * 1_MiB;
    const auto project = static_cast<std::uint32_t>(rng.uniform_index(4));
    const fs::FileId id = out.ns->create_file(project, size, now, rng);
    if (id == fs::kNoFile) continue;
    out.journal->append(fs::OpKind::kCreate, id, project, size, now);
    out.dne->account(project, fs::MetaOp::kCreate);
    created.push_back(id);
  }
  for (fs::FileId id : created) {
    if (!rng.chance(cfg.churn)) continue;
    now += sim::kSecond;
    const fs::FileRecord& rec = out.ns->file(id);
    const std::uint32_t project = rec.project;
    const Bytes size = rec.size;
    out.ns->unlink(id, now);
    out.journal->append(fs::OpKind::kUnlink, id, project, size, now);
    out.dne->account(project, fs::MetaOp::kUnlink);
  }
  out.journal->commit(out.journal->last_txid());
  return out;
}

}  // namespace spider::tools
