// Changelog consumers: scan-free metadata accounting (ROADMAP item 2).
//
// The Robinhood lesson behind this layer: namespace walks stop working
// around 1e9 entries, so policy engines must consume the MDS changelog
// instead. fs/journal.hpp is the log; this file is the consumer side — a
// crash-consistent cursor (only the committed prefix is ever consumed, so
// consumer state is always a function of durable records) and a
// per-project accounting table that LustreDU-style reporting and the
// incremental purge engine query in O(1), with O(Δ records) maintenance
// per epoch instead of O(N files) per sweep. docs/metadata-changelog.md
// has the full contract.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/units.hpp"
#include "fs/fs_namespace.hpp"
#include "fs/journal.hpp"

namespace spider::fs {

/// Diagnostics from one incremental consumption batch.
struct ConsumeResult {
  std::uint64_t applied = 0;  ///< records applied this batch
  std::uint64_t cursor = 0;   ///< consumer cursor after the batch
  /// The consumer's cursor is ahead of the log's committed cursor: a crash
  /// (OpLog::truncate_to) rewound the log underneath us, and because txids
  /// are reused after truncation the consumer's state may describe records
  /// that no longer exist. Nothing was applied; the consumer must rebuild.
  bool cursor_ahead = false;
  /// An expected txid was missing from the consumed range (interior
  /// corruption of the kind spiderfsck seeds via records_mutable). Present
  /// records were still applied; `first_gap_txid` names the first hole.
  bool gap = false;
  std::uint64_t first_gap_txid = 0;
};

/// One project's row in the accounting table.
struct ProjectUsage {
  Bytes bytes = 0;           ///< live bytes owned by the project
  std::uint64_t files = 0;   ///< live file count
  std::uint64_t creates = 0;  ///< total creates ever consumed
  std::uint64_t unlinks = 0;  ///< total unlinks ever consumed
  std::int64_t last_activity = 0;  ///< latest record `at` seen

  bool operator==(const ProjectUsage&) const = default;
};

/// Crash-consistent changelog cursor. Walks the committed records past the
/// consumer's position in txid order (binary-searched start, so a batch
/// costs O(log n + Δ), not O(n)) and hands each to `fn`. Shared by the
/// accounting table below, the purge engine, and tools::LustreDu.
class ChangelogCursor {
 public:
  std::uint64_t position() const { return cursor_; }

  /// Consume committed records with txid in (position(), log.committed()].
  /// Refuses (cursor_ahead) when position() > log.committed(). Template so
  /// consumers apply records without an indirect call per record.
  template <typename Fn>
  ConsumeResult consume(const OpLog& log, Fn&& fn) {
    ConsumeResult res;
    res.cursor = cursor_;
    const std::uint64_t committed = log.committed();
    if (cursor_ > committed) {
      res.cursor_ahead = true;
      return res;
    }
    const std::vector<OpRecord>& recs = log.records();
    // Binary search for the first record past the cursor (txids ascend).
    std::size_t lo = 0, hi = recs.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (recs[mid].txid <= cursor_) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    std::uint64_t expect = cursor_ + 1;
    for (std::size_t i = lo; i < recs.size(); ++i) {
      const OpRecord& rec = recs[i];
      if (rec.txid > committed) break;
      if (rec.txid != expect && !res.gap) {
        res.gap = true;
        res.first_gap_txid = expect;
      }
      expect = rec.txid + 1;
      fn(rec);
      ++res.applied;
    }
    if (expect <= committed && !res.gap) {
      // The log is missing its committed tail entirely.
      res.gap = true;
      res.first_gap_txid = expect;
    }
    cursor_ = committed;
    res.cursor = cursor_;
    return res;
  }

  /// Drop back to the start (full re-consume) or to an explicit position
  /// (tests pin exact boundaries with this).
  void reset(std::uint64_t position = 0) { cursor_ = position; }

 private:
  std::uint64_t cursor_ = 0;
};

/// Per-project accounting derived purely from changelog records, in one
/// table applied on the calling thread. One instance accounts one
/// namespace; a multi-namespace consumer (tools::LustreDu) holds one per
/// namespace and merges.
class ChangelogAccounting {
 public:
  /// Apply all newly committed records. On cursor_ahead nothing changes —
  /// call rebuild(). On gap the present records were applied and the
  /// table is suspect; rebuild() or escalate to spiderfsck.
  ConsumeResult consume(const OpLog& log);

  /// O(1) queries against the table (no namespace walk, ever).
  Bytes bytes_of(std::uint32_t project) const;
  std::uint64_t files_of(std::uint32_t project) const;
  const ProjectUsage* find(std::uint32_t project) const;

  /// Per-project live bytes, ascending project order (the same canonical
  /// shape FsNamespace::usage_by_project returns, so oracles compare
  /// directly).
  std::map<std::uint32_t, Bytes> usage() const;
  /// Full rows, ascending project order.
  const std::map<std::uint32_t, ProjectUsage>& rows() const { return table_; }

  /// FNV-1a over the rows in canonical order: a fingerprint for
  /// determinism checks.
  std::uint64_t table_hash() const;

  /// Forget everything and re-consume the whole committed prefix — the
  /// recovery path after cursor_ahead (crash) at O(committed) cost.
  ConsumeResult rebuild(const OpLog& log);

  /// Last-resort O(N) rebuild from namespace ground truth, for logs with
  /// interior gaps where no prefix replay can be trusted. Takes the
  /// cursor from `log.committed()`; the caller owns the claim that `ns`
  /// reflects exactly the committed prefix. Counts a full walk.
  void rebuild_from_namespace(const FsNamespace& ns, const OpLog& log);

  std::uint64_t cursor() const { return cursor_.position(); }
  std::uint64_t records_applied() const { return records_applied_; }

 private:
  ChangelogCursor cursor_;
  std::map<std::uint32_t, ProjectUsage> table_;
  std::uint64_t records_applied_ = 0;
};

}  // namespace spider::fs
