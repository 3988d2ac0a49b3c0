#include "sim/replay.hpp"

#include <bit>
#include <sstream>

#include "common/hash.hpp"
#include "sim/flow_network.hpp"
#include "sim/simulator.hpp"

namespace spider::sim {

namespace {
std::uint64_t fold_double(std::uint64_t h, double v) {
  // Bit-exact: +0.0 vs -0.0 or differently-rounded results hash differently,
  // which is the point — replay equality is bitwise, not approximate.
  return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}
}  // namespace

void ReplayRecorder::attach(Simulator& sim) {
  sim.set_observer(EventObserver(*this));
}

void ReplayRecorder::on_event(SimTime when, EventId id, std::uint64_t site) {
  records_.push_back(Record{when, id, site});
  event_hash_ = fnv1a(event_hash_, static_cast<std::uint64_t>(when));
  event_hash_ = fnv1a(event_hash_, id);
  event_hash_ = fnv1a(event_hash_, site);
}

void ReplayRecorder::record_resource_stats(const FlowNetwork& net) {
  for (std::size_t r = 0; r < net.resources(); ++r) {
    const ResourceStats& s = net.stats(static_cast<ResourceId>(r));
    stats_hash_ = fold_double(stats_hash_, s.served);
    stats_hash_ = fold_double(stats_hash_, s.busy_integral);
    stats_hash_ = fold_double(stats_hash_, s.current_load);
    stats_hash_ = fnv1a(stats_hash_, s.flows_seen);
  }
}

std::uint64_t ReplayRecorder::combined_hash() const {
  return fnv1a(fnv1a(kFnvOffsetBasis, event_hash_), stats_hash_);
}

std::size_t ReplayRecorder::first_divergence(const ReplayRecorder& a,
                                             const ReplayRecorder& b) {
  const std::size_t n = std::min(a.records_.size(), b.records_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a.records_[i] == b.records_[i])) return i;
  }
  if (a.records_.size() != b.records_.size()) return n;
  return npos;
}

std::string ReplayRecorder::divergence_report(const ReplayRecorder& a,
                                              const ReplayRecorder& b) {
  const std::size_t i = first_divergence(a, b);
  std::ostringstream os;
  if (i == npos) {
    if (a.stats_hash_ != b.stats_hash_) {
      os << "event streams identical but stats hashes differ: " << std::hex
         << a.stats_hash_ << " vs " << b.stats_hash_;
    } else {
      os << "identical";
    }
    return os.str();
  }
  os << "first divergence at event " << i << " of (" << a.records_.size()
     << ", " << b.records_.size() << "): ";
  auto describe = [&os](const ReplayRecorder& r, std::size_t idx) {
    if (idx >= r.records_.size()) {
      os << "<stream ended>";
      return;
    }
    const Record& rec = r.records_[idx];
    os << "{t=" << rec.when << " id=" << rec.id << " site=" << std::hex
       << rec.site << std::dec << "}";
  };
  describe(a, i);
  os << " vs ";
  describe(b, i);
  return os.str();
}

}  // namespace spider::sim
