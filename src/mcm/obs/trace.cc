#include "mcm/obs/trace.h"

#include <algorithm>
#include <atomic>

namespace mcm {

const char* ToString(PruneReason reason) {
  switch (reason) {
    case PruneReason::kNone:
      return "none";
    case PruneReason::kParentFilter:
      return "parent_filter";
    case PruneReason::kCoveringRadius:
      return "covering_radius";
    case PruneReason::kKnnBound:
      return "knn_bound";
    case PruneReason::kRangeTable:
      return "range_table";
    case PruneReason::kShellBound:
      return "shell_bound";
    case PruneReason::kWitness:
      return "witness";
  }
  return "unknown";
}

uint32_t CurrentThreadLane() {
  static std::atomic<uint32_t> next_lane{0};
  thread_local const uint32_t lane =
      next_lane.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

QueryTrace::QueryTrace(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

void QueryTrace::Push(const TraceEvent& event) {
  if (events_.size() < capacity_) {
    events_.push_back(event);
    return;
  }
  events_[next_] = event;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

TraceLevelTally& QueryTrace::LevelAt(uint32_t level) {
  const size_t idx = level == 0 ? 0 : level - 1;
  if (levels_.size() <= idx) {
    levels_.resize(idx + 1);
  }
  return levels_[idx];
}

void QueryTrace::RecordVisit(uint64_t node, uint32_t level,
                             uint32_t entries_scanned, uint32_t entries_pruned,
                             uint32_t distances, uint32_t witness_avoided) {
  TraceEvent e;
  e.kind = TraceEventKind::kNodeVisit;
  e.node = node;
  e.level = level;
  e.entries_scanned = entries_scanned;
  e.entries_pruned = entries_pruned;
  e.distances = distances;
  e.witness_avoided = witness_avoided;
  Push(e);
  ++total_visits_;
  TraceLevelTally& tally = LevelAt(level);
  ++tally.node_visits;
  tally.entries_scanned += entries_scanned;
  tally.entries_pruned += entries_pruned;
  tally.distances += distances;
  tally.witness_avoided += witness_avoided;
}

void QueryTrace::RecordPrune(uint64_t node, uint32_t level,
                             PruneReason reason) {
  TraceEvent e;
  e.kind = TraceEventKind::kPrune;
  e.node = node;
  e.level = level;
  e.reason = reason;
  Push(e);
  ++total_prunes_;
  ++prunes_by_reason_[static_cast<size_t>(reason)];
  ++LevelAt(level).subtree_prunes;
}

void QueryTrace::RecordBufferFetch(uint64_t node, bool hit) {
  TraceEvent e;
  e.kind = TraceEventKind::kBufferFetch;
  e.node = node;
  e.buffer_hit = hit;
  Push(e);
  if (hit) {
    ++buffer_hits_;
  } else {
    ++buffer_misses_;
  }
}

void QueryTrace::AppendSpan(QueryPhase phase, uint64_t start_ns,
                            uint64_t end_ns) {
  if (spans_.size() >= capacity_) {
    ++dropped_spans_;
    return;
  }
  spans_.push_back(PhaseSpan{phase, start_ns, end_ns, CurrentThreadLane()});
}

void QueryTrace::Clear() {
  events_.clear();
  next_ = 0;
  dropped_ = 0;
  total_visits_ = 0;
  total_prunes_ = 0;
  buffer_hits_ = 0;
  buffer_misses_ = 0;
  prunes_by_reason_.fill(0);
  levels_.clear();
  spans_.clear();
  dropped_spans_ = 0;
}

std::vector<TraceEvent> QueryTrace::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  // When the ring wrapped, the oldest retained event sits at next_.
  for (size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(next_ + i) % events_.size()]);
  }
  return out;
}

std::vector<double> QueryTrace::LevelNodeVisits() const {
  std::vector<double> out(levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    out[i] = static_cast<double>(levels_[i].node_visits);
  }
  return out;
}

}  // namespace mcm
