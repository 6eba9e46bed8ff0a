// The traced run's interceptors. Everything here sits outside the library
// and reaches it through public API only:
//
//  - TimedMetric is a metric functor for the Traits bundle that forwards
//    both operator() and DistanceWithin, so the bounded early exit still
//    applies, and charges each call to a per-thread LayerClock;
//  - TracedNodeStore is a NodeStore decorator handed to MTree::Attach (or
//    to the bulk loader) that charges every query-path node read;
//  - SpanLog keeps named spans (start, end, parent, query id) in memory and
//    writes them as JSON lines when the run ends.
//
// Metric calls and node reads happen thousands of times per query, so they
// are kept as per-query totals and counts, not one span per call.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "mcm/metric/bounded.h"
#include "mcm/mtree/node_store.h"
#include "mcm/obs/export.h"

namespace perfbench {

/// Accumulated nanoseconds and calls at one high-frequency boundary.
struct LayerClock {
  uint64_t ns = 0;
  uint64_t calls = 0;
};

inline thread_local LayerClock t_metric_clock;
inline thread_local LayerClock t_storage_clock;

class ScopedTick {
 public:
  explicit ScopedTick(LayerClock* clock)
      : clock_(clock), start_(Clock::now()) {}
  ~ScopedTick() {
    clock_->ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
    ++clock_->calls;
  }
  ScopedTick(const ScopedTick&) = delete;
  ScopedTick& operator=(const ScopedTick&) = delete;

 private:
  LayerClock* clock_;
  Clock::time_point start_;
};

/// Mean cost in ns of one ScopedTick around no work. About half of it
/// lands inside the timed interval and half in the caller's, so traced
/// layer times are corrected by calls x tick / 2 and the enclosing query
/// span by calls x tick.
inline double CalibrateTickNs() {
  LayerClock sink;
  double best = 1e30;
  for (int rep = 0; rep < 7; ++rep) {
    constexpr int kTicks = 20000;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kTicks; ++i) {
      ScopedTick tick(&sink);
    }
    best = std::min(best, MicrosBetween(t0, Clock::now()) * 1e3 / kTicks);
  }
  return best;
}

/// Metric functor that times every evaluation, bounded or not.
template <typename Inner, typename Object>
struct TimedMetric {
  double operator()(const Object& a, const Object& b) const {
    ScopedTick tick(&t_metric_clock);
    return inner(a, b);
  }
  double DistanceWithin(const Object& a, const Object& b, double bound) const {
    ScopedTick tick(&t_metric_clock);
    return mcm::BoundedDistance(inner, a, b, bound);
  }
  Inner inner;
};

/// NodeStore decorator: forwards every call and times the query path
/// (ReadShared / ReadTracked: buffer fetch + decode, and Prefetch).
template <typename Traits>
class TracedNodeStore final : public mcm::NodeStore<Traits> {
 public:
  using Node = typename mcm::NodeStore<Traits>::Node;

  explicit TracedNodeStore(std::unique_ptr<mcm::NodeStore<Traits>> inner)
      : inner_(std::move(inner)) {}

  mcm::NodeId Allocate() override { return inner_->Allocate(); }
  void Free(mcm::NodeId id) override { inner_->Free(id); }
  Node Read(mcm::NodeId id) override { return inner_->Read(id); }
  Node ReadTracked(mcm::NodeId id, mcm::QueryStats* st) override {
    ScopedTick tick(&t_storage_clock);
    return inner_->ReadTracked(id, st);
  }
  std::shared_ptr<const Node> ReadShared(mcm::NodeId id,
                                         mcm::QueryStats* st) override {
    ScopedTick tick(&t_storage_clock);
    return inner_->ReadShared(id, st);
  }
  void Prefetch(const mcm::NodeId* ids, size_t count,
                mcm::QueryStats* st) override {
    ScopedTick tick(&t_storage_clock);
    inner_->Prefetch(ids, count, st);
  }
  void Write(mcm::NodeId id, const Node& node) override {
    inner_->Write(id, node);
  }
  size_t NumNodes() const override { return inner_->NumNodes(); }

 private:
  std::unique_ptr<mcm::NodeStore<Traits>> inner_;
};

/// In-memory span log. A span with `count` > 1 is an aggregate of that
/// many calls at a high-frequency boundary within its parent.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span and returns its id.
  size_t Begin(const std::string& name, long parent = -1, long query = -1) {
    spans_.push_back({name, Now(), 0.0, parent, query, 1});
    return spans_.size() - 1;
  }
  void End(size_t id) { spans_[id].end_us = Now(); }

  /// Records an aggregate of `count` calls totalling `us` under `parent`.
  void Aggregate(const std::string& name, long parent, long query,
                 double us, uint64_t count) {
    const double at = spans_[static_cast<size_t>(parent)].start_us;
    spans_.push_back({name, at, at + us, parent, query, count});
  }

  double Duration(size_t id) const {
    return spans_[id].end_us - spans_[id].start_us;
  }

  /// Writes one JSON object per span.
  bool WriteJsonLines(const std::string& path) const {
    mcm::JsonlWriter out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      mcm::JsonObjectBuilder line;
      line.Add("id", i);
      line.Add("name", s.name);
      line.Add("start_us", s.start_us);
      line.Add("end_us", s.end_us);
      line.Add("parent", s.parent);
      line.Add("query", s.query);
      line.Add("count", static_cast<unsigned long long>(s.count));
      out.WriteLine(line.Build());
    }
    return out.ok();
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    long parent;
    long query;
    uint64_t count;
  };
  double Now() const { return MicrosBetween(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
