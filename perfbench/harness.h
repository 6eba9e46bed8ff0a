// Measurement plumbing shared by the three workloads: clocks, the
// per-query-minimum sweep with its spread-out set-ups, answer checking, the
// private temp directory, the MCM_* refusal and the result's metric list.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mcm/obs/export.h"

extern char** environ;

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// min(a, b) / max(a, b): 1 when prediction and measurement agree.
inline double Agreement(double predicted, double measured) {
  if (predicted <= 0.0 || measured <= 0.0) return 0.0;
  return std::min(predicted, measured) / std::max(predicted, measured);
}

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Peak resident set (VmHWM) of this process in MiB.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Names of the MCM_* environment variables that are set. Each is a
/// library knob (KNOBS.manifest) that silently changes the program under
/// measurement, so a measured run refuses to start while any is present.
inline std::vector<std::string> McmEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "MCM_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  return names;
}

/// A private directory from mkdtemp under `parent`, removed with its
/// contents on destruction. Index, spill and copy files live here, so two
/// concurrent runs never share a file name.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string templ = parent + "/perfbench-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent);
    }
    path_ = buf.data();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Operation ledger: every checked operation is attempted; a wrong answer
/// or an exception makes it failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One reference answer: (oid, distance) in result order.
using Answer = std::vector<std::pair<uint64_t, double>>;

template <typename Results>
Answer ToAnswer(const Results& results) {
  Answer answer;
  answer.reserve(results.size());
  for (const auto& r : results) answer.emplace_back(r.oid, r.distance);
  return answer;
}

/// Exact comparison: same oids and bit-identical distances, in order.
template <typename Results>
bool SameAnswer(const Results& got, const Answer& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].oid != want[i].first || got[i].distance != want[i].second) {
      return false;
    }
  }
  return true;
}

/// FNV-1a over raw bytes; feeds the input digest of the seed contract.
inline uint64_t Fnv1a(const void* data, size_t size,
                      uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// An operation's outcome inside a timed sweep.
struct OpResult {
  double us = 0.0;
  bool ok = true;
};

/// What one pass of a sweep runs. Every callback times only the library
/// call it wraps and checks the answer after the clock stops.
struct SweepSpec {
  size_t num_range = 0;
  size_t num_knn = 0;
  size_t num_insert = 0;
  /// Times the range set is swept per pass; raised where range queries are
  /// so much cheaper than k-NN ones that a pass would give them few samples.
  size_t range_sweeps = 1;
  std::function<OpResult(size_t)> range;
  std::function<OpResult(size_t)> knn;
  /// Untimed: prepares a fresh copy of the index for the pass's inserts.
  std::function<void()> insert_begin;
  std::function<OpResult(size_t)> insert;
  /// Untimed: flushes the copy and checks every inserted oid is found.
  std::function<bool()> insert_end;
  /// The k-NN query set through the batch executor, cut into `batch_chunks`
  /// chunks (BatchChunkBegin): runs chunk `chunk` with its workers pinned to
  /// CPU pair `pair`, giving its wall seconds and the mean per-query latency
  /// inside it.
  std::function<bool(size_t chunk, size_t pair, double* wall_s,
                     double* mean_us)>
      batch;
  size_t batch_chunks = 0;
  size_t batch_workers = 0;
  /// One complete set-up of a separate index, freed before it returns; gives
  /// its seconds. The sweep runs `num_setups` of them spread over its time.
  std::function<double()> setup;
  size_t num_setups = 0;
};

/// First k-NN query of batch chunk `c` of `chunks` over `n` queries.
inline size_t BatchChunkBegin(size_t c, size_t chunks, size_t n) {
  return c * n / chunks;
}

/// Per-query minima over the passes of one sweep, per-chunk batch minima,
/// and what FinishBatch derives from them.
struct SweepResult {
  std::vector<double> range_us;   // Minimum over passes, per query.
  std::vector<double> knn_us;
  std::vector<double> insert_us;  // Minimum over passes, per insert.
  std::vector<double> setup_s;    // One per set-up, in run order.
  std::vector<double> batch_s;    // Minimum over passes, per batch chunk.
  std::vector<double> batch_mean_us;  // Inside the chunk's fastest run.
  size_t passes = 0;
  size_t batch_runs = 0;
  double batch_qps = 0.0;
  double batch_inflation = 0.0;
  double scaling_eff = 0.0;
  double measured_s = 0.0;
};

/// Ids of this process's threads, from /proc/self/task.
inline std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(
        static_cast<pid_t>(std::stol(entry.path().filename().string())));
  }
  return tids;
}

/// Pins the calling thread to one CPU of its allowed set per pass, cycling
/// through the set. On a shared host one vCPU can run 30-40 % slow for tens
/// of seconds (its physical core busy with another guest) while a sibling
/// vCPU runs at full speed, so a query's minimum over passes is only steady
/// when its passes land on different CPUs. Threads created while a pin is
/// active inherit it; create them before pinning. PinPair does the same for
/// the batch's two workers.
class CpuCycler {
 public:
  CpuCycler() {
    CPU_ZERO(&allowed_);
    if (::sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuCycler() { Release(); }
  CpuCycler(const CpuCycler&) = delete;
  CpuCycler& operator=(const CpuCycler&) = delete;

  void Pin(size_t slot) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }
  /// Pins threads `tids` to pair `slot` of the allowed CPUs' pairs, in the
  /// order (0,1), (0,2), ..., (1,2), ... A no-op when fewer than three CPUs
  /// are allowed, since then the only pair is all of them.
  void PinPair(size_t slot, const std::vector<pid_t>& tids) {
    const size_t n = cpus_.size();
    if (n < 3) return;
    slot %= n * (n - 1) / 2;
    size_t a = 0;
    while (slot >= n - 1 - a) slot -= n - 1 - a++;
    cpu_set_t two;
    CPU_ZERO(&two);
    CPU_SET(cpus_[a], &two);
    CPU_SET(cpus_[a + 1 + slot], &two);
    for (const pid_t tid : tids) ::sched_setaffinity(tid, sizeof(two), &two);
  }
  void Release() {
    if (cpus_.size() >= 2) ::sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Runs one pass of `spec` and folds it into `out`. Range, k-NN and insert
/// operations and the batch chunks are spread evenly over one another, so
/// every op type and the batch see the same host phases; a query comes round
/// again only after the rest of its set. The single-client part runs pinned
/// to CPU slot `cpu`.
inline void RunPass(const SweepSpec& spec, size_t cpu, CpuCycler* cycler,
                    SweepResult* out, Tally* tally) {
  const size_t range_ops = spec.num_range * spec.range_sweeps;
  const size_t chunks = spec.batch ? spec.batch_chunks : 0;
  const size_t steps =
      std::max({range_ops, spec.num_knn, spec.num_insert, chunks});
  // Op j of a type with `count` ops per pass runs at the step where
  // floor(step * count / steps) first reaches j + 1.
  auto due = [steps](size_t step, size_t count, size_t* index) {
    *index = step * count / steps;
    return (step + 1) * count / steps > *index;
  };
  auto keep = [tally](OpResult r, double* slot) {
    tally->Record(r.ok);
    *slot = std::min(*slot, r.us);
  };
  // A chunk's queries run half a pass away from their single-client runs
  // (never back to back, which would time a warm pool). Successive runs of
  // a chunk move to the next CPU pair, so its minimum is taken across pairs
  // as well as across time, like a query's across CPUs.
  auto run_chunk = [&](size_t slot) {
    const size_t chunk = (slot + chunks / 2) % chunks;
    cycler->Release();  // The caller thread waits on all CPUs.
    double wall_s = 0.0;
    double mean_us = 0.0;
    const bool ok =
        spec.batch(chunk, out->passes + chunk, &wall_s, &mean_us);
    tally->Record(ok);
    if (ok && wall_s < out->batch_s[chunk]) {
      out->batch_s[chunk] = wall_s;
      out->batch_mean_us[chunk] = mean_us;
    }
    ++out->batch_runs;
    cycler->Pin(cpu);
  };
  cycler->Pin(cpu);
  if (spec.num_insert > 0) spec.insert_begin();
  for (size_t step = 0, i = 0; step < steps; ++step) {
    if (due(step, range_ops, &i)) {
      i %= spec.num_range;
      keep(spec.range(i), &out->range_us[i]);
    }
    if (due(step, spec.num_knn, &i)) keep(spec.knn(i), &out->knn_us[i]);
    if (due(step, spec.num_insert, &i)) {
      keep(spec.insert(i), &out->insert_us[i]);
    }
    if (due(step, chunks, &i)) run_chunk(i);
  }
  if (spec.num_insert > 0) tally->Record(spec.insert_end());
  cycler->Release();
  ++out->passes;
}

/// Batch throughput from the per-chunk minima: all k-NN queries over the
/// sum of their chunks' fastest wall times. Latency inflation and scaling
/// efficiency set it against the single-client per-query minima.
inline void FinishBatch(const SweepSpec& spec, SweepResult* r) {
  if (!spec.batch) return;
  double wall_s = 0.0;
  double latency_us = 0.0;
  for (size_t c = 0; c < spec.batch_chunks; ++c) {
    const size_t size =
        BatchChunkBegin(c + 1, spec.batch_chunks, spec.num_knn) -
        BatchChunkBegin(c, spec.batch_chunks, spec.num_knn);
    wall_s += r->batch_s[c];
    latency_us += r->batch_mean_us[c] * static_cast<double>(size);
  }
  const double n = static_cast<double>(spec.num_knn);
  const double single_us = Mean(r->knn_us);
  r->batch_qps = Ratio(n, wall_s);
  r->batch_inflation = Ratio(latency_us / n, single_us);
  r->scaling_eff = Ratio(r->batch_qps, static_cast<double>(spec.batch_workers) *
                                           Ratio(1e6, single_us));
}

/// Runs rounds until `seconds` are spent (at least `min_rounds`). A round
/// runs one pass of every spec on the round's CPU (CpuCycler), the spec that
/// goes first rotating from round to round, so the specs of one sweep see
/// the same host phases. The first spec's set-ups are spread evenly over the
/// run, set-up j falling due at (j + 1/2) / num_setups of it and pinned to
/// CPU slot j, so their median sees the phases the queries see.
inline std::vector<SweepResult> RunSweeps(
    const std::vector<const SweepSpec*>& specs, double seconds,
    size_t min_rounds, Tally* tally) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<SweepResult> out(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    out[s].range_us.assign(specs[s]->num_range, kInf);
    out[s].knn_us.assign(specs[s]->num_knn, kInf);
    out[s].insert_us.assign(specs[s]->num_insert, kInf);
    out[s].batch_s.assign(specs[s]->batch_chunks, kInf);
    out[s].batch_mean_us.assign(specs[s]->batch_chunks, 0.0);
  }
  const SweepSpec& lead = *specs.front();
  std::vector<double>& setup_s = out.front().setup_s;
  CpuCycler cycler;
  auto run_setup = [&] {
    cycler.Pin(setup_s.size());
    setup_s.push_back(lead.setup());
    cycler.Release();
  };
  const Clock::time_point start = Clock::now();
  auto setup_due = [&] {
    return setup_s.size() < lead.num_setups &&
           (static_cast<double>(setup_s.size()) + 0.5) * seconds <=
               SecondsSince(start) * static_cast<double>(lead.num_setups);
  };
  double round_s = 0.0;
  for (size_t round = 0;
       round < min_rounds ||
       (SecondsSince(start) + round_s <= seconds && round < 1000);
       ++round) {
    while (setup_due()) run_setup();
    const Clock::time_point round_start = Clock::now();
    for (size_t k = 0; k < specs.size(); ++k) {
      const size_t s = (round + k) % specs.size();
      RunPass(*specs[s], round, &cycler, &out[s], tally);
    }
    round_s = SecondsSince(round_start);
  }
  while (setup_s.size() < lead.num_setups) run_setup();
  for (size_t s = 0; s < specs.size(); ++s) {
    out[s].measured_s = SecondsSince(start);
    FinishBatch(*specs[s], &out[s]);
  }
  return out;
}

/// Times `make()`; what it returns is freed after the clock stops.
template <typename Make>
double TimedSetup(const Make& make) {
  const Clock::time_point t0 = Clock::now();
  const auto made = make();
  return SecondsSince(t0);
}

/// Ordered name -> {value, unit} list, printed as the result's metrics.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    // A non-finite value (an op that failed on every pass) prints as 0 and
    // marks the run incorrect.
    finite_ = finite_ && std::isfinite(value);
    mcm::JsonObjectBuilder entry;
    entry.Add("value", std::isfinite(value) ? value : 0.0);
    entry.Add("unit", unit);
    json_.AddRaw(name, entry.Build());
  }
  bool AllFinite() const { return finite_; }
  std::string Json() const { return json_.Build(); }

 private:
  mcm::JsonObjectBuilder json_;
  bool finite_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
