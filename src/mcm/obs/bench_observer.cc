#include "mcm/obs/bench_observer.h"

#include <iostream>
#include <sstream>

#include "mcm/common/env.h"
#include "mcm/common/numeric.h"
#include "mcm/common/table_printer.h"
#include "mcm/obs/export.h"
#include "mcm/obs/metrics.h"
#include "mcm/obs/telemetry.h"

namespace mcm {

namespace {

std::string PredictionsJson(const std::vector<CostPrediction>& predictions) {
  JsonObjectBuilder all;
  for (const auto& p : predictions) {
    JsonObjectBuilder one;
    if (p.nodes >= 0.0) one.Add("nodes", p.nodes);
    if (p.dists >= 0.0) one.Add("dists", p.dists);
    if (!p.level_nodes.empty()) one.AddNumberArray("level_nodes",
                                                   p.level_nodes);
    all.AddRaw(p.model, one.Build());
  }
  return all.Build();
}

std::string PhaseUsJson(const std::array<double, kNumQueryPhases>& us) {
  JsonObjectBuilder o;
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    o.Add(ToString(static_cast<QueryPhase>(i)), us[i]);
  }
  return o.Build();
}

std::string ResidualStatsJson(const ResidualStats& stats) {
  JsonObjectBuilder o;
  o.Add("count", stats.count);
  o.Add("mean_rel_err", stats.mean_rel_err);
  o.Add("p50_rel_err", stats.p50_rel_err);
  o.Add("p95_rel_err", stats.p95_rel_err);
  o.Add("mean_signed", stats.mean_signed);
  o.Add("mean_predicted", stats.mean_predicted);
  o.Add("mean_actual", stats.mean_actual);
  return o.Build();
}

}  // namespace

BenchObserver::BenchObserver(const std::string& bench_name)
    : bench_name_(bench_name) {
  enabled_ = ObsEnabled();
  if (!enabled_) {
    return;
  }
  const std::string dir = GetEnvString("MCM_OBS_DIR", ".");
  artifact_path_ = dir + "/BENCH_" + bench_name_ + ".json";
  jsonl_ = std::make_unique<JsonlWriter>(artifact_path_);
  if (!jsonl_->ok()) {
    std::cerr << "BenchObserver: cannot open " << artifact_path_
              << "; observability disabled for this run\n";
    enabled_ = false;
    return;
  }
  JsonObjectBuilder meta;
  meta.Add("record", "meta");
  meta.Add("bench", bench_name_);
  meta.Add("schema_version", 1);
  meta.Add("trace_capacity", QueryTrace::kDefaultCapacity);
  jsonl_->WriteLine(meta.Build());
}

BenchObserver::~BenchObserver() { Finish(); }

void BenchObserver::BeginCase(
    const std::string& label,
    const std::vector<std::pair<std::string, double>>& params,
    std::vector<CostPrediction> predictions) {
  if (!enabled_) {
    return;
  }
  if (case_open_) {
    EndCase();
  }
  case_open_ = true;
  case_label_ = label;
  case_params_ = params;
  predictions_ = std::move(predictions);
  residuals_.Clear();
  case_queries_ = 0;
  sum_nodes_ = sum_dists_ = sum_results_ = sum_pruned_ = 0.0;
  sum_witness_avoided_ = 0.0;
  sum_buffer_hits_ = sum_buffer_misses_ = 0;
  sum_phase_us_.fill(0.0);
  latencies_us_.clear();
}

void BenchObserver::RecordQuery(const QueryObservation& obs) {
  if (!enabled_ || !case_open_) {
    return;
  }
  MetricsRegistry::Global()
      .GetCounter("mcm.obs.queries")
      .Increment();
  MetricsRegistry::Global()
      .GetHistogram("mcm.query.latency_us", DefaultLatencyBoundsUs())
      .Observe(obs.latency_us);

  ++case_queries_;
  sum_nodes_ += static_cast<double>(obs.stats.nodes_accessed);
  sum_dists_ += static_cast<double>(obs.stats.distance_computations);
  sum_results_ += static_cast<double>(obs.results);
  sum_pruned_ += static_cast<double>(obs.stats.nodes_pruned);
  sum_witness_avoided_ +=
      static_cast<double>(obs.stats.distance_calcs_avoided_by_witness);
  sum_buffer_hits_ += obs.stats.buffer_hits;
  sum_buffer_misses_ += obs.stats.buffer_misses;
  std::array<double, kNumQueryPhases> phase_us{};
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    phase_us[i] = static_cast<double>(obs.stats.phase_ns[i]) / 1e3;
    sum_phase_us_[i] += phase_us[i];
  }
  latencies_us_.push_back(obs.latency_us);

  // Per-level visits and prune reasons come from the trace; an untraced
  // query reports none.
  const QueryTrace untraced;
  const QueryTrace& trace = obs.trace != nullptr ? *obs.trace : untraced;
  const std::vector<double> level_nodes = trace.LevelNodeVisits();
  for (const auto& p : predictions_) {
    if (p.nodes >= 0.0) {
      residuals_.Stream(p.model + "/nodes")
          .Add(p.nodes, static_cast<double>(obs.stats.nodes_accessed));
    }
    if (p.dists >= 0.0) {
      // The models price every evaluation the search makes or avoids.
      residuals_.Stream(p.model + "/dists")
          .Add(p.dists, static_cast<double>(obs.stats.PricedDistances()));
    }
    if (!p.level_nodes.empty()) {
      residuals_.AddLevelSamples(p.model, p.level_nodes, level_nodes);
    }
  }

  JsonObjectBuilder rec;
  rec.Add("record", "query");
  rec.Add("bench", bench_name_);
  rec.Add("case", case_label_);
  rec.Add("seq", case_queries_ - 1);
  rec.Add("kind", obs.kind);
  if (obs.k > 0) {
    rec.Add("k", obs.k);
  } else {
    rec.Add("radius", obs.radius);
  }
  for (const auto& [key, value] : case_params_) {
    rec.Add(key, value);
  }
  rec.Add("nodes", obs.stats.nodes_accessed);
  rec.Add("dists", obs.stats.distance_computations);
  rec.Add("pruned", obs.stats.nodes_pruned);
  rec.Add("witness_avoided", obs.stats.distance_calcs_avoided_by_witness);
  rec.Add("buffer_hits", obs.stats.buffer_hits);
  rec.Add("buffer_misses", obs.stats.buffer_misses);
  rec.Add("results", obs.results);
  rec.Add("latency_us", obs.latency_us);
  // All six phases, zero when the query path recorded no time (phase
  // timers only run under MCM_OBS, which is on whenever records are
  // written, but memory stores never touch page-read/decode).
  rec.AddRaw("phase_us", PhaseUsJson(phase_us));
  // Always present (empty for flat structures) so every artifact matches
  // the query-record schema regardless of which bench produced it.
  rec.AddNumberArray("level_nodes", level_nodes);
  JsonObjectBuilder prunes;
  for (size_t i = 0; i < kNumPruneReasons; ++i) {
    if (trace.prunes_by_reason()[i] > 0) {
      prunes.Add(ToString(static_cast<PruneReason>(i)),
                 trace.prunes_by_reason()[i]);
    }
  }
  rec.AddRaw("prunes", prunes.Build());  // "{}" when nothing was pruned.
  rec.AddRaw("pred", PredictionsJson(predictions_));  // "{}" when no models.
  if (trace.dropped() > 0) {
    rec.Add("trace_dropped", trace.dropped());
    MetricsRegistry::Global()
        .GetCounter("mcm.obs.trace_dropped_events")
        .Increment(trace.dropped());
  }
  jsonl_->WriteLine(rec.Build());
}

void BenchObserver::WriteSummaryRecord() {
  JsonObjectBuilder rec;
  rec.Add("record", "summary");
  rec.Add("bench", bench_name_);
  rec.Add("case", case_label_);
  for (const auto& [key, value] : case_params_) {
    rec.Add(key, value);
  }
  rec.Add("queries", case_queries_);
  const double n = case_queries_ == 0
                       ? 1.0
                       : static_cast<double>(case_queries_);
  rec.Add("avg_nodes", sum_nodes_ / n);
  rec.Add("avg_dists", sum_dists_ / n);
  rec.Add("avg_results", sum_results_ / n);
  rec.Add("avg_pruned", sum_pruned_ / n);
  rec.Add("avg_witness_avoided", sum_witness_avoided_ / n);
  const uint64_t fetches = sum_buffer_hits_ + sum_buffer_misses_;
  rec.Add("buffer_hit_rate",
          fetches == 0 ? 0.0
                       : static_cast<double>(sum_buffer_hits_) /
                             static_cast<double>(fetches));
  {
    JsonObjectBuilder lat;
    double mean = 0.0;
    for (const double v : latencies_us_) mean += v;
    mean /= latencies_us_.empty()
                ? 1.0
                : static_cast<double>(latencies_us_.size());
    lat.Add("mean", mean);
    lat.Add("p50", internal::LatencyQuantile(latencies_us_, 0.50));
    lat.Add("p95", internal::LatencyQuantile(latencies_us_, 0.95));
    lat.Add("p99", internal::LatencyQuantile(latencies_us_, 0.99));
    rec.AddRaw("latency_us", lat.Build());
  }
  {
    // Per-phase wall time averaged over the case's queries.
    std::array<double, kNumQueryPhases> avg_phase_us{};
    for (size_t i = 0; i < kNumQueryPhases; ++i) {
      avg_phase_us[i] = sum_phase_us_[i] / n;
    }
    rec.AddRaw("phase_us", PhaseUsJson(avg_phase_us));
  }
  {
    // Always present ("{}" without predictions) to match the schema.
    JsonObjectBuilder res;
    for (const std::string& name : residuals_.Names()) {
      res.AddRaw(name, ResidualStatsJson(residuals_.StatsFor(name)));
    }
    rec.AddRaw("residuals", res.Build());
  }
  jsonl_->WriteLine(rec.Build());
}

void BenchObserver::EndCase() {
  if (!enabled_ || !case_open_) {
    return;
  }
  WriteSummaryRecord();

  const std::vector<std::string> names = residuals_.Names();
  if (!names.empty()) {
    TablePrinter table({"residual stream", "n", "mean err%", "p50%", "p95%",
                        "bias%", "pred", "actual"});
    for (const std::string& name : names) {
      const ResidualStats s = residuals_.StatsFor(name);
      table.AddRow({name, std::to_string(s.count),
                    TablePrinter::Num(100.0 * s.mean_rel_err, 1),
                    TablePrinter::Num(100.0 * s.p50_rel_err, 1),
                    TablePrinter::Num(100.0 * s.p95_rel_err, 1),
                    TablePrinter::Num(100.0 * s.mean_signed, 1),
                    TablePrinter::Num(s.mean_predicted, 1),
                    TablePrinter::Num(s.mean_actual, 1)});
    }
    std::cout << "[obs] residuals, case " << case_label_ << ":\n";
    table.Print(std::cout);
    std::cout << "\n";
  }
  jsonl_->Flush();
  case_open_ = false;
}

void BenchObserver::Finish() {
  if (!enabled_ || finished_) {
    return;
  }
  if (case_open_) {
    EndCase();
  }
  // Append the process-wide metrics so the artifact is self-contained.
  std::ostringstream metrics;
  MetricsRegistry::Global().WriteJsonl(metrics);
  std::istringstream lines(metrics.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) {
      continue;
    }
    // Re-tag each registry line as a "metric" record of this bench.
    JsonObjectBuilder rec;
    rec.Add("record", "metric");
    rec.Add("bench", bench_name_);
    rec.AddRaw("data", line);
    jsonl_->WriteLine(rec.Build());
  }
  jsonl_->Flush();
  std::cout << "[obs] wrote " << jsonl_->lines_written() << " records to "
            << artifact_path_ << "\n";
  // Honor MCM_TRACE_OUT / MCM_METRICS_OUT from any bench that ran with
  // an observer: flush the Chrome trace and the Prometheus snapshot.
  const int flushed = FlushTelemetry();
  if (flushed > 0) {
    if (!TraceOutPath().empty()) {
      std::cout << "[obs] chrome trace: " << TraceOutPath() << "\n";
    }
    if (!MetricsOutPath().empty()) {
      std::cout << "[obs] prometheus snapshot: " << MetricsOutPath() << "\n";
    }
  }
  finished_ = true;
}

}  // namespace mcm
