// Traced run: per-layer numbers for one workload's inputs.
//
// Layers with a public entry point are timed by calling that function
// directly from here (sanitize, dialect detection, pass-1 index, the
// table read, Algorithm 1 and 2, line featurisation, the two predict
// calls). Layers without one are read from the program's own spans via
// the public trace capture API: cell featurisation (`featurize.cells`),
// the forest (`forest.predict`) and the serve worker (`serve.request`).
// The run also measures what tracing costs: the workload's operation is
// timed alternately with capture off and on.
//
// Everything is written as raw samples (each pass's layer totals, each
// pair's overhead, each serve request); run.py summarises them.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "bench.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "csv/dialect_detector.h"
#include "csv/reader.h"
#include "csv/sanitize.h"
#include "csv/simd_scan.h"
#include "strudel/block_size.h"
#include "strudel/derived_detector.h"
#include "strudel/ingest.h"
#include "strudel/line_features.h"

namespace perfbench {

namespace csv = strudel::csv;
namespace trace = strudel::trace;
using strudel::StrudelCell;

namespace {

using Layers = std::map<std::string, double>;

// Sum of span durations (ms) on the capturing thread whose path equals
// `path`.
double SpanMs(const std::vector<trace::TraceEvent>& events,
              std::string_view path) {
  double ms = 0.0;
  for (const auto& e : events) {
    if (e.phase == 'X' && e.track == 0 && e.path == path) ms += e.dur_ns / 1e6;
  }
  return ms;
}

// Times `fn` in milliseconds.
template <typename Fn>
double TimeMs(Fn fn) {
  const auto start = Clock::now();
  fn();
  return MsBetween(start, Clock::now());
}

// csv layers on one file's bytes.
void CsvLayers(const std::string& path, Layers* layers) {
  const std::string raw = *ReadFile(path);
  (*layers)["ingest.ms"] += TimeMs([&] { (void)strudel::IngestFile(path); });
  std::string text;
  (*layers)["csv.sanitize.ms"] += TimeMs([&] { text = csv::Sanitize(raw); });
  csv::DialectDetection detection;
  (*layers)["csv.dialect.ms"] += TimeMs(
      [&] { detection = csv::DetectDialectWithFallback(text); });
  csv::ReaderOptions reader;
  reader.dialect = detection.dialect;
  double index_ms = 0.0;
  if (csv::IndexerSupportsDialect(detection.dialect)) {
    // The reader's own rule: keep quoted delimiters when oversize-line
    // recovery can fire on this input.
    csv::ParallelScanOptions scan;
    scan.prune_quoted_delimiters =
        !(reader.max_line_bytes > 0 && reader.max_line_bytes < text.size());
    csv::StructuralIndex index;
    index_ms = TimeMs([&] {
      csv::BuildStructuralIndexParallel(text, detection.dialect, scan, &index);
    });
    (*layers)["csv.index.chunks"] += static_cast<double>(index.chunks);
    (*layers)["csv.index.repairs"] +=
        static_cast<double>(index.speculation_repairs);
  }
  (*layers)["csv.index.ms"] += index_ms;
  const double read_ms =
      TimeMs([&] { (void)csv::ReadTable(text, reader); });
  (*layers)["csv.parse.ms"] += std::max(0.0, read_ms - index_ms);
}

// strudel and ml layers on one table.
void ClassifyLayers(const StrudelCell& model, const csv::Table& table,
                    Layers* layers) {
  const auto& line_options = model.line_model().options();
  strudel::DerivedDetectionResult detection;
  const double alg2_ms = TimeMs([&] {
    detection =
        strudel::DetectDerivedCells(table, model.options().features
                                               .derived_options);
  });
  const double alg1_ms =
      TimeMs([&] { (void)strudel::ComputeBlockSizes(table); });
  (*layers)["alg2.ms"] += alg2_ms;
  (*layers)["alg2.derived_cells"] += detection.derived_count;
  (*layers)["alg1.ms"] += alg1_ms;
  (*layers)["line_features.ms"] += TimeMs([&] {
    (void)strudel::ExtractLineFeatures(table, detection, line_options.features,
                                       nullptr, line_options.num_threads);
  });
  (*layers)["line.predict.ms"] +=
      TimeMs([&] { (void)model.line_model().TryPredict(table); });

  strudel::metrics::Counter& rows =
      strudel::metrics::GetCounter("ml.forest_rows_predicted");
  const uint64_t rows_before = rows.Value();
  trace::StartCapture();
  const double cell_ms = TimeMs([&] { (void)model.TryPredict(table); });
  const auto events = trace::StopCapture();
  const double line_in_cell =
      SpanMs(events, "strudel_cell.predict/strudel_line.predict");
  const double cell_features =
      SpanMs(events, "strudel_cell.predict/featurize.cells");
  const double cell_forest = SpanMs(events, "strudel_cell.predict/forest.predict");
  const double line_forest = SpanMs(
      events, "strudel_cell.predict/strudel_line.predict/forest.predict");
  (*layers)["cell.predict.ms"] += cell_ms;
  (*layers)["cell_features.ms"] += cell_features;
  (*layers)["forest.predict.ms"] += cell_forest + line_forest;
  (*layers)["forest.rows"] += static_cast<double>(rows.Value() - rows_before);
  // Time inside the cell predict that no named layer number covers; the
  // line stage inside it runs Algorithm 2 itself, so alg2 counts once.
  (*layers)["unattributed.ms"] +=
      std::max(0.0, cell_ms - line_in_cell - alg2_ms - alg1_ms -
                        cell_features - cell_forest);
}

// The server's serve.queue_wait_ms histogram, read through the metrics
// endpoint. The registry keeps count, sum and max but no buckets, so the
// layer reports a mean and a max rather than percentiles.
struct QueueWait {
  uint64_t count = 0;
  long long sum = 0;
  long long max = 0;
};

QueueWait ReadQueueWait(ServeHarness& harness) {
  QueueWait wait;
  const auto json = harness.MetricsJson();
  const std::string key = "\"serve.queue_wait_ms\": ";
  const size_t at = json.ok() ? json->find(key) : std::string::npos;
  if (at != std::string::npos) {
    long long min = 0;
    std::sscanf(json->c_str() + at + key.size(),
                "{\"count\": %" SCNu64 ", \"sum\": %lld, \"min\": %lld, "
                "\"max\": %lld",
                &wait.count, &wait.sum, &min, &wait.max);
  }
  return wait;
}

// The traced serve step: the serve layer's own samples on `payloads`,
// appended to `out` as a "serve" object.
void ServeLayers(const RunOptions& options, double rate, size_t requests,
                 const std::vector<std::string>& payloads,
                 const std::vector<uint64_t>& digests, Json* out,
                 uint64_t* attempted, uint64_t* failed) {
  ServeHarness harness(
      options.dir,
      LoadModel((std::filesystem::path(options.dir) / "model").string(), 0));
  const strudel::serve::ServerStats before = harness.stats();
  const QueueWait wait_before = ReadQueueWait(harness);
  trace::StartCapture();
  const ServeStep step = harness.OpenLoop(rate, requests, payloads, digests);
  const auto events = trace::StopCapture();
  *attempted += step.attempted;
  *failed += step.failed + (step.identity_ok ? 0 : 1);

  std::vector<double> request_ms;
  for (const auto& e : events) {
    if (e.phase == 'X' && e.path == "serve.request") {
      request_ms.push_back(e.dur_ns / 1e6);
    }
  }
  const strudel::serve::ServerStats after = harness.stats();
  const QueueWait wait_after = ReadQueueWait(harness);
  out->Key("serve").Open();
  out->Key("queue_wait_count").Int(wait_after.count - wait_before.count);
  out->Key("queue_wait_sum_ms").Int(
      static_cast<uint64_t>(wait_after.sum - wait_before.sum));
  out->Key("queue_wait_max_ms").Int(static_cast<uint64_t>(wait_after.max));
  out->Key("request_ms").Nums(request_ms).Key("rtt_ms").Nums(step.rtt_ms);
  out->Key("lag_ms").Nums(step.lag_ms);
  out->Key("shed").Int(after.shed_queue - before.shed_queue +
                       after.shed_connections - before.shed_connections);
  out->Key("deadline_exceeded")
      .Int(after.deadline_exceeded - before.deadline_exceeded);
  out->Close();
}

}  // namespace

void RunLayers(const RunOptions& options, const StrudelCell& model,
               const std::vector<Input>& inputs, Json* out,
               uint64_t* attempted, uint64_t* failed) {
  const bool bulk = options.workload == "bulk_ingest";
  const bool serve = options.workload == "serve_small";
  // bulk_ingest never classifies; its second input, the head of the bulk
  // file, stands in for it in the classify and serve layers.
  const std::vector<Input> csv_inputs(inputs.begin(),
                                      bulk ? inputs.begin() + 1 : inputs.end());
  const std::vector<Input> classify_inputs(
      bulk ? inputs.begin() + 1 : inputs.begin(), inputs.end());
  std::vector<std::string> payloads;
  std::vector<uint64_t> digests;
  std::vector<csv::Table> tables;
  for (const Input& input : classify_inputs) {
    payloads.push_back(*ReadFile(input.path));
    digests.push_back(input.digest);
    tables.push_back(strudel::IngestText(payloads.back())->table);
  }

  // The workload's operation, once over its inputs; checks every output.
  const auto operation = [&] {
    if (bulk) {
      ++*attempted;
      if (!IngestMatches(csv_inputs.front())) ++*failed;
      return;
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
      ++*attempted;
      auto text = serve ? ClassifyText(model, payloads[i])
                        : ClassifyFile(model, inputs[i].path);
      if (!text.ok() || Fnv64(*text) != inputs[i].digest) ++*failed;
    }
  };

  // Tracing cost: pairs of an untraced and a traced pass, alternating
  // which runs first (at least two pairs); the median of the pairs'
  // ratios.
  std::vector<double> overhead_pct;
  const auto traced = [&] {
    trace::StartCapture();
    const double ms = TimeMs(operation);
    (void)trace::StopCapture();
    return ms;
  };
  const auto ab_start = Clock::now();
  for (size_t pair = 0;
       pair < 2 ||
       MsBetween(ab_start, Clock::now()) < 250.0 * options.seconds;
       ++pair) {
    double plain_ms = 0.0, traced_ms = 0.0;
    if (pair % 2 == 0) {
      plain_ms = TimeMs(operation);
      traced_ms = traced();
    } else {
      traced_ms = traced();
      plain_ms = TimeMs(operation);
    }
    overhead_pct.push_back(100.0 * (traced_ms / plain_ms - 1.0));
  }

  // Layer decomposition: whole passes, each layer's total per pass.
  std::map<std::string, std::vector<double>> passes;
  const auto layers_start = Clock::now();
  do {
    Layers pass;
    for (const Input& input : csv_inputs) CsvLayers(input.path, &pass);
    for (const csv::Table& table : tables) ClassifyLayers(model, table, &pass);
    for (const auto& [name, value] : pass) passes[name].push_back(value);
  } while (MsBetween(layers_start, Clock::now()) < 250.0 * options.seconds);

  out->Key("layers").Open().Key("passes").Open();
  for (const auto& [name, values] : passes) out->Key(name).Nums(values);
  out->Close().Key("overhead_pct").Nums(overhead_pct);

  // Serve layer: the workload's fixed-rate step for serve_small; for the
  // other workloads a short low-rate step serving their smallest
  // classify input, so every workload reports the layer.
  if (serve) {
    ServeLayers(options, kServeFixedRate,
                static_cast<size_t>(0.2 * options.seconds * kServeFixedRate),
                payloads, digests, out, attempted, failed);
  } else {
    size_t smallest = 0;
    for (size_t i = 0; i < payloads.size(); ++i) {
      if (payloads[i].size() < payloads[smallest].size()) smallest = i;
    }
    ServeLayers(options, 2.0, 4, {payloads[smallest]}, {digests[smallest]},
                out, attempted, failed);
  }
  out->Close();
}

}  // namespace perfbench
