// Shared declarations of the whole-pipeline benchmark's measuring program.
//
// The program has two subcommands, each run in its own process by run.py:
//   setup  trains the model (timed: setup_s), writes the workload's inputs
//          and their reference outputs into a work directory;
//   run    loads the model and inputs, runs one workload and prints raw
//          samples as one JSON line. run.py turns them into metrics.
// Keeping the timed workload in a fresh process means its peak RSS is its
// own, not the training's.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/client.h"
#include "serve/server.h"
#include "strudel/strudel_cell.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Runs the fixed calibration kernel once and returns its wall time in
/// ms (about 2 ms on a quiet 2.1 GHz Xeon vCPU). Untraced runs pair every
/// timed operation with the kernel times right before and after it; see
/// calibrate.cc.
double KernelMs();

/// FNV-1a, 64 bit: digests of classify outputs.
uint64_t Fnv64(std::string_view bytes, uint64_t seed = 0xcbf29ce484222325ULL);

/// One benchmark input with what the reference pass recorded for it.
struct Input {
  std::string path;        // file under the work directory
  uint64_t bytes = 0;
  uint64_t digest = 0;     // Fnv64 of the reference classify output
  uint64_t rows = 0;       // bulk_ingest: generator's row count
  uint64_t cells = 0;      // bulk_ingest: generator's non-empty cells
};

/// The workloads, by name: multi_table, single_table, serve_small,
/// bulk_ingest.
bool KnownWorkload(std::string_view name);

/// Generates the training corpus from `seed`, trains a Strudel^C model
/// with the `strudel train` settings, saves it to `model_path` and loads
/// it back. Exits the process on failure.
void TrainSaveReload(uint64_t seed, const std::string& model_path);

/// Loads the model at `path` with `num_threads` workers in every stage,
/// both forests included (0 = hardware concurrency, 1 = serial). The
/// forests take their thread count at load time, so it is set in the
/// options the model is loaded into. Exits the process on failure.
strudel::StrudelCell LoadModel(const std::string& path, int num_threads);

/// Writes the workload's inputs under `dir` and records each input's
/// reference output from `model`, which the caller loads with
/// num_threads = 1.
std::vector<Input> PrepareInputs(const std::string& workload, uint64_t seed,
                                 const std::string& dir,
                                 const strudel::StrudelCell& model);

strudel::Status WriteManifest(const std::string& path,
                              const std::vector<Input>& inputs);
strudel::Result<std::vector<Input>> ReadManifest(const std::string& path);
strudel::Result<std::string> ReadFile(const std::string& path);

/// The `strudel classify` path on one file: IngestFile + TryPredict +
/// FormatClassifiedTable. Returns the output text; `ingest_ms` receives
/// the IngestFile share.
strudel::Result<std::string> ClassifyFile(const strudel::StrudelCell& model,
                                 const std::string& path,
                                 double* ingest_ms = nullptr);

/// The serve worker's path on one payload: IngestText + TryPredict +
/// FormatClassifiedTable.
strudel::Result<std::string> ClassifyText(const strudel::StrudelCell& model,
                                 std::string_view payload);

/// Minimal JSON writer for the raw-sample line.
class Json {
 public:
  Json& Key(std::string_view key);
  Json& Num(double value);
  Json& Int(uint64_t value);
  Json& Str(std::string_view value);
  Json& Bool(bool value);
  Json& Nums(const std::vector<double>& values);
  Json& Open();   // {
  Json& Close();  // }
  Json& OpenList();
  Json& CloseList();
  const std::string& str() const { return out_; }

 private:
  void Sep();
  std::string out_;
  bool need_comma_ = false;
};

/// serve_small: the fixed offered rate (requests per second) that
/// serve_p50_ms / serve_p99_ms are reported at, and the p99 latency limit
/// that serve_capacity_rps is judged by.
inline constexpr double kServeFixedRate = 200.0;
inline constexpr double kServeLimitMs = 50.0;

/// bulk_ingest's check: IngestFile of `input` yields the generator's row
/// and non-empty cell counts.
bool IngestMatches(const Input& input);

struct RunOptions {
  std::string workload;
  std::string dir;         // work directory written by `setup`
  double seconds = 10.0;   // measured time of the run
};

/// Untraced run: the workload's end-to-end samples, appended to `out`
/// (an open JSON object). Counts operations into `attempted`/`failed`.
void RunWorkload(const RunOptions& options, const strudel::StrudelCell& model,
                 const std::vector<Input>& inputs, Json* out,
                 uint64_t* attempted, uint64_t* failed);

/// Traced run: per-layer samples for the workload's inputs, appended to
/// `out` as a "layers" object of raw per-pass and per-request values;
/// run.py takes their medians and percentiles.
void RunLayers(const RunOptions& options, const strudel::StrudelCell& model,
               const std::vector<Input>& inputs, Json* out,
               uint64_t* attempted, uint64_t* failed);

/// One open-loop step against a running server: `requests` classify
/// requests due at `rate` per second, sent by Clients() client threads.
/// Latency is timed from when each request was due.
struct ServeStep {
  double rate = 0.0;
  std::vector<double> latency_ms;  // reply time - due time
  std::vector<double> rtt_ms;      // reply time - send time
  std::vector<double> lag_ms;      // generator release time - due time
  std::vector<double> bytes;       // payload size per request
  double wall_ms = 0.0;            // first due time to last reply
  uint64_t attempted = 0;
  uint64_t failed = 0;             // non-OK reply, transport error, wrong
                                   // output
  size_t backlog = 0;              // requests still unsent when the
                                   // generator released the last one
  bool identity_ok = true;         // ServerStats accounting after drain
};

/// An in-process serve::Server (default options) on a unix socket in the
/// work directory, plus the client side of the load.
class ServeHarness {
 public:
  ServeHarness(const std::string& dir, strudel::StrudelCell model);
  ~ServeHarness();
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;
  /// Open loop over `payloads` (cycled in order) against the references.
  ServeStep OpenLoop(double rate, size_t requests,
                     const std::vector<std::string>& payloads,
                     const std::vector<uint64_t>& digests);
  strudel::serve::ServerStats stats() const { return server_.stats(); }
  /// The server's metrics registry as JSON, through its metrics endpoint.
  strudel::Result<std::string> MetricsJson();
  /// Client threads of the load: one per hardware thread (nproc).
  static int Clients();

 private:
  bool Drained(const strudel::serve::ServerStats& before);
  std::string socket_path_;
  strudel::serve::Server server_;
};

/// Peak resident set of this process (VmHWM), in MB (1e6 bytes).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
