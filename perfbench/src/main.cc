// perfbench: the benchmark's measuring program. run.py drives it:
//
//   perfbench setup --workload W --seed N --dir D [--trace 0|1]
//       Trains the model kSetupReps times (each: generate the training
//       corpus, fit, save, reload; the time of each is a setup_s sample),
//       then writes W's inputs and their reference outputs under D.
//   perfbench run --workload W --dir D --seconds S [--trace 0|1]
//       Runs W against D for about S seconds. With --trace 1 it runs the
//       per-layer decomposition instead of the end-to-end measurement.
//
// Each prints one JSON line of raw samples on stdout.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/trace.h"

namespace {

using namespace perfbench;

constexpr int kSetupReps = 3;

struct Args {
  std::string command, workload, dir;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench setup|run --workload W "
               "--dir D [--seed N] [--seconds S] [--trace 0|1]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  if (argc < 2) Usage("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("flag without value");
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--dir") args.dir = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") args.trace = value == "1";
    else Usage("unknown flag");
  }
  if (!KnownWorkload(args.workload)) Usage("unknown workload");
  if (args.dir.empty() || args.seconds <= 0) Usage("bad arguments");
  return args;
}

int Setup(const Args& args) {
  std::filesystem::create_directories(args.dir);
  const std::string model_path =
      (std::filesystem::path(args.dir) / "model").string();
  Json out;
  out.Open().Key("setup_s").OpenList();
  std::vector<strudel::trace::TraceEvent> events;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // The traced run reads forest.fit from the last rep's spans.
    const bool traced = args.trace && rep + 1 == kSetupReps;
    if (traced) strudel::trace::StartCapture();
    const auto start = Clock::now();
    TrainSaveReload(args.seed, model_path);
    out.Num(MsBetween(start, Clock::now()) / 1000.0);
    if (traced) events = strudel::trace::StopCapture();
  }
  out.CloseList();
  double fit_ms = 0.0;
  for (const auto& e : events) {
    const std::string& p = e.path;
    if (e.phase == 'X' && e.track == 0 && p.size() >= 10 &&
        p.compare(p.size() - 10, 10, "forest.fit") == 0) {
      fit_ms += e.dur_ns / 1e6;
    }
  }
  out.Key("forest_fit_ms").Num(fit_ms);

  const auto start = Clock::now();
  // The reference pass is serial in every stage, forests included.
  const strudel::StrudelCell reference = LoadModel(model_path, 1);
  const auto inputs =
      PrepareInputs(args.workload, args.seed, args.dir, reference);
  out.Key("prepare_s").Num(MsBetween(start, Clock::now()) / 1000.0);
  const auto status = WriteManifest(
      (std::filesystem::path(args.dir) / "manifest.tsv").string(), inputs);
  if (!status.ok()) Usage("cannot write manifest");
  uint64_t digest = Fnv64("");
  double bytes = 0.0;
  for (const Input& input : inputs) {
    digest = Fnv64(std::to_string(input.digest) + "/" +
                       std::to_string(input.rows) + "/" +
                       std::to_string(input.cells),
                   digest);
    bytes += static_cast<double>(input.bytes);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  out.Key("label_digest").Str(hex).Key("inputs").Int(inputs.size());
  out.Key("input_bytes").Num(bytes).Close();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int Run(const Args& args) {
  const std::filesystem::path dir(args.dir);
  auto inputs = ReadManifest((dir / "manifest.tsv").string());
  if (!inputs.ok()) Usage("work directory not set up");
  // The library default: hardware concurrency.
  const strudel::StrudelCell model = LoadModel((dir / "model").string(), 0);
  RunOptions options{args.workload, args.dir, args.seconds};
  uint64_t attempted = 0, failed = 0;
  Json out;
  out.Open().Key("workload").Str(args.workload);
  if (args.trace) {
    RunLayers(options, model, *inputs, &out, &attempted, &failed);
  } else {
    RunWorkload(options, model, *inputs, &out, &attempted, &failed);
  }
  out.Key("attempted").Int(attempted).Key("failed").Int(failed);
  out.Key("peak_rss_mb").Num(PeakRssMb()).Close();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.command == "setup") return Setup(args);
  if (args.command == "run") return Run(args);
  Usage("unknown command");
}
