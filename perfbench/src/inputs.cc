// Model training, input generation, reference outputs and small helpers.
//
// Every input is generated from the run's seed. The training corpus and
// the classify inputs come from the repository's annotated-corpus
// generator (datagen); the bulk file comes from a simple data-row writer
// here, which knows its own row and cell counts.
//
// Layouts are part of a workload's definition, values are drawn from the
// seed: each generated file takes its structure (sections, headers, group
// and derived lines, column count, row count) from a fixed per-file
// layout seed through datagen's template mechanism, and its cell values
// from the run's seed. Run-to-run differences then come from the program
// and the host, not from one seed drawing heavier layouts than another.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/rng.h"
#include "csv/writer.h"
#include "datagen/corpus.h"
#include "datagen/profiles.h"
#include "strudel/batch_runner.h"
#include "strudel/ingest.h"
#include "strudel/model_io.h"

namespace perfbench {

namespace fs = std::filesystem;
using strudel::Result;
using strudel::Status;
using strudel::StrudelCell;
namespace datagen = strudel::datagen;

uint64_t Fnv64(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool KnownWorkload(std::string_view name) {
  return name == "multi_table" || name == "single_table" ||
         name == "serve_small" || name == "bulk_ingest";
}

namespace {

// Layout streams, one per use.
constexpr uint64_t kTrainLayout = 1;
constexpr uint64_t kMultiLayout = 2;
constexpr uint64_t kSingleLayout = 3;
constexpr uint64_t kServeLayout = 4;

// Files `first` .. `first + count - 1` of a stream of `profile` files
// whose layouts come from `layout` and whose values come from `seed`.
// `rows`, when positive, fixes the rows per table fraction.
std::vector<strudel::AnnotatedFile> Files(const std::string& profile_name,
                                          int first, int count,
                                          double size_scale, uint64_t layout,
                                          uint64_t seed, int rows = 0) {
  datagen::DatasetProfile profile = datagen::ScaledProfile(
      datagen::ProfileByName(profile_name), 1.0, size_scale);
  if (rows > 0) profile.spec.rows_per_fraction = {rows, rows};
  std::vector<strudel::AnnotatedFile> files;
  for (int i = first; i < first + count; ++i) {
    datagen::FileGenSpec spec = profile.spec;
    spec.num_templates = 1;  // one layout per file: template_seed
    spec.template_seed = layout * 1000003 + static_cast<uint64_t>(i);
    strudel::Rng values(seed * 7919 + layout * 104729 +
                        static_cast<uint64_t>(i));
    files.push_back(datagen::GenerateFile(spec, values, profile_name));
  }
  return files;
}

std::string Text(const strudel::AnnotatedFile& file) {
  return strudel::csv::WriteTable(file.table);
}

Status WriteText(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

// Concatenates SAUS files from `*next` on until the text reaches
// `target` bytes; `*next` advances so that rungs never share files.
std::string ConcatenatedFile(size_t target, uint64_t seed, int* next) {
  std::string text;
  while (text.size() < target) {
    text += Text(Files("saus", (*next)++, 1, 1.0, kMultiLayout, seed)[0]);
  }
  return text;
}

// A data-dominated file in the Mendeley style: a few metadata lines, one
// header row, `target` bytes of numeric data rows, one note line. No
// quoting and no empty cells, so the expected row and non-empty cell
// counts are exact.
std::string BulkFile(size_t target, uint64_t seed, uint64_t* rows,
                     uint64_t* cells) {
  strudel::Rng rng(seed);
  std::string text;
  text.reserve(target + (1 << 20));
  const char* meta[] = {"Experiment log exported from the acquisition rig",
                        "Operator: station 4", "Units: see header"};
  for (const char* line : meta) {
    text += line;
    text += '\n';
  }
  text += "run,sample,temperature,pressure,flow,voltage,current,status\n";
  *rows = 4;
  *cells = 3 + 8;
  const char* status[] = {"ok", "warm", "cold", "drift"};
  char buf[256];
  uint64_t run = 1;
  while (text.size() < target) {
    if (rng.UniformInt(uint64_t{500}) == 0) ++run;
    const int n = std::snprintf(
        buf, sizeof(buf), "%llu,%llu,%.2f,%.3f,%.1f,%.4f,%.3f,%s\n",
        static_cast<unsigned long long>(run),
        static_cast<unsigned long long>(*rows),
        rng.UniformDouble(-20.0, 45.0), rng.UniformDouble(950.0, 1050.0),
        rng.UniformDouble(0.0, 300.0), rng.UniformDouble(0.0, 12.0),
        rng.UniformDouble(0.0, 2.0), status[rng.UniformInt(uint64_t{4})]);
    text.append(buf, static_cast<size_t>(n));
    ++*rows;
    *cells += 8;
  }
  text += "End of export\n";
  ++*rows;
  ++*cells;
  return text;
}

}  // namespace

void TrainSaveReload(uint64_t seed, const std::string& model_path) {
  auto corpus = datagen::ConcatCorpora(
      {Files("govuk", 0, 12, 0.5, kTrainLayout, seed),
       Files("saus", 100, 12, 0.5, kTrainLayout, seed),
       Files("deex", 200, 12, 0.5, kTrainLayout, seed),
       Files("mendeley", 300, 6, 0.05, kTrainLayout, seed)});
  // The `strudel train` settings.
  strudel::StrudelCellOptions options;
  options.forest.num_trees = 50;
  options.line.forest.num_trees = 50;
  StrudelCell model(options);
  Status status = model.Fit(corpus);
  if (status.ok()) status = strudel::SaveModelToFile(model, model_path);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: training failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  (void)LoadModel(model_path, 0);
}

StrudelCell LoadModel(const std::string& path, int num_threads) {
  strudel::StrudelCellOptions options;
  options.num_threads = num_threads;
  options.forest.num_threads = num_threads;
  options.line.num_threads = num_threads;
  options.line.forest.num_threads = num_threads;
  StrudelCell model(options);
  std::ifstream in(path, std::ios::binary);
  const Status status = in ? model.LoadFrom(in)
                           : Status::IOError("cannot read " + path);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: model load failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  return model;
}

std::vector<Input> PrepareInputs(const std::string& workload, uint64_t seed,
                                 const std::string& dir,
                                 const StrudelCell& model) {
  std::vector<std::pair<std::string, std::string>> files;  // name, text
  std::vector<Input> inputs;
  int next = 0;  // next file of the workload's layout stream
  if (workload == "multi_table" || workload == "single_table") {
    const bool multi = workload == "multi_table";
    // Five rungs, a factor sqrt(2) apart: 100-400 KB of concatenated SAUS
    // reports, or 0.5-2 MB of one Mendeley-style data table.
    const double base = multi ? 100e3 : 500e3;
    for (int rung = 0; rung < 5; ++rung) {
      const size_t target =
          static_cast<size_t>(base * std::pow(std::sqrt(2.0), rung));
      std::string text;
      if (multi) {
        text = ConcatenatedFile(target, seed, &next);
      } else {
        // One table: each draw measures bytes per row and sets the row
        // count of the next, until the file lands within 1% of the rung,
        // so that every seed gives the same ladder.
        int rows = static_cast<int>(target / 40);
        for (int draw = 0; draw < 8; ++draw) {
          text = Text(
              Files("mendeley", rung, 1, 1.0, kSingleLayout, seed, rows)[0]);
          const double ratio = static_cast<double>(target) /
                               static_cast<double>(text.size());
          if (std::abs(ratio - 1.0) < 0.01) break;
          rows = static_cast<int>(rows * ratio);
        }
      }
      char name[64];
      std::snprintf(name, sizeof(name), "%s_%d.csv", workload.c_str(), rung);
      files.emplace_back(name, std::move(text));
    }
  } else if (workload == "serve_small") {
    // GovUK / SAUS / DeEx files of 1-10 KB, 32 from each profile: evenly
    // spaced order statistics (by size) of 160 candidates, so the pool
    // spans each profile's sizes in the range.
    for (const char* profile : {"govuk", "saus", "deex"}) {
      std::vector<std::string> candidates;
      for (int round = 0; candidates.size() < 160 && round < 100; ++round) {
        for (const auto& file :
             Files(profile, next, 16, 1.0, kServeLayout, seed)) {
          std::string text = Text(file);
          if (text.size() >= 1024 && text.size() <= 10240) {
            candidates.push_back(std::move(text));
          }
        }
        next += 16;
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [](const std::string& a, const std::string& b) {
                         return a.size() < b.size();
                       });
      for (size_t k = 0; k < 32 && !candidates.empty(); ++k) {
        char name[64];
        std::snprintf(name, sizeof(name), "%s_%02zu.csv", profile, k);
        files.emplace_back(name,
                           candidates[(2 * k + 1) * candidates.size() / 64]);
      }
    }
  } else {  // bulk_ingest
    Input input;
    std::string text =
        BulkFile(size_t{64} << 20, seed, &input.rows, &input.cells);
    input.path = (fs::path(dir) / "bulk.csv").string();
    input.bytes = text.size();
    if (!WriteText(input.path, text).ok()) std::exit(1);
    inputs.push_back(input);
    // The file's first ~256 KB, cut after a line end: bulk_ingest never
    // classifies, so its traced run measures the classify and serve
    // layers on this head instead.
    const size_t cut = text.find('\n', size_t{256} << 10);
    files.emplace_back("bulk_head.csv", text.substr(0, cut + 1));
  }

  for (auto& [name, text] : files) {
    Input input;
    input.path = (fs::path(dir) / name).string();
    input.bytes = text.size();
    if (!WriteText(input.path, text).ok()) std::exit(1);
    auto out = workload == "serve_small" ? ClassifyText(model, text)
                                         : ClassifyFile(model, input.path);
    if (!out.ok()) {
      std::fprintf(stderr, "perfbench: reference classify of %s failed: %s\n",
                   input.path.c_str(), out.status().ToString().c_str());
      std::exit(1);
    }
    input.digest = Fnv64(*out);
    inputs.push_back(input);
  }
  return inputs;
}

Status WriteManifest(const std::string& path, const std::vector<Input>& in) {
  std::ostringstream out;
  for (const Input& input : in) {
    out << input.path << '\t' << input.bytes << '\t' << input.digest << '\t'
        << input.rows << '\t' << input.cells << '\n';
  }
  return WriteText(path, out.str());
}

Result<std::vector<Input>> ReadManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::vector<Input> inputs;
  Input input;
  while (std::getline(in, input.path, '\t') && in >> input.bytes >>
         input.digest >> input.rows >> input.cells) {
    in.ignore(1);
    inputs.push_back(input);
  }
  if (inputs.empty()) return Status::IOError("empty manifest " + path);
  return inputs;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Result<std::string> ClassifyFile(const StrudelCell& model,
                                 const std::string& path, double* ingest_ms) {
  const auto start = Clock::now();
  STRUDEL_ASSIGN_OR_RETURN(strudel::IngestResult ingest,
                           strudel::IngestFile(path));
  if (ingest_ms != nullptr) *ingest_ms = MsBetween(start, Clock::now());
  STRUDEL_ASSIGN_OR_RETURN(strudel::CellPrediction prediction,
                           model.TryPredict(ingest.table));
  return strudel::FormatClassifiedTable(ingest.table, prediction);
}

Result<std::string> ClassifyText(const StrudelCell& model,
                                 std::string_view payload) {
  STRUDEL_ASSIGN_OR_RETURN(strudel::IngestResult ingest,
                           strudel::IngestText(payload));
  STRUDEL_ASSIGN_OR_RETURN(strudel::CellPrediction prediction,
                           model.TryPredict(ingest.table));
  return strudel::FormatClassifiedTable(ingest.table, prediction);
}

void Json::Sep() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}
Json& Json::Key(std::string_view key) {
  Sep();
  out_ += '"';
  out_ += key;
  out_ += "\":";
  return *this;
}
Json& Json::Num(double value) {
  Sep();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  out_ += buf;
  need_comma_ = true;
  return *this;
}
Json& Json::Int(uint64_t value) {
  Sep();
  out_ += std::to_string(value);
  need_comma_ = true;
  return *this;
}
Json& Json::Str(std::string_view value) {
  Sep();
  out_ += '"';
  out_ += value;  // callers pass plain identifiers and hex digests
  out_ += '"';
  need_comma_ = true;
  return *this;
}
Json& Json::Bool(bool value) {
  Sep();
  out_ += value ? "true" : "false";
  need_comma_ = true;
  return *this;
}
Json& Json::Nums(const std::vector<double>& values) {
  OpenList();
  for (double v : values) Num(v);
  return CloseList();
}
Json& Json::Open() {
  Sep();
  out_ += '{';
  return *this;
}
Json& Json::Close() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}
Json& Json::OpenList() {
  Sep();
  out_ += '[';
  return *this;
}
Json& Json::CloseList() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

}  // namespace perfbench
