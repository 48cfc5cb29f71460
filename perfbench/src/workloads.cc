// Untraced workload runs and the serve load generator.
//
//   multi_table / single_table  closed loop, one caller, over a fixed
//                               size ladder: the `strudel classify` path
//   serve_small                 open loop into an in-process server at a
//                               fixed rate, then a rate ladder
//   bulk_ingest                 IngestFile of one >= 64 MiB file
//
// Every output is checked: classify outputs against the serial reference
// digests, bulk ingests against the generator's row and cell counts.
// The closed loops time the calibration kernel right before and right
// after every operation, so run.py can take out the host's speed swings.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.h"
#include "strudel/ingest.h"

namespace perfbench {

namespace serve = strudel::serve;
using strudel::StrudelCell;

namespace {

// Runs `pass` (one sweep over the inputs) until `seconds` have elapsed;
// at least one pass.
template <typename Pass>
void RunPasses(double seconds, Pass pass) {
  const auto start = Clock::now();
  do {
    pass();
  } while (MsBetween(start, Clock::now()) < seconds * 1000.0);
}

void RunClassify(const RunOptions& options, const StrudelCell& model,
                 const std::vector<Input>& inputs, Json* out,
                 uint64_t* attempted, uint64_t* failed) {
  std::vector<std::vector<double>> ms(inputs.size()), ingest(inputs.size()),
      before(inputs.size()), after(inputs.size());
  // Warm-up: thread pool start and first-touch costs stay out of the run.
  (void)ClassifyFile(model, inputs.front().path);
  RunPasses(options.seconds, [&] {
    for (size_t i = 0; i < inputs.size(); ++i) {
      before[i].push_back(KernelMs());
      double ingest_ms = 0.0;
      const auto start = Clock::now();
      auto text = ClassifyFile(model, inputs[i].path, &ingest_ms);
      ms[i].push_back(MsBetween(start, Clock::now()));
      after[i].push_back(KernelMs());
      ingest[i].push_back(ingest_ms);
      ++*attempted;
      if (!text.ok() || Fnv64(*text) != inputs[i].digest) ++*failed;
    }
  });
  out->Key("files").OpenList();
  for (size_t i = 0; i < inputs.size(); ++i) {
    out->Open().Key("bytes").Int(inputs[i].bytes).Key("ms").Nums(ms[i]);
    out->Key("ingest_ms").Nums(ingest[i]).Key("kernel_before_ms");
    out->Nums(before[i]).Key("kernel_after_ms").Nums(after[i]).Close();
  }
  out->CloseList();
}

void RunBulk(const RunOptions& options, const std::vector<Input>& inputs,
             Json* out, uint64_t* attempted, uint64_t* failed) {
  const Input& input = inputs.front();
  std::vector<double> ms, before, after;
  RunPasses(options.seconds, [&] {
    before.push_back(KernelMs());
    const auto start = Clock::now();
    const bool ok = IngestMatches(input);
    ms.push_back(MsBetween(start, Clock::now()));
    after.push_back(KernelMs());
    ++*attempted;
    if (!ok) ++*failed;
  });
  out->Key("files").OpenList();
  out->Open().Key("bytes").Int(input.bytes).Key("ms").Nums(ms);
  out->Key("ingest_ms").Nums(ms).Key("kernel_before_ms").Nums(before);
  out->Key("kernel_after_ms").Nums(after).Close().CloseList();
}

void WriteStep(const ServeStep& step, Json* out) {
  out->Open().Key("rate").Num(step.rate).Key("failed").Int(step.failed);
  out->Key("backlog").Int(step.backlog);
  out->Key("identity_ok").Bool(step.identity_ok);
  out->Key("latency_ms").Nums(step.latency_ms).Key("bytes").Nums(step.bytes);
  out->Key("lag_ms").Nums(step.lag_ms).Key("wall_ms").Num(step.wall_ms);
  out->Close();
}

void RunServe(const RunOptions& options, const std::vector<Input>& inputs,
              Json* out, uint64_t* attempted, uint64_t* failed) {
  std::vector<std::string> payloads;
  std::vector<uint64_t> digests;
  for (const Input& input : inputs) {
    payloads.push_back(*ReadFile(input.path));
    digests.push_back(input.digest);
  }
  ServeHarness harness(
      options.dir,
      LoadModel((std::filesystem::path(options.dir) / "model").string(), 0));

  // The serve path's ingest alone, closed loop over the pool: the
  // payload bytes per second of each pass.
  std::vector<double> ingest_rates;
  RunPasses(0.1 * options.seconds, [&] {
    double bytes = 0.0;
    const auto start = Clock::now();
    for (const std::string& payload : payloads) {
      auto ingest = strudel::IngestText(payload);
      ++*attempted;
      if (!ingest.ok()) ++*failed;
      bytes += static_cast<double>(payload.size());
    }
    ingest_rates.push_back(bytes / (MsBetween(start, Clock::now()) / 1e3));
  });
  out->Key("ingest_bytes_per_s").Nums(ingest_rates);

  // Warm-up: connection and worker start-up stay out of the run.
  (void)harness.OpenLoop(kServeFixedRate, 20, payloads, digests);
  const auto count = [&](const ServeStep& step) {
    *attempted += step.attempted;
    *failed += step.failed + (step.identity_ok ? 0 : 1);
  };
  // Fixed offered rate: the latency the issue's serve metrics report.
  const ServeStep fixed = harness.OpenLoop(
      kServeFixedRate,
      static_cast<size_t>(0.35 * options.seconds * kServeFixedRate), payloads,
      digests);
  count(fixed);
  out->Key("limit_ms").Num(kServeLimitMs).Key("fixed");
  WriteStep(fixed, out);

  // Rate ladder for capacity: up from the fixed rate in steps of 25%,
  // 0.06 x --seconds per step, ending at the first step that misses the
  // latency limit (more than 1% of requests late, i.e. p99 over it) or
  // shows a growing backlog.
  out->Key("ladder").OpenList();
  for (double rate = kServeFixedRate; rate <= 16 * kServeFixedRate;
       rate *= 1.25) {
    const ServeStep step = harness.OpenLoop(
        rate, static_cast<size_t>(0.06 * options.seconds * rate), payloads,
        digests);
    count(step);
    WriteStep(step, out);
    const auto late = std::count_if(
        step.latency_ms.begin(), step.latency_ms.end(),
        [](double ms) { return ms > kServeLimitMs; });
    if (step.failed > 0 ||
        step.backlog > static_cast<size_t>(ServeHarness::Clients()) ||
        static_cast<double>(late) > 0.01 * step.latency_ms.size()) {
      break;
    }
  }
  out->CloseList();
}

}  // namespace

bool IngestMatches(const Input& input) {
  auto ingest = strudel::IngestFile(input.path);
  return ingest.ok() &&
         static_cast<uint64_t>(ingest->table.num_rows()) == input.rows &&
         static_cast<uint64_t>(ingest->table.non_empty_count()) == input.cells;
}

int ServeHarness::Clients() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

ServeHarness::ServeHarness(const std::string& dir, StrudelCell model)
    : socket_path_((std::filesystem::path(dir) / "serve.sock").string()),
      server_(std::move(model), [this] {
        serve::ServerOptions options;
        options.socket_path = socket_path_;
        return options;
      }()) {
  const strudel::Status status = server_.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
}

strudel::Result<std::string> ServeHarness::MetricsJson() {
  serve::ClientOptions options;
  options.socket_path = socket_path_;
  STRUDEL_ASSIGN_OR_RETURN(serve::ServeReply reply,
                           serve::Client(options).Metrics());
  return reply.payload;
}

ServeHarness::~ServeHarness() {
  server_.RequestStop();
  (void)server_.Wait();
}

bool ServeHarness::Drained(const serve::ServerStats& before) {
  // Replies are sent before the connection thread's last bookkeeping, so
  // poll briefly for the server to settle.
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  while (true) {
    const serve::ServerStats s = server_.stats();
    const auto d = [&](uint64_t now, uint64_t then) { return now - then; };
    const uint64_t accepted = d(s.accepted, before.accepted);
    const uint64_t admitted = d(s.admitted, before.admitted);
    const bool intake =
        accepted == admitted + d(s.shed_queue, before.shed_queue) +
                        d(s.shed_connections, before.shed_connections) +
                        d(s.rejected_draining, before.rejected_draining) +
                        d(s.malformed, before.malformed) +
                        d(s.payload_too_large, before.payload_too_large) +
                        d(s.io_failed, before.io_failed) +
                        d(s.inline_answered, before.inline_answered) +
                        d(s.quarantined, before.quarantined);
    const bool outcome =
        admitted == d(s.completed, before.completed) +
                        d(s.deadline_exceeded, before.deadline_exceeded) +
                        d(s.ingest_errors, before.ingest_errors) +
                        d(s.predict_errors, before.predict_errors);
    if (s.queue_depth == 0 && s.in_flight == 0 && s.open_connections == 0 &&
        intake && outcome) {
      return true;
    }
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

ServeStep ServeHarness::OpenLoop(double rate, size_t requests,
                                 const std::vector<std::string>& payloads,
                                 const std::vector<uint64_t>& digests) {
  ServeStep step;
  step.rate = rate;
  requests = std::max<size_t>(requests, 1);
  step.latency_ms.assign(requests, 0.0);
  step.rtt_ms.assign(requests, 0.0);
  step.lag_ms.assign(requests, 0.0);
  step.bytes.assign(requests, 0.0);
  const serve::ServerStats before = server_.stats();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> ready;  // released, not yet picked up by a client
  bool done = false;
  std::atomic<uint64_t> failed{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / rate));
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < Clients(); ++c) {
    clients.emplace_back([&] {
      serve::ClientOptions options;
      options.socket_path = socket_path_;
      options.backoff.max_attempts = 1;  // a shed is a failure, not a retry
      serve::Client client(options);
      while (true) {
        size_t i;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !ready.empty(); });
          if (ready.empty()) return;
          i = ready.front();
          ready.pop_front();
        }
        const std::string& payload = payloads[i % payloads.size()];
        const auto sent = Clock::now();
        auto reply = client.Classify(payload);
        const auto received = Clock::now();
        step.latency_ms[i] = MsBetween(due(i), received);
        step.rtt_ms[i] = MsBetween(sent, received);
        step.bytes[i] = static_cast<double>(payload.size());
        if (!reply.ok() || reply->code != serve::ResponseCode::kOk ||
            Fnv64(reply->payload) != digests[i % digests.size()]) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (size_t i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(due(i));
    const auto released = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    step.lag_ms[i] = MsBetween(due(i), released);
    ready.push_back(i);
    if (i + 1 == requests) step.backlog = ready.size() - 1;
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& t : clients) t.join();
  step.wall_ms = MsBetween(start, Clock::now());
  step.attempted = requests;
  step.failed = failed.load();
  step.identity_ok = Drained(before);
  return step;
}

void RunWorkload(const RunOptions& options, const StrudelCell& model,
                 const std::vector<Input>& inputs, Json* out,
                 uint64_t* attempted, uint64_t* failed) {
  if (options.workload == "serve_small") {
    RunServe(options, inputs, out, attempted, failed);
  } else if (options.workload == "bulk_ingest") {
    RunBulk(options, inputs, out, attempted, failed);
  } else {
    RunClassify(options, model, inputs, out, attempted, failed);
  }
}

}  // namespace perfbench
