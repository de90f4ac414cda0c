// pipebench: the end-to-end pipeline benchmark.
//
// Three closed-loop workloads, each driven from this one process with
// kThreads threads or clients (README.md says why each exists and why 4):
//
//   build         records and persists the 4-scenario x 6-model grid into
//                 a fresh DDRC bundle with BatchRunner::Run. One op = one
//                 grid.
//   serve_replay  an in-process CorpusServer serves a grid bundle; clients
//                 issue seeded `replay` requests over all 24 entries.
//   serve_read    clients issue seeded `verify` requests over long
//                 hypertable recordings whose decoded size is ~2x the
//                 server's chunk-cache budget.
//
// Every output is checked: grid rows and served replays against the golden
// RowSignature table, verifies against the expected entry count. A failed
// op (error, overload rejection, wrong row) counts in `failed`.
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1 is a
// separate run: the op loop untraced, then traced (the difference is the
// tracing overhead), then a fixed layer pass that calls each module's
// public functions from here, outside the library, inside spans (name,
// start, end, parent, request id), with counters taken at the same call
// sites. The spans are kept in memory, dumped when the run ends
// (--spans-out), and summarized into per-layer self times; the same
// summarizer reads a dump back with --summarize FILE.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/apps/scenarios.h"
#include "src/core/batch_runner.h"
#include "src/core/determinism_model.h"
#include "src/core/experiment.h"
#include "src/core/metrics.h"
#include "src/core/scenario_prep.h"
#include "src/server/corpus_client.h"
#include "src/server/corpus_server.h"
#include "src/sim/environment.h"
#include "src/trace/checkpoint.h"
#include "src/trace/corpus.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace ddr {
namespace {

// Threads for BatchRunner and the layer pass, and clients for the serve
// workloads. At 1 thread the thread-per-fiber simulator's cross-CPU
// wakeups dominate (README.md), so every workload runs at 4.
constexpr int kThreads = 4;
// Set-up is repeated this often per run; setup_s is the median.
constexpr int kSetupRepeats = 5;
// Closed-loop traffic before the measured window (excluded: served
// throughput settles only after the first second or two).
constexpr double kWarmupSeconds = 1.0;
// serve_read: long hypertable recordings, and a cache budget about half
// their decoded working set (8 x 67,887 events x 64 B = 33 MiB).
constexpr uint32_t kReadRowsPerClient = 1000;
constexpr int kReadEntries = 8;
constexpr uint64_t kReadCacheBytes = 16ull << 20;
// Layer passes per traced run; their deterministic counts must agree.
constexpr int kLayerPasses = 2;
// Requests in the traced run's in-process read mirror.
constexpr int kMirrorRequests = 96;
// Served window of the build workload's traced server probe.
constexpr double kBuildProbeSeconds = 1.5;
constexpr int kRpcFloorCalls = 200;
// Time slices of a measured window; every timing metric is a slice median.
constexpr int kSlices = 5;
constexpr int kCpuSampleMs = 50;

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double MaxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) {
    total += v;
  }
  return total;
}

// Runs task(i) for i in [0, count) on `threads` threads.
void RunTasks(int threads, size_t count, const std::function<void(size_t)>& task) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        task(i);
      }
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;  // "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one op share it
};

class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1); }
  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  // Call once every traced thread has joined.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{1};
};

// Times one call into the library. With a null tracer it records no span
// but still measures, so op loops share one code path traced or not.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent, uint64_t request)
      : tracer_(tracer), start_ns_(NowNs()) {
    if (tracer_ != nullptr) {
      span_.name = name;
      span_.id = tracer_->NextId();
      span_.parent = parent;
      span_.request = request;
    }
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

  // Ends the span (idempotent) and returns its duration in ms.
  double End() {
    if (end_ns_ == 0) {
      end_ns_ = NowNs();
      if (tracer_ != nullptr) {
        span_.start_ns = start_ns_;
        span_.end_ns = end_ns_;
        tracer_->Add(std::move(span_));
      }
    }
    return 1e-6 * static_cast<double>(end_ns_ - start_ns_);
  }

 private:
  Tracer* tracer_;
  Span span_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
};

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

struct SpanSummary {
  std::map<std::string, double> self_ms;  // by layer
  double total_self_ms = 0.0;
  // Self time of root spans that have children: time inside an op that no
  // layer call covers (benchmark glue between calls).
  double unattributed_ms = 0.0;
  double rooted_ms = 0.0;  // total duration of those roots
};

// A span's self time is its duration minus the part of that interval its
// children cover (children on parallel threads may overlap each other).
SpanSummary SummarizeSpans(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }
  SpanSummary summary;
  for (const Span& span : spans) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    if (auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        covered.emplace_back(std::max(child->start_ns, span.start_ns),
                             std::min(child->end_ns, span.end_ns));
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [begin, end] : covered) {
      const int64_t from = std::max(begin, cursor);
      if (end > from) {
        covered_ns += end - from;
        cursor = end;
      }
    }
    const double self_ms =
        1e-6 * static_cast<double>(span.end_ns - span.start_ns - covered_ns);
    summary.self_ms[LayerOf(span.name)] += self_ms;
    summary.total_self_ms += self_ms;
    if (span.parent == 0 && !covered.empty()) {
      summary.unattributed_ms += self_ms;
      summary.rooted_ms += 1e-6 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return summary;
}

// Dump format: one span per line, tab-separated
//   name start_ns end_ns id parent request
Status DumpSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return InternalError("cannot write span dump " + path);
  }
  for (const Span& span : spans) {
    out << span.name << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
        << span.id << '\t' << span.parent << '\t' << span.request << '\n';
  }
  out.close();
  return out ? OkStatus() : InternalError("short write to span dump " + path);
}

Result<std::vector<Span>> LoadSpans(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot read span dump " + path);
  }
  std::vector<Span> spans;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Span span;
    if (!std::getline(fields, span.name, '\t') ||
        !(fields >> span.start_ns >> span.end_ns >> span.id >> span.parent >>
          span.request)) {
      return InvalidArgumentError("malformed span line: " + line);
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

void PrintSummary(const SpanSummary& summary, FILE* out) {
  std::fprintf(out, "%-10s %12s %8s\n", "layer", "self_ms", "share");
  for (const auto& [layer, ms] : summary.self_ms) {
    std::fprintf(out, "%-10s %12.3f %7.2f%%\n", layer.c_str(), ms,
                 100.0 * ms / std::max(summary.total_self_ms, 1e-9));
  }
  std::fprintf(out, "unattributed in ops: %.3f ms of %.3f ms\n",
               summary.unattributed_ms, summary.rooted_ms);
}

// Durations (ms) of every span with this exact name.
std::vector<double> Durations(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) {
      out.push_back(1e-6 * static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness: the golden RowSignature table.
// ---------------------------------------------------------------------------

// recording name ("<scenario>/<model>") -> RowSignature.
using Golden = std::map<std::string, std::string>;

Result<Golden> LoadGolden(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot read golden table " + path);
  }
  Golden golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t first = line.find('|');
    const size_t second = line.find('|', first + 1);
    if (first == std::string::npos || second == std::string::npos) {
      return InvalidArgumentError("malformed golden row: " + line);
    }
    golden[line.substr(first + 1, second - first - 1)] = line;
  }
  if (golden.empty()) {
    return InvalidArgumentError("golden table " + path + " is empty");
  }
  return golden;
}

// Counts and reports (first few) failed checks.
class Failures {
 public:
  void Add(const std::string& what) {
    const uint64_t n = count_.fetch_add(1);
    if (n < 5) {
      std::lock_guard<std::mutex> lock(mu_);
      std::fprintf(stderr, "pipebench: FAILED %s\n", what.c_str());
    }
  }
  uint64_t count() const { return count_.load(); }

 private:
  std::mutex mu_;
  std::atomic<uint64_t> count_{0};
};

bool CheckRow(const Golden& golden, const BatchCell& cell, Failures* failures) {
  const std::string signature = RowSignature(cell);
  auto it = golden.find(cell.recording_name);
  if (it == golden.end() || it->second != signature) {
    failures->Add("row " + cell.recording_name + ": got " + signature);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Measured windows.
// ---------------------------------------------------------------------------

// Samples process CPU time every kCpuSampleMs on its own thread, so each
// time slice of a window gets its own CPU figure.
class CpuSampler {
 public:
  CpuSampler() : thread_([this] { Loop(); }) {}
  ~CpuSampler() { Stop(); }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  // Stops sampling (idempotent) and returns (time ns, CPU s) samples.
  std::vector<std::pair<int64_t, double>> Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
    return samples_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      samples_.emplace_back(NowNs(), CpuSeconds());
      if (stop_) {
        return;
      }
      wake_.wait_for(lock, std::chrono::milliseconds(kCpuSampleMs), [this] { return stop_; });
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<std::pair<int64_t, double>> samples_;
  std::thread thread_;  // last: starts once the members above exist
};

// Linear interpolation of sampled process CPU time at `at_ns`.
double CpuAt(const std::vector<std::pair<int64_t, double>>& samples, int64_t at_ns) {
  if (samples.empty()) {
    return 0.0;
  }
  auto next = std::lower_bound(samples.begin(), samples.end(), std::make_pair(at_ns, 0.0));
  if (next == samples.begin()) {
    return next->second;
  }
  if (next == samples.end()) {
    return samples.back().second;
  }
  const auto& [t0, c0] = *(next - 1);
  const auto& [t1, c1] = *next;
  return c0 + (c1 - c0) * static_cast<double>(at_ns - t0) / static_cast<double>(t1 - t0);
}

struct Window {
  std::vector<double> latencies_ms;  // failed ops count as +inf
  std::vector<int64_t> done_ns;      // completion time of each op
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<std::pair<int64_t, double>> cpu_samples;  // (time ns, CPU s)

  void Merge(const Window& other) {
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
    done_ns.insert(done_ns.end(), other.done_ns.begin(), other.done_ns.end());
    attempted += other.attempted;
    failed += other.failed;
  }
  void Record(double ms, bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
    }
    latencies_ms.push_back(ok ? ms : std::numeric_limits<double>::infinity());
    done_ns.push_back(NowNs());
  }
  double OpsPerSecond() const { return static_cast<double>(attempted) / seconds; }
  double CpuMsPerOp() const {
    return 1000.0 * cpu_seconds / std::max<double>(static_cast<double>(attempted), 1.0);
  }
  // A failed op misses any latency limit: cap +inf at the window length.
  double LatencyQuantile(double q) const {
    const double value = Quantile(latencies_ms, q);
    return std::isinf(value) ? 1000.0 * seconds : value;
  }
  // The window cut into `slices` equal spans of time by op completion.
  std::vector<Window> Slices(int slices) const {
    std::vector<Window> out(slices);
    if (done_ns.empty()) {
      return out;
    }
    const int64_t end = *std::max_element(done_ns.begin(), done_ns.end());
    const int64_t start = end - static_cast<int64_t>(seconds * 1e9);
    for (int k = 0; k < slices; ++k) {
      out[k].seconds = seconds / slices;
      const auto at = [&](int edge) {
        return start + static_cast<int64_t>(seconds * 1e9 * edge / slices);
      };
      out[k].cpu_seconds = CpuAt(cpu_samples, at(k + 1)) - CpuAt(cpu_samples, at(k));
    }
    for (size_t i = 0; i < done_ns.size(); ++i) {
      const int64_t at = std::max<int64_t>(done_ns[i] - start, 0);
      const int k = std::min<int>(slices - 1, static_cast<int>(
          static_cast<double>(at) / (seconds * 1e9) * slices));
      Window& slice = out[k];
      ++slice.attempted;
      slice.failed += std::isinf(latencies_ms[i]) ? 1 : 0;
      slice.latencies_ms.push_back(latencies_ms[i]);
    }
    return out;
  }
};

// Median over the window's time slices of `metric`: one slow stretch of a
// run (another tenant's burst) moves one slice, not the reported value.
double SliceMedian(const Window& window, const std::function<double(const Window&)>& metric) {
  std::vector<double> values;
  for (const Window& slice : window.Slices(kSlices)) {
    if (slice.attempted > 0) {
      values.push_back(metric(slice));
    }
  }
  return Median(values);
}

enum class Rpc { kReplay, kVerify };

// The expected answer to one served request.
bool CheckServed(CorpusClient& client, Rpc kind, const std::string& name,
                 const Golden& golden, Failures* failures) {
  if (kind == Rpc::kVerify) {
    auto verified = client.Verify(name);
    if (!verified.ok() || *verified != 1) {
      failures->Add("verify " + name + ": " +
                    (verified.ok() ? "wrong count" : verified.status().ToString()));
      return false;
    }
    return true;
  }
  auto cell = client.Replay(name);
  if (!cell.ok()) {
    failures->Add("replay " + name + ": " + cell.status().ToString());
    return false;
  }
  return CheckRow(golden, *cell, failures);
}

// kThreads closed-loop clients, each dealing entries from its own seeded
// deck, until `seconds` have passed.
Window ServeLoop(const std::string& socket_path, Rpc kind,
                 const std::vector<std::string>& names, const Golden& golden,
                 uint64_t seed, double seconds, Tracer* tracer,
                 Failures* failures) {
  std::vector<Window> windows(kThreads);
  std::atomic<uint64_t> next_request{1};
  CpuSampler sampler;
  const double cpu_start = CpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      Window& window = windows[c];
      auto client = CorpusClient::ConnectUnixSocket(socket_path);
      if (!client.ok()) {
        failures->Add("connect: " + client.status().ToString());
        window.Record(0.0, false);
        return;
      }
      // A seeded deck: every entry once per round, in a fresh order each
      // round, so the request mix is the same on every seed.
      Rng rng(seed * 1000003 + static_cast<uint64_t>(c));
      std::vector<size_t> deck(names.size());
      size_t dealt = deck.size();
      while (NowNs() < deadline) {
        if (dealt == deck.size()) {
          for (size_t i = 0; i < deck.size(); ++i) {
            deck[i] = i;
          }
          for (size_t i = deck.size(); i > 1; --i) {
            std::swap(deck[i - 1], deck[rng.NextBelow(i)]);
          }
          dealt = 0;
        }
        const std::string& name = names[deck[dealt++]];
        ScopedSpan span(tracer, "server.rpc", 0, next_request.fetch_add(1));
        const bool ok = CheckServed(*client, kind, name, golden, failures);
        window.Record(span.End(), ok);
      }
    });
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  Window total;
  for (const Window& window : windows) {
    total.Merge(window);
  }
  total.seconds = 1e-9 * static_cast<double>(NowNs() - start);
  total.cpu_seconds = CpuSeconds() - cpu_start;
  total.cpu_samples = sampler.Stop();
  return total;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden_path;
  std::string work_dir;
  std::string spans_out;
  bool corrupt = false;  // self-test: flip one byte of a served bundle
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One set-up (repeated kSetupRepeats times; the last one is kept).
  virtual Status Setup() = 0;
  // The closed op loop for `seconds`.
  virtual Window Run(double seconds, Tracer* tracer) = 0;
  // Stored bytes per recorded event of the bundle this workload wrote or
  // serves.
  virtual double StoredBytesPerEvent() const = 0;
  // What the traced run's read mirror and server probe look at.
  virtual const std::string& bundle() const = 0;
  virtual Rpc rpc() const = 0;
  virtual uint64_t cache_bytes() const { return DefaultChunkCacheBytes(); }
  // Whether the op loop goes through a server (build has none).
  virtual bool serves() const { return false; }
};

// File bytes of a bundle per event stored in it.
double BundleBytesPerEvent(const CorpusReader& reader) {
  uint64_t events = 0;
  for (const CorpusEntry& entry : reader.entries()) {
    events += entry.event_count;
  }
  return static_cast<double>(reader.file_size()) /
         static_cast<double>(std::max<uint64_t>(events, 1));
}

// Records the default grid at kThreads into `path` (every cell; no reading).
Status BuildGridBundle(const std::string& path) {
  BatchOptions options;
  options.threads = kThreads;
  options.corpus_path = path;
  return BatchRunner(AllBugScenarios(), options).Run().status();
}

// Flips one byte in the middle of the largest entry's image.
Status CorruptBundle(const std::string& path) {
  ASSIGN_OR_RETURN(CorpusReader reader, CorpusReader::Open(path));
  const CorpusEntry* largest = nullptr;
  for (const CorpusEntry& entry : reader.entries()) {
    if (largest == nullptr || entry.length > largest->length) {
      largest = &entry;
    }
  }
  if (largest == nullptr) {
    return InvalidArgumentError("empty bundle");
  }
  const uint64_t offset = largest->offset + largest->length / 2;
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  char byte = 0;
  file.seekg(static_cast<std::streamoff>(offset));
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  return file ? OkStatus() : InternalError("cannot corrupt " + path);
}

class BuildWorkload : public Workload {
 public:
  BuildWorkload(const Args& args, const Golden& golden, Failures* failures)
      : golden_(golden), failures_(failures), rng_(args.seed),
        bundle_(args.work_dir + "/grid.ddrc") {}

  Status Setup() override {
    scenarios_ = AllBugScenarios();
    // The first (cold) grid is part of set-up.
    Window warm;
    Op(nullptr, 0, &warm);
    return OkStatus();
  }

  Window Run(double seconds, Tracer* tracer) override {
    Window window;
    CpuSampler sampler;
    const double cpu_start = CpuSeconds();
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    for (uint64_t request = 1; NowNs() < deadline; ++request) {
      Op(tracer, request, &window);
    }
    window.seconds = 1e-9 * static_cast<double>(NowNs() - start);
    window.cpu_seconds = CpuSeconds() - cpu_start;
    window.cpu_samples = sampler.Stop();
    if (auto reader = CorpusReader::Open(bundle_); reader.ok()) {
      stored_bytes_per_event_ = BundleBytesPerEvent(*reader);
    } else {
      failures_->Add("grid bundle: " + reader.status().ToString());
    }
    return window;
  }

  double StoredBytesPerEvent() const override { return stored_bytes_per_event_; }
  const std::string& bundle() const override { return bundle_; }
  Rpc rpc() const override { return Rpc::kReplay; }

 private:
  // One grid, scenarios in a seeded order (the bundle's entry order
  // follows it; the rows do not depend on it).
  void Op(Tracer* tracer, uint64_t request, Window* window) {
    std::vector<BugScenario> order = scenarios_;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.NextBelow(i)]);
    }
    BatchOptions options;
    options.threads = kThreads;
    options.corpus_path = bundle_;
    ScopedSpan span(tracer, "core.batch", 0, request);
    auto report = BatchRunner(std::move(order), options).Run();
    const double ms = span.End();
    bool ok = report.ok() && report->cells.size() == golden_.size();
    if (!report.ok()) {
      failures_->Add("grid: " + report.status().ToString());
    } else if (!ok) {
      failures_->Add(StrPrintf("grid: %zu cells", report->cells.size()));
    }
    if (report.ok()) {
      for (const BatchCell& cell : report->cells) {
        ok &= CheckRow(golden_, cell, failures_);
      }
    }
    window->Record(ms, ok);
  }

  const Golden& golden_;
  Failures* failures_;
  Rng rng_;
  std::string bundle_;
  std::vector<BugScenario> scenarios_;
  double stored_bytes_per_event_ = 0.0;
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const Args& args, Rpc rpc, const Golden& golden, Failures* failures)
      : args_(args), rpc_(rpc), golden_(golden), failures_(failures),
        bundle_(args.work_dir + "/served.ddrc"),
        socket_path_(args.work_dir + "/serve.sock") {}

  ~ServeWorkload() override { StopServer(); }

  Status Setup() override {
    StopServer();
    RETURN_IF_ERROR(rpc_ == Rpc::kReplay ? BuildGridBundle(bundle_) : BuildReadBundle());
    if (args_.corrupt) {
      RETURN_IF_ERROR(CorruptBundle(bundle_));
    }
    ASSIGN_OR_RETURN(CorpusReader reader, CorpusReader::Open(bundle_));
    names_.clear();
    for (const CorpusEntry& entry : reader.entries()) {
      names_.push_back(entry.name);
    }
    stored_bytes_per_event_ = BundleBytesPerEvent(reader);

    CorpusServerOptions options;
    options.socket_path = socket_path_;
    options.workers = kThreads;
    options.reader.cache_bytes = cache_bytes();
    ASSIGN_OR_RETURN(server_, CorpusServer::Start(bundle_, options));

    // Every entry once: the scorer computes each scenario's prep on first
    // use, and the cache fills. Users pay this once per server.
    RunTasks(kThreads, names_.size(), [&](size_t i) {
      auto client = CorpusClient::ConnectUnixSocket(socket_path_);
      if (!client.ok()) {
        failures_->Add("connect: " + client.status().ToString());
        return;
      }
      (void)CheckServed(*client, rpc_, names_[i], golden_, failures_);
    });
    return OkStatus();
  }

  Window Run(double seconds, Tracer* tracer) override {
    return ServeLoop(socket_path_, rpc_, names_, golden_, args_.seed ^ ++round_,
                     seconds, tracer, failures_);
  }

  double StoredBytesPerEvent() const override { return stored_bytes_per_event_; }
  const std::string& bundle() const override { return bundle_; }
  Rpc rpc() const override { return rpc_; }
  uint64_t cache_bytes() const override {
    return rpc_ == Rpc::kVerify ? kReadCacheBytes : DefaultChunkCacheBytes();
  }
  bool serves() const override { return true; }

 private:
  // kReadEntries copies of one long hypertable recording under distinct
  // names: distinct cache keys, so the decoded working set is kReadEntries
  // times one recording.
  Status BuildReadBundle() {
    HtConfig config;
    config.rows_per_client = kReadRowsPerClient;
    BugScenario scenario = MakeHypertableScenario(config);
    ExperimentHarness harness(scenario);
    RETURN_IF_ERROR(harness.Prepare());
    const RecordedExecution recording = harness.Record(DeterminismModel::kPerfect);
    TraceWriteOptions options;
    options.scenario = scenario.name;
    options.original_wall_seconds = recording.original_outcome.stats.wall_seconds;
    CorpusWriter writer(bundle_);
    RETURN_IF_ERROR(writer.Begin());
    for (int i = 0; i < kReadEntries; ++i) {
      RETURN_IF_ERROR(
          writer.Add(StrPrintf("hypertable-long/%d", i), recording, options));
    }
    return writer.Finish();
  }

  void StopServer() {
    if (server_ != nullptr) {
      server_->RequestStop();
      server_->Wait();
      server_.reset();
    }
  }

  const Args& args_;
  Rpc rpc_;
  const Golden& golden_;
  Failures* failures_;
  std::string bundle_;
  std::string socket_path_;
  std::unique_ptr<CorpusServer> server_;
  std::vector<std::string> names_;
  double stored_bytes_per_event_ = 0.0;
  uint64_t round_ = 0;
};

// ---------------------------------------------------------------------------
// The traced run's fixed work.
// ---------------------------------------------------------------------------

// Counts of one layer pass. All but write_bytes must agree exactly between
// passes; write_bytes does not, because each DDRT image stamps the
// production run's wall-clock seconds into its (compressed) metadata.
struct LayerCounts {
  uint64_t sim_events = 0;
  uint64_t sim_switches = 0;
  uint64_t recorded_events = 0;
  uint64_t log_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t stored_events = 0;
  uint64_t inference_attempts = 0;
  uint64_t inference_events = 0;
  uint64_t solver_nodes = 0;
  uint64_t inference_found = 0;

  bool SameDeterministicCounts(LayerCounts other) const {
    other.write_bytes = write_bytes;
    return *this == other;
  }
  bool operator==(const LayerCounts&) const = default;
  LayerCounts& operator+=(const LayerCounts& o) {
    sim_events += o.sim_events;
    sim_switches += o.sim_switches;
    recorded_events += o.recorded_events;
    log_bytes += o.log_bytes;
    write_bytes += o.write_bytes;
    stored_events += o.stored_events;
    inference_attempts += o.inference_attempts;
    inference_events += o.inference_events;
    solver_nodes += o.solver_nodes;
    inference_found += o.inference_found;
    return *this;
  }
};

struct LayerPassResult {
  LayerCounts counts;
  double batch_span_ms = 0.0;  // prep + cell spans, summed
  double batch_wall_ms = 0.0;  // prep + cell phases, wall
};

bool IsInference(ReplayMode mode) {
  return mode == ReplayMode::kOutputOnly || mode == ReplayMode::kOutputHeavy ||
         mode == ReplayMode::kFailure;
}

// What ExperimentHarness::MakeReplayTarget builds (it is private).
ReplayTarget TargetFor(const BugScenario& scenario) {
  ReplayTarget target;
  target.make_program = scenario.make_program;
  target.env_options = scenario.env_options;
  target.candidate_fault_plans = scenario.candidate_fault_plans;
  target.input_domains = scenario.input_domains;
  target.symbolic_model = scenario.symbolic_model;
  target.world_seeds_to_try = scenario.world_seeds_to_try;
  target.sched_seeds_to_try = scenario.sched_seeds_to_try;
  return target;
}

// The deterministic fields ExperimentHarness::ReplayAndScore fills, i.e.
// everything RowSignature reads.
BatchCell ScoredCell(const BugScenario& scenario, DeterminismModel model,
                     const RecordedExecution& recording, const ReplayResult& replay,
                     const FidelityResult& fidelity) {
  BatchCell cell;
  cell.scenario = scenario.name;
  cell.recording_name = scenario.name + "/" + recording.model;
  cell.row.model = model;
  cell.row.model_name = std::string(DeterminismModelName(model));
  cell.row.overhead_multiplier = recording.OverheadMultiplier();
  cell.row.log_bytes = recording.TotalLogBytes();
  cell.row.recorded_events = recording.recorded_events;
  cell.row.failure_reproduced = replay.failure_reproduced;
  cell.row.diagnosed_cause = fidelity.diagnosed_cause;
  cell.row.divergences = replay.divergences;
  cell.row.fidelity = fidelity.value();
  cell.row.input_assignment = replay.input_assignment;
  return cell;
}

// The 4 x 6 grid through each layer's public entry points, kThreads wide
// like BatchRunner: ScenarioPrep::Compute; per cell a bare
// Environment::Run of the production execution (no recorder: the simulator
// alone), ExperimentHarness::Record, Replayer::Replay and EvaluateFidelity,
// checked against the golden rows; then CorpusWriter::Add + Finish into
// `path`.
LayerPassResult LayerPass(const Golden& golden, const std::string& path,
                          Tracer* tracer, Window* window, Failures* failures) {
  const std::vector<BugScenario> scenarios = AllBugScenarios();
  const std::vector<DeterminismModel>& models = AllDeterminismModels();
  LayerPassResult result;
  const uint64_t request = tracer->NextId();

  std::vector<std::shared_ptr<const ScenarioPrep>> preps(scenarios.size());
  const int64_t prep_start = NowNs();
  RunTasks(kThreads, scenarios.size(), [&](size_t s) {
    ScopedSpan span(tracer, "core.prep", 0, request);
    auto prep = ScenarioPrep::Compute(scenarios[s], /*include_training=*/true);
    span.End();
    if (prep.ok()) {
      preps[s] = std::make_shared<const ScenarioPrep>(std::move(*prep));
    } else {
      failures->Add("prep " + scenarios[s].name + ": " + prep.status().ToString());
    }
  });
  const int64_t prep_end = NowNs();
  for (const auto& prep : preps) {
    if (prep == nullptr) {
      window->Record(0.0, false);
      return result;
    }
  }

  const size_t cells = scenarios.size() * models.size();
  std::vector<LayerCounts> counts(cells);
  std::vector<RecordedExecution> recordings(cells);
  std::vector<char> cell_ok(cells, 0);
  const int64_t cells_start = NowNs();
  RunTasks(kThreads, cells, [&](size_t t) {
    const size_t s = t / models.size();
    const BugScenario& scenario = scenarios[s];
    const DeterminismModel model = models[t % models.size()];
    ScopedSpan cell_span(tracer, "core.cell", 0, request);
    {
      // The same production execution bare, just before Record on the same
      // thread, so Record minus this run is the recorder's own cost.
      const ScenarioPrep& prep = *preps[s];
      Environment::Options options = scenario.env_options;
      options.seed = prep.production_sched_seed;
      Environment env(options);
      std::unique_ptr<SimProgram> program =
          scenario.make_program(scenario.production_world_seed);
      ScopedSpan span(tracer, "sim.run", cell_span.id(), request);
      const Outcome outcome = env.Run(*program);
      span.End();
      counts[t].sim_events = outcome.stats.events;
      counts[t].sim_switches = outcome.stats.context_switches;
      if (outcome.trace_fingerprint != prep.production_outcome.trace_fingerprint) {
        failures->Add("bare production run of " + scenario.name + " diverged");
      }
    }
    ExperimentHarness harness(scenario, preps[s]);
    RecordedExecution& recording = recordings[t];
    {
      ScopedSpan span(tracer, "record.record", cell_span.id(), request);
      recording = harness.Record(model);
    }
    Replayer replayer(TargetFor(scenario), scenario.inference_budget);
    const ReplayMode mode = ReplayModeFor(model);
    ReplayResult replay;
    {
      ScopedSpan span(tracer, IsInference(mode) ? "replay.inference" : "replay.direct",
                      cell_span.id(), request);
      replay = replayer.Replay(recording, mode);
    }
    FidelityResult fidelity;
    {
      ScopedSpan span(tracer, "core.score", cell_span.id(), request);
      fidelity = EvaluateFidelity(scenario.catalog, replay);
    }
    cell_span.End();

    cell_ok[t] = CheckRow(golden, ScoredCell(scenario, model, recording, replay, fidelity),
                          failures);

    LayerCounts& c = counts[t];
    c.recorded_events = recording.recorded_events;
    c.log_bytes = recording.TotalLogBytes();
    if (IsInference(mode)) {
      c.inference_attempts = replay.inference.attempts;
      c.inference_events = replay.inference.total_events_simulated;
      c.solver_nodes = replay.inference.solver_nodes;
      c.inference_found = replay.inference_found ? 1 : 0;
    }
  });
  const int64_t cells_end = NowNs();

  {
    ScopedSpan span(tracer, "trace.write", 0, request);
    CorpusWriter writer(path);
    Status status = writer.Begin();
    for (size_t t = 0; t < cells && status.ok(); ++t) {
      const BugScenario& scenario = scenarios[t / models.size()];
      TraceWriteOptions options;
      options.scenario = scenario.name;
      options.original_wall_seconds =
          recordings[t].original_outcome.stats.wall_seconds;
      status = writer.Add(scenario.name + "/" + recordings[t].model,
                          recordings[t], options);
      counts[t].stored_events = recordings[t].log.size();
    }
    if (status.ok()) {
      status = writer.Finish();
    }
    if (!status.ok()) {
      failures->Add("layer-pass bundle: " + status.ToString());
    }
    result.counts.write_bytes = writer.bytes_written();
    window->Record(span.End(), status.ok());
  }

  for (size_t t = 0; t < cells; ++t) {
    result.counts += counts[t];
    window->Record(0.0, cell_ok[t] != 0);
  }
  for (const Span& span : tracer->spans()) {
    if (span.request == request &&
        (span.name == "core.prep" || span.name == "core.cell")) {
      result.batch_span_ms += 1e-6 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  result.batch_wall_ms =
      1e-6 * static_cast<double>((prep_end - prep_start) + (cells_end - cells_start));
  return result;
}

// The checkpoint half of TraceReader::Verify: recompute the index from the
// decoded log and compare it with the stored one.
bool CheckpointsRecompute(const TraceReader& trace, const EventLog& log) {
  const CheckpointIndex& stored = trace.checkpoints();
  const CheckpointIndex recomputed =
      BuildCheckpointIndex(log, stored.interval, trace.metadata().events_per_chunk,
                           stored.full_stream);
  if (recomputed.checkpoints.size() != stored.checkpoints.size()) {
    return false;
  }
  for (size_t k = 0; k < stored.checkpoints.size(); ++k) {
    if (recomputed.checkpoints[k].prefix_fingerprint !=
        stored.checkpoints[k].prefix_fingerprint) {
      return false;
    }
  }
  return true;
}

struct MirrorResult {
  uint64_t decoded_events = 0;
  uint64_t disk_bytes = 0;
  uint64_t requests = 0;
  ChunkCacheStats cache;             // over the measured requests only
  std::vector<double> inprocess_ms;  // the in-process equivalent of one RPC
};

// The workload's requests, in process, kThreads wide, against a reader
// with the server's cache budget: CorpusReader::OpenTrace, then the decode
// through the shared cache (TraceReader::ReadAllEvents for verify,
// ReadRecordedExecution for replay), then what the server does next —
// for verify the checkpoint recompute TraceReader::Verify runs
// (BuildCheckpointIndex), for replay Replayer::Replay and EvaluateFidelity,
// the calls CorpusEntryScorer::ScoreEntry makes. One untimed pass over
// every entry warms the cache first, as the served loop's warm-up does.
MirrorResult ReadMirror(const Workload& workload, const Golden& golden,
                        uint64_t seed, Tracer* tracer, Window* window,
                        Failures* failures) {
  MirrorResult result;
  CorpusReaderOptions reader_options;
  reader_options.cache_bytes = workload.cache_bytes();
  auto reader = CorpusReader::Open(workload.bundle(), reader_options);
  if (!reader.ok()) {
    failures->Add("mirror open: " + reader.status().ToString());
    window->Record(0.0, false);
    return result;
  }
  const std::vector<CorpusEntry>& entries = reader->entries();
  const bool replay = workload.rpc() == Rpc::kReplay;
  std::map<std::string, BugScenario> scenarios;
  for (BugScenario& scenario : AllBugScenarios()) {
    scenarios.emplace(scenario.name, std::move(scenario));
  }

  // One request; spans only when `traced`. Returns whether it checked out.
  const auto serve_one = [&](const CorpusEntry& entry, bool traced,
                             double* inprocess_ms, uint64_t* decoded) {
    Tracer* t = traced ? tracer : nullptr;
    const uint64_t request = tracer->NextId();
    ScopedSpan root(t, "core.request", 0, request);
    std::optional<TraceReader> trace;
    {
      ScopedSpan span(t, "trace.read.open", root.id(), request);
      auto opened = reader->OpenTrace(entry);
      *inprocess_ms += span.End();
      if (!opened.ok()) {
        return false;
      }
      trace.emplace(std::move(*opened));
    }
    if (!replay) {
      ScopedSpan decode_span(t, "trace.read.decode", root.id(), request);
      auto log = trace->ReadAllEvents();
      *inprocess_ms += decode_span.End();
      if (!log.ok()) {
        return false;
      }
      *decoded = log->size();
      ScopedSpan span(t, "trace.read.checkpoint", root.id(), request);
      const bool good = CheckpointsRecompute(*trace, *log);
      *inprocess_ms += span.End();
      return good;
    }
    ScopedSpan decode_span(t, "trace.read.decode", root.id(), request);
    auto recording = trace->ReadRecordedExecution();
    *inprocess_ms += decode_span.End();
    auto model = ParseDeterminismModel(entry.model);
    auto scenario = scenarios.find(entry.scenario);
    if (!recording.ok() || !model.ok() || scenario == scenarios.end()) {
      return false;
    }
    *decoded = recording->log.size();
    {
      // Not part of a served replay (so not in *inprocess_ms), but every
      // traced run reports trace.read.checkpoint_recompute_ms.
      ScopedSpan span(t, "trace.read.checkpoint", root.id(), request);
      if (!CheckpointsRecompute(*trace, recording->log)) {
        return false;
      }
    }
    const BugScenario& s = scenario->second;
    const ReplayMode mode = ReplayModeFor(*model);
    ReplayResult replayed;
    {
      ScopedSpan span(t, IsInference(mode) ? "replay.inference" : "replay.direct",
                      root.id(), request);
      replayed = Replayer(TargetFor(s), s.inference_budget).Replay(*recording, mode);
      *inprocess_ms += span.End();
    }
    FidelityResult fidelity;
    {
      ScopedSpan span(t, "core.score", root.id(), request);
      fidelity = EvaluateFidelity(s.catalog, replayed);
      *inprocess_ms += span.End();
    }
    BatchCell cell = ScoredCell(s, *model, *recording, replayed, fidelity);
    cell.recording_name = entry.name;
    return CheckRow(golden, cell, failures);
  };

  RunTasks(kThreads, entries.size(), [&](size_t i) {
    double ms = 0.0;
    uint64_t decoded = 0;
    (void)serve_one(entries[i], /*traced=*/false, &ms, &decoded);
  });
  Rng rng(seed ^ 0x6d6972726f72ull);
  std::vector<size_t> picks(kMirrorRequests);
  for (size_t& pick : picks) {
    pick = rng.NextBelow(entries.size());
  }
  std::vector<double> inprocess(picks.size(), 0.0);
  std::vector<uint64_t> decoded(picks.size(), 0);
  std::vector<char> ok(picks.size(), 0);
  const uint64_t bytes_before = reader->bytes_read();
  const ChunkCacheStats cache_before = reader->cache_stats();
  RunTasks(kThreads, picks.size(), [&](size_t i) {
    ok[i] = serve_one(entries[picks[i]], /*traced=*/true, &inprocess[i], &decoded[i]);
    if (!ok[i]) {
      failures->Add("mirror request " + entries[picks[i]].name);
    }
  });
  result.disk_bytes = reader->bytes_read() - bytes_before;
  result.cache = reader->cache_stats();
  result.cache.hits -= cache_before.hits;
  result.cache.misses -= cache_before.misses;
  result.cache.evictions -= cache_before.evictions;
  result.requests = picks.size();
  result.inprocess_ms = inprocess;
  for (size_t i = 0; i < picks.size(); ++i) {
    result.decoded_events += decoded[i];
    window->Record(inprocess[i], ok[i] != 0);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(std::isfinite(value) ? value : 0.0, unit));
  }
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out += StrPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                       metrics_[i].second.first, metrics_[i].second.second.c_str());
    }
    return out + "}";
  }
  void Print(FILE* out) const {
    for (const auto& [name, value] : metrics_) {
      std::fprintf(out, "  %-40s %16.6g %s\n", name.c_str(), value.first,
                   value.second.c_str());
    }
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload build|serve_replay|serve_read --seed N\n"
               "                 --seconds S --trace 0|1 --golden FILE --work-dir DIR\n"
               "                 [--spans-out FILE] [--corrupt]\n"
               "       pipebench --write-golden FILE\n"
               "       pipebench --summarize SPAN_DUMP\n");
  return 2;
}

// Records the grid once and writes its RowSignature table.
int WriteGolden(const std::string& path) {
  BatchOptions options;
  options.threads = kThreads;
  auto report = BatchRunner(AllBugScenarios(), options).Run();
  if (!report.ok()) {
    std::fprintf(stderr, "pipebench: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::ofstream out(path, std::ios::trunc);
  out << "# RowSignature of every cell of the default 4-scenario x 6-model grid\n"
         "# (src/core/batch_runner.h). Regenerate: pipebench --write-golden FILE\n";
  for (const BatchCell& cell : report->cells) {
    out << RowSignature(cell) << '\n';
  }
  out.close();
  return out ? 0 : 1;
}

int Summarize(const std::string& path) {
  auto spans = LoadSpans(path);
  if (!spans.ok()) {
    std::fprintf(stderr, "pipebench: %s\n", spans.status().ToString().c_str());
    return 1;
  }
  PrintSummary(SummarizeSpans(*spans), stdout);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--golden") {
      args.golden_path = value();
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--spans-out") {
      args.spans_out = value();
    } else if (flag == "--corrupt") {
      args.corrupt = true;
    } else if (flag == "--write-golden") {
      return WriteGolden(value());
    } else if (flag == "--summarize") {
      return Summarize(value());
    } else {
      return Usage();
    }
  }
  if (args.work_dir.empty() || args.golden_path.empty() || !(args.seconds > 0)) {
    return Usage();
  }
  auto golden = LoadGolden(args.golden_path);
  if (!golden.ok()) {
    std::fprintf(stderr, "pipebench: %s\n", golden.status().ToString().c_str());
    return 1;
  }

  Failures failures;
  std::unique_ptr<Workload> workload;
  if (args.workload == "build") {
    workload = std::make_unique<BuildWorkload>(args, *golden, &failures);
  } else if (args.workload == "serve_replay" || args.workload == "serve_read") {
    workload = std::make_unique<ServeWorkload>(
        args, args.workload == "serve_replay" ? Rpc::kReplay : Rpc::kVerify,
        *golden, &failures);
  } else {
    return Usage();
  }

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    if (Status status = workload->Setup(); !status.ok()) {
      std::fprintf(stderr, "pipebench: set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setup_s.push_back(1e-9 * static_cast<double>(NowNs() - start));
  }
  (void)workload->Run(kWarmupSeconds, nullptr);
  // Checks that failed before the measured windows (set-up, warm-up).
  const uint64_t setup_failures = failures.count();
  // Every checked op after that.
  Window checked;

  MetricSet metrics;
  if (!args.trace) {
    const Window window = workload->Run(args.seconds, nullptr);
    checked.Merge(window);
    const double ops = static_cast<double>(window.attempted);
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("ops_per_s",
                SliceMedian(window, [](const Window& w) { return w.OpsPerSecond(); }),
                "1/s");
    metrics.Add("latency_p50_ms",
                SliceMedian(window, [](const Window& w) { return w.LatencyQuantile(0.50); }),
                "ms");
    metrics.Add("latency_p90_ms",
                SliceMedian(window, [](const Window& w) { return w.LatencyQuantile(0.90); }),
                "ms");
    metrics.Add("latency_p99_ms",
                SliceMedian(window, [](const Window& w) { return w.LatencyQuantile(0.99); }),
                "ms");
    metrics.Add("success_ratio",
                1.0 - static_cast<double>(window.failed) / std::max(ops, 1.0), "ratio");
    metrics.Add("cpu_ms_per_op",
                SliceMedian(window, [](const Window& w) { return w.CpuMsPerOp(); }), "ms");
    metrics.Add("max_rss_mb", MaxRssMb(), "MB");
    metrics.Add("stored_bytes_per_event", workload->StoredBytesPerEvent(), "B/event");
    std::fprintf(stderr, "pipebench: %s seed %llu: %llu ops in %.2f s\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(window.attempted), window.seconds);
  } else {
    Tracer tracer;
    // Untraced then traced op loops of equal length.
    const Window untraced = workload->Run(args.seconds / 2, nullptr);
    const Window traced = workload->Run(args.seconds / 2, &tracer);
    checked.Merge(untraced);
    checked.Merge(traced);
    const size_t loop_spans = tracer.spans().size();

    // Fixed work: the layer pass (twice; counts must agree), then the read
    // mirror of this workload's requests.
    LayerPassResult layers;
    std::vector<LayerCounts> pass_counts;
    for (int pass = 0; pass < kLayerPasses; ++pass) {
      const LayerPassResult result =
          LayerPass(*golden, args.work_dir + "/layers.ddrc", &tracer, &checked, &failures);
      pass_counts.push_back(result.counts);
      layers.batch_span_ms += result.batch_span_ms;
      layers.batch_wall_ms += result.batch_wall_ms;
      layers.counts = result.counts;
    }
    uint64_t write_bytes_jitter = 0;
    for (const LayerCounts& counts : pass_counts) {
      checked.Record(0.0, counts.SameDeterministicCounts(pass_counts.front()));
      if (!counts.SameDeterministicCounts(pass_counts.front())) {
        failures.Add("deterministic counts differ between layer passes");
      }
      const uint64_t a = counts.write_bytes;
      const uint64_t b = pass_counts.front().write_bytes;
      write_bytes_jitter = std::max(write_bytes_jitter, a > b ? a - b : b - a);
    }
    const MirrorResult mirror =
        ReadMirror(*workload, *golden, args.seed, &tracer, &checked, &failures);

    // Server probe: served p50 (the untraced loop's; build serves its last
    // grid bundle for a short window), the info round trip, and counters.
    std::unique_ptr<CorpusServer> probe_server;
    std::string socket_path = args.work_dir + "/serve.sock";
    double served_p50 = untraced.LatencyQuantile(0.5);
    if (!workload->serves()) {
      CorpusServerOptions options;
      options.socket_path = args.work_dir + "/probe.sock";
      options.workers = kThreads;
      auto started = CorpusServer::Start(workload->bundle(), options);
      if (!started.ok()) {
        std::fprintf(stderr, "pipebench: probe server: %s\n",
                     started.status().ToString().c_str());
        return 1;
      }
      probe_server = std::move(*started);
      socket_path = options.socket_path;
      std::vector<std::string> names;
      for (const auto& [name, row] : *golden) {
        names.push_back(name);
      }
      (void)ServeLoop(socket_path, Rpc::kReplay, names, *golden, args.seed,
                      kWarmupSeconds, nullptr, &failures);
      const Window served = ServeLoop(socket_path, Rpc::kReplay, names, *golden,
                                      args.seed, kBuildProbeSeconds, nullptr, &failures);
      checked.Merge(served);
      served_p50 = served.LatencyQuantile(0.5);
    }
    std::vector<double> info_us;
    ServeStats stats;
    {
      auto client = CorpusClient::ConnectUnixSocket(socket_path);
      bool ok = client.ok();
      for (int i = 0; ok && i < kRpcFloorCalls; ++i) {
        const int64_t start = NowNs();
        ok = client->Info().ok();
        info_us.push_back(1e-3 * static_cast<double>(NowNs() - start));
      }
      auto fetched = ok ? client->Stats() : Result<ServeStats>(UnavailableError("no client"));
      ok = ok && fetched.ok();
      if (ok) {
        stats = *fetched;
      } else {
        failures.Add("server probe");
      }
      checked.Record(0.0, ok);
    }
    probe_server.reset();

    const std::vector<Span>& spans = tracer.spans();
    const std::vector<Span> fixed(spans.begin() + static_cast<ptrdiff_t>(loop_spans),
                                  spans.end());
    const SpanSummary summary = SummarizeSpans(fixed);
    const LayerCounts& c = layers.counts;
    const double passes = kLayerPasses;
    const double sim_ms = Sum(Durations(fixed, "sim.run"));
    const double record_ms = Sum(Durations(fixed, "record.record"));
    const std::vector<double> decode_ms = Durations(fixed, "trace.read.decode");
    const double cells = static_cast<double>(golden->size());

    metrics.Add("sim.ns_per_event", 1e6 * sim_ms / (passes * c.sim_events), "ns");
    metrics.Add("sim.us_per_switch", 1e3 * sim_ms / (passes * c.sim_switches), "us");
    metrics.Add("sim.events", static_cast<double>(c.sim_events), "count");
    metrics.Add("sim.context_switches", static_cast<double>(c.sim_switches), "count");
    metrics.Add("record.overhead_ms", (record_ms - sim_ms) / (passes * cells), "ms");
    metrics.Add("record.events_recorded", static_cast<double>(c.recorded_events), "count");
    metrics.Add("record.log_bytes", static_cast<double>(c.log_bytes), "B");
    metrics.Add("core.prep.ms", Sum(Durations(fixed, "core.prep")) / passes, "ms");
    metrics.Add("core.batch.speedup", layers.batch_span_ms / layers.batch_wall_ms, "x");
    metrics.Add("core.score.ms", Median(Durations(fixed, "core.score")), "ms");
    metrics.Add("trace.write.ms", Sum(Durations(fixed, "trace.write")) / passes, "ms");
    metrics.Add("trace.write.bytes", static_cast<double>(c.write_bytes), "B");
    metrics.Add("trace.write.bytes_per_event",
                static_cast<double>(c.write_bytes) / static_cast<double>(c.stored_events),
                "B/event");
    metrics.Add("trace.write.bytes_jitter", static_cast<double>(write_bytes_jitter), "B");
    metrics.Add("trace.read.open_ms", Median(Durations(fixed, "trace.read.open")), "ms");
    metrics.Add("trace.read.decode_ms", Median(decode_ms), "ms");
    metrics.Add("trace.read.mevents_per_s",
                1e-3 * static_cast<double>(mirror.decoded_events) / Sum(decode_ms),
                "Mev/s");
    metrics.Add("trace.read.disk_bytes",
                static_cast<double>(mirror.disk_bytes) / static_cast<double>(mirror.requests),
                "B/req");
    metrics.Add("trace.read.checkpoint_recompute_ms",
                Median(Durations(fixed, "trace.read.checkpoint")), "ms");
    metrics.Add("trace.cache.hit_rate", mirror.cache.hit_rate(), "ratio");
    metrics.Add("trace.cache.evictions", static_cast<double>(mirror.cache.evictions), "count");
    metrics.Add("replay.direct.ms", Median(Durations(fixed, "replay.direct")), "ms");
    metrics.Add("replay.inference.ms", Median(Durations(fixed, "replay.inference")), "ms");
    metrics.Add("replay.inference.attempts", static_cast<double>(c.inference_attempts), "count");
    metrics.Add("replay.inference.events_simulated", static_cast<double>(c.inference_events),
                "count");
    metrics.Add("replay.inference.solver_nodes", static_cast<double>(c.solver_nodes), "count");
    metrics.Add("replay.inference.attempts_per_found",
                static_cast<double>(c.inference_attempts) /
                    static_cast<double>(std::max<uint64_t>(c.inference_found, 1)),
                "ratio");
    metrics.Add("server.overhead_ms", served_p50 - Median(mirror.inprocess_ms), "ms");
    metrics.Add("server.rpc_floor_us", Median(info_us), "us");
    metrics.Add("server.overload_rejections", static_cast<double>(stats.overload_rejections),
                "count");
    metrics.Add("server.bytes_served",
                static_cast<double>(stats.bytes_served) /
                    static_cast<double>(std::max<uint64_t>(stats.requests_total, 1)),
                "B/req");
    metrics.Add("tracing.overhead_pct",
                100.0 * (untraced.OpsPerSecond() / traced.OpsPerSecond() - 1.0),
                "%");
    for (const char* layer : {"sim", "record", "core", "trace", "replay"}) {
      const auto it = summary.self_ms.find(layer);
      metrics.Add(StrPrintf("self.%s.pct", layer),
                  100.0 * (it == summary.self_ms.end() ? 0.0 : it->second) /
                      summary.total_self_ms,
                  "%");
    }
    metrics.Add("self.unattributed.pct",
                100.0 * summary.unattributed_ms / std::max(summary.rooted_ms, 1e-9), "%");

    PrintSummary(summary, stderr);
    if (!args.spans_out.empty()) {
      if (Status dumped = DumpSpans(spans, args.spans_out); !dumped.ok()) {
        std::fprintf(stderr, "pipebench: %s\n", dumped.ToString().c_str());
      }
    }
  }
  metrics.Print(stderr);
  // A failed check that belongs to no op (a diverged bare run, an
  // unreadable bundle) still fails the run.
  const uint64_t failed =
      std::max<uint64_t>(setup_failures + checked.failed, failures.count() > 0 ? 1 : 0);
  PrintResult(failures.count() == 0,
              std::max<uint64_t>(setup_failures + checked.attempted, failed), failed,
              metrics);
  return 0;
}

}  // namespace
}  // namespace ddr

int main(int argc, char** argv) { return ddr::Main(argc, argv); }
