//===- Bench.h - Shared pieces of the npral-bench harness -------*- C++ -*-===//
///
/// \file
/// Options, result record, statistics and the span recorder shared by the
/// three workloads (tight-fuzz, serve-mix, ara-grid).
///
/// Every workload runs in one of two modes:
///  * timed (--trace 0): drive the entry point users call (runBatch, the
///    serve daemon, runKernelPoolGrid) in a closed loop for --seconds and
///    report the end-to-end metrics;
///  * traced (--trace 1): call each layer's public functions on the same
///    inputs, record one span per call, and derive the per-layer metrics
///    from those spans.
/// Both modes check every output and fail the run on a wrong one.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_BENCH_BENCH_H
#define NPRAL_BENCH_BENCH_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace npral {
namespace bench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Result {
  bool Correct = true;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Record a correctness failure; the message goes to stderr.
  void fail(const std::string &Why);
};

int64_t nowNs();
/// CPU time of the calling thread. Simulator speed is timed with it, so
/// that time the host takes the CPU away (steal, preemption) does not
/// count as simulation.
int64_t threadCpuNs();
double seconds(int64_t Ns);
double millis(int64_t Ns);
/// Peak resident set size of this process, MiB.
double peakRssMiB();

double median(std::vector<double> V);

/// The op-latency tail: the highest percentile that still has at least
/// \p MinBeyond samples above it (nearest-rank), e.g. p99 at 1000 samples.
/// With no more than \p MinBeyond samples it is the maximum.
struct Tail {
  double Percentile = 0; ///< In percent, e.g. 99.0.
  double Value = 0;
  int64_t Beyond = 0;
};
Tail tailPercentile(std::vector<double> V, int64_t MinBeyond = 10);

/// Median of the set-up repetitions, as setup_s.
double medianSetup(const std::vector<int64_t> &Ns);

/// Simulated iterations per 1000 cycles (sim_iters_per_kcycle).
double itersPerKcycle(int64_t Iters, int64_t Cycles);

/// tight-fuzz and serve-mix time the simulator on warm runs of their
/// allocated programs (timeSimulation), in passes repeated at least
/// SimTimingPasses times and for SimTimingNs; sim_minstr_per_s is the
/// median pass. One pass simulates for a few tens of milliseconds, too
/// short to time alone.
constexpr int SimTimingPasses = 5;
constexpr int64_t SimTimingNs = 3'000'000'000;

/// The end-to-end metrics every workload reports (BENCHMARK.json).
struct EndToEnd {
  double SetupS = 0;
  double OpsPerS = 0;
  /// Op latencies, one vector per measurement slice. op_p50_ms and
  /// op_tail_ms are the medians over slices of each slice's p50 and tail.
  std::vector<std::vector<double>> OpMsSlices;
  double ProvedFrac = 0;
  int64_t CodeInstrs = 0;
  double SimItersPerKcycle = 0;
  double SimMinstrPerS = 0;

  /// Add the metrics (and peak_rss_mb) to \p Res; prints which percentile
  /// op_tail_ms is.
  void emit(Result &Res) const;
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded layer call.
struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int64_t Id = 0;
  int64_t Parent = 0; ///< 0 = top level.
  int64_t Op = 0;     ///< Op the call belongs to.
  int Tid = 0;
};

/// In-memory span store. Spans are appended under a mutex (the traced runs
/// use two worker threads) and written out once at exit. Disabled recorders
/// never read the clock, so the same layer code serves the untraced
/// overhead reference.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON ('X' events, one track per worker thread).
  std::string chromeJSON() const;

private:
  friend class ScopedSpan;
  bool Enabled;
  std::atomic<int64_t> NextId{1};
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span: parent is the innermost open span of this thread.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, const char *Name, int64_t Op, int Tid);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Record the span under \p Name instead, e.g. once the call's outcome
  /// is known.
  void rename(const char *Name) {
    if (R.Enabled)
      S.Name = Name;
  }

private:
  SpanRecorder &R;
  Span S;
  int64_t SavedParent = 0;
};

/// Write \p R's spans as a Chrome trace under .bench_build/npral-bench/out,
/// check the file with the repository's TraceValidator, and add
/// trace.spans. Fails \p Res if the trace does not validate.
void exportTrace(const SpanRecorder &R, const Options &O, Result &Res);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

Result runTightFuzz(const Options &O);
Result runServeMix(const Options &O);
Result runAraGrid(const Options &O);

/// Per-layer metric names every traced run reports, in output order; a
/// workload that does not exercise a layer reports 0 for its metrics.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Fill every per-layer metric missing from \p Res with 0 and order them as
/// perLayerMetrics() lists them.
void completePerLayer(Result &Res);

} // namespace bench
} // namespace npral

#endif // NPRAL_BENCH_BENCH_H
