//===- Bench.cpp - Shared pieces of the npral-bench harness ---------------===//

#include "Bench.h"

#include "trace/TraceValidator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <sys/resource.h>
#include <time.h>

using namespace npral;
using namespace npral::bench;

void Result::fail(const std::string &Why) {
  Correct = false;
  std::cerr << "npral-bench: check failed: " << Why << "\n";
}

int64_t bench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t bench::threadCpuNs() {
  struct timespec TS;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return static_cast<int64_t>(TS.tv_sec) * 1000000000 + TS.tv_nsec;
}

double bench::seconds(int64_t Ns) { return static_cast<double>(Ns) / 1e9; }
double bench::millis(int64_t Ns) { return static_cast<double>(Ns) / 1e6; }

double bench::peakRssMiB() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

double bench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

Tail bench::tailPercentile(std::vector<double> V, int64_t MinBeyond) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  const int64_t N = static_cast<int64_t>(V.size());
  // Nearest-rank: the sample at index N-1-MinBeyond has MinBeyond samples
  // above it; with too few samples for that, report the maximum.
  const int64_t Idx = N > MinBeyond ? N - 1 - MinBeyond : N - 1;
  T.Value = V[static_cast<size_t>(Idx)];
  T.Beyond = N - 1 - Idx;
  T.Percentile = 100.0 * static_cast<double>(Idx + 1) / static_cast<double>(N);
  return T;
}

double bench::medianSetup(const std::vector<int64_t> &Ns) {
  std::vector<double> S;
  for (int64_t X : Ns)
    S.push_back(seconds(X));
  return median(S);
}

void EndToEnd::emit(Result &Res) const {
  std::vector<double> P50, TailMs, Pct, Beyond;
  for (const std::vector<double> &Slice : OpMsSlices) {
    const Tail T = tailPercentile(Slice);
    P50.push_back(median(Slice));
    TailMs.push_back(T.Value);
    Pct.push_back(T.Percentile);
    Beyond.push_back(static_cast<double>(T.Beyond));
  }
  std::printf("op_tail_ms is p%.2f with %.0f samples beyond it (medians over "
              "%zu slices)\n",
              median(Pct), median(Beyond), OpMsSlices.size());
  Res.add("setup_s", SetupS, "s");
  Res.add("ops_per_s", OpsPerS, "ops/s");
  Res.add("op_p50_ms", median(P50), "ms");
  Res.add("op_tail_ms", median(TailMs), "ms");
  Res.add("proved_frac", ProvedFrac, "ratio");
  Res.add("code_instrs", static_cast<double>(CodeInstrs), "count");
  Res.add("sim_iters_per_kcycle", SimItersPerKcycle, "iter/kcycle");
  Res.add("sim_minstr_per_s", SimMinstrPerS, "Minstr/s");
  Res.add("peak_rss_mb", peakRssMiB(), "MiB");
}

double bench::itersPerKcycle(int64_t Iters, int64_t Cycles) {
  return Cycles > 0 ? 1000.0 * static_cast<double>(Iters) /
                          static_cast<double>(Cycles)
                    : 0;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
thread_local int64_t OpenSpan = 0;
} // namespace

ScopedSpan::ScopedSpan(SpanRecorder &Rec, const char *Name, int64_t Op,
                       int Tid)
    : R(Rec) {
  if (!R.Enabled)
    return;
  S.Name = Name;
  S.Op = Op;
  S.Tid = Tid;
  S.Id = R.NextId.fetch_add(1, std::memory_order_relaxed);
  S.Parent = OpenSpan;
  SavedParent = OpenSpan;
  OpenSpan = S.Id;
  S.StartNs = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!R.Enabled)
    return;
  S.EndNs = nowNs();
  OpenSpan = SavedParent;
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Spans.push_back(std::move(S));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

std::string SpanRecorder::chromeJSON() const {
  std::vector<Span> All = spans();
  std::sort(All.begin(), All.end(), [](const Span &A, const Span &B) {
    return A.StartNs != B.StartNs ? A.StartNs < B.StartNs : A.Id < B.Id;
  });
  const int64_t T0 = All.empty() ? 0 : All.front().StartNs;
  std::ostringstream OS;
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char Buf[96];
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    OS << "{\"name\": \"" << S.Name << "\", \"cat\": \"npral-bench\", "
       << "\"ph\": \"X\", ";
    std::snprintf(Buf, sizeof(Buf), "\"ts\": %.3f, \"dur\": %.3f, ",
                  static_cast<double>(S.StartNs - T0) / 1e3,
                  static_cast<double>(S.EndNs - S.StartNs) / 1e3);
    OS << Buf << "\"pid\": 1, \"tid\": " << S.Tid << ", \"args\": {\"id\": "
       << S.Id << ", \"parent\": " << S.Parent << ", \"op\": " << S.Op
       << "}}" << (I + 1 < All.size() ? ",\n" : "\n");
  }
  OS << "]}\n";
  return OS.str();
}

void bench::exportTrace(const SpanRecorder &R, const Options &O,
                        Result &Res) {
  const std::string JSON = R.chromeJSON();
  // Relative to the checkout root. One file per workload: each traced run
  // replaces the previous trace.
  const std::string Dir = ".bench_build/npral-bench/out";
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  const std::string Path = Dir + "/trace-" + O.Workload + ".json";
  std::ofstream F(Path);
  F << JSON;
  F.close();
  if (!F)
    Res.fail("cannot write trace file " + Path);
  if (Status St = validateChromeTrace(JSON); !St.ok())
    Res.fail("span trace does not validate: " + St.str());
  Res.add("trace.spans", static_cast<double>(R.spans().size()), "count");
}

//===----------------------------------------------------------------------===//
// Per-layer metric catalogue
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &
bench::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> List = {
      {"asmparse.parse_ms", "ms"},
      {"asmparse.roundtrip_ok_ratio", "ratio"},
      {"analysis.rename_ms", "ms"},
      {"analysis.liveness_ms", "ms"},
      {"analysis.nsr_ms", "ms"},
      {"analysis.bundle_ms", "ms"},
      {"analysis.instrs", "count"},
      {"analysis.live_ranges", "count"},
      {"alloc.inter_ms", "ms"},
      {"alloc.infeasible_ms", "ms"},
      {"alloc.reduction_steps", "count"},
      {"alloc.recolor_probes", "count"},
      {"alloc.nsr_exclusions", "count"},
      {"alloc.block_splits", "count"},
      {"alloc.fragment_fallbacks", "count"},
      {"alloc.fragment_fallback_ratio", "ratio"},
      {"alloc.moves_inserted", "count"},
      {"alloc.verify_ms", "ms"},
      {"harden.spill_ms", "ms"},
      {"harden.spill_attempts", "count"},
      {"harden.spill_mem_ops", "count"},
      {"harden.spilled_ranges", "count"},
      {"lint.validate_ms", "ms"},
      {"lint.instrs_matched", "count"},
      {"driver.cache_hit_ratio", "ratio"},
      {"driver.cache_evictions", "count"},
      {"driver.pool_busy_ratio", "ratio"},
      {"serve.overhead_ms", "ms"},
      {"serve.protocol_ms", "ms"},
      {"serve.shed_ratio", "ratio"},
      {"sim.run_ms", "ms"},
      {"sim.instrs", "count"},
      {"sim.cycles", "count"},
      {"sim.idle_ratio", "ratio"},
      {"sim.ctx_switches", "count"},
      {"grid.run_ms", "ms"},
      {"grid.alloc_ms", "ms"},
      {"grid.placement_ms", "ms"},
      {"grid.interconnect_stall_cycles", "count"},
      {"grid.messages", "count"},
      {"trace.ops", "count"},
      {"trace.spans", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.accounted_ratio", "ratio"},
      {"trace.tail_alloc_spill_share", "ratio"},
  };
  return List;
}

void bench::completePerLayer(Result &Res) {
  std::map<std::string, Metric> Have;
  for (const Metric &M : Res.Metrics)
    Have[M.Name] = M;
  std::vector<Metric> Out;
  for (const auto &[Name, Unit] : perLayerMetrics()) {
    auto It = Have.find(Name);
    Out.push_back(It != Have.end() ? It->second : Metric{Name, 0.0, Unit});
  }
  Res.Metrics = std::move(Out);
}
