//===- ServeMix.cpp - serve-mix: the serve daemon in a closed loop -------===//
//
// Two client connections in a closed loop against an in-process Server
// (2 workers, Validate on every request, Nreg 128) over its Unix socket.
// Each request is either a 2-4 thread mix of the paper's 11 kernels at
// distinct memory slots 0-3, or one of the allocator-input programs of
// examples/asm, from a fixed pool; the seed shuffles the request stream.
// Every request is equally popular: the stream is rounds of the whole pool,
// each round in its own order. A repeated request reads the analysis cache
// and a request whose threads were evicted writes to it again; the cache
// budget is half the working set, so writes evict.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"

#include "analysis/LiveRangeRenaming.h"
#include "asmparse/AsmParser.h"
#include "driver/AnalysisCache.h"
#include "driver/BatchPipeline.h"
#include "ir/IRPrinter.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "workloads/Harness.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace npral;
using namespace npral::bench;

namespace {

constexpr int KernelMixes = 48;
constexpr uint64_t PoolSeed = 0x5E57E;
/// The stream holds every pool request this many times.
constexpr int StreamRounds = 16;
constexpr int Clients = 2;
constexpr int ServerWorkers = 2;
constexpr int Nreg = 128;
constexpr int SetupRepeats = 5;
/// The timed loop's window is cut into this many equal slices.
constexpr int TimeSlices = 10;
/// Timing runs of kernel mixes go this many times the check's iterations,
/// so that simulating, not setting up the fresh simulators, is most of a
/// timing pass.
constexpr int TimingIterationScale = 10;

/// The allocator-input programs of examples/asm (the bad_* and lint_*
/// fixtures are checker inputs, not allocator inputs).
const char *const Examples[] = {
    "crc_fold",      "fig3_paper",  "hash_probe",     "header_split",
    "modular_kernel", "packet_filter", "quad_counters", "ring_handoff",
    "scratch_mailbox", "token_bucket", "ttl_rewrite",  "two_threads"};

struct Request {
  std::string Name;
  std::string Text;
  /// Kernel workloads (memory images for the simulation check); empty for
  /// an example program.
  std::vector<Workload> Kernels;
  MultiThreadProgram Virtual;
};

struct Inputs {
  std::vector<Request> Pool;
  /// Pool indices in request order.
  std::vector<int> Stream;
  int64_t CacheBytes = 0;
  int64_t WorkingSetBytes = 0;
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream F(Path);
  if (!F)
    return false;
  std::ostringstream SS;
  SS << F.rdbuf();
  Out = SS.str();
  return true;
}

Inputs makeInputs(uint64_t Seed, Result &Res) {
  Inputs In;
  // The request pool is fixed; the seed shuffles the request stream. With
  // a pool drawn per seed, op_p50_ms and sim_minstr_per_s followed each
  // seed's kernel combinations and spread by about a third over ten seeds.
  // The mixes deal their kernels from a deck that holds the 11 kernels
  // equally often, never one kernel twice in a mix.
  Rng R(PoolSeed);
  const std::vector<std::string> &Names = getWorkloadNames();
  {
    std::vector<std::string> Deck;
    for (int M = 0; M < KernelMixes; ++M)
      for (int T = 0; T < 2 + M % 3; ++T)
        Deck.push_back(Names[Deck.size() % Names.size()]);
    for (size_t I = Deck.size() - 1; I > 0; --I)
      std::swap(Deck[I], Deck[R.nextBelow(I + 1)]);
    for (int M = 0; M < KernelMixes; ++M) {
      Request Q;
      int Slots[4] = {0, 1, 2, 3};
      for (int I = 3; I > 0; --I)
        std::swap(Slots[I], Slots[R.nextBelow(static_cast<uint64_t>(I + 1))]);
      Q.Name = "mix" + std::to_string(M);
      std::vector<std::string> Mix;
      for (int T = 0; T < 2 + M % 3; ++T) {
        // The next card whose kernel the mix does not hold yet.
        auto It = std::find_if(Deck.begin(), Deck.end(), [&](const auto &K) {
          return std::find(Mix.begin(), Mix.end(), K) == Mix.end();
        });
        if (It == Deck.end())
          It = Deck.begin();
        Mix.push_back(*It);
        Deck.erase(It);
      }
      for (int T = 0; T < static_cast<int>(Mix.size()); ++T) {
        const std::string &K = Mix[static_cast<size_t>(T)];
        ErrorOr<Workload> W = buildWorkload(K, Slots[T]);
        if (!W.ok()) {
          Res.fail("cannot build kernel " + K);
          continue;
        }
        W->Code.Name = K + "_s" + std::to_string(Slots[T]);
        Q.Name += "-" + W->Code.Name;
        Q.Text += programToString(W->Code) + "\n";
        Q.Kernels.push_back(W.take());
      }
      In.Pool.push_back(std::move(Q));
    }
  }
  for (const char *E : Examples) {
    Request Q;
    Q.Name = E;
    if (!readFile(std::string("examples/asm/") + E + ".s", Q.Text))
      Res.fail(std::string("cannot read examples/asm/") + E +
               ".s (run from the repository root)");
    In.Pool.push_back(std::move(Q));
  }

  // The cache budget is half the working set: the distinct renamed threads
  // of the pool, charged as the cache charges them (4 bytes per encoded
  // byte plus 512 per entry).
  std::set<std::string> Distinct;
  for (size_t I = 0; I < In.Pool.size(); ++I) {
    Request &Q = In.Pool[I];
    ErrorOr<MultiThreadProgram> P = parseAssembly(Q.Text);
    if (!P.ok()) {
      Res.fail("request " + Q.Name + " does not parse: " + P.status().str());
      continue;
    }
    Q.Virtual = P.take();
    for (const Program &T : Q.Virtual.Threads)
      Distinct.insert(encodeProgram(renameLiveRanges(T)));
  }
  for (const std::string &E : Distinct)
    In.WorkingSetBytes += static_cast<int64_t>(E.size()) * 4 + 512;
  In.CacheBytes = In.WorkingSetBytes / 2;

  // Uniform popularity: no request distribution of real users is known,
  // so every request is equally likely. Rounds of the whole pool, each
  // shuffled, give every seed the same request counts in its own order.
  Rng S(fnv1aCombine(Seed, fnv1aHash("serve-mix")));
  for (int Round = 0; Round < StreamRounds; ++Round) {
    std::vector<int> Order(In.Pool.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = static_cast<int>(I);
    for (size_t I = Order.size() - 1; I > 0; --I)
      std::swap(Order[I], Order[S.nextBelow(I + 1)]);
    In.Stream.insert(In.Stream.end(), Order.begin(), Order.end());
  }
  return In;
}

AllocRequest allocRequest(const Request &Q) {
  AllocRequest A;
  A.Nreg = Nreg;
  A.Validate = true;
  A.Assembly = Q.Text;
  return A;
}

std::unique_ptr<Server> startServer(int64_t CacheBytes, Result &Res) {
  // Relative to the checkout root: a Unix socket path must stay short.
  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/npral-bench", 0755);
  ServeOptions SO;
  SO.SocketPath = ".bench_build/npral-bench/serve-" +
                  std::to_string(::getpid()) + ".sock";
  SO.Workers = ServerWorkers;
  SO.CacheBytes = CacheBytes;
  auto S = std::make_unique<Server>(SO);
  if (Status St = S->start(); !St.ok()) {
    Res.fail("cannot start the serve daemon: " + St.str());
    return nullptr;
  }
  return S;
}

void stopServer(std::unique_ptr<Server> &S) {
  if (!S)
    return;
  S->requestShutdown();
  (void)S->wait();
  S.reset();
}

/// One client round trip.
struct Op {
  int Stream = 0;
  int64_t EndNs = 0;
  double Ms = 0;
  bool Ok = false;
  uint64_t BodyHash = 0;
};

/// Closed loop: Clients connections, each sending the next stream request
/// as soon as its previous answer arrived, until \p Count requests (when
/// positive) or \p Deadline.
std::vector<Op> closedLoop(const Server &S, const Inputs &In, int Count,
                           int64_t Deadline, Result &Res) {
  std::atomic<int> Next{0};
  std::vector<std::vector<Op>> PerClient(Clients);
  std::vector<std::string> Errors(Clients);
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      ErrorOr<ServeClient> Client =
          ServeClient::connectTo(S.options().SocketPath);
      if (!Client.ok()) {
        Errors[static_cast<size_t>(C)] = Client.status().str();
        return;
      }
      for (;;) {
        const int I = Next.fetch_add(1);
        if (Count > 0 ? I >= Count : nowNs() >= Deadline)
          return;
        Op O;
        O.Stream = I % static_cast<int>(In.Stream.size());
        const Request &Q = In.Pool[static_cast<size_t>(In.Stream[O.Stream])];
        const int64_t T0 = nowNs();
        ErrorOr<ServeResponse> R = Client->alloc(allocRequest(Q));
        O.EndNs = nowNs();
        O.Ms = millis(O.EndNs - T0);
        if (!R.ok()) {
          Errors[static_cast<size_t>(C)] = R.status().str();
          return;
        }
        O.Ok = R->Ok && R->Validated;
        O.BodyHash = fnv1aHash(R->Body);
        if (!R->Ok)
          std::fprintf(stderr, "npral-bench: request %s failed: %s %s: %s\n",
                       Q.Name.c_str(), R->Code.c_str(), R->Stage.c_str(),
                       R->Message.c_str());
        PerClient[static_cast<size_t>(C)].push_back(O);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &E : Errors)
    if (!E.empty())
      Res.fail("client transport error: " + E);
  std::vector<Op> All;
  for (const std::vector<Op> &V : PerClient)
    All.insert(All.end(), V.begin(), V.end());
  std::sort(All.begin(), All.end(),
            [](const Op &A, const Op &B) { return A.Stream < B.Stream; });
  return All;
}

/// Inputs, daemon start and a warm-up pass (each distinct request once);
/// repeated, the median is setup_s. Returns the last, running daemon.
std::unique_ptr<Server> setUp(const Options &O, Inputs &In,
                              std::vector<int64_t> &SetupNs, Result &Res) {
  std::unique_ptr<Server> S;
  for (int Rep = 0; Rep < SetupRepeats && Res.Correct; ++Rep) {
    stopServer(S);
    const int64_t T0 = nowNs();
    In = makeInputs(O.Seed, Res);
    S = startServer(In.CacheBytes, Res);
    if (!S)
      break;
    ErrorOr<ServeClient> C = ServeClient::connectTo(S->options().SocketPath);
    if (!C.ok()) {
      Res.fail("cannot connect to the serve daemon: " + C.status().str());
      break;
    }
    for (const Request &Q : In.Pool)
      (void)C->alloc(allocRequest(Q));
    SetupNs.push_back(nowNs() - T0);
  }
  return S;
}

std::string bodyOf(const MultiThreadProgram &Physical) {
  std::string Body;
  for (const Program &T : Physical.Threads)
    Body += programToString(T) + "\n";
  return Body;
}

/// Simulation set-up of \p Q. Kernel mixes run the equivalence
/// configuration on their memory images. The examples run as the hardening
/// tests run them: three iterations, entry registers pointing at disjoint
/// windows, outputs in low memory.
SimConfig simConfig(const Request &Q) {
  if (!Q.Kernels.empty())
    return equivalenceConfig();
  SimConfig Config;
  Config.TargetIterations = 3;
  Config.HaltAtTarget = true;
  return Config;
}

void prepareSim(const Request &Q, Simulator &Sim) {
  for (int T = 0; T < Q.Virtual.getNumThreads(); ++T) {
    if (!Q.Kernels.empty()) {
      const Workload &W = Q.Kernels[static_cast<size_t>(T)];
      for (const Workload::MemRegion &Region : W.InitMemory)
        Sim.writeMemory(Region.Base, Region.Words);
      Sim.setEntryValues(T, W.EntryValues);
    } else {
      Sim.setEntryValues(
          T, std::vector<uint32_t>(
                 Q.Virtual.Threads[static_cast<size_t>(T)].EntryLiveRegs.size(),
                 0x100u * static_cast<uint32_t>(T + 1)));
    }
  }
}

/// Simulate \p Q's input and its allocation; their outputs must agree.
void simulateRequest(const Request &Q, const MultiThreadProgram &Physical,
                     SpanCtx C, LayerCounts &Counts, Result &Res) {
  ScopedSpan S(C.Rec, "simulateEquivalence", C.Op, C.Tid);
  const bool Kernel = !Q.Kernels.empty();
  const MultiThreadProgram Virt =
      Kernel ? toMultiThreadProgram(Q.Kernels, Q.Name) : Q.Virtual;
  auto outputs = [&](const Simulator &Sim) {
    uint64_t H = 0;
    if (!Kernel)
      return Sim.hashMemoryRange(0x0, 0x1000);
    for (const Workload &W : Q.Kernels)
      H = fnv1aCombine(H, Sim.hashMemoryRange(W.OutputBase, W.OutputLen));
    return H;
  };
  Simulator SV(Virt, simConfig(Q)), SP(Physical, simConfig(Q));
  prepareSim(Q, SV);
  prepareSim(Q, SP);
  LayerCounts Ref;
  const SimResult RV = replaySimulation(SV, C, Ref);
  const SimResult RP = replaySimulation(SP, C, Counts);
  Counts.SimInstrs += Ref.SimInstrs;
  if (!RV.Completed || !RP.Completed || outputs(SV) != outputs(SP))
    Res.fail("simulated output of request " + Q.Name +
             " differs from its input");
}

} // namespace

Result bench::runServeMix(const Options &O) {
  Result Res;
  Inputs In;
  std::vector<int64_t> SetupNs;
  std::unique_ptr<Server> S = setUp(O, In, SetupNs, Res);
  if (!S || !Res.Correct) {
    stopServer(S);
    Res.Correct = false;
    return Res;
  }
  std::printf("serve-mix: %zu distinct requests, working set %lld bytes, "
              "cache budget %lld bytes\n",
              In.Pool.size(), static_cast<long long>(In.WorkingSetBytes),
              static_cast<long long>(In.CacheBytes));

  const int64_t Hits0 = S->cache().hits(), Misses0 = S->cache().misses(),
                Evict0 = S->cache().evictions();
  const int64_t Req0 = S->stats().Requests.load(),
                Shed0 = S->stats().Shed.load();
  const int64_t Start = nowNs();
  const int64_t Deadline = Start + static_cast<int64_t>(O.Seconds * 1e9);
  std::vector<Op> Ops =
      closedLoop(*S, In, O.Trace ? static_cast<int>(In.Stream.size()) : 0,
                 Deadline, Res);
  const int64_t WallNs = nowNs() - Start;
  const int64_t Hits = S->cache().hits() - Hits0,
                Misses = S->cache().misses() - Misses0,
                Evictions = S->cache().evictions() - Evict0;
  const int64_t Requests = S->stats().Requests.load() - Req0,
                Shed = S->stats().Shed.load() - Shed0;
  stopServer(S);

  // Reference: every distinct request allocated in process; each served
  // body must be byte-identical to it, and its allocation must simulate
  // to the same outputs as the input.
  BatchOptions BO;
  BO.Nreg = Nreg;
  BO.Validate = true;
  BO.KeepPhysical = true;
  std::vector<uint64_t> RefHash(In.Pool.size());
  std::vector<MultiThreadProgram> RefPhysical(In.Pool.size());
  LayerCounts Counts;
  SpanRecorder Off(false);
  uint64_t Outputs = fnv1aHash("serve-mix");
  for (size_t I = 0; I < In.Pool.size(); ++I) {
    BatchJob J;
    J.Name = In.Pool[I].Name;
    J.Text = In.Pool[I].Text;
    BatchJobResult R = runSingleJob(J, BO);
    if (!R.Success || !R.Validated) {
      Res.fail("request " + J.Name + " fails in process: " + R.FailReason);
      continue;
    }
    RefHash[I] = fnv1aHash(bodyOf(R.Physical));
    Outputs = fnv1aCombine(Outputs, RefHash[I]);
    ++Counts.Ops;
    Counts.Moves += R.TotalMoveCost;
    Counts.CodeInstrs += instructionCount(R.Physical);
    simulateRequest(In.Pool[I], R.Physical, SpanCtx{Off, 0, 0}, Counts, Res);
    RefPhysical[I] = std::move(R.Physical);
  }
  int64_t Failed = 0;
  for (const Op &P : Ops) {
    const size_t Q =
        static_cast<size_t>(In.Stream[static_cast<size_t>(P.Stream)]);
    if (!P.Ok) {
      ++Failed;
      continue;
    }
    if (P.BodyHash != RefHash[Q]) {
      ++Failed;
      Res.fail("served allocation of " + In.Pool[Q].Name +
               " differs from the in-process one");
    }
  }
  Res.Attempted = static_cast<int64_t>(Ops.size());
  Res.Failed = Failed;
  if (Ops.empty())
    Res.fail("no request completed");
  printDigest("serve-mix", Counts, Outputs);
  std::printf("serve-mix: %zu requests in %.2f s, cache %lld hits %lld "
              "misses %lld evictions\n",
              Ops.size(), seconds(WallNs), static_cast<long long>(Hits),
              static_cast<long long>(Misses),
              static_cast<long long>(Evictions));

  if (!O.Trace) {
    // Equal time slices by completion time; each metric is the median
    // over slices, so a transient slowdown of the host moves one slice.
    std::vector<std::vector<double>> Slices(TimeSlices);
    for (const Op &P : Ops) {
      const int64_t Slice =
          (P.EndNs - Start) * TimeSlices / std::max<int64_t>(1, WallNs);
      Slices[static_cast<size_t>(std::clamp<int64_t>(Slice, 0, TimeSlices - 1))]
          .push_back(P.Ms);
    }
    std::vector<double> Rates;
    for (const std::vector<double> &Sl : Slices)
      Rates.push_back(static_cast<double>(Sl.size()) * TimeSlices /
                      seconds(WallNs));
    // Simulator host speed: warm runs of every distinct allocation, in
    // passes repeated as SimTimingPasses and SimTimingNs ask; the median
    // pass counts.
    std::vector<double> Speed;
    const int64_t SimEnd = nowNs() + SimTimingNs;
    for (int Rep = 0; Rep < SimTimingPasses || nowNs() < SimEnd; ++Rep) {
      LayerCounts C;
      for (size_t I = 0; I < In.Pool.size(); ++I) {
        const Request &Q = In.Pool[I];
        SimConfig Config = simConfig(Q);
        if (!Q.Kernels.empty())
          Config.TargetIterations *= TimingIterationScale;
        if (!timeSimulation(RefPhysical[I], Config,
                            [&](Simulator &Sim) { prepareSim(Q, Sim); }, C))
          Res.fail("timing run of request " + Q.Name + " did not complete");
      }
      Speed.push_back(static_cast<double>(C.SimInstrs) / 1e3 /
                      millis(C.SimNs));
    }
    EndToEnd E;
    E.SetupS = medianSetup(SetupNs);
    E.OpsPerS = median(Rates);
    E.OpMsSlices = std::move(Slices);
    E.ProvedFrac =
        1.0 - static_cast<double>(Failed) /
                  static_cast<double>(std::max<size_t>(1, Ops.size()));
    E.CodeInstrs = Counts.CodeInstrs;
    E.SimItersPerKcycle = itersPerKcycle(Counts.SimIters, Counts.SimCycles);
    E.SimMinstrPerS = median(Speed);
    E.emit(Res);
    return Res;
  }

  // Traced run. Driver and serve layers come from the pass above.
  Res.add("driver.cache_hit_ratio",
          Hits + Misses > 0 ? static_cast<double>(Hits) /
                                  static_cast<double>(Hits + Misses)
                            : 0,
          "ratio");
  Res.add("driver.cache_evictions", static_cast<double>(Evictions), "count");
  Res.add("serve.shed_ratio",
          Requests > 0 ? static_cast<double>(Shed) /
                             static_cast<double>(Requests)
                       : 0,
          "ratio");

  // serve.overhead_ms: each round trip against an in-process runSingleJob
  // of the same request, same order, same cache budget; median.
  {
    AnalysisCache Cache(In.CacheBytes);
    BatchOptions Plain = BO;
    Plain.KeepPhysical = false;
    std::vector<double> Overhead;
    for (const Op &P : Ops) {
      BatchJob J;
      J.Text = In.Pool[static_cast<size_t>(In.Stream[static_cast<size_t>(
                                               P.Stream)])]
                   .Text;
      const int64_t T0 = nowNs();
      (void)runSingleJob(J, Plain, &Cache);
      Overhead.push_back(P.Ms - millis(nowNs() - T0));
    }
    Res.add("serve.overhead_ms", median(Overhead), "ms");
  }
  // serve.protocol_ms: request and response codecs in isolation, per
  // request.
  {
    int64_t Ns = 0;
    for (const Op &P : Ops) {
      const size_t Q =
          static_cast<size_t>(In.Stream[static_cast<size_t>(P.Stream)]);
      ServeResponse Resp;
      Resp.Ok = true;
      Resp.Validated = true;
      Resp.Body = bodyOf(RefPhysical[Q]);
      const AllocRequest Req = allocRequest(In.Pool[Q]);
      const int64_t T0 = nowNs();
      ErrorOr<AllocRequest> Back = parseAllocRequest(encodeAllocRequest(Req));
      ErrorOr<ServeResponse> RBack = parseResponse(
          static_cast<uint16_t>(protocol::FrameType::Ok), encodeResponse(Resp));
      Ns += nowNs() - T0;
      if (!Back.ok() || !RBack.ok() || Back->Assembly != Req.Assembly ||
          RBack->Body != Resp.Body)
        Res.fail("protocol codec does not round-trip request " +
                 In.Pool[Q].Name);
    }
    Res.add("serve.protocol_ms",
            millis(Ns) / static_cast<double>(std::max<size_t>(1, Ops.size())),
            "ms");
  }

  // Layer replay of every distinct request on two workers, then again
  // until the deadline. Each replay follows an uncached in-process
  // runSingleJob of the same request, whose time the replay's spans are
  // accounted against.
  SpanRecorder Rec(true);
  std::vector<std::vector<double>> EntryMs(In.Pool.size());
  std::vector<LayerCounts> PerWorker(3);
  std::vector<Result> PerReq(In.Pool.size());
  std::vector<uint64_t> TracedHash(In.Pool.size());
  replayRounds(
      static_cast<int>(In.Pool.size()), ServerWorkers, Deadline,
      [&](int I, int64_t Op, int Tid, bool First) {
        const Request &Q = In.Pool[static_cast<size_t>(I)];
        BatchJob J;
        J.Text = Q.Text;
        const int64_t T0 = nowNs();
        (void)runSingleJob(J, BO);
        EntryMs[static_cast<size_t>(I)].push_back(millis(nowNs() - T0));
        LayerCounts Scratch;
        Result ScratchRes;
        LayerCounts &C = First ? PerWorker[static_cast<size_t>(Tid)] : Scratch;
        Result &ReqRes = First ? PerReq[static_cast<size_t>(I)] : ScratchRes;
        SpanCtx Ctx{Rec, Op, Tid};
        ScopedSpan OpSpan(Rec, "op", Op, Tid);
        MultiThreadProgram Virtual;
        {
          ScopedSpan P(Rec, "parseAssembly", Op, Tid);
          ErrorOr<MultiThreadProgram> Parsed = parseAssembly(Q.Text);
          if (!Parsed.ok())
            return ReqRes.fail("request " + Q.Name + " does not parse");
          Virtual = Parsed.take();
        }
        replayRoundTrip(Virtual, Ctx, C);
        Allocated A = replayAllocation(Virtual, Nreg, false, Ctx, C);
        ++C.Ops;
        if (!A.Ok)
          return ReqRes.fail(Q.Name + ": " + A.Why);
        if (First)
          TracedHash[static_cast<size_t>(I)] = fnv1aHash(bodyOf(A.Physical));
        simulateRequest(Q, A.Physical, Ctx, C, ReqRes);
      });
  LayerCounts Traced;
  for (const LayerCounts &C : PerWorker)
    Traced.merge(C);
  uint64_t TracedOutputs = fnv1aHash("serve-mix");
  for (size_t I = 0; I < In.Pool.size(); ++I) {
    TracedOutputs = fnv1aCombine(TracedOutputs, TracedHash[I]);
    if (!PerReq[I].Correct)
      Res.Correct = false;
    if (TracedHash[I] != RefHash[I])
      Res.fail("traced allocation of " + In.Pool[I].Name +
               " differs from the served one");
  }
  printDigest("serve-mix", Traced, TracedOutputs);
  printLayerDigest("serve-mix", Traced);
  checkSameCounts(Counts, Traced, Res);
  EntryWork Entry;
  for (const std::vector<double> &V : EntryMs)
    Entry.Ms.push_back(median(V));
  addLayerMetrics(Rec, Traced, Entry, Res);
  exportTrace(Rec, O, Res);
  addTraceOverhead(
      [&](SpanRecorder &R) {
        LayerCounts Scratch;
        for (int I = 0; I < 8; ++I) {
          ScopedSpan OpSpan(R, "op", I + 1, 0);
          (void)replayAllocation(In.Pool[static_cast<size_t>(I)].Virtual,
                                 Nreg, false, SpanCtx{R, I + 1, 0}, Scratch);
        }
      },
      Res);
  return Res;
}
