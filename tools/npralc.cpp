//===- npralc.cpp - NPRAL command-line driver ------------------------------===//
//
// The downstream-user entry point: assemble a multi-threaded NPRAL assembly
// file, run the paper's inter-thread register allocator, and emit the
// allocated program, analysis reports, or a simulation run.
//
// The command-line grammar lives in two tables: Options (every flag, the
// subcommands that accept it, its default, help text and numeric range) and
// Commands (every subcommand, its positional arguments and its handler). One
// parser reads argv against them, and the usage text `npralc` prints when run
// without arguments is generated from the same rows.
//
// Threads may declare entry-live registers; `run` seeds them with zero (use
// the C++ API for richer setups — see examples/).
//
//===----------------------------------------------------------------------===//

#include "alloc/AllocationVerifier.h"
#include "alloc/BoundsEstimator.h"
#include "alloc/InterAllocator.h"
#include "analysis/InterferenceGraph.h"
#include "analysis/LiveRangeRenaming.h"
#include "asmparse/AsmParser.h"
#include "baseline/ChaitinAllocator.h"
#include "driver/AnalysisCache.h"
#include "driver/BatchPipeline.h"
#include "driver/VerifyPipeline.h"
#include "grid/GridHarness.h"
#include "harden/FaultInjector.h"
#include "harden/SpillFallback.h"
#include "ir/IRPrinter.h"
#include "lint/Lint.h"
#include "lint/TranslationValidator.h"
#include "profile/ExecutionProfile.h"
#include "profile/ProfileCollector.h"
#include "profile/StaticFrequencyEstimator.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "sim/Simulator.h"
#include "support/DiagnosticEngine.h"
#include "support/StringUtils.h"
#include "support/TableFormatter.h"
#include "support/ThreadPool.h"
#include "trace/CycleTrace.h"
#include "trace/DecisionLog.h"
#include "trace/MetricsRegistry.h"
#include "trace/Telemetry.h"
#include "trace/TraceEngine.h"
#include "trace/TraceReport.h"
#include "trace/TraceValidator.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace npral;

namespace {

constexpr uint64_t IntMax = std::numeric_limits<int>::max();
constexpr uint64_t Int64Max = std::numeric_limits<int64_t>::max();

/// One row of the option grammar. A flag whose default or meaning differs
/// by subcommand has one row per meaning, so a (flag, subcommand) pair
/// selects at most one row.
struct OptionSpec {
  const char *Flag;
  /// Value placeholder in the usage text; null for a switch.
  const char *Value;
  /// Space-separated subcommands that accept the flag; "*" for every one.
  const char *Commands;
  /// Value when the flag is absent; null for none.
  const char *Default;
  const char *Help;
  /// Inclusive range of a numeric value; Max == 0 marks a text value.
  uint64_t Min = 0;
  uint64_t Max = 0;
};

const OptionSpec Options[] = {
    // Allocation.
    {"-nreg", "N", "alloc run sra lint verify batch client", "128",
     "register file size", 1, 65536},
    {"-nreg", "N", "grid", "128", "per-engine register file size", 1, 65536},
    {"--explain", nullptr, "alloc", nullptr,
     "print the decision log (one record per Fig. 8 reduction step with "
     "every thread's move-cost bid) instead of the assembly"},
    {"--profile", "f", "alloc", nullptr,
     "weight move costs by f, a .npprof from `npralc profile`; threads match "
     "by position and must hash to the profiled code"},
    {"--profile", "f", "verify batch", nullptr,
     "weight move costs by f's counts for every thread whose code hash "
     "matches"},
    {"--pgo-static", nullptr, "alloc verify batch", nullptr,
     "weight move costs by 10^loop-depth where no profile applies"},
    {"--allow-spill", nullptr, "alloc verify batch client", nullptr,
     "on an infeasible budget, spill the cheapest live ranges and retry"},
    {"--max-spills", "K", "alloc verify batch client", "64",
     "live ranges the spill fallback may demote", 0, IntMax},
    {"--validate", nullptr, "alloc batch client", nullptr,
     "prove each allocation equivalent to its input (translation validation)"},
    {"--retry-degraded", nullptr, "batch", nullptr,
     "retry an infeasible job once with spilling allowed"},
    // Simulation.
    {"-iters", "K", "run profile", "10",
     "loop iterations to simulate; 0 = until every thread halts", 0, IntMax},
    {"-iters", "K", "grid", "50",
     "iterations per thread; 0 = until every thread halts", 0, IntMax},
    {"-memlat", "L", "run profile grid", "40", "memory latency in cycles", 0,
     IntMax},
    {"--trace-cycles", "f.json", "run grid", nullptr,
     "write a virtual-time Chrome trace (ts = simulated cycles)"},
    {"--sample-cycles", "N", "run grid", "64",
     "telemetry sampling period of --trace-cycles", 1, IntMax},
    {"-regs", "K", "baseline", "32", "per-thread partition size", 1, 65536},
    {"-nthd", "N", "sra", "4", "thread count", 1, 1024},
    {"--engines", "N", "grid", "4", "micro-engines in the grid", 1, 16},
    {"--placement", "P", "grid", "bounds",
     "thread placement: roundrobin, bounds or search"},
    {"--hoplat", "H", "grid", "4", "interconnect per-hop latency", 1, IntMax},
    {"--credits", "C", "grid", "4", "per-thread work-token window", 1, IntMax},
    // Reports.
    {"--json", nullptr, "lint verify grid", nullptr, "emit the report as JSON"},
    {"--json", nullptr, "batch", nullptr, "emit the --stats report as JSON"},
    {"--Werror", nullptr, "lint verify", nullptr, "exit 1 on warnings too"},
    {"--after-alloc", nullptr, "lint", nullptr,
     "allocate first, lint the physical result"},
    {"--physical", nullptr, "lint", nullptr,
     "registers named p<N> are a hand-written physical allocation"},
    {"--only", "checks", "lint", nullptr,
     "comma-separated checkers to run (listed below)"},
    {"--paired", nullptr, "verify", nullptr,
     "check each file's second half of threads, hand-written p<N> code, "
     "against its first half instead of allocating"},
    {"-o", "file", "profile", nullptr, "write the profile to file"},
    {"--html", "out.html", "report", nullptr,
     "write a self-contained HTML page instead of text"},
    // Drivers.
    {"--socket", "PATH", "serve client", nullptr,
     "Unix socket of the daemon (required)"},
    {"--jobs", "N", "verify", "1",
     "worker threads; the report is the same for any count", 1, 1024},
    {"--jobs", "N", "batch", "0", "worker threads; 0 = hardware concurrency",
     0, 1024},
    {"--cache", nullptr, "batch", nullptr,
     "memoise per-thread analyses by content hash"},
    {"--cache-bytes", "B", "batch", "0",
     "LRU byte budget of the analysis cache (implies --cache); 0 = unbounded",
     0, Int64Max},
    {"--cache-bytes", "B", "serve", "67108864",
     "LRU byte budget of the analysis cache; 0 = unbounded", 0, Int64Max},
    {"--stats", nullptr, "batch", nullptr,
     "report per-stage wall clock and cache hits"},
    {"--deadline-ms", "D", "batch", "0",
     "per-job allocation deadline; 0 = none", 0, IntMax},
    {"--deadline-ms", "D", "serve", "0",
     "deadline of requests that set none; 0 = none", 0, IntMax},
    {"--deadline-ms", "D", "client", "0",
     "request deadline; 0 = the daemon's default", 0, IntMax},
    {"--fault-inject", "spec", "batch serve", nullptr,
     "fail stages on purpose: <sites>@<rate>#<seed> with sites parse, "
     "analysis, cache, alloc or all and rate in percent (e.g. all@50#7); "
     "defaults to $NPRAL_FAULT_INJECT"},
    {"--workers", "N", "serve", "0",
     "request executors; 0 = hardware concurrency", 0, 1024},
    {"--queue-cap", "N", "serve", "64",
     "admission queue bound; a full queue sheds load", 1, 65536},
    {"--max-conns", "N", "serve", "64", "concurrent connections", 1, 65536},
    {"--max-request-bytes", "B", "serve", "4194304",
     "reject larger request frames", 1, 1u << 30},
    {"--retry-after-ms", "M", "serve", "10", "backoff hint in shed responses",
     0, IntMax},
    {"--profile-hash", "H", "client", "0", "opaque cache-partition tag", 0,
     std::numeric_limits<uint64_t>::max()},
    {"--health", nullptr, "client", nullptr, "fetch health lines instead"},
    {"--fetch-metrics", nullptr, "client", nullptr,
     "fetch the metrics JSON instead"},
    // Global.
    {"--trace-out", "f.json", "*", nullptr,
     "record spans and events; write Chrome trace-event JSON on exit"},
    {"--metrics", nullptr, "*", nullptr,
     "dump the metrics registry to stderr on exit"},
};

struct CommandSpec;

/// A parsed command line: the subcommand, its positional arguments and the
/// text of every option it accepts, given or defaulted.
struct ParsedArgs {
  const CommandSpec *Cmd = nullptr;
  std::vector<std::string> Positionals;

  /// Reads argv against the tables. Returns a message naming the offending
  /// flag or argument, or "" on success.
  std::string parse(int Argc, char **Argv);

  bool on(std::string_view Flag) const { return lookup(Flag) != nullptr; }
  const std::string &str(std::string_view Flag) const {
    static const std::string Empty;
    const std::string *V = lookup(Flag);
    return V ? *V : Empty;
  }
  /// The value of a numeric flag, already checked against its range.
  uint64_t num64(std::string_view Flag) const;
  int num(std::string_view Flag) const;

private:
  std::map<std::string_view, std::string> Values;

  const std::string *lookup(std::string_view Flag) const;
};

struct CommandSpec {
  const char *Name;
  /// Positional arguments as the usage text shows them.
  const char *Args;
  size_t MinArgs;
  size_t MaxArgs;
  const char *Help;
  int (*Run)(const ParsedArgs &);
};

extern const CommandSpec Commands[];
extern const size_t NumCommands;

/// Whether \p Cmd (null: no subcommand yet) accepts row \p O.
bool accepts(const OptionSpec &O, const CommandSpec *Cmd) {
  const std::string List = std::string(" ") + O.Commands + " ";
  return List == " * " || (Cmd && List.find(" " + std::string(Cmd->Name) +
                                            " ") != std::string::npos);
}

/// The row for \p Flag under \p Cmd (null: global rows only).
const OptionSpec *findOption(std::string_view Flag, const CommandSpec *Cmd) {
  for (const OptionSpec &O : Options)
    if (Flag == O.Flag && accepts(O, Cmd))
      return &O;
  return nullptr;
}

/// \p Text as a whole non-negative decimal integer, or nullopt.
std::optional<uint64_t> parseUnsigned(std::string_view Text) {
  uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  const auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Ptr != End)
    return std::nullopt;
  return V;
}

bool inRange(std::string_view Text, const OptionSpec &O) {
  const std::optional<uint64_t> V = parseUnsigned(Text);
  return V && *V >= O.Min && *V <= O.Max;
}

const std::string *ParsedArgs::lookup(std::string_view Flag) const {
  assert(findOption(Flag, Cmd) && "flag not in the option table");
  auto It = Values.find(Flag);
  return It == Values.end() ? nullptr : &It->second;
}

uint64_t ParsedArgs::num64(std::string_view Flag) const {
  return parseUnsigned(str(Flag)).value_or(0);
}

int ParsedArgs::num(std::string_view Flag) const {
  assert(findOption(Flag, Cmd)->Max <= IntMax && "wider than int: use num64");
  return static_cast<int>(num64(Flag));
}

std::string ParsedArgs::parse(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg.size() < 2 || Arg[0] != '-') {
      if (Cmd) {
        Positionals.push_back(Arg);
        continue;
      }
      for (size_t C = 0; C < NumCommands && !Cmd; ++C)
        if (Arg == Commands[C].Name)
          Cmd = &Commands[C];
      if (!Cmd)
        return "unknown subcommand '" + Arg + "'";
      continue;
    }
    const OptionSpec *O = findOption(Arg, Cmd);
    if (!O)
      return (Cmd ? "'" + std::string(Cmd->Name) + "' does not accept"
                  : std::string("unknown")) +
             " option '" + Arg + "'";
    std::string Value;
    if (O->Value) {
      if (I + 1 == Argc)
        return "option '" + Arg + "' needs a value " + O->Value;
      const char *Text = Argv[++I];
      if (O->Max && !inRange(Text, *O))
        return "option '" + Arg + "': '" + Text +
               "' is not an integer in [" + std::to_string(O->Min) + ", " +
               std::to_string(O->Max) + "]";
      Value = Text;
    }
    Values[O->Flag] = std::move(Value);
  }
  if (!Cmd)
    return "";
  for (const OptionSpec &O : Options)
    if (O.Default && accepts(O, Cmd)) {
      assert((!O.Max || inRange(O.Default, O)) && "default out of range");
      Values.emplace(O.Flag, O.Default);
    }
  if (Positionals.size() < Cmd->MinArgs)
    return "missing argument " + std::string(Cmd->Args);
  if (Positionals.size() > Cmd->MaxArgs)
    return "unexpected argument '" + Positionals[Cmd->MaxArgs] + "'";
  return "";
}

/// Print \p Line padded to \p Column, then \p Text word-wrapped to 79
/// columns with continuation lines indented to \p Column.
void printRow(std::ostream &OS, std::string Line, const std::string &Text,
              size_t Column) {
  if (Line.size() >= Column) {
    OS << Line << '\n';
    Line.clear();
  }
  Line.resize(Column, ' ');
  std::istringstream Words(Text);
  for (std::string W; Words >> W;) {
    if (Line.size() > Column && Line.size() + 1 + W.size() > 79) {
      OS << Line << '\n';
      Line.assign(Column, ' ');
    } else if (Line.size() > Column) {
      Line += ' ';
    }
    Line += W;
  }
  OS << Line << '\n';
}

void printOption(std::ostream &OS, const OptionSpec &O, size_t Indent) {
  std::string Label = std::string(Indent, ' ') + O.Flag;
  if (O.Value)
    Label += std::string(" ") + O.Value;
  std::string Help = O.Help;
  if (O.Default)
    Help += std::string(" (default ") + O.Default + ")";
  printRow(OS, Label, Help, 30);
}

/// The usage text, generated from the tables: one subcommand's section
/// when \p Only is set, else everything.
void printUsage(std::ostream &OS, const CommandSpec *Only) {
  if (!Only)
    OS << "usage: npralc <subcommand> [arguments] [options]\n"
          "options and arguments may come in any order\n\n"
          "subcommands:\n";
  for (size_t C = 0; C < NumCommands; ++C) {
    const CommandSpec &Cmd = Commands[C];
    if (Only && Only != &Cmd)
      continue;
    std::string Line = std::string("  ") + Cmd.Name;
    if (*Cmd.Args) {
      Line.resize(std::max<size_t>(Line.size() + 1, 11), ' ');
      Line += Cmd.Args;
    }
    OS << Line << '\n';
    printRow(OS, "", Cmd.Help, 6);
    for (const OptionSpec &O : Options)
      if (std::string_view(O.Commands) != "*" && accepts(O, &Cmd))
        printOption(OS, O, 8);
    if (std::string_view(Cmd.Name) == "lint") {
      OS << "      checkers:\n";
      for (const CheckerInfo &CI : getCheckerRegistry())
        printRow(OS, "        " + std::string(CI.Name),
                 std::string(CI.Description), 30);
    }
  }
  if (Only)
    return;
  OS << "\nglobal options (accepted by every subcommand):\n";
  for (const OptionSpec &O : Options)
    if (std::string_view(O.Commands) == "*")
      printOption(OS, O, 2);
  OS << "\nexit status: 0 ok, 1 findings/errors, 2 bad usage\n";
}

/// Report a usage error (malformed, foreign or missing arguments) with the
/// relevant usage text; exit status 2.
int usageError(const CommandSpec *Cmd, const std::string &Message) {
  if (!Message.empty())
    std::cerr << "npralc: " << Message << "\n";
  printUsage(std::cerr, Cmd);
  return 2;
}

/// The contents of \p Path; reports and returns nullopt when unreadable.
std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "error: cannot open '" << Path << "'\n";
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Parse the subcommand's file argument; prints the error and returns
/// nullopt on failure. Lint inspects the program as written (\p Rename
/// false), so diagnostics point at the user's own register names; the
/// allocation subcommands rename first like the full pipeline does.
std::optional<MultiThreadProgram> loadInput(const ParsedArgs &A,
                                            bool Rename = true) {
  std::optional<std::string> Text = readFile(A.Positionals[0]);
  if (!Text)
    return std::nullopt;
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(*Text);
  if (!MTP.ok()) {
    std::cerr << "error: " << MTP.status().str() << "\n";
    return std::nullopt;
  }
  if (Rename)
    for (Program &T : MTP->Threads)
      T = renameLiveRanges(T);
  return MTP.take();
}

/// Read and parse the .npprof file named by --profile into \p Prof (left
/// empty without the flag); false after reporting an unreadable one.
bool loadProfile(const ParsedArgs &A, std::optional<ExecutionProfile> &Prof) {
  const std::string &Path = A.str("--profile");
  if (Path.empty())
    return true;
  std::optional<std::string> Text = readFile(Path);
  if (!Text)
    return false;
  std::string Error;
  Prof = ExecutionProfile::parse(*Text, Error);
  if (!Prof)
    std::cerr << "error: malformed profile '" << Path << "': " << Error
              << "\n";
  return Prof.has_value();
}

/// Parse --fault-inject into \p Faults, falling back to $NPRAL_FAULT_INJECT
/// without the flag; false after reporting a bad spec.
bool parseFaults(const ParsedArgs &A, FaultInjector &Faults) {
  const std::string &Spec = A.str("--fault-inject");
  if (Spec.empty()) {
    Faults = FaultInjector::fromEnv();
    return true;
  }
  ErrorOr<FaultInjector> FI = FaultInjector::parse(Spec);
  if (!FI.ok()) {
    std::cerr << "error: bad --fault-inject spec: " << FI.status().str()
              << "\n";
    return false;
  }
  Faults = FI.take();
  return true;
}

int cmdAnalyze(const ParsedArgs &A) {
  std::optional<MultiThreadProgram> MTP = loadInput(A);
  if (!MTP)
    return 1;
  TableFormatter Table({"Thread", "#Instr", "#CTX", "#LiveRanges", "#NSR",
                        "RegPmax", "RegPCSBmax", "MaxR", "MaxPR"});
  for (const Program &T : MTP->Threads) {
    ThreadAnalysis TA = analyzeThread(T);
    RegBounds B = estimateRegBounds(TA);
    Table.row()
        .cell(T.Name)
        .cell(T.countInstructions())
        .cell(T.countCtxInstructions())
        .cell(TA.getNumLiveRanges())
        .cell(TA.NSRs.getNumNSRs())
        .cell(TA.getRegPmax())
        .cell(TA.getRegPCSBmax())
        .cell(B.MaxR)
        .cell(B.MaxPR);
  }
  Table.print(std::cout);
  return 0;
}

int cmdAlloc(const ParsedArgs &A) {
  std::optional<MultiThreadProgram> Input = loadInput(A);
  if (!Input)
    return 1;
  const MultiThreadProgram &MTP = *Input;
  std::optional<ExecutionProfile> Prof;
  if (!loadProfile(A, Prof))
    return 1;
  const int Nreg = A.num("-nreg");
  const bool Explain = A.on("--explain");
  const bool AllowSpill = A.on("--allow-spill");
  const bool Validate = A.on("--validate");
  // Resolve per-thread cost models. A collected profile matches threads by
  // position and must hash to the code it was collected on — silently
  // applying stale counts would skew every weighted decision.
  const bool PGO = Prof || A.on("--pgo-static");
  std::vector<CostModel> Models;
  if (Prof) {
    if (Prof->getNumThreads() != MTP.getNumThreads()) {
      std::cerr << "error: profile has " << Prof->getNumThreads()
                << " threads, program has " << MTP.getNumThreads() << "\n";
      return 1;
    }
    for (int T = 0; T < MTP.getNumThreads(); ++T) {
      const Program &P = MTP.Threads[static_cast<size_t>(T)];
      const uint64_t Hash = fnv1aHash(programToString(P));
      if (Prof->Threads[static_cast<size_t>(T)].CodeHash != Hash) {
        std::cerr << "error: profile is stale: thread '" << P.Name
                  << "' does not match the profiled code\n";
        return 1;
      }
      Models.push_back(Prof->costModel(T, P.getNumBlocks()));
    }
  } else if (PGO) {
    for (const Program &P : MTP.Threads)
      Models.push_back(estimateCostModel(P));
  }

  AllocationDecisionLog Log;
  InterThreadResult R;
  SpillFallbackResult SF;
  // --validate cross-checks the decision log against the result, so it
  // needs the log collected even without --explain. The log is purely
  // observational: collecting it never changes the allocation.
  const bool WantLog = Explain || (Validate && !AllowSpill);
  if (AllowSpill) {
    SpillFallbackOptions SOpts;
    SOpts.MaxSpills = A.num("--max-spills");
    SF = allocateWithSpillFallback(MTP, Nreg, {}, Models,
                                   Explain ? &Log : nullptr,
                                   InterAllocLimits(), SOpts);
    R = std::move(SF.Inter);
  } else {
    R = allocateInterThread(MTP, Nreg, {}, Models, WantLog ? &Log : nullptr);
  }
  if (Explain) {
    Log.renderExplain(std::cout);
    std::cout << "\n";
  }
  if (!R.Success) {
    std::cerr << "allocation failed: " << R.FailReason << "\n";
    return 1;
  }
  // One oracle per allocation, as in the batch pipeline. Translation
  // validation proves the physical output equivalent to the (renamed)
  // virtual input, which subsumes the safety check, and cross-checks the
  // decision log against the reported result. Spill-degraded outputs are
  // proved against the same pre-spill reference; the log cross-check only
  // applies to the strict path, where the log describes the final (only)
  // allocation attempt.
  if (!Validate) {
    if (Status S = verifyAllocationSafety(R.Physical); !S.ok()) {
      std::cerr << "internal error, unsafe allocation: " << S.str() << "\n";
      return 1;
    }
  } else {
    DiagnosticEngine Engine;
    ValidationResult V = validateTranslation(MTP, R.Physical, Engine,
                                             &MetricsRegistry::global());
    int LogMismatches = 0;
    if (!AllowSpill)
      LogMismatches =
          crossCheckDecisionLog(Log, R, Engine, &MetricsRegistry::global());
    if (!V.Proved || LogMismatches > 0) {
      Engine.sortByPosition();
      Engine.renderText(std::cerr);
      std::cerr << "translation validation FAILED\n";
      return 1;
    }
    std::cout << "validated: " << V.ThreadsProved << " thread(s) proved, "
              << V.InstructionsMatched << " instruction(s) matched, "
              << V.CopiesInterpreted << " copies interpreted\n";
  }
  // The default table is byte-stable against pre-PGO builds; the weighted
  // column only appears when a PGO flag is active.
  std::vector<std::string> Cols{"Thread", "PR", "SR", "PrivateBase", "Moves",
                                "Strategy"};
  if (PGO)
    Cols.push_back("WMoves");
  TableFormatter Table(Cols);
  for (size_t T = 0; T < R.Threads.size(); ++T) {
    Table.row()
        .cell(MTP.Threads[T].Name)
        .cell(R.Threads[T].PR)
        .cell(R.Threads[T].SR)
        .cell(R.Threads[T].PrivateBase)
        .cell(R.Threads[T].MoveCost)
        .cell(R.Threads[T].Strategy);
    if (PGO)
      Table.cell(static_cast<int64_t>(R.Threads[T].WeightedCost));
  }
  Table.print(std::cout);
  std::cout << "SGR=" << R.SGR << " at p" << R.SharedBase << "; "
            << R.RegistersUsed << "/" << Nreg << " registers used\n";
  if (SF.UsedSpilling)
    std::cout << "degraded: spilled " << SF.SpilledRanges
              << " live range(s) to scratch memory (" << SF.SpillLoads
              << " loads, " << SF.SpillStores << " stores, "
              << SF.Attempts << " attempts)\n";
  if (PGO)
    std::cout << "weighted move cost: " << R.TotalWeightedCost << " ("
              << (Prof ? "collected profile" : "static estimate") << ")\n";
  if (!Explain) {
    std::cout << "\n";
    for (const Program &T : R.Physical.Threads) {
      printProgram(std::cout, T);
      std::cout << "\n";
    }
  }
  return 0;
}

int cmdProfile(const ParsedArgs &A) {
  std::optional<MultiThreadProgram> MTP = loadInput(A);
  if (!MTP)
    return 1;
  // Simulate the virtual program: in reference mode every thread has a
  // private register file, so no allocation is needed and the recorded
  // block IDs are the ones the allocators operate on.
  ProfileCollector Collector(*MTP);
  SimConfig Config;
  Config.MemLatency = A.num("-memlat");
  Config.TargetIterations = A.num("-iters");
  Simulator Sim(*MTP, Config);
  Sim.setObserver(&Collector);
  for (int T = 0; T < MTP->getNumThreads(); ++T) {
    const Program &P = MTP->Threads[static_cast<size_t>(T)];
    Sim.setEntryValues(T, std::vector<uint32_t>(P.EntryLiveRegs.size(), 0));
  }
  SimResult Run = Sim.run();
  if (!Run.Completed) {
    std::cerr << "simulation failed: " << Run.FailReason << "\n";
    return 1;
  }
  const std::string Text = Collector.getProfile().print();
  const std::string &OutPath = A.str("-o");
  if (OutPath.empty()) {
    std::cout << Text;
    return 0;
  }
  std::ofstream Out(OutPath);
  if (!Out) {
    std::cerr << "error: cannot write '" << OutPath << "'\n";
    return 1;
  }
  Out << Text;
  std::cerr << "wrote " << OutPath << " (" << MTP->getNumThreads()
            << " threads, " << Run.TotalCycles << " cycles simulated)\n";
  return 0;
}

int cmdRun(const ParsedArgs &A) {
  std::optional<MultiThreadProgram> MTP = loadInput(A);
  if (!MTP)
    return 1;
  InterThreadResult R = allocateInterThread(*MTP, A.num("-nreg"));
  if (!R.Success) {
    std::cerr << "allocation failed: " << R.FailReason << "\n";
    return 1;
  }
  const int Iters = A.num("-iters");
  SimConfig Config;
  Config.MemLatency = A.num("-memlat");
  Config.TargetIterations = Iters;
  Simulator Sim(R.Physical, Config);
  // Virtual-time trace: ts is simulated cycles, so the file is a pure
  // function of the program and config (docs/observability.md).
  const std::string &TraceCycles = A.str("--trace-cycles");
  CycleTrace CT;
  std::optional<TelemetrySampler> Sampler;
  if (!TraceCycles.empty()) {
    Sim.setCycleTrace(&CT, /*Pid=*/1);
    Sampler.emplace(A.num("--sample-cycles"), &CT, nullptr);
    Sim.setSampler(&*Sampler, "sim.");
  }
  for (int T = 0; T < R.Physical.getNumThreads(); ++T) {
    const Program &P = R.Physical.Threads[static_cast<size_t>(T)];
    Sim.setEntryValues(
        T, std::vector<uint32_t>(P.EntryLiveRegs.size(), 0));
  }
  SimResult Run = Sim.run();
  if (!TraceCycles.empty()) {
    if (Status S = CT.writeFile(TraceCycles); !S.ok()) {
      std::cerr << "error: " << S.str() << "\n";
      return 1;
    }
    std::cerr << "wrote " << TraceCycles << " (" << CT.eventCount()
              << " cycle-domain events)\n";
  }
  if (!Run.Completed) {
    std::cerr << "simulation failed: " << Run.FailReason << "\n";
    return 1;
  }
  TableFormatter Table({"Thread", "Iters", "Instrs", "CtxEvents", "MemOps",
                        "Cyc/iter"});
  for (size_t T = 0; T < Run.Threads.size(); ++T) {
    const ThreadStats &TS = Run.Threads[T];
    Table.row()
        .cell(MTP->Threads[T].Name)
        .cell(TS.Iterations)
        .cell(TS.InstrsExecuted)
        .cell(TS.CtxEvents)
        .cell(TS.MemOps);
    if (TS.CyclesAtTarget >= 0)
      Table.cell(TS.cyclesPerIteration(Iters), 1);
    else
      Table.cell("-"); // thread halted before reaching the target
  }
  Table.print(std::cout);
  std::cout << "total cycles: " << Run.TotalCycles << "\n";
  return 0;
}

int cmdBaseline(const ParsedArgs &A) {
  std::optional<MultiThreadProgram> MTP = loadInput(A);
  if (!MTP)
    return 1;
  TableFormatter Table({"Thread", "Colors", "Spilled", "SpillOps", "Rounds"});
  int64_t SpillBase = 0xF000;
  for (const Program &T : MTP->Threads) {
    ChaitinConfig Config;
    Config.NumColors = A.num("-regs");
    Config.SpillBase = SpillBase;
    SpillBase += 0x100;
    ChaitinResult R = runChaitinAllocator(T, Config);
    if (!R.Success) {
      std::cerr << "baseline failed on '" << T.Name << "': " << R.FailReason
                << "\n";
      return 1;
    }
    Table.row()
        .cell(T.Name)
        .cell(R.ColorsUsed)
        .cell(R.SpilledRanges)
        .cell(R.SpillLoads + R.SpillStores)
        .cell(R.Rounds);
  }
  Table.print(std::cout);
  return 0;
}

int cmdSra(const ParsedArgs &A) {
  std::optional<MultiThreadProgram> MTP = loadInput(A);
  if (!MTP)
    return 1;
  if (MTP->Threads.size() != 1) {
    std::cerr << "sra expects exactly one thread in the file\n";
    return 1;
  }
  const int Nthd = A.num("-nthd");
  const int Nreg = A.num("-nreg");
  SRAResult R = solveSRA(MTP->Threads[0], Nthd, Nreg,
                         /*RequireZeroCost=*/false);
  if (!R.Success) {
    std::cerr << "infeasible: " << R.FailReason << "\n";
    return 1;
  }
  std::cout << Nthd << " identical threads in " << Nreg << " registers: PR="
            << R.PR << " SR=" << R.SR << " total=" << R.TotalRegisters
            << " moves/thread=" << R.MoveCost << "\n";
  return 0;
}

int cmdLint(const ParsedArgs &A) {
  std::optional<MultiThreadProgram> MTP = loadInput(A, /*Rename=*/false);
  if (!MTP)
    return 1;
  if (A.on("--physical")) {
    if (Status S = mapNamedPhysicalRegisters(*MTP); !S.ok()) {
      std::cerr << "error: " << S.str() << "\n";
      return 1;
    }
  }
  if (A.on("--after-alloc")) {
    for (Program &T : MTP->Threads)
      T = renameLiveRanges(T);
    InterThreadResult R = allocateInterThread(*MTP, A.num("-nreg"));
    if (!R.Success) {
      std::cerr << "allocation failed: " << R.FailReason << "\n";
      return 1;
    }
    MTP = std::move(R.Physical);
  }

  LintOptions Opts;
  const std::string &Only = A.str("--only");
  for (size_t Pos = 0; Pos < Only.size();) {
    const size_t Comma = std::min(Only.find(',', Pos), Only.size());
    std::string Name = Only.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Name.empty())
      continue;
    if (!findChecker(Name))
      return usageError(A.Cmd, "unknown checker '" + Name + "'");
    Opts.OnlyChecks.push_back(std::move(Name));
  }

  DiagnosticEngine Engine;
  runAllCheckers(*MTP, Engine, Opts);
  Engine.sortBySeverity();
  if (A.on("--json"))
    Engine.renderJSON(std::cout);
  else
    Engine.renderText(std::cout);
  if (Engine.hasErrors())
    return 1;
  return A.on("--Werror") && Engine.warningCount() > 0 ? 1 : 0;
}

int cmdVerify(const ParsedArgs &A) {
  std::optional<ExecutionProfile> Prof;
  if (!loadProfile(A, Prof))
    return 1;
  VerifyOptions Opts;
  Opts.Nreg = A.num("-nreg");
  Opts.Jobs = A.num("--jobs");
  Opts.AllowSpill = A.on("--allow-spill");
  Opts.MaxSpills = A.num("--max-spills");
  Opts.StaticPGO = A.on("--pgo-static");
  Opts.Profile = Prof ? &*Prof : nullptr;
  Opts.Paired = A.on("--paired");
  VerifyResult R = runVerify(A.Positionals, Opts);
  if (A.on("--json"))
    R.renderJSON(std::cout);
  else
    R.renderText(std::cout);
  if (!R.allProved())
    return 1;
  return A.on("--Werror") && R.warningCount() > 0 ? 1 : 0;
}

int cmdBatch(const ParsedArgs &A) {
  std::optional<ExecutionProfile> Prof;
  if (!loadProfile(A, Prof))
    return 1;
  std::vector<BatchJob> Inputs;
  Inputs.reserve(A.Positionals.size());
  for (const std::string &F : A.Positionals) {
    BatchJob Job;
    Job.Path = F;
    Inputs.push_back(std::move(Job));
  }
  BatchOptions Opts;
  Opts.Nreg = A.num("-nreg");
  const int Jobs = A.num("--jobs");
  Opts.Jobs = Jobs > 0 ? Jobs : ThreadPool::hardwareConcurrency();
  Opts.CacheBytes = static_cast<int64_t>(A.num64("--cache-bytes"));
  // A byte budget only makes sense with the cache on, so it implies it.
  Opts.UseCache = A.on("--cache") || Opts.CacheBytes > 0;
  Opts.Profile = Prof ? &*Prof : nullptr;
  Opts.StaticPGO = A.on("--pgo-static");
  Opts.AllowSpill = A.on("--allow-spill");
  Opts.MaxSpills = A.num("--max-spills");
  Opts.RetryDegraded = A.on("--retry-degraded");
  Opts.DeadlineMs = A.num("--deadline-ms");
  Opts.Validate = A.on("--validate");
  if (!parseFaults(A, Opts.Faults))
    return usageError(A.Cmd, "");
  const bool PGO = Opts.Profile != nullptr || Opts.StaticPGO;
  BatchResult Batch = runBatch(Inputs, Opts);

  std::vector<std::string> Cols{"File", "Threads", "Status", "Regs", "SGR",
                                "Moves"};
  if (PGO) {
    Cols.push_back("WMoves");
    Cols.push_back("Profiled");
  }
  TableFormatter Table(Cols);
  for (const BatchJobResult &R : Batch.Results) {
    Table.row().cell(R.Name).cell(R.NumThreads);
    if (R.Success) {
      Table.cell("ok").cell(R.RegistersUsed).cell(R.SGR).cell(
          R.TotalMoveCost);
      if (PGO)
        Table.cell(R.TotalWeightedCost).cell(R.ProfiledThreads);
    } else {
      Table.cell("FAIL").cell("-").cell("-").cell("-");
      if (PGO)
        Table.cell("-").cell("-");
    }
  }
  Table.print(std::cout);
  // The failed[] report: one line per failed job with the stage and the
  // status-code classification of its failure.
  for (const BatchJobResult *R : Batch.failed())
    std::cerr << R->Name << ": [" << R->FailStage << "/"
              << statusCodeName(R->FailCode) << "] " << R->FailReason << "\n";
  if (A.on("--stats")) {
    if (A.on("--json"))
      Batch.Stats.renderJSON(std::cout);
    else
      Batch.Stats.renderText(std::cout);
  }
  return Batch.allSucceeded() ? 0 : 1;
}

int cmdServe(const ParsedArgs &A) {
  ServeOptions Opts;
  Opts.SocketPath = A.str("--socket");
  if (Opts.SocketPath.empty())
    return usageError(A.Cmd, "--socket is required");
  Opts.Workers = A.num("--workers");
  Opts.QueueCapacity = A.num("--queue-cap");
  Opts.MaxConnections = A.num("--max-conns");
  Opts.MaxRequestBytes = static_cast<uint32_t>(A.num64("--max-request-bytes"));
  Opts.DefaultDeadlineMs = A.num("--deadline-ms");
  Opts.CacheBytes = static_cast<int64_t>(A.num64("--cache-bytes"));
  Opts.RetryAfterMs = A.num("--retry-after-ms");
  if (!parseFaults(A, Opts.Faults))
    return usageError(A.Cmd, "");
  // Unlike batch, serve also takes the environment's spec when the flag's
  // spec injects nothing.
  if (!Opts.Faults.enabled())
    Opts.Faults = FaultInjector::fromEnv();

  Server S(std::move(Opts));
  S.installSignalHandlers();
  if (Status St = S.start(); !St.ok()) {
    std::cerr << "serve: " << St.str() << "\n";
    return 1;
  }
  // The readiness line supervisors and the CI e2e job wait for.
  std::cerr << "serving on " << S.options().SocketPath << "\n";
  const int Ret = S.wait();
  const ServeStats &St = S.stats();
  std::cerr << "drained: " << St.Requests.load() << " request(s), "
            << St.Ok.load() << " ok, " << St.Failed.load() << " failed, "
            << St.Shed.load() << " shed, " << St.Cancelled.load()
            << " cancelled\n";
  return Ret;
}

int cmdClient(const ParsedArgs &A) {
  const std::string &SocketPath = A.str("--socket");
  if (SocketPath.empty())
    return usageError(A.Cmd, "--socket is required");
  const bool Health = A.on("--health");
  const bool FetchMetrics = A.on("--fetch-metrics");
  if (!Health && !FetchMetrics && A.Positionals.empty())
    return usageError(A.Cmd, "need a file.s (or --health / --fetch-metrics)");
  ErrorOr<ServeClient> C = ServeClient::connectTo(SocketPath);
  if (!C.ok()) {
    std::cerr << "client: " << C.status().str() << "\n";
    return 1;
  }
  ErrorOr<ServeResponse> R = Status::error("no request");
  if (Health) {
    R = C->health();
  } else if (FetchMetrics) {
    R = C->metrics();
  } else {
    std::optional<std::string> Assembly = readFile(A.Positionals[0]);
    if (!Assembly)
      return 1;
    AllocRequest Req;
    Req.Nreg = A.num("-nreg");
    Req.AllowSpill = A.on("--allow-spill");
    Req.MaxSpills = A.num("--max-spills");
    Req.Validate = A.on("--validate");
    Req.DeadlineMs = A.num("--deadline-ms");
    Req.ProfileHash = A.num64("--profile-hash");
    Req.Assembly = std::move(*Assembly);
    R = C->alloc(Req);
  }
  if (!R.ok()) {
    std::cerr << "client: " << R.status().str() << "\n";
    return 1;
  }
  if (!R->Ok) {
    std::cerr << "error: [" << R->Stage << "/" << R->Code << "] "
              << R->Message;
    if (R->RetryAfterMs > 0)
      std::cerr << " (retry after " << R->RetryAfterMs << " ms)";
    std::cerr << "\n";
    return 1;
  }
  if (!Health && !FetchMetrics) {
    std::cerr << "ok: registers-used=" << R->RegistersUsed
              << " sgr=" << R->SGR << " moves=" << R->TotalMoveCost
              << " spilled-ranges=" << R->SpilledRanges
              << " degraded=" << (R->Degraded ? 1 : 0)
              << " validated=" << (R->Validated ? 1 : 0) << "\n";
  }
  // The body — physical assembly for alloc, key=value lines for health,
  // metrics JSON for metrics — goes to stdout, pipeable and diffable.
  std::cout << R->Body;
  return 0;
}

int cmdGrid(const ParsedArgs &A) {
  const std::string &ScenarioName = A.Positionals[0];
  GridOptions Opts;
  Opts.NumEngines = A.num("--engines");
  const std::string &PolicyName = A.str("--placement");
  if (!parsePlacementPolicy(PolicyName, Opts.Policy))
    return usageError(A.Cmd, "unknown placement policy '" + PolicyName + "'");
  Opts.Nreg = A.num("-nreg");
  Opts.HopLatency = A.num("--hoplat");
  Opts.InitialCredits = A.num("--credits");
  Opts.Sim = defaultExperimentConfig();
  Opts.Sim.TargetIterations = A.num("-iters");
  Opts.Sim.MemLatency = A.num("-memlat");
  // Virtual-time tracing: thread-state slices per engine, telemetry
  // counters on the configured period, flow arrows for work dispatches.
  const std::string &TraceCycles = A.str("--trace-cycles");
  CycleTrace CT;
  if (!TraceCycles.empty()) {
    Opts.Trace = &CT;
    Opts.SampleCycles = A.num("--sample-cycles");
  }

  std::vector<std::string> Pool;
  if (!buildGridPool(ScenarioName, Opts.NumEngines, Pool))
    return usageError(A.Cmd, "unknown scenario '" + ScenarioName +
                             "' (want s1, s2, s3 or mixed)");
  GridReport Report = runKernelPoolGrid(ScenarioName, Pool, Opts);
  if (!TraceCycles.empty() && Report.Success) {
    if (Status S = CT.writeFile(TraceCycles); !S.ok()) {
      std::cerr << "error: " << S.str() << "\n";
      return 1;
    }
    std::cerr << "wrote " << TraceCycles << " (" << CT.eventCount()
              << " cycle-domain events)\n";
  }
  if (!Report.Success) {
    std::cerr << "grid run failed: " << Report.FailReason << "\n";
    return 1;
  }

  if (A.on("--json")) {
    std::ostringstream OS;
    OS << "{\n  \"name\": \"" << Report.Name << "\",\n"
       << "  \"engines\": " << Report.NumEngines << ",\n"
       << "  \"placement\": \"" << Report.Policy << "\",\n"
       << "  \"placement_cost\": " << Report.Placement.Cost << ",\n"
       << "  \"placement_swaps\": " << Report.Placement.SwapsApplied << ",\n"
       << "  \"iterations\": " << Report.TotalIterations << ",\n"
       << "  \"max_engine_cycles\": " << Report.MaxEngineCycles << ",\n"
       << "  \"iterations_per_kilocycle\": "
       << Report.IterationsPerKilocycle << ",\n"
       << "  \"interconnect_stall_cycles\": "
       << Report.TotalInterconnectStall << ",\n"
       << "  \"messages_sent\": " << Report.MessagesSent << ",\n"
       << "  \"messages_delivered\": " << Report.MessagesDelivered << ",\n"
       << "  \"credits_returned\": " << Report.CreditsReturned << ",\n"
       << "  \"per_engine\": [";
    for (size_t E = 0; E < Report.Engines.size(); ++E) {
      const GridEngineReport &ER = Report.Engines[E];
      OS << (E ? ",\n    {" : "\n    {") << "\"kernels\": [";
      for (size_t K = 0; K < ER.Kernels.size(); ++K)
        OS << (K ? ", \"" : "\"") << ER.Kernels[K] << "\"";
      OS << "], \"registers_used\": " << ER.RegistersUsed
         << ", \"spilled_ranges\": " << ER.SpilledRanges
         << ", \"cycles\": " << ER.Result.TotalCycles
         << ", \"iterations\": " << ER.Iterations
         << ", \"interconnect_stall_cycles\": "
         << ER.InterconnectStallCycles << "}";
    }
    OS << "\n  ]\n}\n";
    std::cout << OS.str();
    return 0;
  }

  std::cout << "grid: " << Report.Name << "  engines=" << Report.NumEngines
            << "  placement=" << Report.Policy << "  nreg=" << Opts.Nreg
            << "  hoplat=" << Opts.HopLatency
            << "  credits=" << Opts.InitialCredits << "\n";
  TableFormatter Table({"Engine", "Kernels", "Regs", "Cycles", "Iters",
                        "IcStall"});
  for (size_t E = 0; E < Report.Engines.size(); ++E) {
    const GridEngineReport &ER = Report.Engines[E];
    std::string Kernels;
    for (size_t K = 0; K < ER.Kernels.size(); ++K)
      Kernels += (K ? "," : "") + ER.Kernels[K];
    Table.row()
        .cell(static_cast<int>(E))
        .cell(Kernels)
        .cell(ER.RegistersUsed)
        .cell(ER.Result.TotalCycles)
        .cell(ER.Iterations)
        .cell(ER.InterconnectStallCycles);
  }
  Table.print(std::cout);
  std::cout << "aggregate: " << Report.TotalIterations << " iterations, max "
            << "engine cycles " << Report.MaxEngineCycles << " -> "
            << Report.IterationsPerKilocycle << " iters/kcycle\n"
            << "interconnect: " << Report.MessagesSent << " sent, "
            << Report.MessagesDelivered << " delivered, "
            << Report.CreditsReturned << " credits returned, "
            << Report.TotalInterconnectStall << " stall cycles\n"
            << "placement: cost " << Report.Placement.Cost << ", "
            << Report.Placement.SwapsApplied << " swaps\n";
  return 0;
}

int cmdTraceValidate(const ParsedArgs &A) {
  const std::string &Path = A.Positionals[0];
  std::optional<std::string> Text = readFile(Path);
  if (!Text)
    return 1;
  ErrorOr<std::vector<ParsedTraceEvent>> Events = parseChromeTrace(*Text);
  if (!Events.ok()) {
    std::cerr << Path << ": " << Events.status().str() << "\n";
    return 1;
  }
  if (Status S = validateChromeTrace(*Text); !S.ok()) {
    std::cerr << Path << ": " << S.str() << "\n";
    return 1;
  }
  std::cout << Path << ": valid chrome trace, " << Events->size()
            << " events\n";
  return 0;
}

int cmdReport(const ParsedArgs &A) {
  const std::string &Path = A.Positionals[0];
  std::optional<std::string> Text = readFile(Path);
  if (!Text)
    return 1;
  // The report trusts its input's structure, so run the strict validator
  // first — a malformed trace is a hard error, not a partial summary.
  ErrorOr<std::vector<ParsedTraceEvent>> Events = parseChromeTrace(*Text);
  if (!Events.ok()) {
    std::cerr << Path << ": " << Events.status().str() << "\n";
    return 1;
  }
  const TraceReport Report = TraceReport::build(*Events);
  const std::string &HtmlOut = A.str("--html");
  if (HtmlOut.empty()) {
    Report.renderText(std::cout);
    return 0;
  }
  std::ofstream Out(HtmlOut, std::ios::binary);
  if (!Out) {
    std::cerr << "error: cannot write '" << HtmlOut << "'\n";
    return 1;
  }
  Report.renderHTML(Out);
  Out.flush();
  if (!Out) {
    std::cerr << "error: failed writing '" << HtmlOut << "'\n";
    return 1;
  }
  std::cerr << "wrote " << HtmlOut << "\n";
  return 0;
}

constexpr size_t Unbounded = std::numeric_limits<size_t>::max();

const CommandSpec Commands[] = {
    {"analyze", "file.s", 1, 1,
     "per-thread analysis (live ranges, NSRs, pressure) and register bounds",
     cmdAnalyze},
    {"alloc", "file.s", 1, 1,
     "run the inter-thread allocator; print the per-thread PR/SR split and "
     "the physical assembly",
     cmdAlloc},
    {"run", "file.s", 1, 1,
     "allocate, then simulate on the cycle-level engine", cmdRun},
    {"baseline", "file.s", 1, 1,
     "fixed-partition Chaitin/Briggs allocation with spill code",
     cmdBaseline},
    {"sra", "file.s", 1, 1,
     "symmetric allocation: N copies of the file's single thread", cmdSra},
    {"grid", "scenario", 1, 1,
     "multi-micro-engine run (docs/grid.md): place the scenario's threads, "
     "allocate each engine, simulate the grid over the interconnect; "
     "scenario is s1, s2, s3 (the Table 3 mixes) or mixed",
     cmdGrid},
    {"lint", "file.s", 1, 1,
     "run the static-analysis checkers and report every finding", cmdLint},
    {"verify", "files...", 1, Unbounded,
     "allocate each file and prove the physical output equivalent to the "
     "virtual input (translation validation); a mismatch has a witness",
     cmdVerify},
    {"profile", "file.s", 1, 1,
     "simulate the virtual program and collect per-block execution counts",
     cmdProfile},
    {"batch", "files...", 1, Unbounded,
     "run the full pipeline over many files on a thread pool; one result row "
     "per file",
     cmdBatch},
    {"serve", "", 0, 0,
     "allocation daemon on a Unix socket (docs/serve.md) with load shedding, "
     "deadlines and a shared analysis cache; SIGTERM/SIGINT drain it",
     cmdServe},
    {"client", "[file.s]", 0, 1,
     "send one request to a serve daemon; the allocated assembly (as alloc "
     "prints it) goes to stdout, a summary to stderr",
     cmdClient},
    {"trace-validate", "file.json", 1, 1,
     "strictly parse and validate a Chrome trace-event JSON file",
     cmdTraceValidate},
    {"report", "file.json", 1, 1,
     "summarise a trace: state breakdowns, counters and flow latencies",
     cmdReport},
};
const size_t NumCommands = std::size(Commands);

} // namespace

int main(int argc, char **argv) {
  ParsedArgs A;
  const std::string Error = A.parse(argc, argv);
  if (!Error.empty() || !A.Cmd)
    return usageError(A.Cmd, Error);
  const std::string &TraceOut = A.str("--trace-out");
  if (!TraceOut.empty())
    TraceEngine::global().setEnabled(true);

  int Ret = A.Cmd->Run(A);

  if (!TraceOut.empty()) {
    TraceEngine &TE = TraceEngine::global();
    TE.setEnabled(false);
    if (Status S = TE.writeFile(TraceOut); !S.ok()) {
      std::cerr << "error: " << S.str() << "\n";
      Ret = Ret ? Ret : 1;
    } else {
      std::cerr << "wrote " << TraceOut << " (" << TE.eventCount()
                << " trace events)\n";
    }
  }
  if (A.on("--metrics"))
    MetricsRegistry::global().renderText(std::cerr);
  return Ret;
}
