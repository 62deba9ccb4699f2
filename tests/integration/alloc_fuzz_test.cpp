//===- alloc_fuzz_test.cpp - Property-based fuzz + differential tests -----===//
//
// Randomised hardening of the full inter+intra allocation stack, run over a
// seeded corpus of >= 200 generated multi-thread programs spanning varied
// thread counts, register file sizes and context-switch densities:
//
//  * Fuzz: every successful allocation must pass the independent
//    AllocationVerifier and the lint cross-thread race checker with zero
//    error findings.
//  * Differential invariants: per-thread bounds always satisfy
//    MinPR <= MaxPR <= MaxR and MinR <= MaxR; and whenever the Chaitin
//    baseline colors every thread inside its fixed Nreg/Nthd partition
//    without spilling, the balancing allocator must also fit Nreg with
//    finite move overhead (the partitioned allocation is one of its
//    feasible points). Any divergence dumps both allocations.
//  * Mutation differential: races planted into the fuzz allocations and
//    the allocated examples must be refuted by the translation validator
//    wherever the safety checker flags them — the evidence that a
//    validated job needs no separate safety check.
//
// Every assertion message carries the failing seed. Each test's gtest
// parameter IS the seed, so a failure like "AllocFuzz/AllocFuzzTest.X/137"
// reproduces with --gtest_filter='*AllocFuzzTest*/137'.
//
//===----------------------------------------------------------------------===//

#include "FuzzCaseFactory.h"

#include "alloc/AllocationVerifier.h"
#include "analysis/NSR.h"
#include "asmparse/AsmParser.h"
#include "baseline/ChaitinAllocator.h"
#include "lint/Lint.h"
#include "lint/TranslationValidator.h"
#include "trace/MetricsRegistry.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;
using fuzzcase::FuzzCase;
using fuzzcase::makeCase;

namespace {

std::string dumpNpralAllocation(const InterThreadResult &R) {
  std::ostringstream OS;
  if (!R.Success)
    return "npral: failed (" + R.FailReason + ")";
  OS << "npral: regs=" << R.RegistersUsed << " SGR=" << R.SGR
     << " moves=" << R.TotalMoveCost;
  for (size_t T = 0; T < R.Threads.size(); ++T)
    OS << " | t" << T << " PR=" << R.Threads[T].PR
       << " SR=" << R.Threads[T].SR << " moves=" << R.Threads[T].MoveCost
       << " " << R.Threads[T].Strategy;
  return OS.str();
}

std::string dumpChaitinAllocation(const std::vector<ChaitinResult> &Rs) {
  std::ostringstream OS;
  OS << "chaitin:";
  for (size_t T = 0; T < Rs.size(); ++T) {
    OS << " | t" << T;
    if (Rs[T].Success)
      OS << " colors=" << Rs[T].ColorsUsed << " spilled=" << Rs[T].SpilledRanges;
    else
      OS << " failed (" << Rs[T].FailReason << ")";
  }
  return OS.str();
}

std::string dumpDiagnostics(const DiagnosticEngine &Engine) {
  std::ostringstream OS;
  Engine.renderText(OS);
  return OS.str();
}

} // namespace

class AllocFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocFuzzTest, AllocationVerifiesAndRaceFree) {
  const uint64_t Seed = GetParam();
  FuzzCase C = makeCase(Seed);

  // Per-thread bounds and the feasibility lower bound
  // LB = sum MinPR_i + max_i (MinR_i - MinPR_i): the fragment fallback
  // guarantees an allocation whenever LB <= Nreg.
  int SumMinPR = 0, MaxMinSRGap = 0;
  std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
  for (const Program &P : C.Renamed.Threads) {
    auto Bundle =
        std::make_shared<const ThreadAnalysisBundle>(computeThreadAnalysisBundle(P));
    const RegBounds &B = Bundle->Bounds;
    // Differential invariants on the bounds themselves.
    EXPECT_LE(B.MinPR, B.MaxPR) << "seed " << Seed;
    EXPECT_LE(B.MaxPR, B.MaxR) << "seed " << Seed;
    EXPECT_LE(B.MinR, B.MaxR) << "seed " << Seed;
    EXPECT_LE(B.MinPR, B.MinR) << "seed " << Seed;
    SumMinPR += B.MinPR;
    MaxMinSRGap = std::max(MaxMinSRGap, B.MinR - B.MinPR);
    Bundles.push_back(std::move(Bundle));
  }
  const int LowerBound = SumMinPR + MaxMinSRGap;

  InterThreadResult R = allocateInterThread(C.Renamed, C.Nreg, Bundles);
  if (LowerBound <= C.Nreg)
    ASSERT_TRUE(R.Success)
        << "seed " << Seed << ": allocator failed although LB=" << LowerBound
        << " fits Nreg=" << C.Nreg << ": " << R.FailReason;
  if (!R.Success)
    return; // genuinely infeasible budget; nothing to verify

  EXPECT_LE(R.RegistersUsed, C.Nreg) << "seed " << Seed;

  // Zero defects from the independent safety verifier...
  DiagnosticEngine Safety;
  collectAllocationSafety(R.Physical, Safety);
  EXPECT_EQ(Safety.errorCount(), 0)
      << "seed " << Seed << "\n" << dumpDiagnostics(Safety) << "\n"
      << dumpNpralAllocation(R);

  // ...and from the lint cross-thread race checker.
  DiagnosticEngine Races;
  LintOptions Opts;
  Opts.OnlyChecks = {"cross-thread-race"};
  runAllCheckers(R.Physical, Races, Opts);
  EXPECT_EQ(Races.errorCount(), 0)
      << "seed " << Seed << "\n" << dumpDiagnostics(Races) << "\n"
      << dumpNpralAllocation(R);
}

TEST_P(AllocFuzzTest, DominatesSpillFreeChaitinPartition) {
  const uint64_t Seed = GetParam();
  FuzzCase C = makeCase(Seed);

  // The production-compiler layout: each thread confined to a fixed
  // Nreg/Nthd partition, no sharing.
  const int Partition = C.Nreg / C.Nthd;
  std::vector<ChaitinResult> Baseline;
  bool SpillFree = true;
  for (size_t T = 0; T < C.Virtual.Threads.size(); ++T) {
    ChaitinConfig Config;
    Config.NumColors = Partition;
    Config.SpillBase = 0xF000 + 0x100 * static_cast<int64_t>(T);
    Baseline.push_back(runChaitinAllocator(C.Virtual.Threads[T], Config));
    if (!Baseline.back().Success || Baseline.back().SpilledRanges > 0)
      SpillFree = false;
  }
  if (!SpillFree)
    return; // the baseline needed spills; no dominance claim to check

  // A spill-free partitioned coloring is a feasible point of the balancing
  // allocator's search space, so it must fit Nreg with finite move cost.
  InterThreadResult R = allocateInterThread(C.Renamed, C.Nreg);
  ASSERT_TRUE(R.Success)
      << "seed " << Seed << ": Chaitin colors every " << Partition
      << "-register partition spill-free but npral cannot fit Nreg="
      << C.Nreg << "\n" << dumpNpralAllocation(R) << "\n"
      << dumpChaitinAllocation(Baseline);
  EXPECT_LE(R.RegistersUsed, C.Nreg)
      << "seed " << Seed << "\n" << dumpNpralAllocation(R) << "\n"
      << dumpChaitinAllocation(Baseline);
  EXPECT_GE(R.TotalMoveCost, 0) << "seed " << Seed;
}

TEST_P(AllocFuzzTest, SpillFallbackRecoversInfeasibleBudgets) {
  const uint64_t Seed = GetParam();
  FuzzCase C = makeCase(Seed, /*SmallPrograms=*/true);

  // Squeeze the budget below the feasibility lower bound so the strict
  // allocator must report Infeasible, then require the spill fallback to
  // produce a safe, race-free allocation anyway. The squeeze is shallow
  // (1..4 registers below LB, varied by seed) — each demoted range costs a
  // full re-analysis round, so deep squeezes would dominate suite runtime
  // without strengthening the property. Generated programs have
  // three-operand instructions, so 4 registers is the practical floor.
  int SumMinPR = 0, MaxMinSRGap = 0;
  for (const Program &P : C.Renamed.Threads) {
    const RegBounds B = estimateRegBounds(analyzeThread(P));
    SumMinPR += B.MinPR;
    MaxMinSRGap = std::max(MaxMinSRGap, B.MinR - B.MinPR);
  }
  const int LowerBound = SumMinPR + MaxMinSRGap;
  const int Squeeze = 1 + static_cast<int>(Seed % 4);
  const int Tight = std::max(4 * C.Nthd, LowerBound - Squeeze);
  if (Tight >= LowerBound)
    return; // this corpus entry has no squeezable gap

  InterThreadResult Strict = allocateInterThread(C.Renamed, Tight);
  ASSERT_FALSE(Strict.Success) << "seed " << Seed << ": Nreg=" << Tight
                               << " below LB=" << LowerBound;
  EXPECT_EQ(Strict.FailCode, StatusCode::Infeasible) << "seed " << Seed;

  SpillFallbackOptions Opts;
  Opts.MaxSpills = 256;
  SpillFallbackResult SF = allocateWithSpillFallback(
      C.Renamed, Tight, {}, {}, nullptr, InterAllocLimits(), Opts);
  ASSERT_TRUE(SF.Inter.Success)
      << "seed " << Seed << ": spill fallback failed at Nreg=" << Tight
      << " (LB=" << LowerBound << "): " << SF.Inter.FailReason;
  EXPECT_TRUE(SF.UsedSpilling) << "seed " << Seed;
  EXPECT_LE(SF.Inter.RegistersUsed, Tight) << "seed " << Seed;

  DiagnosticEngine Safety;
  collectAllocationSafety(SF.Inter.Physical, Safety);
  EXPECT_FALSE(Safety.hasErrors())
      << "seed " << Seed << "\n" << dumpDiagnostics(Safety) << "\n"
      << dumpNpralAllocation(SF.Inter);
  for (const Diagnostic &D : Safety.diagnostics())
    EXPECT_NE(D.Check, "cross-thread-abs-overlap")
        << "seed " << Seed << ": spill scratch windows overlap: "
        << D.Message;
}

TEST_P(AllocFuzzTest, TranslationValidationHolds) {
  const uint64_t Seed = GetParam();
  // Small programs: this property runs the allocator three times (unit,
  // PGO-weighted, spill-degraded) and the validator's fixpoint after each.
  FuzzCase C = makeCase(Seed, /*SmallPrograms=*/true);

  // Unit-weighted allocation: every successful output must be provably
  // equivalent to the renamed virtual program.
  InterThreadResult Unit = allocateInterThread(C.Renamed, C.Nreg);
  if (Unit.Success) {
    DiagnosticEngine Engine;
    ValidationResult V = validateTranslation(C.Renamed, Unit.Physical, Engine);
    EXPECT_TRUE(V.Proved)
        << "seed " << Seed << ": unit allocation refuted\n"
        << dumpDiagnostics(Engine) << "\n" << dumpNpralAllocation(Unit);
  }

  // Static-PGO weights change which copies the allocator places, never
  // what the program computes — the proof must still go through.
  std::vector<CostModel> Models;
  for (const Program &P : C.Renamed.Threads)
    Models.push_back(estimateCostModel(P));
  InterThreadResult Pgo = allocateInterThread(C.Renamed, C.Nreg, {}, Models);
  if (Pgo.Success) {
    DiagnosticEngine Engine;
    ValidationResult V = validateTranslation(C.Renamed, Pgo.Physical, Engine);
    EXPECT_TRUE(V.Proved)
        << "seed " << Seed << ": static-PGO allocation refuted\n"
        << dumpDiagnostics(Engine) << "\n" << dumpNpralAllocation(Pgo);
  }

  // Spill-degraded output: squeeze the budget below the feasibility lower
  // bound so the fallback must demote ranges, then prove the degraded
  // program (spill code, pre-entry blocks and all) against the same
  // pre-spill reference.
  int SumMinPR = 0, MaxMinSRGap = 0;
  for (const Program &P : C.Renamed.Threads) {
    const RegBounds B = estimateRegBounds(analyzeThread(P));
    SumMinPR += B.MinPR;
    MaxMinSRGap = std::max(MaxMinSRGap, B.MinR - B.MinPR);
  }
  const int LowerBound = SumMinPR + MaxMinSRGap;
  const int Tight = std::max(4 * C.Nthd, LowerBound - 1 -
                                             static_cast<int>(Seed % 4));
  if (Tight >= LowerBound)
    return; // no squeezable gap in this corpus entry
  SpillFallbackOptions Opts;
  Opts.MaxSpills = 256;
  SpillFallbackResult SF = allocateWithSpillFallback(
      C.Renamed, Tight, {}, {}, nullptr, InterAllocLimits(), Opts);
  if (!SF.Inter.Success)
    return; // recovery itself is SpillFallbackRecoversInfeasibleBudgets' job
  DiagnosticEngine Engine;
  ValidationResult V =
      validateTranslation(C.Renamed, SF.Inter.Physical, Engine);
  EXPECT_TRUE(V.Proved)
      << "seed " << Seed << ": spill-degraded allocation at Nreg=" << Tight
      << " refuted\n" << dumpDiagnostics(Engine) << "\n"
      << dumpNpralAllocation(SF.Inter);
  if (SF.UsedSpilling)
    EXPECT_GT(V.CopiesInterpreted, 0)
        << "seed " << Seed
        << ": degraded output proved without interpreting any spill code";
}

namespace {

/// Registers \p P references: defs, uses and entry-live slots (the safety
/// checker's notion of "referenced").
BitVector referencedRegs(const Program &P) {
  BitVector Refs(P.NumRegs);
  for (const BasicBlock &BB : P.Blocks)
    for (const Instruction &I : BB.Instrs) {
      if (I.Def != NoReg)
        Refs.set(I.Def);
      if (I.Use1 != NoReg)
        Refs.set(I.Use1);
      if (I.Use2 != NoReg)
        Refs.set(I.Use2);
    }
  for (Reg R : P.EntryLiveRegs)
    Refs.set(R);
  return Refs;
}

/// Registers live across at least one CSB of \p P.
BitVector liveAcrossCSBs(const Program &P) {
  BitVector Live(P.NumRegs);
  const NSRInfo NSRs = computeNSRs(P, computeLiveness(P));
  for (const CSB &Boundary : NSRs.getCSBs())
    Live.unionWith(Boundary.LiveAcross);
  return Live;
}

/// Rename register \p From to \p To everywhere in \p P. \p To must be
/// unreferenced in \p P, so the rename is a bijection on P's registers and
/// P on its own computes exactly what it did before.
void renameRegister(Program &P, Reg From, Reg To) {
  for (BasicBlock &BB : P.Blocks)
    for (Instruction &I : BB.Instrs)
      for (Reg *R : {&I.Def, &I.Use1, &I.Use2})
        if (*R == From)
          *R = To;
  std::replace(P.EntryLiveRegs.begin(), P.EntryLiveRegs.end(), From, To);
}

/// Absolute words \p P stores to (\p StoresOnly) or touches at all,
/// minus \p Exclude.
std::set<int64_t> absoluteWords(const Program &P, bool StoresOnly,
                                const std::set<int64_t> &Exclude = {}) {
  std::set<int64_t> Words;
  for (const BasicBlock &BB : P.Blocks)
    for (const Instruction &I : BB.Instrs)
      if ((I.Op == Opcode::StoreA || (!StoresOnly && I.Op == Opcode::LoadA)) &&
          !Exclude.count(I.Imm))
        Words.insert(I.Imm);
  return Words;
}

/// Mutants planted and the ones the two oracles disagree on.
struct MutationTally {
  int Mutants = 0;
  int Controls = 0;
  int SlotMoves = 0;
  int Disagreements = 0;
};

/// Plant one race per ordered thread pair (A, B) of the allocation \p Phys
/// of \p Virt: take the lowest register r live across a CSB of A that B
/// does not reference and rename the lowest register B writes to r, so B
/// keeps its own semantics but now clobbers A's value. With \p MoveSlots
/// (spill-degraded outputs) one scratch word B stores to also moves onto
/// one of A's. Every mutant must be flagged by collectAllocationSafety and
/// refuted by validateTranslation; the same rename onto an unused register
/// must still prove.
void plantRaces(const MultiThreadProgram &Virt, const MultiThreadProgram &Phys,
                bool MoveSlots, const std::string &Label,
                MutationTally &Tally) {
  const int Nthd = Phys.getNumThreads();
  BitVector AnyRefs(Phys.Threads.front().NumRegs);
  for (const Program &T : Phys.Threads)
    AnyRefs.unionWith(referencedRegs(T));
  Reg Unused = NoReg;
  for (Reg R = 0; R < AnyRefs.size() && Unused == NoReg; ++R)
    if (!AnyRefs.test(R))
      Unused = R;
  // Scratch slots are the absolute words the allocator introduced; words
  // the virtual program addresses itself are never moved.
  std::set<int64_t> Original;
  for (const Program &T : Virt.Threads)
    for (int64_t W : absoluteWords(T, false))
      Original.insert(W);
  for (int A = 0; A < Nthd; ++A) {
    const Program &PA = Phys.Threads[static_cast<size_t>(A)];
    const BitVector LiveA = liveAcrossCSBs(PA);
    for (int B = 0; B < Nthd; ++B) {
      if (B == A)
        continue;
      const Program &PB = Phys.Threads[static_cast<size_t>(B)];
      const BitVector RefsB = referencedRegs(PB);
      Reg Victim = NoReg;
      LiveA.forEach([&](int R) {
        if (Victim == NoReg && !RefsB.test(R))
          Victim = R;
      });
      Reg Written = NoReg;
      for (const BasicBlock &BB : PB.Blocks)
        for (const Instruction &I : BB.Instrs)
          if (I.Def != NoReg && (Written == NoReg || I.Def < Written))
            Written = I.Def;
      if (Victim == NoReg || Written == NoReg)
        continue;

      // Control: the same rename onto a register no thread references
      // keeps the allocation valid, so a refutation below is the race's.
      if (Unused != NoReg) {
        MultiThreadProgram Control = Phys;
        renameRegister(Control.Threads[static_cast<size_t>(B)], Written,
                       Unused);
        DiagnosticEngine Proof;
        EXPECT_TRUE(validateTranslation(Virt, Control, Proof).Proved)
            << Label << ": renaming p" << Written << " of " << PB.Name
            << " to unused p" << Unused << " was refuted\n"
            << dumpDiagnostics(Proof);
        ++Tally.Controls;
      }

      MultiThreadProgram Mutant = Phys;
      Program &MB = Mutant.Threads[static_cast<size_t>(B)];
      renameRegister(MB, Written, Victim);
      std::string What = Label + ": thread " + PB.Name + " writes p" +
                         std::to_string(Victim) + " (was p" +
                         std::to_string(Written) + "), live across a CSB of " +
                         PA.Name;
      if (MoveSlots) {
        const std::set<int64_t> SlotsA = absoluteWords(PA, false, Original);
        const std::set<int64_t> TouchedB = absoluteWords(PB, false);
        const std::set<int64_t> StoredB = absoluteWords(PB, true, Original);
        auto Target = std::find_if(SlotsA.begin(), SlotsA.end(),
                                   [&](int64_t S) { return !TouchedB.count(S); });
        if (!StoredB.empty() && Target != SlotsA.end()) {
          const int64_t From = *StoredB.begin();
          for (BasicBlock &BB : MB.Blocks)
            for (Instruction &I : BB.Instrs)
              if ((I.Op == Opcode::LoadA || I.Op == Opcode::StoreA) &&
                  I.Imm == From)
                I.Imm = *Target;
          What += "; scratch " + std::to_string(From) + " moved onto " +
                  std::to_string(*Target);
          ++Tally.SlotMoves;
        }
      }

      DiagnosticEngine Safety;
      collectAllocationSafety(Mutant, Safety);
      DiagnosticEngine Proof;
      const ValidationResult V = validateTranslation(Virt, Mutant, Proof);
      ++Tally.Mutants;
      EXPECT_TRUE(Safety.hasErrors()) << What << ": safety checker missed it";
      if (Safety.hasErrors() && V.Proved)
        ++Tally.Disagreements;
      EXPECT_FALSE(V.Proved)
          << What << ": flagged by the safety checker, proved by the "
          << "translation validator\n" << dumpDiagnostics(Safety);
    }
  }
}

} // namespace

// Evidence that translation validation subsumes the safety check: over the
// 200 plain and spill-degraded fuzz allocations and the allocated examples,
// every planted race the safety checker flags is refuted by the validator.
TEST(AllocFuzzMutation, ValidatorRefutesEveryPlantedRace) {
  MutationTally Tally;
  for (uint64_t Seed = 0; Seed < 200; ++Seed)
    for (const char *Mode : {"plain", "spill"}) {
      const fuzzcase::CaseAllocation A = fuzzcase::allocateCase(Seed, Mode);
      if (A.Skipped || !A.Result.Success)
        continue;
      plantRaces(A.Case.Renamed, A.Result.Physical,
                 /*MoveSlots=*/std::string(Mode) == "spill",
                 "seed " + std::to_string(Seed) + " " + Mode, Tally);
    }

  // The examples, allocated at the paper's Nreg 128. Only inputs whose
  // unmutated output both oracles accept take part (lint_buggy.s reads an
  // undefined register, which the safety checker reports on its own).
  int Examples = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(NPRAL_EXAMPLES_ASM_DIR)) {
    if (Entry.path().extension() != ".s")
      continue;
    std::ifstream In(Entry.path());
    std::ostringstream Text;
    Text << In.rdbuf();
    ErrorOr<MultiThreadProgram> Parsed = parseAssembly(Text.str());
    ASSERT_TRUE(Parsed.ok()) << Entry.path() << ": " << Parsed.status().str();
    MultiThreadProgram Virt = Parsed.take();
    for (Program &T : Virt.Threads)
      T = renameLiveRanges(T);
    InterThreadResult R = allocateInterThread(Virt, 128);
    if (!R.Success)
      continue;
    DiagnosticEngine Safety, Proof;
    collectAllocationSafety(R.Physical, Safety);
    if (Safety.hasErrors() ||
        !validateTranslation(Virt, R.Physical, Proof).Proved)
      continue;
    ++Examples;
    plantRaces(Virt, R.Physical, /*MoveSlots=*/false,
               Entry.path().filename().string(), Tally);
  }

  RecordProperty("mutants", std::to_string(Tally.Mutants));
  RecordProperty("slot_moves", std::to_string(Tally.SlotMoves));
  std::cout << "[ mutation ] " << Tally.Mutants << " planted races ("
            << Tally.SlotMoves << " with a moved scratch slot, " << Examples
            << " examples), " << Tally.Controls << " controls, "
            << Tally.Disagreements << " disagreements\n";
  EXPECT_EQ(Tally.Disagreements, 0);
  EXPECT_GT(Tally.SlotMoves, 0);
  EXPECT_GT(Tally.Controls, 0);
  EXPECT_GE(Examples, 12);
}

namespace {

/// Lazily loaded golden map: (seed, mode) -> outcome string, recorded by
/// `record_alloc_goldens` on the pre-rewrite build (see the file header in
/// alloc_goldens.txt).
const std::map<std::pair<uint64_t, std::string>, std::string> &goldens() {
  static const auto *Map = [] {
    auto *M = new std::map<std::pair<uint64_t, std::string>, std::string>();
    std::ifstream In(NPRAL_ALLOC_GOLDENS_FILE);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      std::istringstream LS(Line);
      uint64_t Seed;
      std::string Mode, Outcome;
      if (LS >> Seed >> Mode >> Outcome)
        (*M)[{Seed, Mode}] = Outcome;
    }
    return M;
  }();
  return *Map;
}

} // namespace

// Bit-identity clause: the printed assembly of every allocation (plain,
// static-PGO-weighted, and spill-degraded) must be byte-equal to what the
// pre-rewrite allocator produced — goldens carry an FNV-64 of the full
// text, so any drift in analysis results, elimination orders, tie-breaks or
// copy placement fails here with the seed and mode in hand.
TEST_P(AllocFuzzTest, BitIdenticalToPreRewriteGoldens) {
  const uint64_t Seed = GetParam();
  for (const char *Mode : {"plain", "pgo", "spill"}) {
    auto It = goldens().find({Seed, Mode});
    ASSERT_NE(It, goldens().end())
        << "no golden for seed " << Seed << " mode " << Mode
        << " — run record_alloc_goldens";
    EXPECT_EQ(fuzzcase::goldenOutcome(Seed, Mode), It->second)
        << "seed " << Seed << " mode " << Mode
        << ": allocation diverged from the pre-rewrite golden";
  }
}

// Deterministic work gate: greedy splitting re-analyses the whole thread
// after every split, which made it the allocator's latency tail until the
// fragment cost started bounding it and a repeated NSR exclusion started
// ending it (124066 re-analyses here before either). The total over the
// plain and static-PGO allocations of the corpus is a pure function of the
// code, so it is gated with no slack: a change that raises it must raise
// this constant on purpose.
TEST(AllocFuzzWork, GreedyReanalysesWithinBudget) {
  constexpr int64_t MaxGreedyReanalyses = 1659;
  const MetricsRegistry &M = MetricsRegistry::global();
  auto count = [&](const char *Name) { return M.counterValue(Name); };
  const int64_t Before = count("alloc.greedy_reanalyses");
  const int64_t PrunesBefore = count("alloc.greedy_prunes");
  const int64_t StallsBefore = count("alloc.greedy_stalls");
  for (uint64_t Seed = 0; Seed < 200; ++Seed)
    for (const char *Mode : {"plain", "pgo"})
      fuzzcase::goldenOutcome(Seed, Mode);
  const int64_t Reanalyses = count("alloc.greedy_reanalyses") - Before;
  RecordProperty("greedy_reanalyses", std::to_string(Reanalyses));
  RecordProperty("greedy_prunes",
                 std::to_string(count("alloc.greedy_prunes") - PrunesBefore));
  RecordProperty("greedy_stalls",
                 std::to_string(count("alloc.greedy_stalls") - StallsBefore));
  EXPECT_LE(Reanalyses, MaxGreedyReanalyses);
}

// 5 tests x 200 seeds = 1000 randomized cases over varied (Nthd, Nreg, CSB
// density). The parameter is the seed itself; rerun one case with
// --gtest_filter='*AllocFuzzTest*/<seed>'.
INSTANTIATE_TEST_SUITE_P(AllocFuzz, AllocFuzzTest,
                         ::testing::Range<uint64_t>(0, 200));
