//===- ProgramGenerator.cpp -----------------------------------------------===//

#include "workloads/ProgramGenerator.h"

#include "ir/IRBuilder.h"
#include "ir/IRVerifier.h"
#include "support/Status.h"

#include <algorithm>
#include <vector>

using namespace npral;

namespace {

/// Per-kind parameter derivation. Everything here is computed without
/// consuming randomness, and the Generic row reproduces the pre-Kind
/// constants exactly — that is what keeps default seed streams stable.
struct KindProfile {
  int CtxRatePerMille;
  int ExtraLongLived;
  int IfWeight;   ///< dice band width for emitIf (Generic: 60)
  int LoopWeight; ///< dice band width for emitLoop (Generic: 50)
  const Opcode *Binary;    ///< 6-entry three-address opcode table
  const Opcode *BinaryImm; ///< 5-entry immediate opcode table
};

const Opcode GenericBinary[] = {Opcode::Add, Opcode::Sub, Opcode::And,
                                Opcode::Or,  Opcode::Xor, Opcode::Mul};
const Opcode GenericBinaryImm[] = {Opcode::AddI, Opcode::XorI, Opcode::AndI,
                                   Opcode::ShlI, Opcode::ShrI};
// CRC/checksum folding: xor-and-shift dominated, no multiplies.
const Opcode ChecksumBinary[] = {Opcode::Xor, Opcode::Add, Opcode::Xor,
                                 Opcode::Shr, Opcode::Xor, Opcode::Add};
const Opcode ChecksumBinaryImm[] = {Opcode::XorI, Opcode::ShrI, Opcode::ShlI,
                                    Opcode::XorI, Opcode::AddI};

KindProfile deriveKindProfile(const GeneratorConfig &Config) {
  const int Rate = Config.CtxRatePerMille;
  switch (Config.Kind) {
  case ProgramKind::Generic:
    return {Rate, 0, 60, 50, GenericBinary, GenericBinaryImm};
  case ProgramKind::Checksum:
    return {Rate, 0, 60, 50, ChecksumBinary, ChecksumBinaryImm};
  case ProgramKind::Crypto:
    return {Rate / 2, 8, 60, 50, GenericBinary, GenericBinaryImm};
  case ProgramKind::Forward:
    return {std::min(400, Rate * 5 / 2), 0, 60, 50, GenericBinary,
            GenericBinaryImm};
  case ProgramKind::Sched:
    return {Rate, 0, 160, 90, GenericBinary, GenericBinaryImm};
  }
  return {Rate, 0, 60, 50, GenericBinary, GenericBinaryImm};
}

class GeneratorImpl {
public:
  GeneratorImpl(uint64_t Seed, const GeneratorConfig &Config)
      : Config(Config), Kind(deriveKindProfile(Config)), R(Seed), B(P) {}

  Program generate();

private:
  const GeneratorConfig &Config;
  KindProfile Kind;
  Rng R;
  Program P;
  IRBuilder B;
  std::vector<Reg> Pool; ///< General registers, all defined at entry.
  Reg InPtr = NoReg;
  Reg OutPtr = NoReg;
  int Budget = 0;
  int StoreCursor = 0;
  int LoopNest = 0;

  Reg pick() { return Pool[R.nextBelow(Pool.size())]; }

  void emitAlu() {
    Reg Def = pick();
    const Opcode *Binary = Kind.Binary;
    const Opcode *BinaryImm = Kind.BinaryImm;
    switch (R.nextBelow(4)) {
    case 0:
      B.imm(Def, static_cast<int64_t>(R.nextBelow(1 << 16)));
      break;
    case 1:
      B.unop(R.nextChance(1, 2) ? Opcode::Not : Opcode::Neg, Def, pick());
      break;
    case 2:
      B.binopImm(BinaryImm[R.nextBelow(5)], Def, pick(),
                 static_cast<int64_t>(R.nextBelow(31) + 1));
      break;
    default:
      B.binop(Binary[R.nextBelow(6)], Def, pick(), pick());
      break;
    }
  }

  void emitMemOrCtx() {
    switch (R.nextBelow(3)) {
    case 0:
      B.load(pick(), InPtr, static_cast<int64_t>(R.nextBelow(Config.MemLen)));
      break;
    case 1: {
      int64_t Slot = StoreCursor++ % static_cast<int>(Config.OutLen);
      B.store(OutPtr, Slot, pick());
      break;
    }
    default:
      B.ctx();
      break;
    }
  }

  void emitIf(int Depth) {
    Reg Cond = pick();
    int ThenB = B.createBlock();
    int ElseB = B.createBlock();
    int Join = B.createBlock();
    B.condBrZ(R.nextChance(1, 2) ? Opcode::BrZ : Opcode::BrNz, Cond, ElseB);
    B.setFallThrough(ThenB);
    B.setInsertBlock(ThenB);
    emitSequence(Depth + 1, 1 + static_cast<int>(R.nextBelow(6)));
    B.br(Join);
    B.setInsertBlock(ElseB);
    if (R.nextChance(3, 4))
      emitSequence(Depth + 1, 1 + static_cast<int>(R.nextBelow(6)));
    B.setFallThrough(Join);
    B.setInsertBlock(Join);
  }

  void emitLoop(int Depth) {
    ++LoopNest;
    // Fresh counter outside the pool so the body cannot clobber it.
    Reg Counter = B.reg();
    B.imm(Counter, static_cast<int64_t>(2 + R.nextBelow(3)));
    int Body = B.createBlock();
    int After = B.createBlock();
    B.setFallThrough(Body);
    B.setInsertBlock(Body);
    emitSequence(Depth + 1, 2 + static_cast<int>(R.nextBelow(8)));
    B.binopImm(Opcode::SubI, Counter, Counter, 1);
    B.condBrZ(Opcode::BrNz, Counter, Body);
    B.setFallThrough(After);
    B.setInsertBlock(After);
    --LoopNest;
  }

  bool loopAllowed() const {
    return Config.MaxLoopNest < 0 || LoopNest < Config.MaxLoopNest;
  }

  void emitSequence(int Depth, int Items) {
    const uint64_t CtxBand = static_cast<uint64_t>(Kind.CtxRatePerMille);
    const uint64_t IfBand = CtxBand + static_cast<uint64_t>(Kind.IfWeight);
    const uint64_t LoopBand = IfBand + static_cast<uint64_t>(Kind.LoopWeight);
    for (int I = 0; I < Items && Budget > 0; ++I) {
      --Budget;
      uint64_t Dice = R.nextBelow(1000);
      if (Dice < CtxBand) {
        emitMemOrCtx();
        continue;
      }
      if (Dice < IfBand && Depth < Config.MaxDepth) {
        emitIf(Depth);
        continue;
      }
      if (Dice < LoopBand && Depth < Config.MaxDepth && loopAllowed()) {
        emitLoop(Depth);
        continue;
      }
      emitAlu();
    }
  }
};

Program GeneratorImpl::generate() {
  P.Name = "random";
  B.startBlock("entry");

  InPtr = B.reg("inp");
  OutPtr = B.reg("outp");
  B.imm(InPtr, Config.MemBase);
  B.imm(OutPtr, Config.OutBase);
  const int PoolSize = std::max(Config.NumLongLived + Kind.ExtraLongLived,
                                Config.PressureTarget);
  for (int I = 0; I < PoolSize; ++I) {
    Reg V = B.reg("v" + std::to_string(I));
    B.imm(V, static_cast<int64_t>(R.nextBelow(1 << 20)));
    Pool.push_back(V);
  }

  Budget = Config.TargetInstructions;
  emitSequence(0, Config.TargetInstructions);

  // Store trail tail: make every pool register observable. Slots wrap when
  // a PressureTarget-widened pool outgrows the output region (the store is
  // still a use, which is what keeps the register live to the end).
  for (size_t I = 0; I < Pool.size(); ++I)
    B.store(OutPtr,
            static_cast<int64_t>(Config.OutLen - 1 -
                                 (I % static_cast<size_t>(Config.OutLen))),
            Pool[I]);
  B.loopEnd();
  B.halt();

  if (Status S = verifyProgram(P); !S.ok())
    reportFatalError("generated program failed verification: " + S.str());
  return P;
}

} // namespace

Program npral::generateRandomProgram(uint64_t Seed,
                                     const GeneratorConfig &Config) {
  GeneratorImpl G(Seed, Config);
  return G.generate();
}
