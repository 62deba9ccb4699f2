//===- ExecutionProfile.cpp -----------------------------------------------===//

#include "profile/ExecutionProfile.h"

#include "ir/IRPrinter.h"
#include "profile/StaticFrequencyEstimator.h"
#include "support/StringUtils.h"

#include <sstream>

using namespace npral;

std::string ExecutionProfile::print() const {
  std::ostringstream OS;
  OS << "npprof 1\n";
  OS << "program " << ProgramName << "\n";
  for (const ThreadProfile &TP : Threads) {
    OS << "thread " << TP.Index << " " << formatString("%016llx",
                                                       (unsigned long long)
                                                           TP.CodeHash)
       << " " << TP.Name << "\n";
    for (const auto &[Block, Count] : TP.BlockCounts)
      OS << "block " << Block << " " << Count << "\n";
    for (const auto &[Point, Count] : TP.SwitchCounts)
      OS << "csb " << Point.first << " " << Point.second << " " << Count
         << "\n";
  }
  OS << "end\n";
  return OS.str();
}

std::string ExecutionProfile::printJSON() const {
  std::ostringstream OS;
  OS << "{\n  \"program\": \"" << ProgramName << "\",\n  \"threads\": [\n";
  for (size_t T = 0; T < Threads.size(); ++T) {
    const ThreadProfile &TP = Threads[T];
    OS << "    {\"index\": " << TP.Index << ", \"name\": \"" << TP.Name
       << "\", \"code_hash\": \""
       << formatString("%016llx", (unsigned long long)TP.CodeHash)
       << "\",\n     \"blocks\": {";
    bool First = true;
    for (const auto &[Block, Count] : TP.BlockCounts) {
      OS << (First ? "" : ", ") << "\"" << Block << "\": " << Count;
      First = false;
    }
    OS << "},\n     \"csbs\": [";
    First = true;
    for (const auto &[Point, Count] : TP.SwitchCounts) {
      OS << (First ? "" : ", ") << "[" << Point.first << ", " << Point.second
         << ", " << Count << "]";
      First = false;
    }
    OS << "]}" << (T + 1 < Threads.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
  return OS.str();
}

std::optional<ExecutionProfile>
ExecutionProfile::parse(std::string_view Text, std::string &Error) {
  ExecutionProfile P;
  ThreadProfile *Cur = nullptr;
  bool SawHeader = false, SawProgram = false, SawEnd = false;
  int LineNo = 0;

  auto fail = [&](const std::string &Msg) {
    Error = "npprof line " + std::to_string(LineNo) + ": " + Msg;
    return std::nullopt;
  };

  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    std::string_view Line = Text.substr(
        Pos, Eol == std::string_view::npos ? std::string_view::npos
                                           : Eol - Pos);
    Pos = Eol == std::string_view::npos ? Text.size() + 1 : Eol + 1;
    ++LineNo;
    Line = trim(Line);
    if (Line.empty() || Line[0] == '#')
      continue;
    if (SawEnd)
      return fail("content after 'end'");

    std::vector<std::string_view> Tok = split(Line, ' ');
    std::string_view Kw = Tok[0];

    if (!SawHeader) {
      if (Kw != "npprof" || Tok.size() != 2 || Tok[1] != "1")
        return fail("expected 'npprof 1' header");
      SawHeader = true;
      continue;
    }
    if (Kw == "program") {
      if (SawProgram)
        return fail("duplicate 'program' line");
      SawProgram = true;
      // The name is everything after the keyword (may contain spaces).
      P.ProgramName = std::string(trim(Line.substr(Kw.size())));
      continue;
    }
    if (!SawProgram)
      return fail("expected 'program' line");
    if (Kw == "thread") {
      if (Tok.size() < 3)
        return fail("'thread' needs <index> <code-hash> [<name>]");
      std::optional<int64_t> Idx = parseInteger(Tok[1]);
      if (!Idx || *Idx < 0)
        return fail("bad thread index");
      uint64_t Hash = 0;
      for (char C : Tok[2]) {
        int Digit = C >= '0' && C <= '9'   ? C - '0'
                    : C >= 'a' && C <= 'f' ? C - 'a' + 10
                    : C >= 'A' && C <= 'F' ? C - 'A' + 10
                                           : -1;
        if (Digit < 0)
          return fail("bad code hash");
        Hash = (Hash << 4) | static_cast<uint64_t>(Digit);
      }
      ThreadProfile TP;
      TP.Index = static_cast<int>(*Idx);
      TP.CodeHash = Hash;
      // The name is the remainder of the line after the hash token (the
      // token views alias Line, so pointer arithmetic gives its offset).
      size_t NameAt =
          static_cast<size_t>(Tok[2].data() - Line.data()) + Tok[2].size();
      TP.Name = std::string(trim(Line.substr(NameAt)));
      P.Threads.push_back(std::move(TP));
      Cur = &P.Threads.back();
      continue;
    }
    if (Kw == "block") {
      if (!Cur)
        return fail("'block' before any 'thread'");
      std::optional<int64_t> Block =
          Tok.size() == 3 ? parseInteger(Tok[1]) : std::nullopt;
      std::optional<int64_t> Count =
          Tok.size() == 3 ? parseInteger(Tok[2]) : std::nullopt;
      if (!Block || !Count || *Block < 0 || *Count < 0)
        return fail("'block' needs <block-id> <count>");
      if (!Cur->BlockCounts.emplace(static_cast<int>(*Block), *Count).second)
        return fail("duplicate 'block' entry");
      continue;
    }
    if (Kw == "csb") {
      if (!Cur)
        return fail("'csb' before any 'thread'");
      std::optional<int64_t> Block =
          Tok.size() == 4 ? parseInteger(Tok[1]) : std::nullopt;
      std::optional<int64_t> Index =
          Tok.size() == 4 ? parseInteger(Tok[2]) : std::nullopt;
      std::optional<int64_t> Count =
          Tok.size() == 4 ? parseInteger(Tok[3]) : std::nullopt;
      if (!Block || !Index || !Count || *Block < 0 || *Index < 0 ||
          *Count < 0)
        return fail("'csb' needs <block-id> <instr-index> <count>");
      std::pair<int, int> Key{static_cast<int>(*Block),
                              static_cast<int>(*Index)};
      if (!Cur->SwitchCounts.emplace(Key, *Count).second)
        return fail("duplicate 'csb' entry");
      continue;
    }
    if (Kw == "end") {
      if (Tok.size() != 1)
        return fail("trailing tokens after 'end'");
      SawEnd = true;
      continue;
    }
    return fail("unknown keyword '" + std::string(Kw) + "'");
  }
  if (!SawHeader)
    return fail("empty profile");
  if (!SawEnd)
    return fail("missing 'end'");
  return P;
}

bool ExecutionProfile::merge(const ExecutionProfile &Other,
                             std::string &Error) {
  if (ProgramName != Other.ProgramName) {
    Error = "program name mismatch: '" + ProgramName + "' vs '" +
            Other.ProgramName + "'";
    return false;
  }
  if (Threads.size() != Other.Threads.size()) {
    Error = "thread count mismatch";
    return false;
  }
  for (size_t T = 0; T < Threads.size(); ++T) {
    const ThreadProfile &A = Threads[T], &B = Other.Threads[T];
    if (A.Index != B.Index || A.Name != B.Name || A.CodeHash != B.CodeHash) {
      Error = "thread " + std::to_string(T) +
              " identity mismatch (index/name/code hash)";
      return false;
    }
  }
  for (size_t T = 0; T < Threads.size(); ++T) {
    ThreadProfile &A = Threads[T];
    const ThreadProfile &B = Other.Threads[T];
    for (const auto &[Block, Count] : B.BlockCounts)
      A.BlockCounts[Block] += Count;
    for (const auto &[Point, Count] : B.SwitchCounts)
      A.SwitchCounts[Point] += Count;
  }
  return true;
}

uint64_t ExecutionProfile::contentHash() const { return fnv1aHash(print()); }

const ThreadProfile *
ExecutionProfile::findByCodeHash(uint64_t CodeHash) const {
  for (const ThreadProfile &TP : Threads)
    if (TP.CodeHash == CodeHash)
      return &TP;
  return nullptr;
}

CostModel ExecutionProfile::costModel(int Thread, int NumBlocks) const {
  CostModel CM;
  if (Thread < 0 || static_cast<size_t>(Thread) >= Threads.size())
    return CM;
  const ThreadProfile &TP = Threads[static_cast<size_t>(Thread)];
  for (int B = 0; B < NumBlocks; ++B)
    CM.setBlockWeight(B, TP.blockCount(B));
  return CM;
}

CostModel npral::resolveCostModel(const Program &T,
                                  const ExecutionProfile *Profile,
                                  bool StaticPGO, bool *Profiled) {
  const ThreadProfile *TP =
      Profile ? Profile->findByCodeHash(fnv1aHash(programToString(T)))
              : nullptr;
  if (Profiled)
    *Profiled = TP != nullptr;
  if (TP)
    return Profile->costModel(static_cast<int>(TP - Profile->Threads.data()),
                              T.getNumBlocks());
  return StaticPGO ? estimateCostModel(T) : CostModel();
}
