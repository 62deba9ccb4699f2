//===- Status.cpp ---------------------------------------------------------===//

#include "support/Status.h"

#include <cstdio>
#include <cstdlib>

using namespace npral;

const char *npral::statusCodeName(StatusCode Code) {
  switch (Code) {
  case StatusCode::Ok:
    return "ok";
  case StatusCode::Generic:
    return "error";
  case StatusCode::ParseError:
    return "parse-error";
  case StatusCode::InvalidIR:
    return "invalid-ir";
  case StatusCode::UseOfUndef:
    return "use-of-undef";
  case StatusCode::Infeasible:
    return "infeasible";
  case StatusCode::CacheCorrupt:
    return "cache-corrupt";
  case StatusCode::DeadlineExceeded:
    return "deadline-exceeded";
  case StatusCode::FaultInjected:
    return "fault-injected";
  case StatusCode::IOError:
    return "io-error";
  case StatusCode::Internal:
    return "internal";
  case StatusCode::Unavailable:
    return "unavailable";
  case StatusCode::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

std::string SourceLoc::str() const {
  if (!isValid())
    return "<unknown loc>";
  return "line " + std::to_string(Line) + ", column " + std::to_string(Column);
}

Status Status::error(std::string Message, SourceLoc Loc) {
  return error(StatusCode::Generic, std::move(Message), Loc);
}

Status Status::error(StatusCode Code, std::string Message, SourceLoc Loc) {
  assert(Code != StatusCode::Ok && "error status needs a failure code");
  Status S;
  S.Failed = true;
  S.Code = Code;
  S.Message = std::move(Message);
  S.Loc = Loc;
  return S;
}

std::string Status::str() const {
  if (ok())
    return "success";
  if (!Loc.isValid())
    return Message;
  return Loc.str() + ": " + Message;
}

void npral::reportFatalError(const std::string &Message) {
  std::fprintf(stderr, "npral fatal error: %s\n", Message.c_str());
  std::abort();
}
