//===- TraceValidator.h - Strict Chrome trace-event parsing -----*- C++ -*-===//
///
/// \file
/// A strict parser/validator for the Chrome trace-event JSON the
/// TraceEngine exports. "Strict" means structural JSON errors, unknown
/// phases, unbalanced begin/end pairs, and time going backwards on a track
/// are all hard failures — the CI job and the round-trip tests run every
/// emitted trace through this before calling it valid.
///
/// Checked invariants:
///  * the document is one JSON object whose "traceEvents" is an array of
///    event objects (a top-level bare array is also accepted — Chrome
///    reads both);
///  * every event has string "ph"/"name", and numeric "ts"/"pid"/"tid";
///  * every "ph" is one of B, E, X, i, C, s, f (anything else is still a
///    hard failure);
///  * B/E events nest and balance per (pid, tid) track, with matching
///    names;
///  * "ts" is non-decreasing along each track for B/E/i ("X" events are
///    placed by start time and exempt, matching Chrome's sorting
///    behavior); counter ('C') series are instead non-decreasing per
///    (pid, name), and flow events are ordered through their id;
///  * every 'C' event carries at least one numeric arg (the counter
///    value);
///  * flow events pair up: 's' opens an id (reopening an open id is an
///    error), 'f' closes an id previously opened at a ts <= its own, and
///    no id is left open at end of document.
///
/// Structural errors report the byte offset *and* line of the failure plus
/// the key being parsed, so a bad event in a megabyte of JSON is findable.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_TRACE_TRACEVALIDATOR_H
#define NPRAL_TRACE_TRACEVALIDATOR_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace npral {

/// One parsed trace event; Args values hold the literal JSON token text
/// (quotes stripped for strings) so comparisons are exact.
struct ParsedTraceEvent {
  char Ph = '?';
  std::string Name;
  std::string Cat;
  /// Microseconds (wall traces) or cycles (virtual-time traces), as
  /// written (fractional allowed).
  double Ts = 0;
  /// Slice duration ('X' events); 0 otherwise.
  double Dur = 0;
  int64_t Pid = 0;
  int64_t Tid = 0;
  /// Flow id ('s'/'f' events); valid only when HasId.
  uint64_t Id = 0;
  bool HasId = false;
  std::vector<std::pair<std::string, std::string>> Args;

  /// Scheduling-independent identity: everything except ts/pid/tid, with
  /// args order-normalized. The determinism test compares multisets of
  /// these keys across worker counts.
  std::string contentKey() const;
};

/// Parse and validate \p JSON; returns the events in document order or the
/// first violation.
ErrorOr<std::vector<ParsedTraceEvent>> parseChromeTrace(std::string_view JSON);

/// Validation without the events.
Status validateChromeTrace(std::string_view JSON);

} // namespace npral

#endif // NPRAL_TRACE_TRACEVALIDATOR_H
