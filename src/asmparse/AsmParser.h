//===- AsmParser.h - Assembly front end -------------------------*- C++ -*-===//
///
/// \file
/// Parser for the NPRAL assembly dialect. A file holds one or more thread
/// sections:
///
/// \code
///   ; comment (also: # comment)
///   .thread checksum
///   .entrylive buf, len          ; registers live at thread entry
///   entry:
///       imm   sum, 0
///   loop:
///       load  tmp, [buf+0]       ; context-switching memory read
///       add   sum, sum, tmp
///       addi  buf, buf, 1
///       subi  len, len, 1
///       bnz   len, loop
///       store [out+0], sum
///       ctx                      ; voluntary yield
///       loopend
///       br    entry
/// \endcode
///
/// Labels open basic blocks; layout order defines implicit fallthrough.
/// Registers are declared implicitly on first use. Instructions before the
/// first label go into an implicit "entry" block.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ASMPARSE_ASMPARSER_H
#define NPRAL_ASMPARSE_ASMPARSER_H

#include "ir/Program.h"
#include "support/Status.h"

#include <string_view>

namespace npral {

/// Parse a file with any number of `.thread` sections.
ErrorOr<MultiThreadProgram> parseAssembly(std::string_view Source);

/// Parse a file that must contain exactly one thread.
ErrorOr<Program> parseSingleProgram(std::string_view Source);

} // namespace npral

#endif // NPRAL_ASMPARSE_ASMPARSER_H
