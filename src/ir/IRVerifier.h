//===- IRVerifier.h - Structural IR checks ----------------------*- C++ -*-===//
///
/// \file
/// Structural well-formedness checks for Programs. Analyses and the
/// allocators assume a verified program; tests call this after every
/// construction and transformation.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_IR_IRVERIFIER_H
#define NPRAL_IR_IRVERIFIER_H

#include "ir/Program.h"
#include "support/Status.h"

namespace npral {

/// Check structural invariants of \p P:
///  * register IDs are in [0, NumRegs) and match the opcode's operand shape;
///  * branch targets and fallthroughs reference existing blocks;
///  * branches appear only in terminator position (a conditional branch may
///    be followed by one unconditional `br`);
///  * every block has an exit: a `br`/`halt` terminator or a fallthrough;
///  * the entry block exists.
Status verifyProgram(const Program &P);

/// Verify every thread of \p MTP.
Status verifyMultiThreadProgram(const MultiThreadProgram &MTP);

} // namespace npral

#endif // NPRAL_IR_IRVERIFIER_H
