//===- MappedWords.h - Zero-filled word array in its own mapping -*- C++ -*-===//
///
/// \file
/// A fixed-size array of 32-bit words, zero on creation, that lives in an
/// anonymous memory mapping of its own instead of the malloc heap. The
/// simulator's data memory is one of these, 4 MiB per simulator.
///
/// A std::vector<uint32_t> of that size made memory use depend on unrelated
/// allocations. glibc raises its mmap threshold the first time a mapped
/// block is freed, and from then on 4 MiB blocks come from the brk heap,
/// where the small allocations around them decide whether a freed block is
/// reused, trimmed or left resident. The same sequence of grid calls then
/// peaked at 80 or 129 MiB depending on how many small vectors had grown
/// before it. A private mapping goes back to the kernel on destruction
/// whatever else is on the heap.
///
/// The pages are faulted in when the mapping is made (MAP_POPULATE where
/// the platform has it), as the vector's zero fill touched them: a run
/// then takes no page faults, so simulator timings do not change. Left
/// lazy, the first writes of a fresh simulator's run faulted, which cost
/// about 11% of tight-fuzz's simulator speed.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SUPPORT_MAPPEDWORDS_H
#define NPRAL_SUPPORT_MAPPEDWORDS_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include <sys/mman.h>

namespace npral {

class MappedWords {
public:
  /// \p N zero words; throws std::bad_alloc when the mapping fails.
  explicit MappedWords(size_t N) : N(N) {
    if (N == 0)
      return;
    int Flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_POPULATE
    Flags |= MAP_POPULATE;
#endif
    void *P = mmap(nullptr, bytes(), PROT_READ | PROT_WRITE, Flags, -1, 0);
    if (P == MAP_FAILED)
      throw std::bad_alloc();
    Words = static_cast<uint32_t *>(P);
  }
  ~MappedWords() {
    if (Words)
      munmap(Words, bytes());
  }

  MappedWords(MappedWords &&O) noexcept
      : Words(std::exchange(O.Words, nullptr)), N(std::exchange(O.N, 0)) {}
  MappedWords(const MappedWords &) = delete;
  MappedWords &operator=(const MappedWords &) = delete;

  size_t size() const { return N; }
  uint32_t *begin() { return Words; }
  uint32_t &operator[](size_t I) {
    assert(I < N && "word index out of range");
    return Words[I];
  }
  uint32_t operator[](size_t I) const {
    assert(I < N && "word index out of range");
    return Words[I];
  }

private:
  size_t bytes() const { return N * sizeof(uint32_t); }

  uint32_t *Words = nullptr;
  size_t N = 0;
};

} // namespace npral

#endif // NPRAL_SUPPORT_MAPPEDWORDS_H
