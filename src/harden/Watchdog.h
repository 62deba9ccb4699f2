//===- Watchdog.h - Per-stage deadline enforcement --------------*- C++ -*-===//
///
/// \file
/// A Watchdog arms a one-shot deadline on construction and flips an atomic
/// cancel flag when it expires. Long-running cooperative loops (the Fig. 8
/// reduction loop, the PGO rebalancer, greedy splitting and the fragment
/// allocator inside each intra-thread probe) poll the flag through
/// InterAllocLimits::Cancel and abandon the run with
/// StatusCode::DeadlineExceeded — the work is bounded without killing the
/// process or leaking a partially-constructed result.
///
/// The timer thread sleeps on a condition variable, so disarming (or
/// destroying) a watchdog that never fired costs one notify + join, not a
/// busy wait. A deadline of zero disables the watchdog entirely: no thread
/// is spawned and the flag never fires.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_HARDEN_WATCHDOG_H
#define NPRAL_HARDEN_WATCHDOG_H

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace npral {

class Watchdog {
public:
  /// Arm a deadline of \p DeadlineMs milliseconds; 0 disables.
  explicit Watchdog(int DeadlineMs);
  ~Watchdog();

  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

  /// The cancel flag to hand to cooperative loops. Stays valid for the
  /// watchdog's lifetime; never fires after disarm() returns.
  const std::atomic<bool> *cancelFlag() const { return &Fired; }

  /// True once the deadline expired (sticky).
  bool fired() const { return Fired.load(std::memory_order_relaxed); }

  /// Stop the timer; idempotent. After return the flag no longer changes.
  void disarm();

private:
  std::atomic<bool> Fired{false};
  bool Stop = false;
  std::mutex M;
  std::condition_variable CV;
  std::thread Timer;
};

} // namespace npral

#endif // NPRAL_HARDEN_WATCHDOG_H
