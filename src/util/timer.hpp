#pragma once
/// \file timer.hpp
/// Wall-clock timing utilities used by the pipeline instrumentation and the
/// benchmark harnesses.

#include <chrono>
#include <cstdint>
#include <ctime>

namespace hetindex {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Nanoseconds elapsed since construction or the last reset().
  [[nodiscard]] std::uint64_t nanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID): the
/// work a stage did, not inflated by the time it waited for a core while
/// sibling threads ran. Must be read on the thread that constructed it.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  void reset() { start_ = now(); }
  [[nodiscard]] double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

/// Accumulates elapsed time into a double on scope exit; used to attribute
/// pipeline time to stages (parse/pre/index/post) without littering call
/// sites with start/stop pairs.
class ScopedAccumulator {
 public:
  explicit ScopedAccumulator(double& sink) : sink_(sink) {}
  ~ScopedAccumulator() { sink_ += timer_.seconds(); }
  ScopedAccumulator(const ScopedAccumulator&) = delete;
  ScopedAccumulator& operator=(const ScopedAccumulator&) = delete;

 private:
  double& sink_;
  WallTimer timer_;
};

}  // namespace hetindex
