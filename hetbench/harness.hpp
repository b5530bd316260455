#pragma once
/// \file harness.hpp
/// Measurement primitives of hetbench: order statistics, the tail rule
/// (report a percentile only when at least ten samples lie beyond it), an
/// open-loop caller that times every request from when it was due, peak
/// resident memory, an in-memory span tracer and a flat JSON writer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace hetbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ------------------------------------------------------------ order statistics

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

/// Quartiles by the same rule as Python's statistics.quantiles(data, n=4)
/// (the 'exclusive' method), so the bench and compare mode agree with any
/// script that re-derives them from the raw values. One sample gives that
/// sample three times; none gives zeros.
inline Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return {};
  if (n == 1) return {v[0], v[0], v[0]};
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  Quartiles q{cut(1), 0, cut(3)};
  q.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  return q;
}

inline double median(std::vector<double> v) { return quartiles(std::move(v)).median; }

/// A percentile with the evidence behind it.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly above the reported rank
};

/// A percentile is reported only when this many samples lie beyond it;
/// with fewer, the "p99" is one or two outliers.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it.
inline Percentile percentile(std::vector<double> v, double p) {
  Percentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
  const std::size_t r = std::clamp<std::size_t>(rank, 1, v.size());
  out.value = v[r - 1];
  out.beyond = v.size() - r;
  return out;
}

inline bool supported(const Percentile& p) { return p.beyond >= kMinBeyond; }

// ------------------------------------------------------------ open-loop caller

/// When one request was due, handed to the backend, and answered.
/// `backlogged` is set when the caller was still waiting on its previous
/// request at the due time: the backend's slowness delayed this request,
/// so its latency counts from `due`. Otherwise the caller was idle and any
/// delay before `sent` is the generator's own wake-up lateness, which the
/// backend never saw; latency then counts from `sent`.
struct CallTiming {
  Clock::time_point due, sent, done;
  bool backlogged = false;
  [[nodiscard]] double latency_ms() const { return ms_between(backlogged ? due : sent, done); }
  [[nodiscard]] double late_ms() const { return ms_between(due, sent); }
};

/// Issues request i at start + (i + phase) / rate while until(due) holds,
/// calling fn(i, due) on this thread. A slow call never cancels the
/// requests due during it: they go out late, back to back, and their
/// latency, counted from the due time, includes the wait (no coordinated
/// omission).
template <class Until, class Fn>
std::vector<CallTiming> open_loop(double rate, double phase, Clock::time_point start,
                                  Until&& until, Fn&& fn) {
  std::vector<CallTiming> out;
  Clock::time_point previous_done{};
  for (std::size_t i = 0;; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>((static_cast<double>(i) + phase) /
                                                               rate));
    if (!until(due)) break;
    std::this_thread::sleep_until(due);
    CallTiming t;
    t.due = due;
    t.backlogged = previous_done > due;
    t.sent = Clock::now();
    fn(i, due);
    t.done = previous_done = Clock::now();
    out.push_back(t);
  }
  return out;
}

// ------------------------------------------------------------ memory

/// Peak resident set (VmHWM) of this process in MB; 0 when /proc is absent.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

// ------------------------------------------------------------ tracing

/// One traced interval. Spans of one request share `request`; `parent` is
/// the id of the enclosing span (0 for a root).
struct Span {
  std::string name;
  std::uint64_t id = 0, parent = 0, request = 0;
  Clock::time_point start, end;
};

/// Keeps spans in memory; written out once, when the run ends. Spans are
/// recorded after the traced call returns, so tracing delays no call it
/// measures; what it costs is the time spent in record(), which is kept.
class Tracer {
 public:
  std::uint64_t record(std::string name, std::uint64_t parent, std::uint64_t request,
                       Clock::time_point start, Clock::time_point end) {
    const auto t0 = Clock::now();
    const std::uint64_t id = next_.fetch_add(1, std::memory_order_relaxed);
    {
      std::scoped_lock lock(mu_);
      spans_.push_back({std::move(name), id, parent, request, start, end});
    }
    spent_ticks_.fetch_add(static_cast<std::uint64_t>((Clock::now() - t0).count()),
                        std::memory_order_relaxed);
    return id;
  }
  /// Wall time spent recording spans, summed over threads.
  [[nodiscard]] double spent_ms() const {
    return std::chrono::duration<double, std::milli>(
               Clock::duration(spent_ticks_.load(std::memory_order_relaxed)))
        .count();
  }
  std::uint64_t new_request() { return next_request_.fetch_add(1, std::memory_order_relaxed); }

  /// Self time of every span, grouped by name: its duration minus the part
  /// its children cover (children are clipped to the parent and merged, so
  /// overlapping children are not counted twice).
  [[nodiscard]] std::map<std::string, std::vector<double>> self_ms() const {
    std::scoped_lock lock(mu_);
    std::map<std::uint64_t, std::vector<const Span*>> children;
    for (const auto& s : spans_) {
      if (s.parent != 0) children[s.parent].push_back(&s);
    }
    std::map<std::string, std::vector<double>> out;
    for (const auto& s : spans_) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
      if (auto it = children.find(s.id); it != children.end()) {
        for (const Span* c : it->second) {
          const auto a = std::max(c->start, s.start), b = std::min(c->end, s.end);
          if (a < b) cover.emplace_back(a, b);
        }
      }
      std::sort(cover.begin(), cover.end());
      double covered = 0;
      Clock::time_point reach = s.start;
      for (const auto& [a, b] : cover) {
        const auto from = std::max(a, reach);
        if (b > from) covered += ms_between(from, b);
        reach = std::max(reach, b);
      }
      out[s.name].push_back(ms_between(s.start, s.end) - covered);
    }
    return out;
  }

  /// {"spans":[{"name":..,"id":..,"parent":..,"request":..,"start_us":..,
  /// "end_us":..}, ...]} with times relative to `origin`.
  [[nodiscard]] std::string to_json(Clock::time_point origin) const {
    std::scoped_lock lock(mu_);
    std::string out = "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\":";
      hetindex::obs::json_append_string(out, s.name);
      out += ",\"id\":" + std::to_string(s.id) + ",\"parent\":" + std::to_string(s.parent) +
             ",\"request\":" + std::to_string(s.request) +
             ",\"start_us\":" + hetindex::obs::json_number(ms_between(origin, s.start) * 1e3) +
             ",\"end_us\":" + hetindex::obs::json_number(ms_between(origin, s.end) * 1e3) + "}";
    }
    return out + "]}\n";
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_{1};
  std::atomic<std::uint64_t> next_request_{1};
  std::atomic<std::uint64_t> spent_ticks_{0};
};

// ------------------------------------------------------------ JSON

/// Flat JSON object writer; numbers keep every digit (shortest round-trip).
class JsonObject {
 public:
  JsonObject& number(std::string_view key, double value) {
    return raw(key, hetindex::obs::json_number(value));
  }
  JsonObject& string(std::string_view key, std::string_view value) {
    std::string quoted;
    hetindex::obs::json_append_string(quoted, value);
    return raw(key, quoted);
  }
  /// `json` must already be a JSON value (true, 12, {...}).
  JsonObject& raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ", ";
    hetindex::obs::json_append_string(body_, key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace hetbench
