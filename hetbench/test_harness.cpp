/// \file test_harness.cpp
/// Unit test of the hetbench measurement primitives. Exits non-zero on the
/// first failed check; the checks stay active in every build type.

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "harness.hpp"

using namespace hetbench;
using namespace std::chrono_literals;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_quartiles() {
  // Values from Python: statistics.quantiles(range(1, 11), n=4) and
  // statistics.quantiles([1, 2], n=4).
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  check(near(q.q1, 2.75) && near(q.median, 5.5) && near(q.q3, 8.25), "quartiles of 1..10");
  const auto two = quartiles({2, 1});
  check(near(two.q1, 0.75) && near(two.median, 1.5) && near(two.q3, 2.25), "quartiles of 2");
  check(near(median({3, 1, 2}), 2), "odd median");
}

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const auto p99 = percentile(v, 99);
  check(p99.value == 990 && p99.samples == 1000 && p99.beyond == 10, "p99 of 1000 samples");
  check(supported(p99), "p99 with 10 samples beyond is supported");
  v.pop_back();
  const auto short_p99 = percentile(v, 99);
  check(short_p99.beyond == 9 && !supported(short_p99), "p99 of 999 samples is unsupported");
  check(supported(percentile(v, 95)), "p95 of 999 samples is supported");
  check(percentile({}, 50).samples == 0, "empty percentile");
}

void test_open_loop_counts_stalls() {
  // 1000 requests/s for 300 ms; the backend stalls 50 ms on request 100.
  // Requests due during the stall must carry the wait in their latency,
  // while their send-to-answer time stays short.
  const auto start = Clock::now() + 5ms;
  const auto calls = open_loop(
      1000.0, 0.0, start, [&](Clock::time_point due) { return due < start + 300ms; },
      [](std::size_t i, Clock::time_point) {
        if (i == 100) std::this_thread::sleep_for(50ms);
      });
  check(calls.size() == 300, "open loop issues every due request");
  bool inflated = true, service_short = true;
  for (std::size_t i = 101; i < 140; ++i) {
    const double due_ms = ms_between(start, calls[i].due);
    inflated = inflated && calls[i].latency_ms() >= 150.0 - due_ms - 1.0;
    service_short = service_short && ms_between(calls[i].sent, calls[i].done) < 5.0;
  }
  check(inflated, "requests due during a 50 ms stall report the wait");
  check(service_short, "the wait is lateness, not service time");
  check(calls[120].late_ms() >= 25.0, "lateness is recorded");
  check(calls[290].latency_ms() < 20.0, "the caller catches up after the stall");
}

void test_peak_rss() { check(peak_rss_mb() > 0, "VmHWM readable"); }

void test_json_writer() {
  JsonObject o;
  o.number("x", 0.1 + 0.2).string("s", "a\"b").raw("ok", "true");
  const auto parsed = hetindex::obs::json_parse(o.str());
  check(parsed.has_value(), "writer output parses");
  if (!parsed) return;
  check(parsed->find("x") != nullptr && parsed->find("x")->number == 0.1 + 0.2,
        "numbers keep every digit");
  check(parsed->find("s") != nullptr && parsed->find("s")->str == "a\"b", "strings escape");
  check(parsed->find("ok") != nullptr && parsed->find("ok")->boolean, "raw values");
}

void test_self_time() {
  Tracer t;
  const auto t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const auto req = t.new_request();
  const auto root = t.record("root", 0, req, at(0), at(10));
  t.record("a", root, req, at(2), at(5));
  t.record("b", root, req, at(4), at(8));
  const auto self = t.self_ms();
  check(near(self.at("root")[0], 4.0), "overlapping children are covered once");
  check(near(self.at("a")[0], 3.0) && near(self.at("b")[0], 4.0), "leaf self time");
}

}  // namespace

int main() {
  test_quartiles();
  test_percentile_rule();
  test_open_loop_counts_stalls();
  test_peak_rss();
  test_json_writer();
  test_self_time();
  if (failures == 0) std::printf("hetbench harness: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
