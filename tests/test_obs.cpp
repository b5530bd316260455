// Observability layer tests: instrument registration and update semantics,
// snapshot consistency under concurrent writers, queue probes, the JSON
// round-trip of both MetricsSnapshot and PipelineReport, configuration
// validation, and the engine-level invariant that metric totals equal the
// PipelineReport aggregates on a synthetic corpus.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string_view>
#include <thread>
#include <vector>

#include "core/hetindex.hpp"
#include "pipeline/reorder_buffer.hpp"
#include "util/bounded_queue.hpp"

namespace hetindex {
namespace {

using obs::json_parse;
using obs::JsonValue;
using obs::QueueProbe;

TEST(MetricsRegistry, GetOrCreateReturnsStableInstruments) {
  MetricsRegistry m;
  obs::Counter& a = m.counter("events_total");
  a.add(3);
  EXPECT_EQ(&m.counter("events_total"), &a);
  EXPECT_EQ(m.counter("events_total").value(), 3u);
  EXPECT_EQ(m.counter("other_total").value(), 0u);

  obs::TimeCounter& t = m.time_counter("busy_seconds_total");
  t.add(0.5);
  t.add(0.25);
  EXPECT_DOUBLE_EQ(m.time_counter("busy_seconds_total").value(), 0.75);

  obs::Gauge& g = m.gauge("depth");
  g.set(4);
  g.add(-1);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 4);
  g.set(10);
  EXPECT_EQ(g.max(), 10);

  obs::Stat& s = m.stat("sample_seconds");
  s.add(1.0);
  s.add(3.0);
  EXPECT_EQ(s.value().count(), 2u);
  EXPECT_DOUBLE_EQ(s.value().mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.value().min(), 1.0);
  EXPECT_DOUBLE_EQ(s.value().max(), 3.0);

  obs::Histo& h = m.histogram("mbps", 0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(99.0);  // clamps to top bucket
  EXPECT_EQ(h.value().total(), 3u);
  EXPECT_EQ(h.value().bucket_count(0), 1u);
  EXPECT_EQ(h.value().bucket_count(5), 1u);
  EXPECT_EQ(h.value().bucket_count(9), 1u);
}

TEST(MetricsRegistry, StageSpanFeedsTotalAndPerSampleStat) {
  MetricsRegistry m;
  obs::TimeCounter& total = m.time_counter("stage_seconds_total");
  obs::Stat& per_run = m.stat("run_seconds");
  double first = 0;
  {
    obs::StageSpan span(&total, &per_run);
    first = span.stop();
    EXPECT_EQ(span.stop(), first);  // idempotent
  }
  { obs::StageSpan span(&total, &per_run); }  // records via destructor
  EXPECT_EQ(per_run.value().count(), 2u);
  EXPECT_GE(first, 0.0);
  EXPECT_DOUBLE_EQ(total.value(), per_run.value().sum());
}

TEST(MetricsRegistry, SnapshotIsConsistentUnderConcurrentWriters) {
  MetricsRegistry m;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  obs::Counter& events = m.counter("events_total");
  obs::TimeCounter& seconds = m.time_counter("busy_seconds_total");
  obs::Gauge& level = m.gauge("level");
  obs::Stat& samples = m.stat("samples");
  std::atomic<bool> done{false};

  std::vector<std::jthread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        events.add(1);
        seconds.add(0.001);
        level.add(1);
        level.add(-1);
        if (i % 64 == 0) samples.add(static_cast<double>(i));
      }
    });
  }
  // Snapshots taken while writers run must be internally sane and monotone.
  std::uint64_t last = 0;
  while (!done.load()) {
    const MetricsSnapshot snap = m.snapshot();
    const std::uint64_t now = snap.counter("events_total");
    EXPECT_GE(now, last);
    EXPECT_LE(now, kThreads * kPerThread);
    EXPECT_GE(snap.time_seconds("busy_seconds_total"), 0.0);
    last = now;
    if (now == kThreads * kPerThread) break;
    std::this_thread::yield();
  }
  writers.clear();  // join
  const MetricsSnapshot final = m.snapshot();
  EXPECT_EQ(final.counter("events_total"), kThreads * kPerThread);
  EXPECT_NEAR(final.time_seconds("busy_seconds_total"),
              0.001 * static_cast<double>(kThreads * kPerThread), 1e-6);
  EXPECT_EQ(final.gauge("level")->value, 0);
  EXPECT_LE(final.gauge("level")->max, kThreads);
  EXPECT_EQ(final.stat("samples")->count,
            static_cast<std::uint64_t>(kThreads) * (kPerThread / 64 + (kPerThread % 64 ? 1 : 0)));
}

TEST(QueueProbes, BoundedQueueReportsDepthAndStalls) {
  MetricsRegistry m;
  QueueProbe probe{&m.gauge("q_depth"), &m.time_counter("q_producer_stall"),
                   &m.time_counter("q_consumer_stall")};
  BoundedQueue<int> q(2, probe);
  // Fill to capacity, then a blocking producer must stall until a consumer
  // frees a slot.
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  EXPECT_EQ(m.gauge("q_depth").value(), 2);
  std::jthread producer([&] { ASSERT_TRUE(q.push(3)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_GT(m.time_counter("q_producer_stall").value(), 0.0);
  EXPECT_EQ(m.gauge("q_depth").max(), 2);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  // Consumer stall: pop on an empty queue until a delayed producer arrives.
  std::jthread slow([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(4);
  });
  EXPECT_EQ(q.pop(), 4);
  slow.join();
  EXPECT_GT(m.time_counter("q_consumer_stall").value(), 0.0);
  EXPECT_EQ(m.gauge("q_depth").value(), 0);
}

TEST(QueueProbes, ReorderBufferReportsWindowDepthAndProducerStall) {
  MetricsRegistry m;
  QueueProbe probe{&m.gauge("rb_depth"), &m.time_counter("rb_producer_stall"),
                   &m.time_counter("rb_consumer_stall")};
  ReorderBuffer<int> buf(2, probe);
  ASSERT_TRUE(buf.push(1, 1));
  ASSERT_TRUE(buf.push(2, 2));
  EXPECT_EQ(m.gauge("rb_depth").value(), 2);
  // Window full with later sequences: a producer holding seq 3 stalls
  // until the consumer drains the head.
  std::jthread producer([&] { ASSERT_TRUE(buf.push(3, 3)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(buf.push(0, 0));  // head of line is always admitted
  EXPECT_EQ(buf.pop_next(), 0);
  EXPECT_EQ(buf.pop_next(), 1);
  producer.join();
  EXPECT_GT(m.time_counter("rb_producer_stall").value(), 0.0);
  EXPECT_GE(m.gauge("rb_depth").max(), 2);
  EXPECT_EQ(buf.pop_next(), 2);
  EXPECT_EQ(buf.pop_next(), 3);
  EXPECT_EQ(m.gauge("rb_depth").value(), 0);
}

TEST(Json, ParserHandlesEscapesNestingAndRejectsGarbage) {
  const auto doc = json_parse(R"({"a":[1,2.5,-3e2],"s":"q\"\\\nA","b":true,"n":null})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(doc->find("s")->str, "q\"\\\nA");
  EXPECT_TRUE(doc->find("b")->boolean);
  EXPECT_EQ(doc->find("n")->kind, JsonValue::Kind::kNull);

  EXPECT_FALSE(json_parse("{"));
  EXPECT_FALSE(json_parse("[1,]"));
  EXPECT_FALSE(json_parse("{} trailing"));
  EXPECT_FALSE(json_parse("\"unterminated"));
}

TEST(Json, SnapshotRoundTripsThroughJson) {
  MetricsRegistry m;
  m.counter("docs_total").add(12345);
  m.time_counter("busy_seconds_total").add(1.5);
  m.gauge("depth").set(7);
  m.gauge("depth").set(3);
  m.stat("run_seconds").add(0.25);
  m.stat("run_seconds").add(0.75);
  m.histogram("mbps", 0.0, 100.0, 4).add(30.0);

  const auto doc = json_parse(m.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->find("counters")->find("docs_total")->number, 12345.0);
  EXPECT_DOUBLE_EQ(doc->find("time_counters")->find("busy_seconds_total")->number, 1.5);
  const JsonValue* depth = doc->find("gauges")->find("depth");
  EXPECT_DOUBLE_EQ(depth->find("value")->number, 3.0);
  EXPECT_DOUBLE_EQ(depth->find("max")->number, 7.0);
  const JsonValue* stat = doc->find("stats")->find("run_seconds");
  EXPECT_DOUBLE_EQ(stat->find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(stat->find("sum")->number, 1.0);
  EXPECT_DOUBLE_EQ(stat->find("mean")->number, 0.5);
  const JsonValue* hist = doc->find("histograms")->find("mbps");
  EXPECT_DOUBLE_EQ(hist->find("total")->number, 1.0);
  ASSERT_EQ(hist->find("counts")->array.size(), 4u);
  EXPECT_DOUBLE_EQ(hist->find("counts")->array[1].number, 1.0);
}

TEST(Json, PrometheusDumpCarriesEverySeries) {
  MetricsRegistry m;
  m.counter("docs_total").add(5);
  m.gauge("depth").set(2);
  m.stat("run_seconds").add(1.0);
  m.histogram("mbps", 0.0, 10.0, 2).add(3.0);
  const std::string text = m.to_prometheus();
  EXPECT_NE(text.find("hetindex_docs_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("hetindex_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("hetindex_depth_max 2\n"), std::string::npos);
  EXPECT_NE(text.find("hetindex_run_seconds_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("hetindex_mbps_bucket{le=\"5\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("hetindex_mbps_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
}

TEST(ConfigValidate, DefaultConfigIsValid) {
  EXPECT_TRUE(PipelineConfig{}.validate().empty());
}

TEST(ConfigValidate, ReportsEveryProblemDescriptively) {
  PipelineConfig config;
  config.parsers = 0;
  config.cpu_indexers = 0;
  config.gpus = 0;
  config.buffers_per_parser = 0;
  config.sampler.sample_fraction = 0.0;
  config.output_dir.clear();
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 5u);
  for (const auto& e : errors) EXPECT_EQ(e.code, ErrorCode::kInvalidArgument);
  auto mentions = [&](std::string_view what) {
    for (const auto& e : errors) {
      if (e.message.find(what) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(mentions("parsers"));
  EXPECT_TRUE(mentions("indexer"));
  EXPECT_TRUE(mentions("buffers_per_parser"));
  EXPECT_TRUE(mentions("sample_fraction"));
  EXPECT_TRUE(mentions("output_dir"));

  PipelineConfig gpu_config;
  gpu_config.gpu_thread_blocks = 0;
  const auto gpu_errors = gpu_config.validate();
  ASSERT_EQ(gpu_errors.size(), 1u);
  EXPECT_NE(gpu_errors[0].message.find("gpu_thread_blocks"), std::string::npos);

  PipelineConfig popular_config;
  popular_config.sampler.popular_count = 0;
  EXPECT_EQ(popular_config.validate().size(), 1u);
  popular_config.cpu_indexers = 0;  // GPU-only: popular_count may be 0
  EXPECT_TRUE(popular_config.validate().empty());
}

// ---- Engine-level: metrics vs report aggregates on a synthetic corpus.

class ObsPipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_dir_ = std::filesystem::temp_directory_path() / "hetindex_obs_corpus";
    std::filesystem::remove_all(corpus_dir_);
    auto spec = wikipedia_like();
    spec.total_bytes = 1u << 20;  // 1 MB, 2 files
    spec.file_bytes = 512u << 10;
    spec.vocabulary = 4000;
    spec.avg_doc_tokens = 150;
    collection_ = new Collection(generate_collection(spec, corpus_dir_.string()));
  }
  static void TearDownTestSuite() {
    delete collection_;
    collection_ = nullptr;
    std::filesystem::remove_all(corpus_dir_);
  }

  static inline std::filesystem::path corpus_dir_;
  static inline Collection* collection_ = nullptr;
};

TEST_F(ObsPipelineFixture, MetricTotalsEqualReportAggregates) {
  const auto out = std::filesystem::temp_directory_path() / "hetindex_obs_out";
  std::filesystem::remove_all(out);
  IndexBuilder builder;
  builder.parsers(2).cpu_indexers(1).gpus(1);
  builder.config().sampler.popular_count = 30;
  std::uint64_t progress_calls = 0, last_runs = 0;
  builder.progress([&](const PipelineProgress& p) {
    ++progress_calls;
    EXPECT_GT(p.runs_completed, last_runs);
    last_runs = p.runs_completed;
    EXPECT_EQ(p.files_total, collection_->files.size());
  });
  const auto report = builder.build(collection_->paths(), out.string());
  std::filesystem::remove_all(out);

  const MetricsSnapshot& m = report.metrics;
  EXPECT_EQ(m.counter("pipeline_documents_total"), report.documents);
  EXPECT_EQ(m.counter("pipeline_tokens_total"), report.tokens);
  EXPECT_EQ(m.counter("pipeline_postings_total"), report.postings);
  EXPECT_EQ(m.counter("pipeline_source_bytes_total"), report.uncompressed_bytes);
  EXPECT_EQ(m.counter("pipeline_compressed_bytes_total"), report.compressed_bytes);
  EXPECT_EQ(m.counter("pipeline_runs_total"), report.runs.size());
  EXPECT_EQ(m.counter("parse_files_read_total"), collection_->files.size());
  ASSERT_NE(m.gauge("dictionary_terms"), nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(m.gauge("dictionary_terms")->value), report.terms);
  EXPECT_EQ(progress_calls, report.runs.size());
  EXPECT_EQ(last_runs, report.runs.size());

  // Stage time counters mirror the RunRecord-derived sums.
  double parse_sum = 0, read_sum = 0, flush_sum = 0, cpu_sum = 0;
  for (const auto& r : report.runs) {
    parse_sum += r.parse_seconds;
    read_sum += r.read_seconds;
    flush_sum += r.flush_seconds;
    for (const double s : r.cpu_index_seconds) cpu_sum += s;
  }
  EXPECT_NEAR(m.time_seconds("stage_parse_seconds_total"), parse_sum, 1e-9);
  EXPECT_NEAR(m.time_seconds("stage_read_seconds_total"), read_sum, 1e-9);
  EXPECT_NEAR(m.time_seconds("stage_flush_seconds_total"), flush_sum, 1e-9);
  EXPECT_NEAR(m.time_seconds("stage_cpu_index_seconds_total"), cpu_sum, 1e-9);
  ASSERT_NE(m.stat("run_parse_seconds"), nullptr);
  EXPECT_EQ(m.stat("run_parse_seconds")->count, report.runs.size());
  EXPECT_NEAR(m.time_seconds("stage_sampling_seconds_total"), report.sampling_seconds, 1e-9);
}

TEST_F(ObsPipelineFixture, ReportJsonTotalsMatchPrintedReport) {
  const auto out = std::filesystem::temp_directory_path() / "hetindex_obs_json_out";
  std::filesystem::remove_all(out);
  IndexBuilder builder;
  builder.parsers(2).cpu_indexers(1).gpus(1);
  builder.config().sampler.popular_count = 30;
  const auto report = builder.build(collection_->paths(), out.string());
  std::filesystem::remove_all(out);

  const auto doc = json_parse(report.to_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* totals = doc->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(totals->find("documents")->number), report.documents);
  EXPECT_EQ(static_cast<std::uint64_t>(totals->find("terms")->number), report.terms);
  EXPECT_EQ(static_cast<std::uint64_t>(totals->find("postings")->number), report.postings);
  EXPECT_EQ(static_cast<std::uint64_t>(totals->find("tokens")->number), report.tokens);
  EXPECT_EQ(static_cast<std::uint64_t>(totals->find("uncompressed_bytes")->number),
            report.uncompressed_bytes);
  EXPECT_DOUBLE_EQ(totals->find("throughput_mb_s")->number, report.throughput_mb_s());
  EXPECT_EQ(doc->find("runs")->array.size(), report.runs.size());
  const JsonValue* config = doc->find("config");
  EXPECT_DOUBLE_EQ(config->find("parsers")->number, 2.0);
  EXPECT_DOUBLE_EQ(config->find("cpu_indexers")->number, 1.0);
  // The embedded metrics snapshot agrees with the top-level totals.
  const JsonValue* counters = doc->find("metrics")->find("counters");
  EXPECT_EQ(static_cast<std::uint64_t>(counters->find("pipeline_documents_total")->number),
            report.documents);
  EXPECT_EQ(static_cast<std::uint64_t>(counters->find("pipeline_postings_total")->number),
            report.postings);
}

}  // namespace
}  // namespace hetindex
