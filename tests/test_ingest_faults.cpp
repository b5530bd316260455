// Fault injection on the ingest read path: seeded FaultPlan EINTR /
// short-read / transient-EIO / hard-EIO schedules over a multi-file
// synthetic corpus. Every ingest byte (the §III.E sampling pass and the
// §III.F read scheduler alike) goes through io::read_file_via_env, so the
// FaultEnv sees all of it. The contract under test: ingest reads never
// abort the process — transient faults are absorbed by bounded retries
// (counted in io_retries_total), hard faults surface as a structured
// PipelineReport error with partial run files cleaned up, and on every
// success path the emitted segment is byte-identical whichever parser
// read which file. A failed index.seg write or fsync at the end of the
// build is likewise a structured kIo error that leaves no index.seg.

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/hetindex.hpp"
#include "io/env.hpp"
#include "parse/read_scheduler.hpp"
#include "util/binary_io.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_ingest_faults_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

class IngestFaultsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = std::make_unique<TempDir>("corpus");
    auto spec = wikipedia_like();
    spec.total_bytes = 1u << 20;   // 8 container files
    spec.file_bytes = 128u << 10;
    spec.vocabulary = 4000;
    spec.seed = 0x9E1D;
    collection_ = generate_collection(spec, corpus_->path());
    ASSERT_GE(collection_.files.size(), 4u);
    // sampling_preads() relies on every file fitting in one read chunk.
    for (const auto& path : collection_.paths()) {
      ASSERT_LT(std::filesystem::file_size(path), 256u << 10) << path;
    }
  }

  /// One pipeline build against the current Env. The config pins everything
  /// except the parser count so output bytes depend only on the input corpus.
  PipelineReport run_build(const std::string& out_dir, std::size_t parsers = 2) {
    PipelineConfig config;
    config.parsers = parsers;
    config.cpu_indexers = 1;
    config.gpus = 1;
    config.emit_segment = true;
    config.output_dir = out_dir;
    PipelineEngine engine(config);
    return engine.build(collection_.paths());
  }

  /// preads the §III.E sampling pass issues before the first ingest read:
  /// one whole-file pread per container (each fits in one read chunk).
  [[nodiscard]] std::uint64_t sampling_preads() const { return collection_.files.size(); }

  static std::uint64_t retries_total() {
    return io::io_metrics().counter("io_retries_total").value();
  }

  /// The output directory holds no index state after a failed build.
  static void expect_no_artifacts(const std::string& dir) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const auto name = entry.path().filename().string();
      EXPECT_TRUE(name.find(".post") == std::string::npos &&
                  name.find(".seg") == std::string::npos &&
                  name.find("dict") == std::string::npos)
          << "stray artifact after failed build: " << name;
    }
  }

  std::unique_ptr<TempDir> corpus_;
  Collection collection_;
};

TEST_F(IngestFaultsFixture, EintrIsAbsorbedAndCounted) {
  io::FaultPlan plan;
  plan.pread_eintr_every = 3;  // every 3rd pread -> EINTR
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  const auto before = retries_total();
  TempDir out("eintr");
  const auto report = run_build(out.path());
  EXPECT_TRUE(report.ok()) << report.error->to_string();
  EXPECT_EQ(report.documents, collection_.total_docs());
  EXPECT_GT(retries_total(), before);
}

TEST_F(IngestFaultsFixture, ShortPreadsConverge) {
  io::FaultPlan plan;
  plan.short_pread_bytes = 1000;  // every pread clamped to 1000 bytes
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  TempDir out("short");
  const auto report = run_build(out.path());
  EXPECT_TRUE(report.ok()) << report.error->to_string();
  EXPECT_EQ(report.documents, collection_.total_docs());
}

TEST_F(IngestFaultsFixture, TransientEioBurstIsRetried) {
  io::FaultPlan plan;
  // A 2-call EIO burst on the second scheduler read, well inside the
  // retry budget.
  plan.pread_eio_at = sampling_preads() + 2;
  plan.pread_eio_count = 2;
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  const auto before = retries_total();
  TempDir out("eio_transient");
  const auto report = run_build(out.path());
  EXPECT_TRUE(report.ok()) << report.error->to_string();
  EXPECT_EQ(report.documents, collection_.total_docs());
  EXPECT_GE(retries_total(), before + 2);
}

TEST_F(IngestFaultsFixture, HardEioFailsStructurallyAndCleansUp) {
  io::FaultPlan plan;
  // Sampling and scheduler files 0..2 read fine, then a persistent EIO.
  plan.pread_eio_at = sampling_preads() + 4;
  plan.pread_eio_count = 64;  // far past the retry budget
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  TempDir out("eio_hard");
  const auto report = run_build(out.path());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error->code, ErrorCode::kIo);
  EXPECT_NE(report.error->message.find("ingest read failed"), std::string::npos)
      << report.error->message;
  EXPECT_NE(report.error->message.find(collection_.paths()[3]), std::string::npos)
      << report.error->message;
  // Already-flushed partial runs must be cleaned up and the finalize
  // artifacts never written — the directory holds no stray index state.
  expect_no_artifacts(out.path());
}

TEST_F(IngestFaultsFixture, HardEioInSamplingFailsStructurally) {
  io::FaultPlan plan;
  plan.pread_eio_at = 1;  // the sampling pass's first read
  plan.pread_eio_count = 64;
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  TempDir out("eio_sampling");
  const auto report = run_build(out.path());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error->code, ErrorCode::kIo);
  EXPECT_NE(report.error->message.find(collection_.paths()[0]), std::string::npos)
      << report.error->message;
  // The sampling pass itself failed: it never finished, and no file reached
  // the parse stage.
  EXPECT_EQ(report.sampling_seconds, 0.0);
  EXPECT_TRUE(report.runs.empty());
  EXPECT_EQ(report.documents, 0u);
  expect_no_artifacts(out.path());
}

TEST_F(IngestFaultsFixture, SegmentWriteOrFsyncFailureIsStructured) {
  // A clean build under a pass-through FaultEnv counts the writes and
  // fsyncs; index.seg is the build's last write and its last fsync.
  std::uint64_t writes = 0, syncs = 0;
  {
    io::FaultEnv counting;
    io::ScopedEnv scoped(counting);
    TempDir out("seg_count");
    ASSERT_TRUE(run_build(out.path()).ok());
    writes = counting.writes_seen();
    syncs = counting.syncs_seen();
  }
  io::FaultPlan write_fault;
  write_fault.fail_write_at = writes;  // torn index.seg, then ENOSPC
  io::FaultPlan sync_fault;
  sync_fault.fail_sync_at = syncs;  // index.seg's fsync fails (EIO)
  for (const auto& plan : {write_fault, sync_fault}) {
    io::FaultEnv fault(plan);
    io::ScopedEnv scoped(fault);
    TempDir out("seg_fault");
    const auto report = run_build(out.path());
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error->code, ErrorCode::kIo);
    EXPECT_NE(report.error->message.find("index.seg"), std::string::npos)
        << report.error->message;
    EXPECT_FALSE(std::filesystem::exists(IndexLayout::segment_path(out.path())));
  }
}

TEST_F(IngestFaultsFixture, SchedulerErrorIsSticky) {
  io::FaultPlan plan;
  plan.pread_eio_at = 1;
  plan.pread_eio_count = 64;
  io::FaultEnv fault(plan);
  io::ScopedEnv scoped(fault);

  ReadScheduler sched(collection_.paths());
  auto first = sched.next();
  ASSERT_FALSE(first.has_value());
  EXPECT_EQ(first.error().code, ErrorCode::kIo);
  // Every later call drains with the same structured error — no abort, no
  // hang, no file handed out past the failure.
  auto second = sched.next();
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, first.error().code);
  EXPECT_EQ(second.error().message, first.error().message);
}

TEST_F(IngestFaultsFixture, SegmentByteIdenticalAcrossParserCounts) {
  // The parser count is what varies which thread claims which file; doc-ID
  // bases are assigned in claim order, so the segment must not change.
  TempDir one("parsers1");
  ASSERT_TRUE(run_build(one.path(), 1).ok());
  const auto reference = read_file(IndexLayout::segment_path(one.path()));
  ASSERT_FALSE(reference.empty());

  for (const std::size_t parsers : {std::size_t{2}, std::size_t{4}}) {
    TempDir out("parsers" + std::to_string(parsers));
    const auto report = run_build(out.path(), parsers);
    ASSERT_TRUE(report.ok()) << report.error->to_string();
    EXPECT_EQ(read_file(IndexLayout::segment_path(out.path())), reference)
        << parsers << " parsers";
  }
}

}  // namespace
}  // namespace hetindex
