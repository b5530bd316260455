// Crash-consistency harness (docs/DURABILITY.md): run a live-index
// workload — flushes interleaved with compaction, the two writers whose
// commits can race — under a tracing FaultEnv, then replay every prefix of
// the recorded write trace under four persistence policies that model what
// a power cut can leave behind (everything applied; metadata applied but
// unsynced file data lost; unsynced metadata lost; the in-flight write
// torn at a seeded offset). Each materialized crash image must recover:
// the manifest parses or is absent, IndexWriter::open succeeds, exactly
// the committed docs answer queries, and no *.tmp or orphan segment file
// survives reopen.
//
// The regression tests at the bottom pin the two bugs the harness caught:
// the MANIFEST commit lacking fsync-before-rename + dir-fsync-after, and
// the mmap pread fallback aborting on EINTR (with a double-close lurking
// on its error path). Plus: ENOSPC mid-flush must leave the writer usable,
// a failed fsync must fail the commit, and transient write faults must be
// absorbed by bounded retry.
//
// HETINDEX_CRASH_SEED overrides the torn-write seed (the CI fault leg runs
// one fixed and one randomized seed; the seed prints so failures replay).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "io/env.hpp"
#include "io/mmap_file.hpp"
#include "live/manifest.hpp"
#include "live/tombstones.hpp"
#include "live/writer.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_crash_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

std::uint64_t crash_seed() {
  if (const char* s = std::getenv("HETINDEX_CRASH_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 42;
}

IndexWriterOptions tiny_writer_opts() {
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;     // explicit flush() only
  opts.background_compaction = false; // deterministic single-thread trace
  opts.merge_factor = 2;
  opts.tier_base_bytes = 1 << 10;     // everything is tier 0: merges fire
  return opts;
}

std::string doc_body(std::uint32_t i) {
  return "uniq" + std::to_string(i) + " alpha beta common";
}

// ------------------------------------------------------- crash simulation

/// How a replayed trace prefix is turned into an on-disk crash image.
enum class CrashPolicy {
  kLiteral,          ///< every applied op reached the disk intact
  kDropUnsyncedData, ///< dir entries survive, file data without a later
                     ///< fsync comes back empty (ext4-writeback zero-length)
  kDropUnsyncedMeta, ///< creations/renames/unlinks since the last dir fsync
                     ///< are lost; data written to pre-existing files holds
  kTornTail,         ///< the prefix's final write is cut at a seeded offset
};

constexpr CrashPolicy kAllPolicies[] = {
    CrashPolicy::kLiteral, CrashPolicy::kDropUnsyncedData,
    CrashPolicy::kDropUnsyncedMeta, CrashPolicy::kTornTail};

const char* policy_name(CrashPolicy p) {
  switch (p) {
    case CrashPolicy::kLiteral: return "literal";
    case CrashPolicy::kDropUnsyncedData: return "drop-unsynced-data";
    case CrashPolicy::kDropUnsyncedMeta: return "drop-unsynced-meta";
    case CrashPolicy::kTornTail: return "torn-tail";
  }
  return "?";
}

struct SimFile {
  std::vector<std::uint8_t> content;
  std::optional<std::vector<std::uint8_t>> synced;  ///< content at last fsync
};

/// Replays ops[0, prefix) into a map of surviving files under `policy`.
/// Paths are kept verbatim; the caller remaps them into the replay dir.
std::map<std::string, std::vector<std::uint8_t>> simulate_crash(
    const std::vector<io::WriteOp>& ops, std::size_t prefix, CrashPolicy policy,
    std::uint64_t seed) {
  using Kind = io::WriteOp::Kind;

  if (policy == CrashPolicy::kDropUnsyncedMeta) {
    // Everything before the last directory fsync is fully durable; after
    // it, only data writes into files that already had dir entries land.
    std::size_t durable = 0;
    for (std::size_t i = 0; i < prefix; ++i) {
      if (ops[i].kind == Kind::kSyncDir) durable = i + 1;
    }
    std::map<std::string, std::vector<std::uint8_t>> files;
    for (std::size_t i = 0; i < durable; ++i) {
      const auto& op = ops[i];
      switch (op.kind) {
        case Kind::kWriteFile: files[op.path] = op.data; break;
        case Kind::kRename: {
          auto it = files.find(op.path);
          if (it != files.end()) {
            files[op.path2] = std::move(it->second);
            files.erase(it);
          }
          break;
        }
        case Kind::kUnlink: files.erase(op.path); break;
        default: break;
      }
    }
    for (std::size_t i = durable; i < prefix; ++i) {
      const auto& op = ops[i];
      if (op.kind == Kind::kWriteFile && files.count(op.path) != 0) {
        files[op.path] = op.data;  // overwrite of an existing inode
      }
      // creations, renames and unlinks were never journaled: lost.
    }
    return files;
  }

  std::map<std::string, SimFile> fs;
  for (std::size_t i = 0; i < prefix; ++i) {
    const auto& op = ops[i];
    switch (op.kind) {
      case Kind::kWriteFile: {
        auto& f = fs[op.path];
        f.content = op.data;
        f.synced.reset();  // O_TRUNC rewrite: prior synced bytes are gone
        if (policy == CrashPolicy::kTornTail && i + 1 == prefix) {
          // The crash interrupts this very write: keep a seeded prefix.
          std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
          const std::uint64_t cut =
              op.data.empty() ? 0 : splitmix64(state) % (op.data.size() + 1);
          f.content.resize(static_cast<std::size_t>(cut));
        }
        break;
      }
      case Kind::kSyncFile: {
        auto it = fs.find(op.path);
        if (it != fs.end()) it->second.synced = it->second.content;
        break;
      }
      case Kind::kRename: {
        auto it = fs.find(op.path);
        if (it != fs.end()) {
          fs[op.path2] = std::move(it->second);
          fs.erase(it);
        }
        break;
      }
      case Kind::kUnlink: fs.erase(op.path); break;
      case Kind::kSyncDir: break;
    }
  }
  std::map<std::string, std::vector<std::uint8_t>> files;
  for (auto& [path, f] : fs) {
    if (policy == CrashPolicy::kDropUnsyncedData) {
      // The dir entry exists but un-fsynced data never hit the platter.
      files[path] = f.synced ? *f.synced : std::vector<std::uint8_t>{};
    } else {
      files[path] = std::move(f.content);
    }
  }
  return files;
}

/// Writes a simulated crash image into `replay_dir`, remapping the
/// workload-dir prefix of every traced path.
void materialize(const std::map<std::string, std::vector<std::uint8_t>>& files,
                 const std::string& work_dir, const std::string& replay_dir) {
  std::filesystem::remove_all(replay_dir);
  std::filesystem::create_directories(replay_dir);
  for (const auto& [path, data] : files) {
    ASSERT_EQ(path.rfind(work_dir, 0), 0u) << "trace path outside workload dir";
    const std::string out = replay_dir + path.substr(work_dir.size());
    auto written = io::real_env().write_file(out, data.data(), data.size());
    ASSERT_TRUE(written.has_value()) << written.error().to_string();
  }
}

/// The recovery invariants every crash image must satisfy.
void check_recovery(const std::string& dir, const std::set<std::uint32_t>& commits,
                    std::uint32_t total_docs, const std::string& context) {
  SCOPED_TRACE(context);

  // 1. The manifest is valid or absent — never corrupt: the CRC plus the
  //    write-fsync-rename-dirfsync protocol rule out torn commits.
  auto m = manifest_read(dir);
  if (!m.has_value()) {
    ASSERT_EQ(m.error().code, ErrorCode::kNotFound) << m.error().to_string();
  }

  // 2. Recovery succeeds and lands exactly on some committed state.
  auto reopened = IndexWriter::open(dir, tiny_writer_opts());
  ASSERT_TRUE(reopened.has_value()) << reopened.error().to_string();
  auto& w = reopened.value();
  const std::uint32_t committed = w.committed_docs();
  EXPECT_TRUE(commits.count(committed) != 0)
      << committed << " docs is not a commit point";

  // 3. Committed docs answer queries; uncommitted ones are gone.
  const auto snap = w.snapshot();
  EXPECT_EQ(snap->doc_count(), committed);
  for (std::uint32_t i = 0; i < total_docs; ++i) {
    const auto hit = snap->lookup("uniq" + std::to_string(i));
    if (i < committed) {
      ASSERT_TRUE(hit.has_value()) << "committed doc " << i << " lost";
      ASSERT_EQ(hit->doc_ids.size(), 1u);
      EXPECT_EQ(hit->doc_ids[0], i);
    } else {
      EXPECT_FALSE(hit.has_value()) << "uncommitted doc " << i << " visible";
    }
  }

  // 4. Reopen leaves no *.tmp and no file the manifest does not name.
  const auto manifest = w.manifest();
  std::set<std::uint64_t> committed_ids;
  for (const auto& e : manifest.entries) committed_ids.insert(e.segment_id);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name << " survived reopen";
    if (name.rfind("seg-", 0) == 0) {
      const std::uint64_t id = std::strtoull(name.c_str() + 4, nullptr, 10);
      EXPECT_TRUE(committed_ids.count(id) != 0) << "orphan " << name;
    }
  }

  // 5. Recovery is idempotent: a second open serves the same state.
  auto again = IndexWriter::open(dir, tiny_writer_opts());
  ASSERT_TRUE(again.has_value()) << again.error().to_string();
  EXPECT_EQ(again.value().committed_docs(), committed);
  EXPECT_EQ(again.value().snapshot()->doc_count(), committed);
}

// ------------------------------------------------------------ the harness

// Flushes interleaved with compaction commits — the "flush racing
// compaction" shape — traced, then every prefix replayed under every
// policy. ~10 commits keep the prefix count (x4 policies) test-sized.
TEST(CrashConsistency, EveryTracePrefixRecovers) {
  const std::uint64_t seed = crash_seed();
  std::printf("crash harness seed: %llu (set HETINDEX_CRASH_SEED to replay)\n",
              static_cast<unsigned long long>(seed));

  TempDir work("work");
  TempDir replay("replay");
  std::set<std::uint32_t> commits = {0};
  std::uint32_t total_docs = 0;
  std::vector<io::WriteOp> trace;
  {
    io::FaultEnv tracer;  // no faults: pure trace capture
    io::ScopedEnv scoped(tracer);
    auto writer = IndexWriter::open(work.path(), tiny_writer_opts());
    ASSERT_TRUE(writer.has_value());
    auto& w = writer.value();
    for (int round = 0; round < 3; ++round) {
      for (int f = 0; f < 3; ++f) {
        w.add_document("u://" + std::to_string(total_docs), doc_body(total_docs));
        ++total_docs;
        w.add_document("u://" + std::to_string(total_docs), doc_body(total_docs));
        ++total_docs;
        ASSERT_TRUE(w.flush().has_value());
        commits.insert(w.committed_docs());
      }
      // Merge commits interleave with the flush commits in the trace.
      ASSERT_TRUE(w.compact_now().has_value());
    }
    trace = tracer.trace();
  }
  ASSERT_GT(trace.size(), 50u);

  for (std::size_t prefix = 0; prefix <= trace.size(); ++prefix) {
    for (const CrashPolicy policy : kAllPolicies) {
      const auto files = simulate_crash(trace, prefix, policy, seed);
      materialize(files, work.path(), replay.path());
      check_recovery(replay.path(), commits, total_docs,
                     "prefix " + std::to_string(prefix) + "/" +
                         std::to_string(trace.size()) + ", policy " +
                         policy_name(policy) + ", seed " + std::to_string(seed));
      if (HasFatalFailure()) return;
    }
  }
}

// Deletes and updates interleaved with flushes and reclaim compaction:
// every commit (flush, tombstone generation, compaction splice) is a
// recovery point, and every trace prefix under every policy must land on
// exactly one of them — a committed delete never resurrects, a committed
// tombstone is never lost, and a tombstone for an id the crash un-assigned
// (a deleted memtable doc that never flushed) is truncated, not inherited
// by the reassigned id.
TEST(CrashConsistency, DeleteAndUpdateTracePrefixesRecover) {
  const std::uint64_t seed = crash_seed();
  std::printf("crash harness seed: %llu (set HETINDEX_CRASH_SEED to replay)\n",
              static_cast<unsigned long long>(seed));

  TempDir work("delwork");
  TempDir replay("delreplay");
  /// One committed state: the doc-id watermark plus the tombstoned ids
  /// below it (bits above the watermark are truncated by recovery).
  struct State {
    std::uint32_t docs;
    std::set<std::uint32_t> deleted;
  };
  std::vector<State> states;
  std::set<std::uint32_t> deleted;  // in-memory mirror, memtable ids included
  std::uint32_t total_docs = 0;
  std::vector<io::WriteOp> trace;
  {
    io::FaultEnv tracer;  // no faults: pure trace capture
    io::ScopedEnv scoped(tracer);
    auto writer = IndexWriter::open(work.path(), tiny_writer_opts());
    ASSERT_TRUE(writer.has_value());
    auto& w = writer.value();
    const auto record = [&] {
      State s{w.committed_docs(), {}};
      for (const auto id : deleted) {
        if (id < s.docs) s.deleted.insert(id);
      }
      states.push_back(std::move(s));
    };
    const auto add = [&] {
      EXPECT_EQ(w.add_document("u://" + std::to_string(total_docs), doc_body(total_docs)),
                total_docs);
      ++total_docs;
    };
    const auto remove = [&](std::uint32_t id) {
      ASSERT_TRUE(w.delete_document(id).has_value());
      deleted.insert(id);
      record();
    };
    record();                                    // the empty initial manifest
    add();                                       // 0
    add();                                       // 1
    ASSERT_TRUE(w.flush().has_value());
    record();
    remove(0);                                   // delete a flushed doc
    add();                                       // 2
    add();                                       // 3
    remove(3);                                   // delete a memtable-only doc
    ASSERT_TRUE(w.flush().has_value());
    record();
    add();                                       // 4
    const auto updated = w.update_document(1, "u://1v2", doc_body(total_docs));
    ASSERT_TRUE(updated.has_value());            // update = delete 1 + re-add
    ASSERT_EQ(updated.value(), total_docs);
    deleted.insert(1);
    ++total_docs;                                // 5 = the re-added revision
    record();
    ASSERT_TRUE(w.flush().has_value());
    record();
    ASSERT_TRUE(w.compact_now().has_value());    // physical reclaim rewrites
    record();
    add();                                       // 6
    remove(2);
    ASSERT_TRUE(w.flush().has_value());
    record();
    ASSERT_TRUE(w.compact_now().has_value());
    record();
    trace = tracer.trace();
  }
  ASSERT_GT(trace.size(), 50u);

  for (std::size_t prefix = 0; prefix <= trace.size(); ++prefix) {
    for (const CrashPolicy policy : kAllPolicies) {
      SCOPED_TRACE("prefix " + std::to_string(prefix) + "/" +
                   std::to_string(trace.size()) + ", policy " +
                   std::string(policy_name(policy)) + ", seed " +
                   std::to_string(seed));
      const auto files = simulate_crash(trace, prefix, policy, seed);
      materialize(files, work.path(), replay.path());

      // The manifest parses or is absent — never corrupt.
      auto m = manifest_read(replay.path());
      if (!m.has_value()) {
        ASSERT_EQ(m.error().code, ErrorCode::kNotFound) << m.error().to_string();
      }

      // Recovery succeeds and the {docs, tombstones} pair is exactly one
      // committed state: nothing resurrected, nothing lost.
      auto reopened = IndexWriter::open(replay.path(), tiny_writer_opts());
      ASSERT_TRUE(reopened.has_value()) << reopened.error().to_string();
      auto& w = reopened.value();
      const std::uint32_t committed = w.committed_docs();
      const auto snap = w.snapshot();
      std::set<std::uint32_t> recovered;
      for (std::uint32_t id = 0; id < committed; ++id) {
        if (snap->is_deleted(id)) recovered.insert(id);
      }
      bool matched = false;
      for (const auto& s : states) {
        matched = matched || (s.docs == committed && s.deleted == recovered);
      }
      EXPECT_TRUE(matched) << committed << " docs with " << recovered.size()
                           << " tombstones is not a committed state";
      EXPECT_EQ(snap->deleted_docs(), recovered.size());
      EXPECT_EQ(snap->doc_count(), committed - recovered.size());

      // Alive committed docs answer; uncommitted ids are gone entirely.
      for (std::uint32_t id = 0; id < total_docs; ++id) {
        const auto hit = snap->lookup("uniq" + std::to_string(id));
        if (id < committed && recovered.count(id) == 0) {
          ASSERT_TRUE(hit.has_value()) << "committed doc " << id << " lost";
          EXPECT_EQ(hit->doc_ids, (std::vector<std::uint32_t>{id}));
        } else if (id >= committed) {
          EXPECT_FALSE(hit.has_value()) << "uncommitted doc " << id << " visible";
        }
        // A tombstoned doc may still sit in a not-yet-reclaimed segment;
        // is_deleted() already proves the search layer filters it.
      }

      // No *.tmp, orphan segment, or orphan tombstone survives reopen.
      const auto manifest = w.manifest();
      std::set<std::uint64_t> committed_ids;
      for (const auto& e : manifest.entries) committed_ids.insert(e.segment_id);
      for (const auto& entry : std::filesystem::directory_iterator(replay.path())) {
        const std::string name = entry.path().filename().string();
        EXPECT_EQ(name.find(".tmp"), std::string::npos) << name << " survived reopen";
        if (name.rfind("seg-", 0) == 0) {
          const std::uint64_t id = std::strtoull(name.c_str() + 4, nullptr, 10);
          EXPECT_TRUE(committed_ids.count(id) != 0) << "orphan " << name;
        }
        if (name.rfind("tomb-", 0) == 0) {
          const std::uint64_t gen = std::strtoull(name.c_str() + 5, nullptr, 10);
          EXPECT_EQ(gen, manifest.tombstone_gen) << "orphan " << name;
        }
      }

      // Recovery is idempotent, tombstones included.
      auto again = IndexWriter::open(replay.path(), tiny_writer_opts());
      ASSERT_TRUE(again.has_value()) << again.error().to_string();
      EXPECT_EQ(again.value().committed_docs(), committed);
      EXPECT_EQ(again.value().deleted_docs(), recovered.size());
      if (HasFatalFailure()) return;
    }
  }
}

// A committed tombstone generation whose sidecar is unreadable is a
// structured corruption report, not a silent empty delete set.
TEST(Durability, CorruptTombstoneSidecarReportsCorrupt) {
  TempDir dir("tombcorrupt");
  std::uint64_t gen = 0;
  {
    auto writer = IndexWriter::open(dir.path(), tiny_writer_opts());
    ASSERT_TRUE(writer.has_value());
    auto& w = writer.value();
    w.add_document("u://0", doc_body(0));
    ASSERT_TRUE(w.flush().has_value());
    ASSERT_TRUE(w.delete_document(0).has_value());
    gen = w.manifest().tombstone_gen;
    ASSERT_GT(gen, 0u);
  }
  auto bytes = read_file(tombstone_path(dir.path(), gen));
  bytes[bytes.size() / 2] ^= 0x20;  // flip a bit inside the CRC'd payload
  write_file(tombstone_path(dir.path(), gen), bytes);

  const auto reopened = IndexWriter::open(dir.path(), tiny_writer_opts());
  ASSERT_FALSE(reopened.has_value());
  EXPECT_EQ(reopened.error().code, ErrorCode::kCorrupt);
}

// ENOSPC while writing the tombstone sidecar: the delete must fail
// cleanly — no new generation on disk, the previous delete set and the
// committed docs untouched — and the retried delete must commit.
TEST(Durability, EnospcMidDeleteKeepsDeleteSetIntact) {
  TempDir dir("enospc_delete");
  io::FaultEnv env;
  io::ScopedEnv scoped(env);
  auto writer = IndexWriter::open(dir.path(), tiny_writer_opts());
  ASSERT_TRUE(writer.has_value());
  auto& w = writer.value();
  w.add_document("u://0", doc_body(0));
  w.add_document("u://1", doc_body(1));
  ASSERT_TRUE(w.flush().has_value());
  ASSERT_TRUE(w.delete_document(0).has_value());
  const std::uint64_t gen_before = w.manifest().tombstone_gen;

  for (std::uint64_t fail_at = 1; fail_at <= 2; ++fail_at) {
    io::FaultPlan plan;
    plan.fail_write_at = fail_at;  // 1 = tombstone sidecar, 2 = manifest tmp
    env.set_plan(plan);
    auto failed = w.delete_document(1);
    env.set_plan({});
    ASSERT_FALSE(failed.has_value()) << "write " << fail_at << " did not fail";
    EXPECT_EQ(failed.error().code, ErrorCode::kIo);
    EXPECT_EQ(w.deleted_docs(), 1u);
    EXPECT_EQ(w.manifest().tombstone_gen, gen_before);
    EXPECT_FALSE(w.snapshot()->is_deleted(1));
    EXPECT_GE(w.metrics().snapshot().counter("live_delete_failures_total"), fail_at);
    // The torn generation file was removed; gen_before still serves.
    EXPECT_FALSE(io::real_env().file_exists(
        tombstone_path(dir.path(), w.manifest().tombstone_gen + 1)));
  }
  ASSERT_TRUE(w.delete_document(1).has_value());
  EXPECT_EQ(w.deleted_docs(), 2u);
  EXPECT_TRUE(w.snapshot()->is_deleted(1));
}

// ------------------------------------------------- commit-protocol pinning

// Regression for the manifest durability bug: the commit must fsync
// MANIFEST.tmp BEFORE the rename and fsync the directory AFTER it. The
// pre-fix code renamed an unsynced tmp and never synced the directory —
// this test fails against it on the trace order alone.
TEST(Durability, ManifestCommitSyncsBeforeRenameAndDirAfter) {
  TempDir dir("commit_order");
  io::FaultEnv tracer;
  io::ScopedEnv scoped(tracer);
  auto writer = IndexWriter::open(dir.path(), tiny_writer_opts());
  ASSERT_TRUE(writer.has_value());
  writer.value().add_document("u://0", doc_body(0));
  ASSERT_TRUE(writer.value().flush().has_value());

  const auto trace = tracer.trace();
  const std::string manifest = manifest_path(dir.path());
  std::size_t tmp_sync = trace.size(), rename = trace.size(), dir_sync = trace.size();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& op = trace[i];
    if (op.kind == io::WriteOp::Kind::kSyncFile && op.path == manifest + ".tmp") {
      tmp_sync = i;
    }
    if (op.kind == io::WriteOp::Kind::kRename && op.path2 == manifest) rename = i;
    if (op.kind == io::WriteOp::Kind::kSyncDir && rename < trace.size() &&
        dir_sync == trace.size()) {
      dir_sync = i;
    }
  }
  ASSERT_LT(rename, trace.size()) << "no manifest rename traced";
  EXPECT_LT(tmp_sync, rename) << "MANIFEST.tmp not fsynced before rename";
  EXPECT_GT(dir_sync, rename) << "directory not fsynced after rename";
  ASSERT_LT(dir_sync, trace.size()) << "directory never fsynced";
}

// Regression: a failed manifest write (ENOSPC) must leave no MANIFEST.tmp
// behind, report a structured kIo, and keep the previous commit intact.
TEST(Durability, ManifestWriteEnospcLeavesNoTmp) {
  TempDir dir("manifest_enospc");
  Manifest before;
  before.next_segment_id = 7;
  before.next_doc_id = 3;
  ASSERT_TRUE(manifest_write(dir.path(), before).has_value());

  io::FaultPlan plan;
  plan.fail_write_at = 1;  // the tmp write tears, then the device is full
  io::FaultEnv faulty(plan);
  io::ScopedEnv scoped(faulty);
  Manifest next = before;
  next.next_doc_id = 99;
  auto committed = manifest_write(dir.path(), next);
  ASSERT_FALSE(committed.has_value());
  EXPECT_EQ(committed.error().code, ErrorCode::kIo);
  EXPECT_FALSE(io::real_env().file_exists(manifest_path(dir.path()) + ".tmp"));
  auto survived = manifest_read(dir.path());
  ASSERT_TRUE(survived.has_value());
  EXPECT_EQ(survived.value().next_doc_id, 3u);
}

// Regression for the pread fallback bug: EINTR must be retried (bounded,
// counted in io_retries_total) instead of aborting, and the error path
// must not double-close the descriptor (the pre-fix code closed fd twice;
// under ASan/fd-sanitizers that is a hard failure). deny_mmap forces the
// fallback; short preads exercise the full-read loop.
TEST(MmapFallback, PreadRetriesEintrAndClosesOnce) {
  TempDir dir("eintr");
  const std::string path = dir.path() + "/blob.bin";
  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131u);
  }
  ASSERT_TRUE(io::real_env().write_file(path, payload.data(), payload.size()).has_value());

  const std::uint64_t retries_before =
      io::io_metrics().snapshot().counter("io_retries_total");
  io::FaultPlan plan;
  plan.deny_mmap = true;
  plan.pread_eintr_every = 2;   // every other pread is interrupted
  plan.short_pread_bytes = 97;  // and successful ones are short
  io::FaultEnv faulty(plan);
  io::ScopedEnv scoped(faulty);

  auto file = MmapFile::try_open(path);
  ASSERT_TRUE(file.has_value()) << file.error().to_string();
  ASSERT_EQ(file.value().size(), payload.size());
  EXPECT_EQ(std::memcmp(file.value().data(), payload.data(), payload.size()), 0);
  EXPECT_GT(io::io_metrics().snapshot().counter("io_retries_total"), retries_before);

  // Missing files still report kNotFound through the fallback path.
  auto missing = MmapFile::try_open(dir.path() + "/nope.bin");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, ErrorCode::kNotFound);
}

// ENOSPC mid-flush, at each write the flush issues (segment, doc map,
// manifest tmp): the writer must stay usable, the buffer and the
// committed snapshot untouched, no partial files left, and the retried
// flush must commit everything.
TEST(Durability, EnospcMidFlushKeepsWriterUsable) {
  TempDir dir("enospc_flush");
  io::FaultEnv env;
  io::ScopedEnv scoped(env);
  auto writer = IndexWriter::open(dir.path(), tiny_writer_opts());
  ASSERT_TRUE(writer.has_value());
  auto& w = writer.value();
  w.add_document("u://0", doc_body(0));
  w.add_document("u://1", doc_body(1));
  ASSERT_TRUE(w.flush().has_value());

  std::uint32_t next_doc = 2;
  for (std::uint64_t fail_at = 1; fail_at <= 3; ++fail_at) {
    w.add_document("u://" + std::to_string(next_doc), doc_body(next_doc));
    ++next_doc;
    const std::uint32_t committed_before = w.committed_docs();
    const auto snapshot_before = w.snapshot();

    io::FaultPlan plan;
    plan.seed = fail_at;
    plan.fail_write_at = fail_at;  // 1=segment, 2=docmap, 3=manifest
    env.set_plan(plan);
    auto failed = w.flush();
    env.set_plan({});
    ASSERT_FALSE(failed.has_value()) << "write " << fail_at << " did not fail";
    EXPECT_EQ(failed.error().code, ErrorCode::kIo);

    // Buffer intact, committed state untouched, snapshot still serves.
    EXPECT_EQ(w.buffered_docs(), 1u);
    EXPECT_EQ(w.committed_docs(), committed_before);
    EXPECT_EQ(w.snapshot()->doc_count(), snapshot_before->doc_count());
    EXPECT_EQ(w.metrics().snapshot().counter("live_flush_failures_total"), fail_at);
    // No partial files: everything on disk is named by the manifest.
    std::set<std::uint64_t> ids;
    for (const auto& e : w.manifest().entries) ids.insert(e.segment_id);
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
      const std::string name = entry.path().filename().string();
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
      if (name.rfind("seg-", 0) == 0) {
        EXPECT_TRUE(ids.count(std::strtoull(name.c_str() + 4, nullptr, 10)) != 0)
            << "partial " << name << " after failed write " << fail_at;
      }
    }

    // The fault cleared: the same buffer commits.
    auto retried = w.flush();
    ASSERT_TRUE(retried.has_value()) << retried.error().to_string();
    EXPECT_EQ(w.committed_docs(), committed_before + 1);
  }
  for (std::uint32_t i = 0; i < next_doc; ++i) {
    ASSERT_TRUE(w.snapshot()->lookup("uniq" + std::to_string(i)).has_value()) << i;
  }
}

// fsyncgate pinning: a failed fsync must fail the commit — never be
// swallowed — and the rewrite-whole-file retry discipline means a later
// flush (fault cleared) commits cleanly.
TEST(Durability, FsyncFailureFailsCommit) {
  TempDir dir("fsync_fail");
  io::FaultEnv env;
  io::ScopedEnv scoped(env);
  auto writer = IndexWriter::open(dir.path(), tiny_writer_opts());
  ASSERT_TRUE(writer.has_value());
  auto& w = writer.value();
  w.add_document("u://0", doc_body(0));

  const std::uint64_t fsync_failures_before =
      io::io_metrics().snapshot().counter("fsync_failures_total");
  io::FaultPlan plan;
  plan.fail_sync_at = 1;  // the segment file's fsync reports EIO
  env.set_plan(plan);
  auto failed = w.flush();
  env.set_plan({});
  ASSERT_FALSE(failed.has_value());
  EXPECT_EQ(failed.error().code, ErrorCode::kIo);
  EXPECT_GT(io::io_metrics().snapshot().counter("fsync_failures_total"),
            fsync_failures_before);
  EXPECT_EQ(w.committed_docs(), 0u);
  EXPECT_EQ(w.buffered_docs(), 1u);

  auto retried = w.flush();
  ASSERT_TRUE(retried.has_value()) << retried.error().to_string();
  EXPECT_EQ(w.committed_docs(), 1u);
  EXPECT_TRUE(w.snapshot()->lookup("uniq0").has_value());
}

// Transient (EINTR-class) write faults are absorbed by durable_write_file's
// bounded whole-file retry: the flush succeeds and the retries are counted.
TEST(Durability, TransientWriteFaultsRetried) {
  TempDir dir("transient");
  io::FaultPlan plan;
  plan.transient_write_every = 2;  // every second write fails retryably
  io::FaultEnv env(plan);
  io::ScopedEnv scoped(env);

  const std::uint64_t retries_before =
      io::io_metrics().snapshot().counter("io_retries_total");
  auto writer = IndexWriter::open(dir.path(), tiny_writer_opts());
  ASSERT_TRUE(writer.has_value());
  auto& w = writer.value();
  w.add_document("u://0", doc_body(0));
  auto flushed = w.flush();
  ASSERT_TRUE(flushed.has_value()) << flushed.error().to_string();
  EXPECT_GT(io::io_metrics().snapshot().counter("io_retries_total"), retries_before);
  EXPECT_EQ(w.committed_docs(), 1u);
  EXPECT_TRUE(w.snapshot()->lookup("uniq0").has_value());
}

// Recovery drops a stale MANIFEST.tmp and orphan segment files, counting
// them in recovery_dropped_files_total.
TEST(Durability, RecoveryDropsStraysAndCountsThem) {
  TempDir dir("recovery_metric");
  {
    auto writer = IndexWriter::open(dir.path(), tiny_writer_opts());
    ASSERT_TRUE(writer.has_value());
    writer.value().add_document("u://0", doc_body(0));
    ASSERT_TRUE(writer.value().flush().has_value());
  }
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  ASSERT_TRUE(io::real_env()
                  .write_file(manifest_path(dir.path()) + ".tmp", junk.data(), junk.size())
                  .has_value());
  ASSERT_TRUE(io::real_env()
                  .write_file(live_segment_path(dir.path(), 99), junk.data(), junk.size())
                  .has_value());

  auto reopened = IndexWriter::open(dir.path(), tiny_writer_opts());
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened.value().metrics().snapshot().counter("recovery_dropped_files_total"),
            2u);
  EXPECT_FALSE(io::real_env().file_exists(manifest_path(dir.path()) + ".tmp"));
  EXPECT_FALSE(io::real_env().file_exists(live_segment_path(dir.path(), 99)));
  EXPECT_TRUE(reopened.value().snapshot()->lookup("uniq0").has_value());
}

// ENOSPC during a compaction merge: the committed set and the served
// snapshot are untouched, the failure is counted, and the retried
// compaction (fault cleared) folds the segments.
TEST(Durability, EnospcMidCompactionKeepsCommittedSet) {
  TempDir dir("enospc_compact");
  io::FaultEnv env;
  io::ScopedEnv scoped(env);
  auto writer = IndexWriter::open(dir.path(), tiny_writer_opts());
  ASSERT_TRUE(writer.has_value());
  auto& w = writer.value();
  for (std::uint32_t i = 0; i < 4; ++i) {
    w.add_document("u://" + std::to_string(i), doc_body(i));
    ASSERT_TRUE(w.flush().has_value());
  }
  const std::size_t segments_before = w.snapshot()->segment_count();
  ASSERT_GE(segments_before, 2u);

  io::FaultPlan plan;
  plan.fail_write_at = 1;  // the merged segment's write tears
  env.set_plan(plan);
  auto failed = w.compact_now();
  env.set_plan({});
  ASSERT_FALSE(failed.has_value());
  EXPECT_EQ(failed.error().code, ErrorCode::kIo);
  EXPECT_GE(w.metrics().snapshot().counter("compaction_failures_total"), 1u);
  EXPECT_EQ(w.snapshot()->segment_count(), segments_before);
  EXPECT_EQ(w.committed_docs(), 4u);

  auto retried = w.compact_now();
  ASSERT_TRUE(retried.has_value()) << retried.error().to_string();
  EXPECT_LT(w.snapshot()->segment_count(), segments_before);
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(w.snapshot()->lookup("uniq" + std::to_string(i)).has_value()) << i;
  }
}

}  // namespace
}  // namespace hetindex
