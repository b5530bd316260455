#pragma once
/// \file env.hpp
/// The filesystem seam every durable artifact goes through. All writes,
/// syncs, renames and unlinks issued by the library (segment writers, doc
/// maps, tombstone generations, the MANIFEST commit protocol, recovery
/// cleanup) call the process-current Env instead of POSIX directly, which
/// buys two things:
///
///  1. One place to get the durability discipline right — full-write loops
///     that survive EINTR and partial writes, fsync with structured errors
///     instead of aborts, directory fsync after rename.
///  2. Deterministic fault injection: FaultEnv wraps the real filesystem
///     and injects short reads/writes, EINTR, ENOSPC with a torn prefix,
///     and fsync failure from a seeded schedule, while recording a write
///     trace. The crash-consistency harness replays every prefix of that
///     trace to simulate power loss at each point of a workload
///     (docs/DURABILITY.md).
///
/// The default Env is RealEnv; tests install a FaultEnv with ScopedEnv.
/// io_metrics() exports `io_retries_total` and `fsync_failures_total`.

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace hetindex::io {

/// Virtual filesystem interface. Whole-file operations carry structured
/// errors; pread_some/mmap_allowed are the byte-level hooks behind
/// MmapFile's fallback read path.
class Env {
 public:
  virtual ~Env() = default;

  /// Reads the whole file. kNotFound when absent, kIo on read failure.
  virtual Expected<std::vector<std::uint8_t>> read_file(const std::string& path) = 0;
  /// Creates/truncates `path` and writes all of `data` (no fsync). A
  /// failure may leave a partial file behind — durable_write_file cleans up.
  virtual Status write_file(const std::string& path, const std::uint8_t* data,
                            std::size_t size) = 0;
  /// write_file for a file given as consecutive byte ranges, so a caller
  /// holding a file in pieces (a segment's sections) need not copy it into
  /// one buffer first. The default concatenates and calls write_file, so
  /// fault injection and write traces see one whole-file write either way.
  virtual Status write_file_parts(const std::string& path,
                                  std::span<const std::span<const std::uint8_t>> parts);
  /// fsyncs the file's data + metadata.
  virtual Status sync_file(const std::string& path) = 0;
  /// fsyncs a directory, making entry creations/renames/unlinks durable.
  virtual Status sync_dir(const std::string& dir) = 0;
  /// Atomic rename (the commit-point primitive).
  virtual Status rename_file(const std::string& from, const std::string& to) = 0;
  /// Unlinks `path`; an already-absent path is success.
  virtual Status remove_file(const std::string& path) = 0;
  [[nodiscard]] virtual bool file_exists(const std::string& path) = 0;

  /// ::pread semantics — may return a short count or -1 with errno set
  /// (FaultEnv injects EINTR, short reads and EIO bursts here).
  virtual long pread_some(int fd, void* buf, std::size_t n, std::uint64_t offset) = 0;
  /// False forces MmapFile onto the pread fallback path.
  [[nodiscard]] virtual bool mmap_allowed() const { return true; }

  // Fd-level read hooks behind read_file_via_env (the ingest and sampling
  // read path): open_read + fd_size + pread_some, so fault injection sees
  // every ingest byte. Defaults are POSIX-backed passthroughs (kUnsupported
  // on non-POSIX platforms, which sends callers to read_file).

  /// Opens `path` read-only for pread_some access. kNotFound when absent.
  virtual Expected<int> open_read(const std::string& path);
  /// Byte size of an open_read fd (fstat).
  virtual Expected<std::uint64_t> fd_size(int fd);
  /// Closes an open_read fd.
  virtual void close_read(int fd);
};

/// The process-wide RealEnv singleton (POSIX-backed).
Env& real_env();
/// The current Env — real_env() unless a test installed an override.
Env& env();
/// Installs `e` as the current Env (nullptr restores RealEnv); returns the
/// previous override (nullptr when it was RealEnv). Not thread-safe against
/// concurrent I/O — install before spawning workers.
Env* set_env(Env* e);

/// RAII override for tests.
class ScopedEnv {
 public:
  explicit ScopedEnv(Env& e) : prev_(set_env(&e)) {}
  ~ScopedEnv() { set_env(prev_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  Env* prev_;
};

/// Process-wide I/O health counters: `io_retries_total` (transient faults
/// absorbed by retry loops) and `fsync_failures_total`.
obs::MetricsRegistry& io_metrics();

/// Reads the whole file through the current Env: open_read + chunked
/// pread_some with bounded consecutive-failure retries on transient faults
/// (EINTR, EAGAIN, injected EIO), each retry counted in io_retries_total.
/// A hard fault is a structured kIo error naming the file, never an abort.
/// Platforms without fd-level reads fall back to Env::read_file.
Expected<std::vector<std::uint8_t>> read_file_via_env(const std::string& path);

/// Writes `size` bytes durably: write + fsync, with a bounded whole-file
/// retry (the file is rewritten from scratch each attempt, so a failed
/// fsync never "succeeds" against dirty pages) on transient faults. On
/// failure the partial file is removed — no stray artifacts.
Status durable_write_file(const std::string& path, const std::uint8_t* data,
                          std::size_t size);
inline Status durable_write_file(const std::string& path,
                                 const std::vector<std::uint8_t>& data) {
  return durable_write_file(path, data.data(), data.size());
}
/// Same, for a file given as consecutive byte ranges (Env::write_file_parts).
Status durable_write_file(const std::string& path,
                          std::span<const std::span<const std::uint8_t>> parts);

// ------------------------------------------------------------- fault layer

/// One recorded mutation. The crash-consistency harness replays prefixes of
/// a WriteOp sequence to materialize every crash state a workload can leave
/// behind (payloads are kept in full so torn variants can be synthesized).
struct WriteOp {
  enum class Kind : std::uint8_t { kWriteFile, kSyncFile, kSyncDir, kRename, kUnlink };
  Kind kind = Kind::kWriteFile;
  std::string path;                 ///< target (rename: source)
  std::string path2;                ///< rename destination
  std::vector<std::uint8_t> data;   ///< full payload (kWriteFile only)
};

/// Deterministic, seeded fault schedule. Operation counters are 1-based;
/// 0 disables an injection.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// The Nth write_file writes a seeded torn prefix, then fails (ENOSPC).
  std::uint64_t fail_write_at = 0;
  /// The Nth sync_file fails (EIO) — the fsyncgate scenario.
  std::uint64_t fail_sync_at = 0;
  /// Every Nth write_file fails transiently (nothing written; retryable).
  std::uint64_t transient_write_every = 0;
  /// Every Nth pread_some returns -1 with errno=EINTR.
  std::uint64_t pread_eintr_every = 0;
  /// Clamp pread_some to at most this many bytes (0 = no clamp).
  std::uint64_t short_pread_bytes = 0;
  /// Starting at the Nth pread_some (1-based), fail `pread_eio_count`
  /// consecutive preads with EIO. A short burst is absorbed by the ingest
  /// read path's bounded retries (counted in io_retries_total); a burst
  /// longer than the retry budget surfaces as a structured hard kIo error.
  std::uint64_t pread_eio_at = 0;
  std::uint64_t pread_eio_count = 1;
  /// Refuse mmap so readers take the pread fallback path.
  bool deny_mmap = false;
};

/// Fault-injecting Env over a base (default: the real filesystem). Records
/// every successful mutation — including the torn prefix of an injected
/// ENOSPC — into an in-order write trace.
class FaultEnv final : public Env {
 public:
  explicit FaultEnv(FaultPlan plan = {}, Env& base = real_env());

  Expected<std::vector<std::uint8_t>> read_file(const std::string& path) override;
  Status write_file(const std::string& path, const std::uint8_t* data,
                    std::size_t size) override;
  Status sync_file(const std::string& path) override;
  Status sync_dir(const std::string& dir) override;
  Status rename_file(const std::string& from, const std::string& to) override;
  Status remove_file(const std::string& path) override;
  [[nodiscard]] bool file_exists(const std::string& path) override;
  long pread_some(int fd, void* buf, std::size_t n, std::uint64_t offset) override;
  [[nodiscard]] bool mmap_allowed() const override { return !plan_.deny_mmap; }

  /// Snapshot of the recorded trace (copy; safe to replay after more ops).
  [[nodiscard]] std::vector<WriteOp> trace() const;
  void clear_trace();
  /// Replaces the schedule and resets its operation counters (the trace is
  /// kept — faults can be staged mid-workload).
  void set_plan(FaultPlan plan);
  [[nodiscard]] std::uint64_t writes_seen() const;
  [[nodiscard]] std::uint64_t syncs_seen() const;

 private:
  mutable std::mutex mu_;
  FaultPlan plan_;
  Env& base_;
  std::uint64_t rng_state_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t preads_ = 0;
  std::vector<WriteOp> trace_;
};

}  // namespace hetindex::io
