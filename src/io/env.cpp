#include "io/env.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define HETINDEX_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define HETINDEX_HAVE_POSIX_IO 0
#include <cstdio>
#include <filesystem>
#endif

namespace hetindex::io {
namespace {

constexpr int kDurableWriteAttempts = 3;
/// Chunk size of read_file_via_env's pread loop. Large enough that per-call
/// overhead (and FaultEnv's per-call bookkeeping) is negligible, small
/// enough that short-read clamps converge quickly.
constexpr std::size_t kReadChunkBytes = 256u << 10;
/// Consecutive transient failures tolerated per file before the read is a
/// structured hard error. EINTR/EAGAIN/EIO bursts shorter than this are
/// absorbed (and counted in io_retries_total).
constexpr int kIngestReadRetries = 4;

Error io_error(const std::string& what, const std::string& path, int err,
               bool transient = false) {
  return Error{ErrorCode::kIo, what + ": " + path + " (" + std::strerror(err) + ")",
               transient};
}

#if HETINDEX_HAVE_POSIX_IO
/// Single-close RAII guard — the fix for the historical double-close on the
/// pread error path (mmap_file.cpp) and the pattern every Env method uses.
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() { reset(); }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  /// Closes now and reports whether close() itself succeeded.
  bool close_now() {
    if (fd_ < 0) return true;
    const int rc = ::close(fd_);
    fd_ = -1;
    return rc == 0;
  }

 private:
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_;
};
#endif

class RealEnv final : public Env {
 public:
  Expected<std::vector<std::uint8_t>> read_file(const std::string& path) override {
#if HETINDEX_HAVE_POSIX_IO
    const int raw = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (raw < 0) {
      const int err = errno;
      if (err == ENOENT) return Error{ErrorCode::kNotFound, "no such file: " + path};
      return io_error("cannot open file for reading", path, err);
    }
    FdGuard fd(raw);
    struct stat st {};
    if (::fstat(fd.get(), &st) != 0) {
      return io_error("cannot stat file", path, errno);
    }
    std::vector<std::uint8_t> data(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n =
          ::read(fd.get(), data.data() + done, data.size() - done);
      if (n < 0) {
        if (errno == EINTR) {
          io_metrics().counter("io_retries_total").add();
          continue;
        }
        return io_error("read failed", path, errno);
      }
      if (n == 0) {
        return Error{ErrorCode::kIo, "short read (file shrank?): " + path};
      }
      done += static_cast<std::size_t>(n);
    }
    return data;
#else
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return Error{ErrorCode::kNotFound, "cannot open: " + path};
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> data(size > 0 ? static_cast<std::size_t>(size) : 0);
    const std::size_t got = data.empty() ? 0 : std::fread(data.data(), 1, data.size(), f);
    std::fclose(f);
    if (got != data.size()) return Error{ErrorCode::kIo, "short read: " + path};
    return data;
#endif
  }

  Status write_file(const std::string& path, const std::uint8_t* data,
                    std::size_t size) override {
#if HETINDEX_HAVE_POSIX_IO
    const std::span<const std::uint8_t> whole(data, size);
    return write_file_parts(path, {&whole, 1});
#else
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return Error{ErrorCode::kIo, "cannot open for writing: " + path};
    const std::size_t put = size == 0 ? 0 : std::fwrite(data, 1, size, f);
    const bool closed = std::fclose(f) == 0;
    if (put != size || !closed) return Error{ErrorCode::kIo, "short write: " + path};
    return Unit{};
#endif
  }

#if HETINDEX_HAVE_POSIX_IO
  Status write_file_parts(const std::string& path,
                          std::span<const std::span<const std::uint8_t>> parts) override {
    const int raw =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (raw < 0) return io_error("cannot open file for writing", path, errno);
    FdGuard fd(raw);
    for (const auto part : parts) {
      std::size_t done = 0;
      while (done < part.size()) {
        const ssize_t n = ::write(fd.get(), part.data() + done, part.size() - done);
        if (n < 0) {
          if (errno == EINTR) {
            // Absorb the interruption here: a full-write loop is the contract.
            io_metrics().counter("io_retries_total").add();
            continue;
          }
          return io_error("write failed", path, errno);
        }
        done += static_cast<std::size_t>(n);
      }
    }
    if (!fd.close_now()) return io_error("close failed after write", path, errno);
    return Unit{};
  }
#endif

  Status sync_file(const std::string& path) override {
#if HETINDEX_HAVE_POSIX_IO
    const int raw = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (raw < 0) return io_error("cannot open file for fsync", path, errno);
    FdGuard fd(raw);
    if (::fsync(fd.get()) != 0) {
      io_metrics().counter("fsync_failures_total").add();
      return io_error("fsync failed", path, errno);
    }
    return Unit{};
#else
    (void)path;
    return Unit{};
#endif
  }

  Status sync_dir(const std::string& dir) override {
#if HETINDEX_HAVE_POSIX_IO
    const int raw = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (raw < 0) return io_error("cannot open directory for fsync", dir, errno);
    FdGuard fd(raw);
    if (::fsync(fd.get()) != 0) {
      // Some filesystems refuse directory fsync outright; that is the
      // platform's durability ceiling, not a commit failure.
      if (errno == EINVAL || errno == ENOTSUP) return Unit{};
      io_metrics().counter("fsync_failures_total").add();
      return io_error("directory fsync failed", dir, errno);
    }
    return Unit{};
#else
    (void)dir;
    return Unit{};
#endif
  }

  Status rename_file(const std::string& from, const std::string& to) override {
#if HETINDEX_HAVE_POSIX_IO
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return io_error("rename failed", from + " -> " + to, errno);
    }
    return Unit{};
#else
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    if (ec) return Error{ErrorCode::kIo, "rename failed: " + from + " -> " + to};
    return Unit{};
#endif
  }

  Status remove_file(const std::string& path) override {
#if HETINDEX_HAVE_POSIX_IO
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return io_error("unlink failed", path, errno);
    }
    return Unit{};
#else
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (ec) return Error{ErrorCode::kIo, "remove failed: " + path};
    return Unit{};
#endif
  }

  bool file_exists(const std::string& path) override {
#if HETINDEX_HAVE_POSIX_IO
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
#else
    std::error_code ec;
    return std::filesystem::is_regular_file(path, ec);
#endif
  }

  long pread_some(int fd, void* buf, std::size_t n, std::uint64_t offset) override {
#if HETINDEX_HAVE_POSIX_IO
    return static_cast<long>(::pread(fd, buf, n, static_cast<off_t>(offset)));
#else
    (void)fd;
    (void)buf;
    (void)n;
    (void)offset;
    errno = ENOSYS;
    return -1;
#endif
  }
};

std::atomic<Env*> g_env_override{nullptr};

}  // namespace

// Base-class defaults for the fd-level ingest read hooks: plain POSIX
// passthroughs shared by RealEnv and FaultEnv (FaultEnv's injections live in
// pread_some, which both open paths funnel into).
Expected<int> Env::open_read(const std::string& path) {
#if HETINDEX_HAVE_POSIX_IO
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    if (err == ENOENT) return Error{ErrorCode::kNotFound, "no such file: " + path};
    return io_error("cannot open file for reading", path, err);
  }
  return fd;
#else
  return Error{ErrorCode::kUnsupported, "fd-level reads unavailable: " + path};
#endif
}

Expected<std::uint64_t> Env::fd_size(int fd) {
#if HETINDEX_HAVE_POSIX_IO
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return io_error("cannot stat fd", std::to_string(fd), errno);
  }
  return static_cast<std::uint64_t>(st.st_size);
#else
  (void)fd;
  return Error{ErrorCode::kUnsupported, "fd-level reads unavailable"};
#endif
}

void Env::close_read(int fd) {
#if HETINDEX_HAVE_POSIX_IO
  if (fd >= 0) ::close(fd);
#else
  (void)fd;
#endif
}

Env& real_env() {
  static RealEnv env;
  return env;
}

Env& env() {
  Env* e = g_env_override.load(std::memory_order_acquire);
  return e != nullptr ? *e : real_env();
}

Env* set_env(Env* e) { return g_env_override.exchange(e, std::memory_order_acq_rel); }

obs::MetricsRegistry& io_metrics() {
  static obs::MetricsRegistry registry;
  return registry;
}

Expected<std::vector<std::uint8_t>> read_file_via_env(const std::string& path) {
  auto fd_or = env().open_read(path);
  if (!fd_or.has_value()) {
    if (fd_or.error().code == ErrorCode::kUnsupported) return env().read_file(path);
    return fd_or.error();
  }
  const int fd = fd_or.value();
  struct FdCloser {
    int fd;
    ~FdCloser() { env().close_read(fd); }
  } closer{fd};

  auto size_or = env().fd_size(fd);
  if (!size_or.has_value()) return size_or.error();
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size_or.value()));
  std::size_t done = 0;
  int consecutive_failures = 0;
  while (done < data.size()) {
    const std::size_t want = std::min(kReadChunkBytes, data.size() - done);
    const long n = env().pread_some(fd, data.data() + done, want, done);
    if (n < 0) {
      const int err = errno;
      const bool transient = err == EINTR || err == EAGAIN || err == EIO;
      if (transient && ++consecutive_failures <= kIngestReadRetries) {
        io_metrics().counter("io_retries_total").add();
        continue;
      }
      return io_error("ingest read failed", path, err);
    }
    if (n == 0) {
      return Error{ErrorCode::kIo, "short read (file shrank?): " + path};
    }
    consecutive_failures = 0;
    done += static_cast<std::size_t>(n);
  }
  return data;
}

Status Env::write_file_parts(const std::string& path,
                             std::span<const std::span<const std::uint8_t>> parts) {
  std::vector<std::uint8_t> whole;
  for (const auto part : parts) whole.insert(whole.end(), part.begin(), part.end());
  return write_file(path, whole.data(), whole.size());
}

Status durable_write_file(const std::string& path, const std::uint8_t* data,
                          std::size_t size) {
  const std::span<const std::uint8_t> whole(data, size);
  return durable_write_file(path, {&whole, 1});
}

Status durable_write_file(const std::string& path,
                          std::span<const std::span<const std::uint8_t>> parts) {
  Error last;
  for (int attempt = 0; attempt < kDurableWriteAttempts; ++attempt) {
    if (attempt > 0) io_metrics().counter("io_retries_total").add();
    auto written = env().write_file_parts(path, parts);
    if (!written.has_value()) {
      last = written.error();
      if (last.transient) continue;
      break;
    }
    auto synced = env().sync_file(path);
    if (!synced.has_value()) {
      last = synced.error();
      // Never retry fsync against possibly-dirty pages (the fsyncgate
      // lesson): each attempt rewrites the file from scratch above.
      if (last.transient) continue;
      break;
    }
    return Unit{};
  }
  // No stray partial artifacts: a failed durable write leaves nothing.
  (void)env().remove_file(path);
  return last;
}

// ----------------------------------------------------------------- FaultEnv

FaultEnv::FaultEnv(FaultPlan plan, Env& base)
    : plan_(plan), base_(base), rng_state_(plan.seed) {}

Expected<std::vector<std::uint8_t>> FaultEnv::read_file(const std::string& path) {
  return base_.read_file(path);
}

Status FaultEnv::write_file(const std::string& path, const std::uint8_t* data,
                            std::size_t size) {
  std::lock_guard lk(mu_);
  const std::uint64_t n = ++writes_;
  if (plan_.transient_write_every != 0 && n % plan_.transient_write_every == 0) {
    return Error{ErrorCode::kIo, "injected transient write failure: " + path,
                 /*transient=*/true};
  }
  if (plan_.fail_write_at != 0 && n == plan_.fail_write_at) {
    // Torn write: a seeded prefix reaches the disk, then the device is full.
    const std::size_t keep =
        size == 0 ? 0 : static_cast<std::size_t>(splitmix64(rng_state_) % size);
    auto torn = base_.write_file(path, data, keep);
    if (torn.has_value()) {
      trace_.push_back({WriteOp::Kind::kWriteFile, path, {},
                        std::vector<std::uint8_t>(data, data + keep)});
    }
    return Error{ErrorCode::kIo, "injected ENOSPC (torn write): " + path};
  }
  auto r = base_.write_file(path, data, size);
  if (r.has_value()) {
    trace_.push_back({WriteOp::Kind::kWriteFile, path, {},
                      std::vector<std::uint8_t>(data, data + size)});
  }
  return r;
}

Status FaultEnv::sync_file(const std::string& path) {
  std::lock_guard lk(mu_);
  const std::uint64_t n = ++syncs_;
  if (plan_.fail_sync_at != 0 && n == plan_.fail_sync_at) {
    io_metrics().counter("fsync_failures_total").add();
    return Error{ErrorCode::kIo, "injected fsync failure (EIO): " + path};
  }
  auto r = base_.sync_file(path);
  if (r.has_value()) trace_.push_back({WriteOp::Kind::kSyncFile, path, {}, {}});
  return r;
}

Status FaultEnv::sync_dir(const std::string& dir) {
  std::lock_guard lk(mu_);
  auto r = base_.sync_dir(dir);
  if (r.has_value()) trace_.push_back({WriteOp::Kind::kSyncDir, dir, {}, {}});
  return r;
}

Status FaultEnv::rename_file(const std::string& from, const std::string& to) {
  std::lock_guard lk(mu_);
  auto r = base_.rename_file(from, to);
  if (r.has_value()) trace_.push_back({WriteOp::Kind::kRename, from, to, {}});
  return r;
}

Status FaultEnv::remove_file(const std::string& path) {
  std::lock_guard lk(mu_);
  auto r = base_.remove_file(path);
  if (r.has_value()) trace_.push_back({WriteOp::Kind::kUnlink, path, {}, {}});
  return r;
}

bool FaultEnv::file_exists(const std::string& path) { return base_.file_exists(path); }

long FaultEnv::pread_some(int fd, void* buf, std::size_t n, std::uint64_t offset) {
  std::uint64_t clamp = 0;
  {
    std::lock_guard lk(mu_);
    const std::uint64_t call = ++preads_;
    if (plan_.pread_eio_at != 0 && call >= plan_.pread_eio_at &&
        call < plan_.pread_eio_at + std::max<std::uint64_t>(1, plan_.pread_eio_count)) {
      errno = EIO;
      return -1;
    }
    if (plan_.pread_eintr_every != 0 && call % plan_.pread_eintr_every == 0) {
      errno = EINTR;
      return -1;
    }
    clamp = plan_.short_pread_bytes;
  }
  if (clamp != 0 && n > clamp) n = static_cast<std::size_t>(clamp);
  return base_.pread_some(fd, buf, n, offset);
}

std::vector<WriteOp> FaultEnv::trace() const {
  std::lock_guard lk(mu_);
  return trace_;
}

void FaultEnv::clear_trace() {
  std::lock_guard lk(mu_);
  trace_.clear();
}

void FaultEnv::set_plan(FaultPlan plan) {
  std::lock_guard lk(mu_);
  plan_ = plan;
  rng_state_ = plan.seed;
  writes_ = 0;
  syncs_ = 0;
  preads_ = 0;
}

std::uint64_t FaultEnv::writes_seen() const {
  std::lock_guard lk(mu_);
  return writes_;
}

std::uint64_t FaultEnv::syncs_seen() const {
  std::lock_guard lk(mu_);
  return syncs_;
}

}  // namespace hetindex::io
