#include "cluster/cluster.hpp"

#include <charconv>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "io/env.hpp"
#include "util/check.hpp"

namespace hetindex {
namespace {

constexpr std::string_view kMetaMagic = "hetindex-cluster v1";

std::string meta_path(const std::string& dir) { return dir + "/CLUSTER"; }

std::string shard_dir(const std::string& dir, std::uint32_t shard) {
  return dir + "/shard-" + std::to_string(shard);
}

/// Topology as pinned on disk — everything the placement function depends on.
struct ClusterMeta {
  PartitionStrategy strategy = PartitionStrategy::kDocument;
  std::uint32_t shards = 0;
  std::uint32_t block_docs = 0;
};

std::vector<std::uint8_t> encode_meta(const ClusterMeta& meta) {
  std::ostringstream out;
  out << kMetaMagic << '\n'
      << "strategy=" << partition_strategy_name(meta.strategy) << '\n'
      << "shards=" << meta.shards << '\n'
      << "block_docs=" << meta.block_docs << '\n';
  const std::string text = out.str();
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

std::optional<std::uint32_t> parse_u32(std::string_view text) {
  std::uint32_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

Expected<ClusterMeta> decode_meta(const std::vector<std::uint8_t>& bytes) {
  const auto corrupt = [](const char* why) {
    return Error{ErrorCode::kCorrupt, std::string("CLUSTER meta: ") + why};
  };
  std::string_view text(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  ClusterMeta meta;
  bool saw_strategy = false, saw_shards = false, saw_blocks = false;
  std::size_t line_no = 0;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{} : text.substr(eol + 1);
    if (line_no++ == 0) {
      if (line != kMetaMagic) return corrupt("bad magic line");
      continue;
    }
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) return corrupt("line is not key=value");
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (key == "strategy") {
      const auto parsed = parse_partition_strategy(value);
      if (!parsed) return corrupt("unknown strategy");
      meta.strategy = *parsed;
      saw_strategy = true;
    } else if (key == "shards") {
      const auto parsed = parse_u32(value);
      if (!parsed || *parsed == 0) return corrupt("bad shard count");
      meta.shards = *parsed;
      saw_shards = true;
    } else if (key == "block_docs") {
      const auto parsed = parse_u32(value);
      if (!parsed) return corrupt("bad block_docs");
      meta.block_docs = *parsed;
      saw_blocks = true;
    }
    // Unknown keys are ignored — forward compatibility.
  }
  if (line_no == 0) return corrupt("empty file");
  if (!saw_strategy || !saw_shards || !saw_blocks) {
    return corrupt("missing strategy/shards/block_docs");
  }
  if (meta.strategy == PartitionStrategy::kBlock && meta.block_docs == 0) {
    return corrupt("block strategy with block_docs=0");
  }
  return meta;
}

}  // namespace

struct Cluster::State {
  std::string dir;
  ClusterOptions options;
  std::shared_ptr<const Partitioner> partitioner;
  std::vector<std::shared_ptr<Shard>> shards;
  std::uint64_t next_global = 0;
};

Cluster::Cluster(std::unique_ptr<State> state) : state_(std::move(state)) {}
Cluster::Cluster(Cluster&&) noexcept = default;
Cluster& Cluster::operator=(Cluster&&) noexcept = default;
Cluster::~Cluster() = default;

Expected<Cluster> Cluster::open(const std::string& dir, ClusterOptions options) {
  if (options.shards == 0) {
    return Error{ErrorCode::kInvalidArgument, "cluster needs at least one shard"};
  }
  if (options.replicas == 0) {
    return Error{ErrorCode::kInvalidArgument, "cluster needs at least one replica"};
  }
  if (options.strategy == PartitionStrategy::kBlock && options.block_docs == 0) {
    return Error{ErrorCode::kInvalidArgument, "block partitioning needs block_docs > 0"};
  }

  std::error_code fs_error;
  std::filesystem::create_directories(dir, fs_error);
  if (fs_error) {
    return Error{ErrorCode::kIo, "cannot create cluster dir " + dir + ": " + fs_error.message()};
  }

  const std::string meta_file = meta_path(dir);
  ClusterMeta meta{options.strategy, options.shards, options.block_docs};
  if (io::env().file_exists(meta_file)) {
    auto bytes = io::env().read_file(meta_file);
    if (!bytes) return bytes.error();
    auto decoded = decode_meta(*bytes);
    if (!decoded) return decoded.error();
    // The placement function is a property of the data on disk: reject
    // options that contradict it rather than silently rerouting documents.
    const ClusterOptions defaults{};
    const bool strategy_overridden = options.strategy != defaults.strategy;
    const bool shards_overridden = options.shards != defaults.shards;
    const bool blocks_overridden = options.block_docs != defaults.block_docs;
    if ((strategy_overridden && options.strategy != decoded->strategy) ||
        (shards_overridden && options.shards != decoded->shards) ||
        (blocks_overridden && options.block_docs != decoded->block_docs)) {
      return Error{ErrorCode::kInvalidArgument,
                   "cluster topology mismatch: on-disk is strategy=" +
                       std::string(partition_strategy_name(decoded->strategy)) +
                       " shards=" + std::to_string(decoded->shards) +
                       " block_docs=" + std::to_string(decoded->block_docs)};
    }
    meta = *decoded;
  } else {
    // New cluster: pin the topology durably before any shard exists, so a
    // crash between shard creations still reopens with the right placement.
    if (auto status = io::durable_write_file(meta_file + ".tmp", encode_meta(meta));
        !status) {
      return status.error();
    }
    if (auto status = io::env().rename_file(meta_file + ".tmp", meta_file); !status) {
      (void)io::env().remove_file(meta_file + ".tmp");
      return status.error();
    }
    if (auto status = io::env().sync_dir(dir); !status) return status.error();
  }

  auto state = std::make_unique<State>();
  state->dir = dir;
  state->options = options;
  state->options.strategy = meta.strategy;
  state->options.shards = meta.shards;
  state->options.block_docs = meta.block_docs;
  state->partitioner = make_partitioner(meta.strategy, meta.shards,
                                        meta.block_docs == 0 ? 1 : meta.block_docs);

  std::vector<std::uint64_t> widths;
  widths.reserve(meta.shards);
  for (std::uint32_t s = 0; s < meta.shards; ++s) {
    auto writer = IndexWriter::open(shard_dir(dir, s), options.writer);
    if (!writer) return writer.error();
    auto shared = std::make_shared<IndexWriter>(std::move(*writer));
    widths.push_back(shared->snapshot()->total_docs());
    state->shards.push_back(
        std::make_shared<Shard>(std::move(shared), options.replicas, options.serving));
  }

  // Recover the global id sequence from the shards' committed widths. The
  // placement closed forms make the per-shard widths a function of the
  // global width G; invert it, then validate every shard against the
  // expected distribution — a mismatch means the directories were tampered
  // with or mixed from different clusters.
  const std::uint64_t total = state->partitioner->replicates_documents()
                                  ? widths[0]
                                  : [&widths] {
                                      std::uint64_t sum = 0;
                                      for (const auto w : widths) sum += w;
                                      return sum;
                                    }();
  for (std::uint32_t s = 0; s < meta.shards; ++s) {
    if (state->partitioner->expected_shard_docs(s, total) != widths[s]) {
      return Error{ErrorCode::kCorrupt,
                   "shard-" + std::to_string(s) + " width " + std::to_string(widths[s]) +
                       " does not match strategy " +
                       std::string(partition_strategy_name(meta.strategy)) +
                       " at total " + std::to_string(total)};
    }
  }
  state->next_global = total;

  return Cluster(std::move(state));
}

std::uint32_t Cluster::add_document(const std::string& url, const std::string& body) {
  const auto global = static_cast<std::uint32_t>(state_->next_global);
  if (state_->partitioner->replicates_documents()) {
    for (const auto& shard : state_->shards) {
      const std::uint32_t local = shard->writer().add_document(url, body);
      HET_CHECK_MSG(local == global, "replicated shard drifted from global id space");
    }
  } else {
    const std::uint32_t owner = state_->partitioner->doc_shard(global);
    const std::uint32_t local = state_->shards[owner]->writer().add_document(url, body);
    HET_CHECK_MSG(local == state_->partitioner->local_doc(global),
                  "shard writer drifted from the placement closed form");
  }
  ++state_->next_global;
  return global;
}

Status Cluster::delete_document(std::uint32_t global_doc) {
  if (global_doc >= state_->next_global) {
    return Error{ErrorCode::kInvalidArgument,
                 "global doc " + std::to_string(global_doc) + " was never assigned"};
  }
  if (state_->partitioner->replicates_documents()) {
    for (const auto& shard : state_->shards) {
      if (auto status = shard->writer().delete_document(global_doc); !status) {
        return status;
      }
    }
    return Unit{};
  }
  const std::uint32_t owner = state_->partitioner->doc_shard(global_doc);
  return state_->shards[owner]->writer().delete_document(
      state_->partitioner->local_doc(global_doc));
}

Expected<std::uint32_t> Cluster::update_document(std::uint32_t global_doc,
                                                 const std::string& url,
                                                 const std::string& body) {
  // delete + add under the cluster's global sequence — the same two steps
  // IndexWriter::update_document performs, so the new revision gets exactly
  // the id a single-node union writer would assign.
  if (auto status = delete_document(global_doc); !status) return status.error();
  return add_document(url, body);
}

Status Cluster::flush() {
  // Shard writers share nothing (each flush takes only its own writer's
  // mutex), so every shard flushes on its own thread at once.
  const auto& shards = state_->shards;
  std::vector<Status> results(shards.size(), Unit{});
  {
    std::vector<std::jthread> flushers;
    flushers.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      flushers.emplace_back([&, s] {
        if (auto flushed = shards[s]->writer().flush(); !flushed) results[s] = flushed.error();
      });
    }
  }
  for (auto& result : results) {
    if (!result) return result;
  }
  return Unit{};
}

Status Cluster::compact_now() {
  for (const auto& shard : state_->shards) {
    if (auto status = shard->writer().compact_now(); !status) return status;
  }
  return Unit{};
}

std::shared_ptr<ShardRouter> Cluster::make_router(RouterOptions options) const {
  return std::make_shared<ShardRouter>(state_->shards, state_->partitioner, options);
}

std::uint32_t Cluster::shard_count() const {
  return static_cast<std::uint32_t>(state_->shards.size());
}

std::uint32_t Cluster::replica_count() const { return state_->options.replicas; }

const Partitioner& Cluster::partitioner() const { return *state_->partitioner; }

Shard& Cluster::shard(std::uint32_t s) { return *state_->shards[s]; }

std::uint64_t Cluster::total_docs() const { return state_->next_global; }

const std::string& Cluster::dir() const { return state_->dir; }

bool Cluster::is_cluster_dir(const std::string& dir) {
  return io::env().file_exists(meta_path(dir));
}

}  // namespace hetindex
