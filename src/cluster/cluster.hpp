#pragma once
/// \file cluster.hpp
/// Cluster — the ingest-and-topology facade of the sharded serving tier
/// (docs/CLUSTER.md). A cluster directory holds N ordinary live index
/// directories (`shard-0` … `shard-N-1`, each an IndexWriter's world) plus
/// one durable CLUSTER meta file recording the placement function:
/// partition strategy, shard count, block size. Documents enter through
/// add/delete/update with GLOBAL doc ids; the Partitioner's closed forms
/// route each operation to the owning shard (or broadcast it, term
/// strategy), so no id mapping table is ever stored — a reopen recovers
/// the next global id from the shards' committed widths and validates it
/// against the strategy's expected distribution.
///
/// Serving is the ShardRouter's job: make_router() binds the shard set +
/// partitioner into a SearchBackend. Writer-side calls (add/delete/
/// update/flush/compact) are externally synchronized like IndexWriter
/// itself; router queries run concurrently against committed snapshots.

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/partitioner.hpp"
#include "cluster/router.hpp"
#include "cluster/shard.hpp"
#include "live/writer.hpp"
#include "util/error.hpp"

namespace hetindex {

struct ClusterOptions {
  PartitionStrategy strategy = PartitionStrategy::kDocument;
  std::uint32_t shards = 2;
  std::uint32_t replicas = 1;     ///< serving replicas per shard
  std::uint32_t block_docs = 128; ///< kBlock granularity (ignored otherwise)
  IndexWriterOptions writer;      ///< applied to every shard's writer
  ShardServingOptions serving;    ///< applied to every replica
};

class Cluster {
 public:
  /// Opens (or creates) the cluster under `dir`. An existing CLUSTER meta
  /// file pins strategy/shards/block_docs — the placement function is a
  /// property of the data on disk, so mismatching options are rejected
  /// with kInvalidArgument (defaults defer to the file); a malformed meta
  /// file is kCorrupt, as is a shard-width distribution the strategy
  /// cannot have produced.
  static Expected<Cluster> open(const std::string& dir, ClusterOptions options = {});

  Cluster(Cluster&&) noexcept;
  Cluster& operator=(Cluster&&) noexcept;
  ~Cluster();

  /// Indexes one document cluster-wide and returns its GLOBAL doc id.
  /// Document/block strategies route it to its owning shard; the term
  /// strategy broadcasts it to every shard (replicated storage).
  [[nodiscard]] std::uint32_t add_document(const std::string& url,
                                           const std::string& body);
  /// Tombstones a global doc id on its owning shard (every shard, term
  /// strategy). Same durability contract as IndexWriter::delete_document.
  Status delete_document(std::uint32_t global_doc);
  /// Replace = delete + re-add under the global id sequence: the new
  /// revision gets the next global id (returned), exactly the id a
  /// single-node IndexWriter::update_document would assign — global id
  /// spaces stay aligned between a cluster and a union build.
  Expected<std::uint32_t> update_document(std::uint32_t global_doc,
                                          const std::string& url,
                                          const std::string& body);

  /// IndexWriter::flush() on every shard, each on its own thread, joined
  /// before return. Every shard is attempted: a failed shard keeps its
  /// memtable (retry with another flush()) while the others commit, and the
  /// first error in shard order is returned.
  Status flush();
  /// IndexWriter::compact_now() on each shard in turn; stops at the first
  /// failure and returns it.
  Status compact_now();

  /// Binds the shard set into a scatter-gather SearchBackend. The router
  /// shares ownership of the shards; it outlives the Cluster handle safely.
  [[nodiscard]] std::shared_ptr<ShardRouter> make_router(RouterOptions options = {}) const;

  [[nodiscard]] std::uint32_t shard_count() const;
  [[nodiscard]] std::uint32_t replica_count() const;
  [[nodiscard]] const Partitioner& partitioner() const;
  [[nodiscard]] Shard& shard(std::uint32_t s);
  /// Width of the global doc-id space (next id to be assigned).
  [[nodiscard]] std::uint64_t total_docs() const;
  [[nodiscard]] const std::string& dir() const;

  /// True when `dir` holds a cluster (a CLUSTER meta file) — the CLI's
  /// backend dispatch.
  static bool is_cluster_dir(const std::string& dir);

 private:
  struct State;
  explicit Cluster(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

}  // namespace hetindex
