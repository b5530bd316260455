#include "cluster/partitioner.hpp"

#include "util/check.hpp"
#include "util/hash.hpp"

namespace hetindex {
namespace {

class DocumentPartitioner final : public Partitioner {
 public:
  explicit DocumentPartitioner(std::uint32_t shards) : Partitioner(shards) {}

  [[nodiscard]] PartitionStrategy strategy() const override {
    return PartitionStrategy::kDocument;
  }
  [[nodiscard]] std::uint32_t doc_shard(std::uint32_t g) const override {
    return g % shards();
  }
  [[nodiscard]] std::uint32_t local_doc(std::uint32_t g) const override {
    return g / shards();
  }
  [[nodiscard]] std::uint32_t global_doc(std::uint32_t shard,
                                         std::uint32_t local) const override {
    return local * shards() + shard;
  }
  [[nodiscard]] std::uint64_t expected_shard_docs(std::uint32_t shard,
                                                  std::uint64_t total) const override {
    return total / shards() + (shard < total % shards() ? 1 : 0);
  }
};

class BlockPartitioner final : public Partitioner {
 public:
  BlockPartitioner(std::uint32_t shards, std::uint32_t block_docs)
      : Partitioner(shards), block_docs_(block_docs) {}

  [[nodiscard]] PartitionStrategy strategy() const override {
    return PartitionStrategy::kBlock;
  }
  [[nodiscard]] std::uint32_t doc_shard(std::uint32_t g) const override {
    return (g / block_docs_) % shards();
  }
  [[nodiscard]] std::uint32_t local_doc(std::uint32_t g) const override {
    const std::uint32_t block = g / block_docs_;
    return (block / shards()) * block_docs_ + g % block_docs_;
  }
  [[nodiscard]] std::uint32_t global_doc(std::uint32_t shard,
                                         std::uint32_t local) const override {
    const std::uint32_t local_block = local / block_docs_;
    return (local_block * shards() + shard) * block_docs_ + local % block_docs_;
  }
  [[nodiscard]] std::uint64_t expected_shard_docs(std::uint32_t shard,
                                                  std::uint64_t total) const override {
    if (total == 0) return 0;
    const std::uint64_t blocks = (total + block_docs_ - 1) / block_docs_;
    // Full-block count this shard owns among blocks [0, blocks)...
    const std::uint64_t owned = blocks / shards() + (shard < blocks % shards() ? 1 : 0);
    std::uint64_t docs = owned * block_docs_;
    // ...minus the unfilled tail of the final (possibly partial) block.
    const std::uint64_t last_block = blocks - 1;
    if (shard == last_block % shards()) {
      docs -= last_block * block_docs_ + block_docs_ - total;
    }
    return docs;
  }

 private:
  std::uint32_t block_docs_;
};

class TermPartitioner final : public Partitioner {
 public:
  explicit TermPartitioner(std::uint32_t shards) : Partitioner(shards) {}

  [[nodiscard]] PartitionStrategy strategy() const override {
    return PartitionStrategy::kTerm;
  }
  // Documents are everywhere; local ids ARE global ids.
  [[nodiscard]] std::uint32_t doc_shard(std::uint32_t) const override { return 0; }
  [[nodiscard]] std::uint32_t local_doc(std::uint32_t g) const override { return g; }
  [[nodiscard]] std::uint32_t global_doc(std::uint32_t,
                                         std::uint32_t local) const override {
    return local;
  }
  [[nodiscard]] std::optional<std::uint32_t> term_shard(
      std::string_view term) const override {
    return static_cast<std::uint32_t>(fnv1a(term) % shards());
  }
  [[nodiscard]] bool replicates_documents() const override { return true; }
  [[nodiscard]] std::uint64_t expected_shard_docs(std::uint32_t,
                                                  std::uint64_t total) const override {
    return total;
  }
};

}  // namespace

std::optional<PartitionStrategy> parse_partition_strategy(std::string_view name) {
  if (name == "document") return PartitionStrategy::kDocument;
  if (name == "term") return PartitionStrategy::kTerm;
  if (name == "block") return PartitionStrategy::kBlock;
  return std::nullopt;
}

std::shared_ptr<const Partitioner> make_partitioner(PartitionStrategy strategy,
                                                    std::uint32_t shards,
                                                    std::uint32_t block_docs) {
  HET_CHECK_MSG(shards > 0, "a cluster needs at least one shard");
  switch (strategy) {
    case PartitionStrategy::kDocument:
      return std::make_shared<DocumentPartitioner>(shards);
    case PartitionStrategy::kTerm:
      return std::make_shared<TermPartitioner>(shards);
    case PartitionStrategy::kBlock:
      HET_CHECK_MSG(block_docs > 0, "block partitioning needs block_docs > 0");
      return std::make_shared<BlockPartitioner>(shards, block_docs);
  }
  HET_CHECK_MSG(false, "unknown partition strategy");
  return nullptr;
}

}  // namespace hetindex
