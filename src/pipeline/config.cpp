#include "pipeline/config.hpp"

namespace hetindex {

std::vector<Error> PipelineConfig::validate() const {
  std::vector<Error> errors;
  const auto invalid = [&errors](std::string message) {
    errors.push_back({ErrorCode::kInvalidArgument, std::move(message)});
  };
  if (parsers == 0) invalid("parsers must be >= 1 (Fig. 9 needs a parse stage)");
  if (cpu_indexers + gpus == 0) {
    invalid("need at least one indexer: cpu_indexers + gpus must be >= 1");
  }
  if (buffers_per_parser == 0) {
    invalid("buffers_per_parser must be >= 1 (zero leaves parsers nowhere to park a block)");
  }
  if (gpus > 0 && gpu_thread_blocks == 0) {
    invalid("gpus > 0 requires gpu_thread_blocks >= 1 (§IV.B uses 480)");
  }
  if (sampler.sample_fraction <= 0.0 || sampler.sample_fraction > 1.0) {
    invalid("sampler.sample_fraction must be in (0, 1]");
  }
  if (cpu_indexers > 0 && sampler.popular_count == 0) {
    invalid(
        "sampler.popular_count must be >= 1 when cpu_indexers > 0 (CPU indexers own the "
        "popular collections, §III.E)");
  }
  if (output_dir.empty()) invalid("output_dir must not be empty");
  return errors;
}

}  // namespace hetindex
