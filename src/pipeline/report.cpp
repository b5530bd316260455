#include "pipeline/report.hpp"

#include "obs/json.hpp"

namespace hetindex {
namespace {

using obs::json_append_string;
using obs::json_number;

void append_kv(std::string& out, const char* key, std::uint64_t v, bool comma = true) {
  json_append_string(out, key);
  out += ":" + std::to_string(v);
  if (comma) out += ",";
}

void append_kv(std::string& out, const char* key, double v, bool comma = true) {
  json_append_string(out, key);
  out += ":" + json_number(v);
  if (comma) out += ",";
}

void append_work(std::string& out, const std::vector<IndexerWorkStats>& work) {
  out += "[";
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (i) out += ",";
    out += "{";
    append_kv(out, "tokens", work[i].tokens);
    append_kv(out, "new_terms", work[i].new_terms);
    append_kv(out, "chars", work[i].chars);
    append_kv(out, "collections_touched", work[i].collections_touched, /*comma=*/false);
    out += "}";
  }
  out += "]";
}

}  // namespace

std::string PipelineReport::to_json() const {
  std::string out;
  out.reserve(4096 + runs.size() * 256);
  out += "{\"config\":{";
  append_kv(out, "parsers", static_cast<std::uint64_t>(config.parsers));
  append_kv(out, "cpu_indexers", static_cast<std::uint64_t>(config.cpu_indexers));
  append_kv(out, "gpus", static_cast<std::uint64_t>(config.gpus));
  append_kv(out, "gpu_thread_blocks", static_cast<std::uint64_t>(config.gpu_thread_blocks));
  append_kv(out, "buffers_per_parser", static_cast<std::uint64_t>(config.buffers_per_parser));
  out += "\"codec\":" + std::to_string(static_cast<int>(config.codec)) + ",";
  out += "\"merge_after_build\":";
  out += config.merge_after_build ? "true" : "false";
  out += ",\"emit_segment\":";
  out += config.emit_segment ? "true" : "false";
  out += ",\"output_dir\":";
  json_append_string(out, config.output_dir);
  out += "},";

  append_kv(out, "read_stall_seconds", read_stall_seconds);
  out += "\"error\":";
  if (error.has_value()) {
    out += "{\"code\":";
    json_append_string(out, error_code_name(error->code));
    out += ",\"message\":";
    json_append_string(out, error->message);
    out += "}";
  } else {
    out += "null";
  }
  out += ",";

  out += "\"stages\":{";
  append_kv(out, "sampling_seconds", sampling_seconds);
  append_kv(out, "parse_stage_seconds", parse_stage_seconds);
  append_kv(out, "index_stage_seconds", index_stage_seconds);
  append_kv(out, "dict_combine_seconds", dict_combine_seconds);
  append_kv(out, "dict_write_seconds", dict_write_seconds);
  append_kv(out, "merge_seconds", merge_seconds);
  append_kv(out, "segment_seconds", segment_seconds);
  append_kv(out, "total_seconds", total_seconds, /*comma=*/false);
  out += "},";

  out += "\"totals\":{";
  append_kv(out, "documents", documents);
  append_kv(out, "terms", terms);
  append_kv(out, "postings", postings);
  append_kv(out, "tokens", tokens);
  append_kv(out, "uncompressed_bytes", uncompressed_bytes);
  append_kv(out, "compressed_bytes", compressed_bytes);
  append_kv(out, "segment_bytes", segment_bytes);
  append_kv(out, "throughput_mb_s", throughput_mb_s(), /*comma=*/false);
  out += "},";

  out += "\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    if (i) out += ",";
    out += "{";
    append_kv(out, "run_id", r.run_id);
    append_kv(out, "doc_count", static_cast<std::uint64_t>(r.doc_count));
    append_kv(out, "tokens", r.tokens);
    append_kv(out, "source_bytes", r.source_bytes);
    append_kv(out, "compressed_bytes", r.compressed_bytes);
    append_kv(out, "payload_bytes", r.payload_bytes);
    append_kv(out, "read_seconds", r.read_seconds);
    append_kv(out, "decompress_seconds", r.decompress_seconds);
    append_kv(out, "parse_seconds", r.parse_seconds);
    out += "\"cpu_index_seconds\":[";
    for (std::size_t c = 0; c < r.cpu_index_seconds.size(); ++c) {
      if (c) out += ",";
      out += json_number(r.cpu_index_seconds[c]);
    }
    out += "],\"gpu_timings\":[";
    for (std::size_t g = 0; g < r.gpu_timings.size(); ++g) {
      if (g) out += ",";
      out += "{";
      append_kv(out, "pre_seconds", r.gpu_timings[g].pre_seconds);
      append_kv(out, "index_seconds", r.gpu_timings[g].index_seconds);
      append_kv(out, "post_seconds", r.gpu_timings[g].post_seconds, /*comma=*/false);
      out += "}";
    }
    out += "],";
    append_kv(out, "flush_seconds", r.flush_seconds, /*comma=*/false);
    out += "}";
  }
  out += "],";

  out += "\"cpu_work\":";
  append_work(out, cpu_work);
  out += ",\"gpu_work\":";
  append_work(out, gpu_work);
  out += ",\"metrics\":" + metrics.to_json();
  out += "}";
  return out;
}

}  // namespace hetindex
