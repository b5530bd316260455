#include "pipeline/engine.hpp"

#include <filesystem>
#include <span>
#include <thread>

#include "index/indexer.hpp"
#include "io/env.hpp"
#include "obs/metrics.hpp"
#include "parse/read_scheduler.hpp"
#include "pipeline/reorder_buffer.hpp"
#include "postings/doc_map.hpp"
#include "postings/merger.hpp"
#include "postings/query.hpp"
#include "postings/run_file.hpp"
#include "postings/segment.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hetindex {
namespace {

/// What a parser thread hands to the indexing stage.
struct ParsedWork {
  ParsedBlock block;
  std::vector<std::string> urls;  ///< Fig. 3 Step 1 doc table rows
  std::uint32_t doc_count = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t uncompressed_bytes = 0;
  double read_seconds = 0;
  double decompress_seconds = 0;
  double parse_seconds = 0;
};

/// Builds the collection→shard ownership map per §III.E. Shards
/// [0, n_cpu) belong to CPU indexers, [n_cpu, n_cpu + n_gpu) to GPUs.
struct Ownership {
  std::vector<std::vector<std::uint32_t>> cpu_sets;
  std::vector<std::vector<std::uint32_t>> gpu_sets;
};

Ownership assign_collections(const WorkSplit& split, std::size_t n_cpu, std::size_t n_gpu) {
  HET_CHECK_MSG(n_cpu + n_gpu >= 1, "need at least one indexer");
  Ownership own;
  own.cpu_sets.resize(n_cpu);
  own.gpu_sets.resize(n_gpu);

  // Popular collections → CPU indexers, token-balanced. Without CPU
  // indexers (GPU-only scenario (i) of §IV.B) they fall through to GPUs.
  if (n_cpu > 0) {
    own.cpu_sets = balance_popular(split.popular, split.sampled_tokens, n_cpu);
  }

  // Everything else — sampled-unpopular plus never-sampled — goes to the
  // GPUs by the paper's `i mod N2` rule; with no GPUs they join the CPU
  // sets round-robin.
  std::vector<bool> is_popular(kTrieCollections, false);
  if (n_cpu > 0) {
    for (const auto& set : own.cpu_sets)
      for (auto idx : set) is_popular[idx] = true;
  }
  for (std::uint32_t idx = 0; idx < kTrieCollections; ++idx) {
    if (is_popular[idx]) continue;
    if (n_gpu > 0) {
      own.gpu_sets[idx % n_gpu].push_back(idx);
    } else {
      own.cpu_sets[idx % n_cpu].push_back(idx);
    }
  }
  return own;
}

/// One store's lists for the current run, encoded by the indexer thread
/// that owns the store. Rows ascend by handle; `bytes` holds their blobs
/// back to back.
struct EncodedShard {
  struct Row {
    std::uint32_t handle;
    std::size_t offset;
    std::uint32_t bytes;
    std::uint32_t count;
    std::uint32_t min_doc;
    std::uint32_t max_doc;
  };
  std::vector<Row> rows;
  std::vector<std::uint8_t> bytes;
  double encode_seconds = 0;  ///< thread CPU time of the encode
};

/// Encodes every non-empty list of `store` into `out` exactly as
/// RunFileWriter::add_list would, then empties the lists (keeping their
/// capacity for the next run).
void encode_shard(PostingsStore& store, PostingCodec codec, EncodedShard& out) {
  out.rows.clear();
  out.bytes.clear();
  for (std::uint32_t h = 1; h <= store.list_count(); ++h) {
    const auto& list = store.list(h);
    if (list.empty()) continue;
    const auto encoded = encode_postings_blocked(codec, list.doc_ids, list.tfs, list.positions);
    out.rows.push_back({h, out.bytes.size(), static_cast<std::uint32_t>(encoded.size()),
                        static_cast<std::uint32_t>(list.size()), list.doc_ids.front(),
                        list.doc_ids.back()});
    out.bytes.insert(out.bytes.end(), encoded.begin(), encoded.end());
  }
  store.clear_lists();
}

/// The engine-wide instrument handles, resolved once per build so hot
/// paths never touch the registry's name map. Names and units are
/// documented in docs/OBSERVABILITY.md.
struct PipelineInstruments {
  explicit PipelineInstruments(obs::MetricsRegistry& m)
      : documents(m.counter("pipeline_documents_total")),
        tokens(m.counter("pipeline_tokens_total")),
        postings(m.counter("pipeline_postings_total")),
        source_bytes(m.counter("pipeline_source_bytes_total")),
        compressed_bytes(m.counter("pipeline_compressed_bytes_total")),
        payload_bytes(m.counter("pipeline_payload_bytes_total")),
        runs(m.counter("pipeline_runs_total")),
        files_read(m.counter("parse_files_read_total")),
        sampling_seconds(m.time_counter("stage_sampling_seconds_total")),
        read_seconds(m.time_counter("stage_read_seconds_total")),
        disk_wait_seconds(m.time_counter("stage_disk_wait_seconds_total")),
        decompress_seconds(m.time_counter("stage_decompress_seconds_total")),
        parse_seconds(m.time_counter("stage_parse_seconds_total")),
        cpu_index_seconds(m.time_counter("stage_cpu_index_seconds_total")),
        gpu_index_seconds(m.time_counter("stage_gpu_index_seconds_total")),
        flush_seconds(m.time_counter("stage_flush_seconds_total")),
        dict_combine_seconds(m.time_counter("stage_dict_combine_seconds_total")),
        dict_write_seconds(m.time_counter("stage_dict_write_seconds_total")),
        merge_seconds(m.time_counter("stage_merge_seconds_total")),
        segment_seconds(m.time_counter("stage_segment_seconds_total")),
        run_parse(m.stat("run_parse_seconds")),
        run_index(m.stat("run_index_seconds")),
        run_flush(m.stat("run_flush_seconds")),
        run_throughput(m.histogram("run_throughput_mb_s", 0.0, 512.0, 32)),
        dictionary_terms(m.gauge("dictionary_terms")),
        popular_collections(m.gauge("sampler_popular_collections")),
        reorder_probe{&m.gauge("reorder_buffer_depth"),
                      &m.time_counter("reorder_buffer_producer_stall_seconds_total"),
                      &m.time_counter("reorder_buffer_consumer_stall_seconds_total")} {}

  obs::Counter& documents;
  obs::Counter& tokens;
  obs::Counter& postings;
  obs::Counter& source_bytes;
  obs::Counter& compressed_bytes;
  obs::Counter& payload_bytes;
  obs::Counter& runs;
  obs::Counter& files_read;
  obs::TimeCounter& sampling_seconds;
  obs::TimeCounter& read_seconds;
  obs::TimeCounter& disk_wait_seconds;
  obs::TimeCounter& decompress_seconds;
  obs::TimeCounter& parse_seconds;
  obs::TimeCounter& cpu_index_seconds;
  obs::TimeCounter& gpu_index_seconds;
  obs::TimeCounter& flush_seconds;
  obs::TimeCounter& dict_combine_seconds;
  obs::TimeCounter& dict_write_seconds;
  obs::TimeCounter& merge_seconds;
  obs::TimeCounter& segment_seconds;
  obs::Stat& run_parse;
  obs::Stat& run_index;
  obs::Stat& run_flush;
  obs::Histo& run_throughput;
  obs::Gauge& dictionary_terms;
  obs::Gauge& popular_collections;
  obs::QueueProbe reorder_probe;
};

}  // namespace

PipelineEngine::PipelineEngine(PipelineConfig config) : config_(std::move(config)) {
  HET_CHECK_MSG(config_.parsers >= 1, "need at least one parser");
}

PipelineReport PipelineEngine::build(const std::vector<std::string>& files) {
  {
    const auto errors = config_.validate();
    if (!errors.empty()) {
      std::string joined = "invalid PipelineConfig:";
      for (const auto& e : errors) joined += "\n  - " + e.message;
      HET_CHECK_MSG(false, joined.c_str());
    }
  }

  PipelineReport report;
  report.config = config_;
  std::filesystem::create_directories(config_.output_dir);
  PipelineInstruments ins(metrics_);
  WallTimer total_timer;

  // ---- Sampling phase (Table VI "Sampling Time").
  auto sampled = sample_and_split(files, config_.sampler);
  if (!sampled.has_value()) {
    // A hard read error while sampling (§III.E): no index file exists
    // yet, so the report only carries the structured error.
    report.error = sampled.error();
    report.total_seconds = total_timer.seconds();
    report.metrics = metrics_.snapshot();
    return report;
  }
  const WorkSplit split = std::move(sampled).value();
  report.sampling_seconds = split.sampling_seconds;
  ins.sampling_seconds.add(split.sampling_seconds);
  ins.popular_collections.set(static_cast<std::int64_t>(split.popular.size()));

  // ---- Dictionary + stores, one shard per indexer.
  const std::size_t n_cpu = config_.cpu_indexers;
  const std::size_t n_gpu = config_.gpus;
  const Ownership own = assign_collections(split, n_cpu, n_gpu);

  Dictionary dict(config_.use_string_cache);
  std::vector<PostingsStore> stores(n_cpu + n_gpu);
  std::vector<CpuIndexer> cpu_indexers;
  std::vector<GpuIndexer> gpu_indexers;
  cpu_indexers.reserve(n_cpu);
  gpu_indexers.reserve(n_gpu);
  // All shards are created before any indexer takes a reference — the
  // shard vector must not reallocate once indexers point into it.
  for (std::size_t i = 0; i < n_cpu + n_gpu; ++i) dict.add_shard();
  for (std::size_t i = 0; i < n_cpu; ++i) {
    for (auto idx : own.cpu_sets[i]) dict.assign(idx, i);
    cpu_indexers.emplace_back(dict.shard(i), stores[i], own.cpu_sets[i]);
  }
  for (std::size_t g = 0; g < n_gpu; ++g) {
    const std::size_t shard = n_cpu + g;
    for (auto idx : own.gpu_sets[g]) dict.assign(idx, shard);
    gpu_indexers.emplace_back(dict.shard(shard), stores[shard], own.gpu_sets[g],
                              config_.gpu_spec, config_.gpu_thread_blocks);
  }

  // Per-indexer busy-time counters (metric names are stable across runs of
  // the same configuration).
  std::vector<obs::TimeCounter*> cpu_busy, gpu_busy;
  for (std::size_t i = 0; i < n_cpu; ++i) {
    cpu_busy.push_back(&metrics_.time_counter("indexer_cpu" + std::to_string(i) +
                                              "_busy_seconds_total"));
  }
  for (std::size_t g = 0; g < n_gpu; ++g) {
    gpu_busy.push_back(&metrics_.time_counter("indexer_gpu" + std::to_string(g) +
                                              "_busy_seconds_total"));
  }

  // ---- Parse stage: M parser threads feeding the sequence-ordered buffer.
  ReadScheduler scheduler(files);
  ReorderBuffer<ParsedWork> buffer(
      std::max(config_.parsers + 1, config_.parsers * config_.buffers_per_parser),
      ins.reorder_probe);
  std::mutex parse_wall_mutex;
  double parse_stage_wall = 0;     // max over parsers of their busy span
  std::optional<Error> read_error; // first hard ingest failure (sticky)

  WallTimer stage_timer;
  std::vector<std::jthread> parser_threads;
  parser_threads.reserve(config_.parsers);
  for (std::size_t p = 0; p < config_.parsers; ++p) {
    parser_threads.emplace_back([&, p] {
      Parser parser(config_.parser);
      WallTimer busy;
      for (;;) {
        auto next = scheduler.next();
        if (!next.has_value()) {
          // Hard read failure: record the first one and wind down. The
          // scheduler's sticky error drains the other parser threads the
          // same way, so nobody aborts and nobody blocks.
          std::scoped_lock lock(parse_wall_mutex);
          if (!read_error.has_value()) read_error = next.error();
          break;
        }
        if (!next.value().has_value()) break;  // collection exhausted
        ScheduledRead read = *std::move(next).value();
        ParsedWork work;
        work.doc_count = static_cast<std::uint32_t>(read.docs.size());
        work.compressed_bytes = read.compressed_bytes;
        work.uncompressed_bytes = read.uncompressed_bytes;
        work.read_seconds = read.read_seconds;
        work.decompress_seconds = read.decompress_seconds;
        ins.files_read.add(1);
        ins.documents.add(work.doc_count);
        ins.source_bytes.add(work.uncompressed_bytes);
        ins.compressed_bytes.add(work.compressed_bytes);
        ins.read_seconds.add(read.read_seconds);
        ins.disk_wait_seconds.add(read.disk_wait_seconds);
        ins.decompress_seconds.add(read.decompress_seconds);
        work.urls.reserve(read.docs.size());
        for (const auto& doc : read.docs) work.urls.push_back(doc.url);
        obs::StageSpan span(&ins.parse_seconds, &ins.run_parse);
        work.block = parser.parse(read.docs, read.seq, static_cast<std::uint32_t>(p),
                                  read.doc_id_base);
        work.parse_seconds = span.stop();
        ins.tokens.add(work.block.tokens);
        ins.payload_bytes.add(work.block.payload_bytes());
        if (!buffer.push(read.seq, std::move(work))) break;
      }
      std::scoped_lock lock(parse_wall_mutex);
      parse_stage_wall = std::max(parse_stage_wall, busy.seconds());
    });
  }
  // Close the buffer once all parsers are done (watchdog thread keeps the
  // consumer below simple).
  std::jthread closer([&] {
    for (auto& t : parser_threads) t.join();
    buffer.close();
  });

  // ---- Index stage: single runs in sequence order (Fig. 8).
  std::vector<IndexDirectoryEntry> directory;
  DocMapBuilder doc_map;  // Fig. 3 Step 1's <doc ID, location> table
  WallTimer index_stage_timer;
  {
    // One pool thread per indexer, forked and joined once per block. The
    // pool ends with the stage, so its threads' malloc arenas (and the
    // memory freed into them) pass on to the segment fold's threads.
    ThreadPool indexer_pool(stores.size());
    std::vector<EncodedShard> parts(stores.size());
    while (auto work = buffer.pop_next()) {
      RunRecord run;
      run.run_id = work->block.seq;
      run.doc_count = work->doc_count;
      run.compressed_bytes = work->compressed_bytes;
      run.source_bytes = work->uncompressed_bytes;
      run.payload_bytes = work->block.payload_bytes();
      run.tokens = work->block.tokens;
      run.read_seconds = work->read_seconds;
      run.decompress_seconds = work->decompress_seconds;
      run.parse_seconds = work->parse_seconds;
      doc_map.add_file(work->block.doc_id_base, static_cast<std::uint32_t>(work->block.seq),
                       work->urls, work->block.doc_tokens);

      // Parallel indexing + post-processing (Fig. 8): every indexer indexes
      // the block into its own shard and store, then encodes that store's
      // lists for this run, on its own pool thread. Shards share nothing, so
      // no locks (§III.E); the consumer only concatenates the encoded parts.
      const auto run_id = static_cast<std::uint32_t>(run.run_id);
      run.cpu_index_seconds.resize(n_cpu);
      run.gpu_timings.resize(n_gpu);
      {
        obs::StageSpan span(nullptr, &ins.run_index);
        indexer_pool.parallel_for(stores.size(), [&](std::size_t s) {
          ThreadCpuTimer cpu;
          if (s < n_cpu) {
            cpu_indexers[s].index_block(work->block);
            run.cpu_index_seconds[s] = cpu.seconds();
          } else {
            gpu_indexers[s - n_cpu].index_block(work->block, &run.gpu_timings[s - n_cpu]);
          }
          cpu.reset();
          encode_shard(stores[s], config_.codec, parts[s]);
          parts[s].encode_seconds = cpu.seconds();
        });
      }
      for (std::size_t i = 0; i < n_cpu; ++i) {
        ins.cpu_index_seconds.add(run.cpu_index_seconds[i]);
        cpu_busy[i]->add(run.cpu_index_seconds[i]);
      }
      for (std::size_t g = 0; g < n_gpu; ++g) {
        const auto& t = run.gpu_timings[g];
        const double busy = t.pre_seconds + t.index_seconds + t.post_seconds;
        ins.gpu_index_seconds.add(busy);
        gpu_busy[g]->add(busy);
      }

      // Concatenate the shard parts into this run's file in (shard, handle)
      // order: the same bytes RunFileWriter::add_list writes list by list.
      {
        WallTimer write_timer;
        RunFileWriter writer(IndexLayout::run_path(config_.output_dir, run_id), run_id,
                             config_.codec);
        std::uint32_t min_doc = 0xFFFFFFFFu, max_doc = 0;
        std::uint64_t run_postings = 0;
        double encode_seconds = 0;
        for (std::size_t s = 0; s < parts.size(); ++s) {
          const EncodedShard& part = parts[s];
          for (const auto& row : part.rows) {
            min_doc = std::min(min_doc, row.min_doc);
            max_doc = std::max(max_doc, row.max_doc);
            run_postings += row.count;
            writer.add_raw({static_cast<std::uint32_t>(s), row.handle},
                           std::span(part.bytes).subspan(row.offset, row.bytes), row.count,
                           row.min_doc, row.max_doc);
          }
          encode_seconds += part.encode_seconds;
        }
        writer.finalize();
        if (run_postings == 0) min_doc = 0;
        directory.push_back({"run_" + std::to_string(run_id) + ".post", run_id, min_doc,
                             max_doc});
        run.flush_seconds = encode_seconds + write_timer.seconds();
        ins.flush_seconds.add(run.flush_seconds);
        ins.run_flush.add(run.flush_seconds);
        ins.postings.add(run_postings);
      }

      report.documents += run.doc_count;
      report.tokens += run.tokens;
      report.uncompressed_bytes += run.source_bytes;
      report.compressed_bytes += run.compressed_bytes;

      // Per-run throughput profile: this run's source MB over the stage work
      // it consumed end to end (read → flush).
      double run_work_seconds = run.read_seconds + run.decompress_seconds +
                                run.parse_seconds + run.flush_seconds;
      for (const double s : run.cpu_index_seconds) run_work_seconds += s;
      for (const auto& g : run.gpu_timings) {
        run_work_seconds += g.pre_seconds + g.index_seconds + g.post_seconds;
      }
      if (run_work_seconds > 0) {
        ins.run_throughput.add(static_cast<double>(run.source_bytes) / (1024.0 * 1024.0) /
                               run_work_seconds);
      }
      ins.runs.add(1);
      report.runs.push_back(std::move(run));

      if (config_.progress) {
        PipelineProgress progress;
        progress.runs_completed = report.runs.size();
        progress.files_total = files.size();
        progress.documents = report.documents;
        progress.tokens = report.tokens;
        progress.source_bytes = report.uncompressed_bytes;
        progress.elapsed_seconds = total_timer.seconds();
        config_.progress(progress);
      }
    }
  }
  report.index_stage_seconds = index_stage_timer.seconds();
  closer.join();
  report.parse_stage_seconds = std::max(parse_stage_wall, stage_timer.seconds());
  report.read_stall_seconds = scheduler.read_stall_seconds();

  if (read_error.has_value()) {
    // A hard ingest read error: the build is void. Already-flushed partial
    // run files are removed so the output directory holds no stray
    // artifacts, and the finalize stages (dictionary, doc map, merge,
    // segment) are skipped — the caller gets a structured report.error
    // instead of a process abort.
    for (const auto& e : directory) {
      (void)io::env().remove_file(config_.output_dir + "/" + e.file);
    }
    report.error = *read_error;
    report.total_seconds = total_timer.seconds();
    report.metrics = metrics_.snapshot();
    return report;
  }

  // ---- Dictionary combine + write (Table VI rows).
  std::vector<DictionaryEntry> entries;  // written once, then folded into the segment
  {
    obs::StageSpan span(&ins.dict_combine_seconds);
    entries = dict.combine();
    report.terms = entries.size();
    report.dict_combine_seconds = span.stop();
    ins.dictionary_terms.set(static_cast<std::int64_t>(report.terms));
  }
  {
    obs::StageSpan span(&ins.dict_write_seconds);
    dictionary_write(entries, IndexLayout::dictionary_path(config_.output_dir));
    index_directory_write(IndexLayout::directory_path(config_.output_dir), directory);
    doc_map.write(doc_map_path(config_.output_dir));
    report.dict_write_seconds = span.stop();
  }

  if (config_.merge_after_build) {
    obs::StageSpan span(&ins.merge_seconds);
    std::vector<std::string> run_paths;
    run_paths.reserve(directory.size());
    for (const auto& e : directory) run_paths.push_back(config_.output_dir + "/" + e.file);
    const auto merged =
        merge_runs(run_paths, IndexLayout::merged_path(config_.output_dir), config_.codec);
    report.merge_seconds = span.stop();
    if (!merged.has_value()) report.error = merged.error();
  }

  if (config_.emit_segment && report.ok()) {
    obs::StageSpan span(&ins.segment_seconds);
    const auto stats = build_segment_from_runs(config_.output_dir, entries, directory);
    report.segment_seconds = span.stop();
    if (stats.has_value()) {
      report.segment_bytes = stats.value().output_bytes;
    } else {
      report.error = stats.error();  // no index.seg is left behind
    }
  }

  for (const auto& ind : cpu_indexers) report.cpu_work.push_back(ind.lifetime_stats());
  for (const auto& ind : gpu_indexers) report.gpu_work.push_back(ind.lifetime_stats());
  for (const auto& store : stores) report.postings += store.postings_added();
  report.total_seconds = total_timer.seconds();
  report.metrics = metrics_.snapshot();
  return report;
}

}  // namespace hetindex
