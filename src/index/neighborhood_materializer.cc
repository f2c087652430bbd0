#include "index/neighborhood_materializer.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/fail_point.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace lofkit {

namespace {

bool SameCoordinates(const Dataset& data, uint32_t a, uint32_t b) {
  auto pa = data.point(a);
  auto pb = data.point(b);
  return std::equal(pa.begin(), pa.end(), pb.begin());
}

// Number of distinct-coordinate groups in a sorted neighbor list. Points
// with identical coordinates necessarily have identical distances to the
// query, so deduplication only needs to look inside equal-distance runs.
size_t CountDistinctGroups(const Dataset& data,
                           std::span<const Neighbor> list) {
  size_t groups = 0;
  size_t run_begin = 0;
  while (run_begin < list.size()) {
    size_t run_end = run_begin + 1;
    while (run_end < list.size() &&
           list[run_end].distance == list[run_begin].distance) {
      ++run_end;
    }
    for (size_t i = run_begin; i < run_end; ++i) {
      bool is_new = true;
      for (size_t j = run_begin; j < i; ++j) {
        if (SameCoordinates(data, list[i].index, list[j].index)) {
          is_new = false;
          break;
        }
      }
      if (is_new) ++groups;
    }
    run_begin = run_end;
  }
  return groups;
}

// The full neighborhood query for one point, shared by the serial and the
// parallel materialization paths; the list is left in ctx.results(). In
// distinct mode the query grows until k_max distinct-coordinate neighbors
// are covered (or the whole dataset has been fetched).
Status QueryNeighborhood(const Dataset& data, const KnnIndex& index,
                         size_t k_max, bool distinct_neighbors, size_t i,
                         KnnSearchContext& ctx) {
  const uint32_t self = static_cast<uint32_t>(i);
  size_t query_k = k_max;
  LOFKIT_RETURN_IF_ERROR(index.Query(data.point(i), query_k, self, ctx));
  if (distinct_neighbors) {
    while (CountDistinctGroups(data, ctx.results()) < k_max &&
           ctx.results().size() < data.size() - 1) {
      query_k = std::min(query_k * 2, data.size() - 1);
      LOFKIT_RETURN_IF_ERROR(index.Query(data.point(i), query_k, self, ctx));
    }
  }
  return Status::OK();
}

// Points per QueryBatch call in non-distinct materialization. Large enough
// for the linear scan's tiled batch override to amortize its dataset
// streaming, small enough that the staged batch output stays cache-friendly.
constexpr size_t kBatchChunk = 64;

// Structural validation of one externally supplied neighbor list: indexes
// in range, distances finite and non-negative, sorted by (distance, index).
// Shared by FromLists and LoadFromFile so a corrupt or hand-built M can
// never break View()'s equal-distance-run walk later.
Status ValidateNeighborList(size_t list_index, std::span<const Neighbor> list,
                            size_t n) {
  for (size_t j = 0; j < list.size(); ++j) {
    if (list[j].index >= n) {
      return Status::InvalidArgument(
          StrFormat("list %zu holds out-of-range index %u", list_index,
                    list[j].index));
    }
    if (!std::isfinite(list[j].distance) || list[j].distance < 0.0) {
      return Status::InvalidArgument(
          StrFormat("list %zu holds a non-finite or negative distance",
                    list_index));
    }
    if (j > 0 && (list[j - 1].distance > list[j].distance ||
                  (list[j - 1].distance == list[j].distance &&
                   list[j - 1].index >= list[j].index))) {
      return Status::InvalidArgument(
          StrFormat("list %zu is not sorted by (distance, index)",
                    list_index));
    }
  }
  return Status::OK();
}

Status ValidateMaterializationArgs(const Dataset& data, size_t k_max) {
  if (k_max == 0) {
    return Status::InvalidArgument("k_max must be >= 1");
  }
  if (k_max >= data.size()) {
    return Status::InvalidArgument(
        StrFormat("k_max (%zu) must be smaller than the dataset size (%zu): "
                  "every point needs k_max neighbors besides itself",
                  k_max, data.size()));
  }
  return Status::OK();
}

// The upfront budget gate: refuses to materialize when even the optimistic
// projection of M does not fit, so callers can fall back to the re-query
// path before a single query has been paid.
// Runs `query` as one flight-recorder timed unit covering `queries` kNN
// queries starting at `first_point`. When the unit is not sampled (or no
// shard is armed) the query runs bare — no clock reads, no snapshots — so
// the stride fully amortizes the timing overhead. Requires ctx.stats when
// ctx.flight is set (the record keeps counter deltas).
template <typename QueryFn>
Status TimedUnit(KnnSearchContext& ctx, const KnnIndex& index,
                 uint32_t first_point, uint32_t queries, size_t k,
                 QueryFn&& query) {
  if (ctx.flight == nullptr || ctx.stats == nullptr ||
      !ctx.flight->ShouldSample()) {
    return query();
  }
  const QueryStats before = *ctx.stats;
  const uint64_t start_ns = QueryFlightRecorder::NowNs();
  LOFKIT_RETURN_IF_ERROR(query());
  const uint64_t end_ns = QueryFlightRecorder::NowNs();
  ctx.flight->Record(QueryFlightRecorder::Site::kMaterialize, index.name(),
                     first_point, queries, static_cast<uint32_t>(k),
                     end_ns - start_ns, before, *ctx.stats);
  return Status::OK();
}

// The parallel query engine shared by MaterializeParallel (one window
// covering every point) and the streaming spill build (bounded windows):
// fills lists[i - begin_point] for points [begin_point, end_point), sharded
// over workers with ParallelFor's deterministic chunking. Chunk boundaries
// are relative to the window start, so windows that are multiples of
// kBatchChunk produce the exact chunking of the whole-range pass; the
// per-point lists are deterministic either way, which is what the
// bit-identity guarantee rests on. Workers shard whole chunks so each
// QueryBatch call stays within one worker; every worker owns one
// long-lived context (and id buffer), reused across its chunks — contexts
// are not thread-safe, worker ids make the assignment race-free.
// ParallelForWorker aborts the other workers at their next chunk once any
// query fails, instead of letting them run their chunks to completion.
// Per-worker counter shards are summed into the observer after the join,
// so totals come out the same at every thread count.
Status QueryListsWindow(const Dataset& data, const KnnIndex& index,
                        size_t k_max, size_t threads, bool distinct_neighbors,
                        const PipelineObserver& observer,
                        const StopToken& stop, size_t begin_point,
                        size_t end_point,
                        std::vector<std::vector<Neighbor>>& lists) {
  const size_t count = end_point - begin_point;
  const size_t num_chunks = (count + kBatchChunk - 1) / kBatchChunk;
  const size_t num_workers =
      std::min(std::max<size_t>(ResolveThreadCount(threads), 1), num_chunks);
  std::vector<KnnSearchContext> ctxs(num_workers);
  std::vector<std::vector<uint32_t>> ids(num_workers);
  std::vector<QueryStats> worker_stats(num_workers);
  if (observer.query_stats != nullptr || observer.flight != nullptr) {
    for (size_t w = 0; w < num_workers; ++w) {
      ctxs[w].stats = &worker_stats[w];
    }
  }
  if (observer.flight != nullptr) {
    observer.flight->PrepareShards(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      ctxs[w].flight = observer.flight->shard(w);
    }
  }
  LOFKIT_RETURN_IF_ERROR(ParallelForWorker(
      num_chunks, threads, stop, [&](size_t worker, size_t c) -> Status {
        LOFKIT_FAIL_POINT("materializer.query");
        const size_t begin = begin_point + c * kBatchChunk;
        const size_t end = std::min(begin + kBatchChunk, end_point);
        KnnSearchContext& ctx = ctxs[worker];
        TraceRecorder::Span chunk_span(observer.trace, "materialize.chunk",
                                       static_cast<uint32_t>(worker + 1));
        if (!distinct_neighbors) {
          std::vector<uint32_t>& chunk_ids = ids[worker];
          chunk_ids.resize(end - begin);
          for (size_t j = 0; j < chunk_ids.size(); ++j) {
            chunk_ids[j] = static_cast<uint32_t>(begin + j);
          }
          LOFKIT_RETURN_IF_ERROR(TimedUnit(
              ctx, index, chunk_ids.front(),
              static_cast<uint32_t>(chunk_ids.size()), k_max,
              [&] { return index.QueryBatch(chunk_ids, k_max, ctx); }));
          for (size_t j = 0; j < chunk_ids.size(); ++j) {
            const auto list = ctx.batch_results(j);
            lists[begin - begin_point + j].assign(list.begin(), list.end());
          }
        } else {
          for (size_t i = begin; i < end; ++i) {
            LOFKIT_RETURN_IF_ERROR(TimedUnit(
                ctx, index, static_cast<uint32_t>(i), 1, k_max, [&] {
                  return QueryNeighborhood(data, index, k_max,
                                           distinct_neighbors, i, ctx);
                }));
            const auto list = ctx.results();
            lists[i - begin_point].assign(list.begin(), list.end());
          }
        }
        if (observer.progress != nullptr) observer.progress->Add(end - begin);
        return Status::OK();
      }));
  if (observer.query_stats != nullptr) {
    for (const QueryStats& shard : worker_stats) {
      observer.query_stats->Add(shard);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Container serialization (the v2 persistence format).
//
// Sections of a materialization container:
//   "meta"      32 bytes: k_max u64 | n u64 | entry_count u64 |
//               distinct u8 | 7 reserved bytes (zero)
//   "offsets"   (n+1) x u64, offsets_[...] verbatim
//   "neighbors" entry_count x 16-byte records laid out exactly like the
//               in-memory Neighbor {u32 index, 4 zero bytes, f64 distance},
//               so a mapped section serves as std::span<const Neighbor>
//               zero-copy. The padding bytes are zeroed deterministically
//               on write (the in-RAM structs carry garbage there), which
//               keeps the section CRC reproducible.
// ---------------------------------------------------------------------------

constexpr uint32_t kMaterializationFileType = 1;
constexpr uint32_t kMaterializationFileVersion = 2;
constexpr size_t kMaterializationMetaSize = 32;

// The zero-copy contract: the on-disk record and the in-memory struct must
// agree byte for byte, and mapped u64 offsets must be servable as size_t.
static_assert(sizeof(Neighbor) == 16, "on-disk record mirrors Neighbor");
static_assert(offsetof(Neighbor, index) == 0, "index lives at byte 0");
static_assert(offsetof(Neighbor, distance) == 8, "distance lives at byte 8");
static_assert(sizeof(size_t) == sizeof(uint64_t),
              "offsets are served zero-copy as size_t");

void SerializeMaterializationMeta(
    unsigned char (&buf)[kMaterializationMetaSize], size_t k_max, size_t n,
    size_t entry_count, bool distinct) {
  std::memset(buf, 0, kMaterializationMetaSize);
  const uint64_t k_max64 = k_max;
  const uint64_t n64 = n;
  const uint64_t entries64 = entry_count;
  std::memcpy(buf, &k_max64, 8);
  std::memcpy(buf + 8, &n64, 8);
  std::memcpy(buf + 16, &entries64, 8);
  buf[24] = distinct ? 1 : 0;
}

uint64_t ReadU64At(const std::byte* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Streams one neighbor list into the writer's open "neighbors" section
// through a reusable chunk buffer whose padding bytes are zeroed once.
Status AppendNeighborEntries(ContainerWriter& writer,
                             std::span<const Neighbor> list,
                             std::vector<unsigned char>& buf) {
  constexpr size_t kEntriesPerChunk = 2048;
  if (buf.size() < kEntriesPerChunk * sizeof(Neighbor)) {
    buf.assign(kEntriesPerChunk * sizeof(Neighbor), 0);
  }
  size_t done = 0;
  while (done < list.size()) {
    const size_t count = std::min(kEntriesPerChunk, list.size() - done);
    for (size_t j = 0; j < count; ++j) {
      const Neighbor& nb = list[done + j];
      std::memcpy(buf.data() + j * 16, &nb.index, 4);
      std::memcpy(buf.data() + j * 16 + 8, &nb.distance, 8);
    }
    LOFKIT_RETURN_IF_ERROR(writer.Append(buf.data(), count * 16));
    done += count;
  }
  return Status::OK();
}

}  // namespace

Result<NeighborhoodMaterializer> NeighborhoodMaterializer::Materialize(
    const Dataset& data, const KnnIndex& index, size_t k_max,
    bool distinct_neighbors, const PipelineObserver& observer,
    const StopToken& stop) {
  LOFKIT_RETURN_IF_ERROR(ValidateMaterializationArgs(data, k_max));
  NeighborhoodMaterializer m(k_max, distinct_neighbors);
  m.data_ = &data;
  const size_t n = data.size();
  m.offsets_.reserve(n + 1);
  m.offsets_.push_back(0);
  m.flat_.reserve(n * k_max);
  TraceRecorder::Span span(observer.trace, "materialize", /*tid=*/0);
  // One context for the whole pass: every query after the first few runs
  // out of warmed scratch pools instead of fresh heap allocations. The
  // serial pass is its own single worker, so the observer's stats can be
  // bumped directly.
  KnnSearchContext ctx;
  ctx.stats = observer.query_stats;
  // Flight sampling needs counters for the per-record deltas, so an armed
  // recorder gets a local QueryStats even when the caller asked for no
  // totals.
  QueryStats local_stats;
  if (observer.flight != nullptr) {
    observer.flight->PrepareShards(1);
    ctx.flight = observer.flight->shard(0);
    if (ctx.stats == nullptr) ctx.stats = &local_stats;
  }
  if (!distinct_neighbors) {
    // The plain self-query pass goes through QueryBatch so engines with a
    // real batch override (the linear scan's query tiling) get to amortize
    // their data streaming across a whole chunk.
    std::vector<uint32_t> ids;
    for (size_t begin = 0; begin < n; begin += kBatchChunk) {
      if (stop.stop_possible()) {
        LOFKIT_RETURN_IF_ERROR(stop.CheckDeadline());
      }
      LOFKIT_FAIL_POINT("materializer.query");
      const size_t end = std::min(begin + kBatchChunk, n);
      ids.resize(end - begin);
      for (size_t j = 0; j < ids.size(); ++j) {
        ids[j] = static_cast<uint32_t>(begin + j);
      }
      LOFKIT_RETURN_IF_ERROR(TimedUnit(
          ctx, index, ids.front(), static_cast<uint32_t>(ids.size()), k_max,
          [&] { return index.QueryBatch(ids, k_max, ctx); }));
      for (size_t j = 0; j < ids.size(); ++j) {
        const auto list = ctx.batch_results(j);
        m.flat_.insert(m.flat_.end(), list.begin(), list.end());
        m.offsets_.push_back(m.flat_.size());
      }
      if (observer.progress != nullptr) observer.progress->Add(end - begin);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (stop.stop_possible()) {
        LOFKIT_RETURN_IF_ERROR(i % kStopCheckStride == 0 ? stop.CheckDeadline()
                                                         : stop.status());
      }
      LOFKIT_FAIL_POINT("materializer.query");
      LOFKIT_RETURN_IF_ERROR(TimedUnit(
          ctx, index, static_cast<uint32_t>(i), 1, k_max, [&] {
            return QueryNeighborhood(data, index, k_max, distinct_neighbors,
                                     i, ctx);
          }));
      const auto list = ctx.results();
      m.flat_.insert(m.flat_.end(), list.begin(), list.end());
      m.offsets_.push_back(m.flat_.size());
      if (observer.progress != nullptr) observer.progress->Add(1);
    }
  }
  m.BindToVectors();
  return m;
}

Result<NeighborhoodMaterializer> NeighborhoodMaterializer::MaterializeParallel(
    const Dataset& data, const KnnIndex& index, size_t k_max, size_t threads,
    bool distinct_neighbors, const PipelineObserver& observer,
    const StopToken& stop) {
  if (ResolveThreadCount(threads) <= 1) {
    return Materialize(data, index, k_max, distinct_neighbors, observer,
                       stop);
  }
  LOFKIT_RETURN_IF_ERROR(ValidateMaterializationArgs(data, k_max));
  const size_t n = data.size();
  std::vector<std::vector<Neighbor>> lists(n);
  TraceRecorder::Span span(observer.trace, "materialize", /*tid=*/0);
  LOFKIT_RETURN_IF_ERROR(QueryListsWindow(data, index, k_max, threads,
                                          distinct_neighbors, observer, stop,
                                          0, n, lists));
  span.End();

  NeighborhoodMaterializer m(k_max, distinct_neighbors);
  m.data_ = &data;
  m.offsets_.reserve(n + 1);
  m.offsets_.push_back(0);
  m.flat_.reserve(n * k_max);
  for (const auto& list : lists) {
    m.flat_.insert(m.flat_.end(), list.begin(), list.end());
    m.offsets_.push_back(m.flat_.size());
  }
  m.BindToVectors();
  return m;
}

Status NeighborhoodMaterializer::MaterializeToFile(
    const Dataset& data, const KnnIndex& index, size_t k_max, size_t threads,
    bool distinct_neighbors, const std::string& path,
    const PipelineObserver& observer, const StopToken& stop) {
  LOFKIT_FAIL_POINT("materialization.spill");
  LOFKIT_RETURN_IF_ERROR(ValidateMaterializationArgs(data, k_max));
  const size_t n = data.size();
  auto writer_or = ContainerWriter::Create(path, kMaterializationFileType,
                                           kMaterializationFileVersion);
  if (!writer_or.ok()) return writer_or.status();
  ContainerWriter writer = std::move(writer_or).value();

  TraceRecorder::Span span(observer.trace, "materialize.spill", /*tid=*/0);
  LOFKIT_RETURN_IF_ERROR(writer.BeginSection("neighbors"));
  // Peak residency: one window of neighbor lists plus this offsets table
  // (8 bytes per point) — never the n * k_max flat array the in-RAM route
  // holds. The window is a multiple of kBatchChunk so the chunking (and
  // therefore the produced M) matches MaterializeParallel bit for bit.
  std::vector<size_t> offsets;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  std::vector<std::vector<Neighbor>> lists;
  std::vector<unsigned char> entry_buf;
  size_t entry_count = 0;
  constexpr size_t kSpillWindow = 64 * kBatchChunk;
  for (size_t begin = 0; begin < n; begin += kSpillWindow) {
    const size_t end = std::min(begin + kSpillWindow, n);
    lists.resize(end - begin);
    LOFKIT_RETURN_IF_ERROR(QueryListsWindow(data, index, k_max, threads,
                                            distinct_neighbors, observer,
                                            stop, begin, end, lists));
    for (const auto& list : lists) {
      LOFKIT_RETURN_IF_ERROR(
          AppendNeighborEntries(writer, {list.data(), list.size()},
                                entry_buf));
      entry_count += list.size();
      offsets.push_back(entry_count);
    }
  }
  LOFKIT_RETURN_IF_ERROR(writer.EndSection());
  LOFKIT_RETURN_IF_ERROR(writer.AddSection(
      "offsets", offsets.data(), offsets.size() * sizeof(size_t)));
  unsigned char meta[kMaterializationMetaSize];
  SerializeMaterializationMeta(meta, k_max, n, entry_count,
                               distinct_neighbors);
  LOFKIT_RETURN_IF_ERROR(
      writer.AddSection("meta", meta, kMaterializationMetaSize));
  return writer.Finish();
}

Result<NeighborhoodMaterializer::KView> NeighborhoodMaterializer::View(
    size_t i, size_t k) const {
  if (i >= size()) {
    return Status::NotFound(StrFormat("point index %zu out of range", i));
  }
  if (k == 0 || k > k_max_) {
    return Status::OutOfRange(
        StrFormat("k (%zu) must be in [1, k_max=%zu]", k, k_max_));
  }
  const std::span<const Neighbor> list = neighbors(i);
  if (!distinct_) {
    if (k > list.size()) {
      return Status::OutOfRange(
          StrFormat("point %zu has only %zu materialized neighbors, need %zu",
                    i, list.size(), k));
    }
    const double k_distance = list[k - 1].distance;
    size_t end = k;
    while (end < list.size() && list[end].distance <= k_distance) ++end;
    return KView{k_distance, list.subspan(0, end)};
  }

  // Distinct mode: walk equal-distance runs, counting coordinate groups;
  // the k-distinct-distance is the distance of the run in which the k-th
  // group appears, and the neighborhood is everything through that run.
  size_t groups = 0;
  size_t run_begin = 0;
  while (run_begin < list.size()) {
    size_t run_end = run_begin + 1;
    while (run_end < list.size() &&
           list[run_end].distance == list[run_begin].distance) {
      ++run_end;
    }
    for (size_t a = run_begin; a < run_end; ++a) {
      bool is_new = true;
      for (size_t b = run_begin; b < a; ++b) {
        if (SameCoordinates(*data_, list[a].index, list[b].index)) {
          is_new = false;
          break;
        }
      }
      if (is_new) ++groups;
    }
    if (groups >= k) {
      return KView{list[run_begin].distance, list.subspan(0, run_end)};
    }
    run_begin = run_end;
  }
  return Status::OutOfRange(
      StrFormat("point %zu has only %zu distinct neighbors, need %zu", i,
                groups, k));
}

Result<NeighborhoodMaterializer> NeighborhoodMaterializer::FromLists(
    size_t k_max, bool distinct_neighbors, const Dataset* data,
    const std::vector<std::vector<Neighbor>>& lists) {
  if (k_max == 0) {
    return Status::InvalidArgument("k_max must be >= 1");
  }
  if (lists.empty()) {
    return Status::InvalidArgument("no neighbor lists given");
  }
  if (distinct_neighbors && data == nullptr) {
    return Status::InvalidArgument(
        "distinct-neighbors mode needs the dataset");
  }
  NeighborhoodMaterializer m(k_max, distinct_neighbors);
  m.data_ = data;
  m.offsets_.reserve(lists.size() + 1);
  m.offsets_.push_back(0);
  for (size_t i = 0; i < lists.size(); ++i) {
    const auto& list = lists[i];
    if (!distinct_neighbors && list.size() < k_max &&
        list.size() + 1 < lists.size()) {
      return Status::InvalidArgument(
          StrFormat("list %zu has %zu entries, expected >= k_max=%zu", i,
                    list.size(), k_max));
    }
    LOFKIT_RETURN_IF_ERROR(
        ValidateNeighborList(i, {list.data(), list.size()}, lists.size()));
    m.flat_.insert(m.flat_.end(), list.begin(), list.end());
    m.offsets_.push_back(m.flat_.size());
  }
  m.BindToVectors();
  return m;
}

namespace {

// Legacy v1 file layout (native little-endian), read-only since the
// container format replaced it as the write format:
//   magic "LOFM" (4 bytes) | version u32 | k_max u64 | distinct u8 |
//   n u64 | offsets (n+1) u64 | entries { index u32, distance f64 } ...
constexpr char kMagic[4] = {'L', 'O', 'F', 'M'};
constexpr uint32_t kVersion = 1;
constexpr size_t kLegacyHeaderBytes = 4 + 4 + 8 + 1 + 8;
constexpr size_t kLegacyOffsetBytes = 8;
constexpr size_t kLegacyEntryBytes = 4 + 8;

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status NeighborhoodMaterializer::SaveToFile(const std::string& path) const {
  LOFKIT_FAIL_POINT("materialization.save");
  auto writer_or = ContainerWriter::Create(path, kMaterializationFileType,
                                           kMaterializationFileVersion);
  if (!writer_or.ok()) return writer_or.status();
  ContainerWriter writer = std::move(writer_or).value();
  unsigned char meta[kMaterializationMetaSize];
  SerializeMaterializationMeta(meta, k_max_, size(), flat_view_.size(),
                               distinct_);
  LOFKIT_RETURN_IF_ERROR(
      writer.AddSection("meta", meta, kMaterializationMetaSize));
  LOFKIT_RETURN_IF_ERROR(writer.AddSection(
      "offsets", offsets_view_.data(), offsets_view_.size() * sizeof(size_t)));
  LOFKIT_RETURN_IF_ERROR(writer.BeginSection("neighbors"));
  std::vector<unsigned char> entry_buf;
  LOFKIT_RETURN_IF_ERROR(AppendNeighborEntries(writer, flat_view_, entry_buf));
  LOFKIT_RETURN_IF_ERROR(writer.EndSection());
  return writer.Finish();
}

Result<NeighborhoodMaterializer> NeighborhoodMaterializer::FromContainer(
    ContainerReader reader, const std::string& path, const Dataset* data,
    bool copy_to_ram) {
  if (reader.file_type() != kMaterializationFileType) {
    return Status::InvalidArgument(
        "container '" + path + "' is not a materialization file");
  }
  if (reader.file_version() != kMaterializationFileVersion) {
    return Status::InvalidArgument("unsupported materialization version");
  }
  LOFKIT_ASSIGN_OR_RETURN(auto meta, reader.Section("meta"));
  if (meta.size() != kMaterializationMetaSize) {
    return Status::InvalidArgument("corrupt materialization header");
  }
  const uint64_t k_max = ReadU64At(meta.data());
  const uint64_t n = ReadU64At(meta.data() + 8);
  const uint64_t entry_count = ReadU64At(meta.data() + 16);
  const bool distinct = std::to_integer<uint8_t>(meta[24]) != 0;
  if (k_max == 0 || n == 0) {
    return Status::InvalidArgument("corrupt materialization header");
  }
  if (distinct && data == nullptr) {
    return Status::InvalidArgument(
        "distinct-neighbors materialization needs the original dataset");
  }
  if (data != nullptr && data->size() != n) {
    return Status::InvalidArgument(
        StrFormat("materialization has %llu points, dataset has %zu",
                  static_cast<unsigned long long>(n), data->size()));
  }
  // Every count from the (checksummed but still untrusted) meta section is
  // reconciled against the actual section byte sizes — which the container
  // reader has already bounded by the real file size — before any resize,
  // so a hostile header can never trigger an unbounded allocation.
  LOFKIT_ASSIGN_OR_RETURN(auto offsets_bytes, reader.Section("offsets"));
  if (n > std::numeric_limits<uint64_t>::max() / sizeof(size_t) - 1 ||
      offsets_bytes.size() != (n + 1) * sizeof(size_t)) {
    return Status::InvalidArgument(
        "corrupt materialization: offsets section size disagrees with the "
        "point count");
  }
  LOFKIT_ASSIGN_OR_RETURN(auto neighbor_bytes, reader.Section("neighbors"));
  if (entry_count > std::numeric_limits<uint64_t>::max() / sizeof(Neighbor) ||
      neighbor_bytes.size() != entry_count * sizeof(Neighbor)) {
    return Status::InvalidArgument(
        "corrupt materialization: neighbors section size disagrees with the "
        "entry count");
  }

  NeighborhoodMaterializer m(static_cast<size_t>(k_max), distinct);
  m.data_ = data;
  if (copy_to_ram) {
    m.offsets_.resize(n + 1);
    std::memcpy(m.offsets_.data(), offsets_bytes.data(),
                offsets_bytes.size());
    m.flat_.resize(entry_count);
    if (entry_count != 0) {
      std::memcpy(m.flat_.data(), neighbor_bytes.data(),
                  neighbor_bytes.size());
    }
    m.BindToVectors();
  } else {
    // Zero-copy: the views point straight into the mapping (section starts
    // are 64-byte aligned by the container format), and the reader — which
    // owns the mapping — rides along for the materializer's lifetime.
    m.container_ = std::make_unique<ContainerReader>(std::move(reader));
    LOFKIT_ASSIGN_OR_RETURN(offsets_bytes, m.container_->Section("offsets"));
    LOFKIT_ASSIGN_OR_RETURN(neighbor_bytes,
                            m.container_->Section("neighbors"));
    m.offsets_view_ = {
        reinterpret_cast<const size_t*>(offsets_bytes.data()),
        static_cast<size_t>(n + 1)};
    m.flat_view_ = {
        reinterpret_cast<const Neighbor*>(neighbor_bytes.data()),
        static_cast<size_t>(entry_count)};
  }

  if (m.offsets_view_.front() != 0 ||
      m.offsets_view_.back() != entry_count) {
    return Status::InvalidArgument("corrupt materialization offsets");
  }
  for (size_t i = 1; i < m.offsets_view_.size(); ++i) {
    if (m.offsets_view_[i] < m.offsets_view_[i - 1]) {
      return Status::InvalidArgument("corrupt materialization offsets");
    }
  }
  // A file that decodes cleanly can still be semantically corrupt (bit rot
  // that happens to keep the CRC via a colliding flip is astronomically
  // unlikely, but foreign tools are not): enforce the same structural
  // invariants FromLists demands, since View()'s equal-distance-run walk
  // silently misbehaves on unsorted or non-finite neighbor lists.
  for (size_t i = 0; i + 1 < m.offsets_view_.size(); ++i) {
    LOFKIT_RETURN_IF_ERROR(ValidateNeighborList(i, m.neighbors(i), n));
  }
  return m;
}

Result<NeighborhoodMaterializer> NeighborhoodMaterializer::MapFromFile(
    const std::string& path, const Dataset* data) {
  LOFKIT_FAIL_POINT("materialization.map");
  LOFKIT_ASSIGN_OR_RETURN(auto reader, ContainerReader::Open(path));
  return FromContainer(std::move(reader), path, data, /*copy_to_ram=*/false);
}

Result<NeighborhoodMaterializer> NeighborhoodMaterializer::LoadFromFile(
    const std::string& path, const Dataset* data) {
  LOFKIT_FAIL_POINT("materialization.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open file: " + path);
  }
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in) {
    return Status::InvalidArgument("not a lofkit materialization file: " +
                                   path);
  }
  if (std::memcmp(magic, "LFKC", 4) == 0) {
    // Container magic: reopen through the checksummed mmap reader and copy
    // the sections into RAM.
    in.close();
    LOFKIT_ASSIGN_OR_RETURN(auto reader, ContainerReader::Open(path));
    return FromContainer(std::move(reader), path, data, /*copy_to_ram=*/true);
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a lofkit materialization file: " +
                                   path);
  }

  // Legacy v1 blob. No checksums; every header-derived count is bounded by
  // the actual file size before it reaches an allocation.
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(static_cast<std::streamoff>(sizeof(kMagic)), std::ios::beg);
  uint32_t version = 0;
  uint64_t k_max = 0;
  uint8_t distinct = 0;
  uint64_t n = 0;
  if (!ReadPod(in, version) || version != kVersion) {
    return Status::InvalidArgument("unsupported materialization version");
  }
  if (!ReadPod(in, k_max) || !ReadPod(in, distinct) || !ReadPod(in, n)) {
    return Status::IoError("truncated materialization header");
  }
  if (k_max == 0 || n == 0) {
    return Status::InvalidArgument("corrupt materialization header");
  }
  if (distinct && data == nullptr) {
    return Status::InvalidArgument(
        "distinct-neighbors materialization needs the original dataset");
  }
  if (data != nullptr && data->size() != n) {
    return Status::InvalidArgument(
        StrFormat("materialization has %llu points, dataset has %zu",
                  static_cast<unsigned long long>(n), data->size()));
  }
  const uint64_t body_bytes =
      file_size > kLegacyHeaderBytes ? file_size - kLegacyHeaderBytes : 0;
  // n + 1 offsets must fit in the body; phrased as n >= body/8 so a
  // hostile n == UINT64_MAX cannot wrap n + 1 around to zero.
  if (n >= body_bytes / kLegacyOffsetBytes) {
    return Status::InvalidArgument(
        "corrupt materialization header: offsets table exceeds the file "
        "size");
  }
  NeighborhoodMaterializer m(static_cast<size_t>(k_max), distinct != 0);
  m.data_ = data;
  m.offsets_.resize(n + 1);
  for (auto& offset : m.offsets_) {
    uint64_t value = 0;
    if (!ReadPod(in, value)) {
      return Status::IoError("truncated materialization offsets");
    }
    offset = static_cast<size_t>(value);
  }
  if (m.offsets_.front() != 0) {
    return Status::InvalidArgument("corrupt materialization offsets");
  }
  for (size_t i = 1; i < m.offsets_.size(); ++i) {
    if (m.offsets_[i] < m.offsets_[i - 1]) {
      return Status::InvalidArgument("corrupt materialization offsets");
    }
  }
  const uint64_t entry_bytes = body_bytes - (n + 1) * kLegacyOffsetBytes;
  if (m.offsets_.back() > entry_bytes / kLegacyEntryBytes) {
    return Status::InvalidArgument(
        "corrupt materialization offsets: entry count exceeds the file "
        "size");
  }
  m.flat_.resize(m.offsets_.back());
  for (Neighbor& neighbor : m.flat_) {
    if (!ReadPod(in, neighbor.index) || !ReadPod(in, neighbor.distance)) {
      return Status::IoError("truncated materialization entries");
    }
  }
  m.BindToVectors();
  // Same structural validation as the container route: View()'s
  // equal-distance-run walk silently misbehaves on unsorted or non-finite
  // neighbor lists, so a decodable-but-corrupt file is rejected here.
  for (size_t i = 0; i + 1 < m.offsets_.size(); ++i) {
    LOFKIT_RETURN_IF_ERROR(ValidateNeighborList(i, m.neighbors(i), n));
  }
  return m;
}

}  // namespace lofkit
