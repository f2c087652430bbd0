#ifndef LOFKIT_LOF_DENSITY_SUBSTRATE_H_
#define LOFKIT_LOF_DENSITY_SUBSTRATE_H_

#include <algorithm>
#include <vector>

#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/result.h"
#include "dataset/dataset.h"
#include "dataset/metric.h"
#include "index/knn_index.h"
#include "index/neighborhood_materializer.h"

namespace lofkit {

/// The shared k-distance/neighborhood layer every local-outlier scorer
/// (LOF, LDOF, the KDE density scorer, the kNN-distance and DB baselines)
/// computes from — the part of the paper's two-step algorithm that is
/// score-agnostic. A substrate answers one question: "the k-distance and
/// k-distance neighborhood of point i" (Definitions 3 and 4, ties
/// included, sorted by (distance, index)), from either of two backends:
///
///   * materialized — reads a NeighborhoodMaterializer (step 1's database
///     M), the paper's materialize-then-scan route;
///   * re-query     — runs the kNN query per view against a prebuilt
///     index, the bounded-memory route. Query(p, k) returns exactly the
///     neighborhood View(p, k) would, so every scorer built on the
///     substrate inherits LOF's "identical bits on both routes" guarantee
///     for free.
///
/// The per-worker plumbing the scorers used to duplicate lives here once:
/// one KnnSearchContext and one QueryStats shard per ParallelForWorker
/// worker (allocated lazily, reused across scans), deterministic stats
/// folding after the parallel region, StopToken polling and the
/// "substrate.query" fail point in the re-query view path.
///
/// A substrate is a non-owning view: the materializer / dataset / index /
/// metric must outlive it. Scans on one instance must not run
/// concurrently (the cursor pool is shared state); copying a substrate
/// yields an independent pool over the same backend, which is how the
/// sweep shards MinPts steps across threads.
class DensitySubstrate {
 public:
  /// The k-distance of a point with its k-distance neighborhood.
  struct View {
    double k_distance = 0.0;
    std::span<const Neighbor> neighborhood;
  };

  /// Per-worker scan state: the kNN scratch context and a query-stats
  /// shard. Opaque to scorers — obtain views through ViewOf().
  class Cursor {
   public:
    Cursor() = default;
    Cursor(Cursor&&) noexcept = default;
    Cursor& operator=(Cursor&&) noexcept = default;
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

   private:
    friend class DensitySubstrate;
    KnnSearchContext ctx_;
    QueryStats stats_;
  };

  /// Substrate over a materialized M. `data`/`metric` are optional and
  /// only needed by scorers that read the original coordinates (LDOF, the
  /// DB baseline); when `data` is given its size must match `m`.
  static Result<DensitySubstrate> OverMaterialization(
      const NeighborhoodMaterializer& m, const Dataset* data = nullptr,
      const Metric* metric = nullptr);

  /// Bounded-memory substrate: no M, every view is a kNN query against
  /// `index` (which must already be built over `data`). `metric` is only
  /// needed by coordinate-reading scorers.
  static Result<DensitySubstrate> OverIndex(const Dataset& data,
                                            const KnnIndex& index,
                                            const Metric* metric = nullptr);

  /// Copying yields an independent substrate over the same backend with a
  /// fresh (empty) cursor pool — safe to scan concurrently with the
  /// original.
  DensitySubstrate(const DensitySubstrate& other)
      : m_(other.m_),
        data_(other.data_),
        index_(other.index_),
        metric_(other.metric_) {}
  DensitySubstrate& operator=(const DensitySubstrate&) = delete;
  DensitySubstrate(DensitySubstrate&&) noexcept = default;
  DensitySubstrate& operator=(DensitySubstrate&&) noexcept = default;

  /// Number of points.
  size_t size() const { return m_ != nullptr ? m_->size() : data_->size(); }

  /// Largest k a view may ask for: the materialized k_max, or n - 1 on
  /// the re-query route (every point needs k neighbors besides itself).
  size_t k_max() const {
    return m_ != nullptr ? m_->k_max() : data_->size() - 1;
  }

  /// Whether views come from a materialized M (false = re-query route).
  bool materialized() const { return m_ != nullptr; }

  /// Whether k-distinct-distance counting is in effect (a materializer
  /// feature; always false on the re-query route).
  bool distinct_neighbors() const {
    return m_ != nullptr && m_->distinct_neighbors();
  }

  /// Whether coordinate-reading scorers can run (dataset + metric given).
  bool has_coordinates() const {
    return data_ != nullptr && metric_ != nullptr;
  }

  const Dataset* data() const { return data_; }
  const Metric* metric() const { return metric_; }
  const NeighborhoodMaterializer* materializer() const { return m_; }
  const KnnIndex* index() const { return index_; }

  /// Validates a MinPts value against this substrate's backend, with the
  /// exact error text LofComputer::Compute and the re-query route always
  /// used.
  Status ValidateMinPts(size_t min_pts) const;

  /// The k-distance view of point i for 1 <= k (<= k_max(), enforced by
  /// ValidateMinPts on the caller's side; the materialized route
  /// re-checks via M). On the re-query route this runs one kNN query
  /// through the cursor's context — the "substrate.query" fail point is
  /// planted there.
  Result<View> ViewOf(Cursor& cursor, size_t i, size_t k) const;

  /// Runs fn(cursor, i) for every i in [0, count) sharded over `threads`
  /// ParallelForWorker workers, each with its own Cursor from the pool
  /// (grown lazily, reused across scans). `observer.query_stats` arms the
  /// per-cursor stats shards on the re-query route; call
  /// FoldQueryStats(observer) once per computation — after the last scan,
  /// on success — to sum the shards deterministically into the observer.
  /// All ParallelForWorker semantics (deterministic chunking, stop
  /// polling, early abort, error precedence) apply unchanged.
  template <typename Fn>
  Status Scan(size_t count, size_t threads, const StopToken& stop,
              const PipelineObserver& observer, const Fn& fn) const {
    const size_t workers = std::min(ResolveThreadCount(threads),
                                    std::max<size_t>(count, size_t{1}));
    PrepareCursors(workers, observer);
    return ParallelForWorker(count, threads, stop,
                             [&](size_t worker, size_t i) -> Status {
                               return fn(cursors_[worker], i);
                             });
  }

  /// Sums every cursor's query-stats shard into observer.query_stats (in
  /// worker order, so totals are deterministic) and resets the shards.
  /// No-op when stats are unarmed or the substrate is materialized.
  void FoldQueryStats(const PipelineObserver& observer) const;

 private:
  DensitySubstrate() = default;

  void PrepareCursors(size_t workers, const PipelineObserver& observer) const;

  const NeighborhoodMaterializer* m_ = nullptr;
  const Dataset* data_ = nullptr;
  const KnnIndex* index_ = nullptr;
  const Metric* metric_ = nullptr;

  // Lazily grown per-worker pool; mutable because scans are logically
  // const reads of the backend. One substrate instance must not run
  // concurrent scans (copies are the concurrency mechanism).
  mutable std::vector<Cursor> cursors_;
};

}  // namespace lofkit

#endif  // LOFKIT_LOF_DENSITY_SUBSTRATE_H_
