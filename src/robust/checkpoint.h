// Checkpoint/resume for sweeps and comparison grids: the sweep codec over
// RecordLog (robust/record_log.h). After every completed point (grid cell)
// the engine appends one record; a restarted sweep opened against the same
// file replays the recorded points instead of recomputing them.
//
// Records are keyed by the ResultCache's run key combined with the grid
// index, so a checkpoint only replays the exact same work; the header pins
// the dataset and workload fingerprints. Doubles travel as hex-floats, so a
// restored report serializes to byte-identical JSON for every
// non-wall-clock field. Restored reports lack the recodings
// (RunResult::relational / ::transaction stay empty, as after a ResultCache
// replay): they export bit-identically but cannot be re-materialized.

#ifndef SECRETA_ROBUST_CHECKPOINT_H_
#define SECRETA_ROBUST_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/annotations.h"
#include "common/mutex.h"
#include "engine/evaluator.h"
#include "robust/record_log.h"

namespace secreta {

/// \brief Append-only, thread-safe checkpoint file for one experiment.
///
/// Shared by every worker of a comparison grid; Append serializes through an
/// internal mutex and flushes per record.
class CheckpointLog {
 public:
  /// Opens (or creates) the checkpoint at `path` for a run over inputs with
  /// the given fingerprints. Loads every committed record of an existing
  /// file; a torn trailing record (killed mid-append) is cut off. Fails with
  /// FailedPrecondition when the file was written for different
  /// fingerprints.
  static Result<std::unique_ptr<CheckpointLog>> Open(const std::string& path,
                                                     uint64_t dataset_fp,
                                                     uint64_t workload_fp);

  /// Checkpoint key of one unit of work: the run cache key of the fully
  /// substituted point configuration, mixed with the configuration's index
  /// in the comparison grid (0 for a plain sweep) and the shard index (0
  /// for unsharded runs — the historical key space is unchanged). Sharded
  /// runs record one entry per (shard, grid) cell, so an interrupted
  /// multi-shard run resumes at shard granularity.
  static uint64_t PointKey(const AlgorithmConfig& point_config,
                           uint64_t dataset_fp, uint64_t workload_fp,
                           size_t config_index, size_t shard_index = 0);

  /// Copies the stored report for `key` into `*report` (and the sweep value
  /// into `*value` when non-null). False when the key is not recorded.
  bool Find(uint64_t key, EvaluationReport* report,
            double* value = nullptr) const SECRETA_EXCLUDES(mutex_);

  /// Appends one completed point and flushes. Later Opens (and Finds on this
  /// instance) will see it.
  Status Append(uint64_t key, double value, const EvaluationReport& report)
      SECRETA_EXCLUDES(mutex_);

  uint64_t dataset_fingerprint() const { return dataset_fp_; }
  uint64_t workload_fingerprint() const { return workload_fp_; }
  const std::string& path() const { return log_->path(); }
  /// Records loaded from the file at Open time (pre-crash progress).
  size_t loaded() const { return loaded_; }
  /// Records appended through this instance.
  size_t appended() const SECRETA_EXCLUDES(mutex_);

 private:
  struct Record {
    double value = 0;
    EvaluationReport report;
  };

  CheckpointLog(std::unique_ptr<RecordLog> log, uint64_t dataset_fp,
                uint64_t workload_fp, size_t loaded)
      : log_(std::move(log)),
        dataset_fp_(dataset_fp),
        workload_fp_(workload_fp),
        loaded_(loaded) {}

  const std::unique_ptr<RecordLog> log_;
  const uint64_t dataset_fp_;
  const uint64_t workload_fp_;
  const size_t loaded_;

  mutable Mutex mutex_;
  std::unordered_map<uint64_t, Record> records_ SECRETA_GUARDED_BY(mutex_);
  size_t appended_ SECRETA_GUARDED_BY(mutex_) = 0;
};

/// Convenience: computes the dataset/workload fingerprints of `inputs` (an
/// O(dataset) scan) and opens the checkpoint with them.
Result<std::unique_ptr<CheckpointLog>> OpenCheckpointForRun(
    const std::string& path, const EngineInputs& inputs,
    const Workload* workload);

}  // namespace secreta

#endif  // SECRETA_ROBUST_CHECKPOINT_H_
