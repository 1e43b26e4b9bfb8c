// Checkpoint/resume for sharded runs: the shard codec over RecordLog
// (robust/record_log.h). A byte-identical merge after a crash needs every
// completed shard's output rows back, not just its stats, so each record
// holds one shard's global row ids and anonymized CSV lines as body lines.
// Only per-shard stats and record locations stay in memory; ReadPayload()
// re-reads one shard on demand, keeping a resumed 1M-record merge
// shard-sized (docs/OPERATIONS.md "Out-of-core & sharded runs"). The header
// pins the run key, dataset fingerprint and shard-plan fingerprint.

#ifndef SECRETA_ROBUST_SHARD_CHECKPOINT_H_
#define SECRETA_ROBUST_SHARD_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "robust/record_log.h"

namespace secreta {

/// One completed shard's output, exactly as needed for a byte-identical
/// merge: ascending global row ids and one anonymized CSV line per row.
struct ShardRecord {
  size_t shard = 0;
  std::vector<uint32_t> rows;
  std::vector<std::string> lines;  ///< newline-free, parallel to `rows`
  double gcp = 0;                  ///< shard-mean GCP of the recoding
  double seconds = 0;              ///< original anonymize+materialize time
};

/// Per-shard stats available without touching the payload.
struct ShardMeta {
  size_t shard = 0;
  size_t num_rows = 0;
  double gcp = 0;
  double seconds = 0;
};

/// \brief Append-only, thread-safe per-shard output log for one sharded run.
class ShardCheckpoint {
 public:
  /// Opens (or creates) the checkpoint at `path` for the run identified by
  /// `run_key` (CheckpointLog::PointKey of the config at shard 0) over the
  /// dataset and partition with the given fingerprints.
  static Result<std::unique_ptr<ShardCheckpoint>> Open(const std::string& path,
                                                       uint64_t run_key,
                                                       uint64_t dataset_fp,
                                                       uint64_t plan_fp);

  /// Copies the stored metadata for `shard`. False if missing.
  bool FindMeta(size_t shard, ShardMeta* out) const SECRETA_EXCLUDES(mutex_);

  /// Re-reads `shard`'s payload from disk and re-verifies its commit.
  Result<ShardRecord> ReadPayload(size_t shard) const SECRETA_EXCLUDES(mutex_);

  /// Appends one completed shard and flushes. `record.rows` and
  /// `record.lines` must be the same length; lines must be newline-free.
  Status Append(const ShardRecord& record) SECRETA_EXCLUDES(mutex_);

  /// Shards loaded from a pre-existing file at Open (pre-crash progress).
  size_t loaded() const { return loaded_; }
  const std::string& path() const { return log_->path(); }

 private:
  struct Entry {
    ShardMeta meta;
    RecordRef ref;
  };

  ShardCheckpoint(std::unique_ptr<RecordLog> log, size_t loaded)
      : log_(std::move(log)), loaded_(loaded) {}

  const std::unique_ptr<RecordLog> log_;
  const size_t loaded_;

  mutable Mutex mutex_;
  std::map<size_t, Entry> records_ SECRETA_GUARDED_BY(mutex_);
};

}  // namespace secreta

#endif  // SECRETA_ROBUST_SHARD_CHECKPOINT_H_
