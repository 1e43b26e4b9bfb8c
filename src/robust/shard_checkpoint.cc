#include "robust/shard_checkpoint.h"

#include "common/string_util.h"

namespace secreta {

namespace {

constexpr RecordLogFormat kFormat = {"shard", "shard"};

}  // namespace

Result<std::unique_ptr<ShardCheckpoint>> ShardCheckpoint::Open(
    const std::string& path, uint64_t run_key, uint64_t dataset_fp,
    uint64_t plan_fp) {
  // Head fields: "<shard> <gcp> <seconds>"; the body-line count is the
  // shard's row count. Payload rows are not kept: only where each record
  // lives, for later ReadPayload() calls.
  std::map<size_t, Entry> records;
  auto load = [&records](const std::vector<std::string>& fields,
                         const RecordRef& ref) {
    uint64_t shard = 0;
    ShardMeta meta;
    if (fields.size() != 3 || !DecodeU64(fields[0], &shard) ||
        !DecodeDouble(fields[1], &meta.gcp) ||
        !DecodeDouble(fields[2], &meta.seconds)) {
      return false;
    }
    meta.shard = static_cast<size_t>(shard);
    meta.num_rows = ref.body_lines;
    records[meta.shard] = Entry{meta, ref};
    return true;
  };
  SECRETA_ASSIGN_OR_RETURN(
      std::unique_ptr<RecordLog> log,
      RecordLog::Open(path, kFormat, {run_key, dataset_fp, plan_fp}, load));
  std::unique_ptr<ShardCheckpoint> checkpoint(
      new ShardCheckpoint(std::move(log), records.size()));
  MutexLock lock(checkpoint->mutex_);
  checkpoint->records_ = std::move(records);
  return checkpoint;
}

bool ShardCheckpoint::FindMeta(size_t shard, ShardMeta* out) const {
  MutexLock lock(mutex_);
  auto it = records_.find(shard);
  if (it == records_.end()) return false;
  *out = it->second.meta;
  return true;
}

Result<ShardRecord> ShardCheckpoint::ReadPayload(size_t shard) const {
  Entry entry;
  {
    MutexLock lock(mutex_);
    auto it = records_.find(shard);
    if (it == records_.end()) {
      return Status::NotFound(
          StrFormat("shard %zu not in checkpoint %s", shard, path().c_str()));
    }
    entry = it->second;
  }
  ShardRecord record{entry.meta.shard, {}, {}, entry.meta.gcp,
                     entry.meta.seconds};
  record.rows.reserve(entry.meta.num_rows);
  record.lines.reserve(entry.meta.num_rows);
  // Payload lines are "<global row id>\t<anonymized CSV line>".
  SECRETA_RETURN_IF_ERROR(
      log_->ReadBody(entry.ref, [&record](const std::string& line) {
        size_t tab = line.find('\t');
        uint64_t row = 0;
        if (tab == std::string::npos || !DecodeU64(line.substr(0, tab), &row) ||
            row > 0xffffffffull) {
          return false;
        }
        record.rows.push_back(static_cast<uint32_t>(row));
        record.lines.emplace_back(line, tab + 1);
        return true;
      }));
  return record;
}

Status ShardCheckpoint::Append(const ShardRecord& record) {
  if (record.rows.size() != record.lines.size()) {
    return Status::InvalidArgument("shard record rows/lines length mismatch");
  }
  SECRETA_ASSIGN_OR_RETURN(
      RecordRef ref,
      log_->Append({std::to_string(record.shard), EncodeDouble(record.gcp),
                    EncodeDouble(record.seconds)},
                   record.rows.size(), [&record](size_t i, std::string* line) {
                     line->append(std::to_string(record.rows[i]));
                     line->push_back('\t');
                     line->append(record.lines[i]);
                   }));
  MutexLock lock(mutex_);
  records_[record.shard] = Entry{
      {record.shard, record.rows.size(), record.gcp, record.seconds}, ref};
  return Status::OK();
}

}  // namespace secreta
