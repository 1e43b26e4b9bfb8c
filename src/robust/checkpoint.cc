#include "robust/checkpoint.h"

#include <array>

#include "common/string_util.h"
#include "service/result_cache.h"

namespace secreta {

namespace {

constexpr RecordLogFormat kFormat = {"sweep", "point"};

// A report's fixed fields by type, in record order after the key and the
// sweep value. `Report` is EvaluationReport or const EvaluationReport.
template <typename Report>
auto Metrics(Report& r) {
  return std::array{&r.gcp, &r.ul, &r.are, &r.discernibility, &r.cavg,
                    &r.item_freq_error, &r.entropy_loss, &r.kl_relational,
                    &r.kl_items, &r.suppressed, &r.run.runtime_seconds,
                    &r.evaluation_seconds, &r.queries_per_second};
}
template <typename Report>
auto Counts(Report& r) {
  return std::array{&r.run.initial_clusters, &r.run.final_clusters,
                    &r.run.merges};
}
template <typename Report>
auto Flags(Report& r) {
  return std::array{&r.guarantee_checked, &r.guarantee_ok, &r.degraded};
}
template <typename Report>
auto Texts(Report& r) {
  return std::array{&r.guarantee_name, &r.degraded_detail};
}

// Strings are percent-escaped so every field is a single tab-free,
// newline-free head field (empty strings stay empty fields).
std::string EscapeField(const std::string& raw) {
  std::string out;
  for (char c : raw) {
    if (c == '%' || c == '\t' || c == '\n' || c == '\r') {
      out += StrFormat("%%%02x", static_cast<unsigned char>(c));
    } else {
      out += c;
    }
  }
  return out;
}

bool UnescapeField(const std::string& field, std::string* out) {
  out->clear();
  for (size_t i = 0; i < field.size(); ++i) {
    uint64_t byte = static_cast<unsigned char>(field[i]);
    if (field[i] == '%') {
      if (i + 2 >= field.size() ||
          !DecodeU64(field.substr(i + 1, 2), &byte, 16) || byte > 0xff) {
        return false;
      }
      i += 2;
    }
    *out += static_cast<char>(byte);
  }
  return true;
}

// Head fields of one point record (the record has no body lines).
std::vector<std::string> SerializeRecord(uint64_t key, double value,
                                         const EvaluationReport& report) {
  std::vector<std::string> fields = {EncodeU64Hex(key), EncodeDouble(value)};
  for (const double* metric : Metrics(report)) {
    fields.push_back(EncodeDouble(*metric));
  }
  for (const size_t* count : Counts(report)) {
    fields.push_back(std::to_string(*count));
  }
  for (const bool* flag : Flags(report)) fields.push_back(*flag ? "1" : "0");
  for (const std::string* text : Texts(report)) {
    fields.push_back(EscapeField(*text));
  }
  const auto& phases = report.run.phases.phases();
  fields.push_back(std::to_string(phases.size()));
  for (const auto& [name, seconds] : phases) {
    fields.push_back(EscapeField(name));
    fields.push_back(EncodeDouble(seconds));
  }
  return fields;
}

bool ParseRecord(const std::vector<std::string>& fields, uint64_t* key,
                 double* value, EvaluationReport* report) {
  // key + value + fixed report fields + phase count, then the phases.
  const size_t fixed = 3 + Metrics(*report).size() + Counts(*report).size() +
                       Flags(*report).size() + Texts(*report).size();
  if (fields.size() < fixed) return false;
  size_t at = 0;
  if (!DecodeU64(fields[at++], key, 16) ||
      !DecodeDouble(fields[at++], value)) {
    return false;
  }
  for (double* metric : Metrics(*report)) {
    if (!DecodeDouble(fields[at++], metric)) return false;
  }
  for (size_t* count : Counts(*report)) {
    uint64_t decoded = 0;
    if (!DecodeU64(fields[at++], &decoded)) return false;
    *count = static_cast<size_t>(decoded);
  }
  for (bool* flag : Flags(*report)) *flag = fields[at++] == "1";
  for (std::string* text : Texts(*report)) {
    if (!UnescapeField(fields[at++], text)) return false;
  }
  uint64_t num_phases = 0;
  if (!DecodeU64(fields[at++], &num_phases) ||
      fields.size() != fixed + 2 * num_phases) {
    return false;
  }
  for (uint64_t i = 0; i < num_phases; ++i) {
    std::string name;
    double seconds = 0;
    if (!UnescapeField(fields[at++], &name) ||
        !DecodeDouble(fields[at++], &seconds)) {
      return false;
    }
    report->run.phases.Add(name, seconds);
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<CheckpointLog>> CheckpointLog::Open(
    const std::string& path, uint64_t dataset_fp, uint64_t workload_fp) {
  std::unordered_map<uint64_t, Record> records;
  auto load = [&records](const std::vector<std::string>& fields,
                         const RecordRef&) {
    uint64_t key = 0;
    Record record;
    bool ok = ParseRecord(fields, &key, &record.value, &record.report);
    if (ok) records[key] = std::move(record);
    return ok;
  };
  SECRETA_ASSIGN_OR_RETURN(
      std::unique_ptr<RecordLog> log,
      RecordLog::Open(path, kFormat, {dataset_fp, workload_fp}, load));
  std::unique_ptr<CheckpointLog> checkpoint(new CheckpointLog(
      std::move(log), dataset_fp, workload_fp, records.size()));
  MutexLock lock(checkpoint->mutex_);
  checkpoint->records_ = std::move(records);
  return checkpoint;
}

uint64_t CheckpointLog::PointKey(const AlgorithmConfig& point_config,
                                 uint64_t dataset_fp, uint64_t workload_fp,
                                 size_t config_index, size_t shard_index) {
  uint64_t key = HashCombine(RunCacheKey(point_config, dataset_fp, workload_fp),
                             static_cast<uint64_t>(config_index));
  // Shard 0 folds in nothing so unsharded checkpoints written before the
  // (shard, grid) key extension keep resuming byte-identically.
  if (shard_index != 0) {
    key = HashCombine(key, static_cast<uint64_t>(shard_index));
  }
  return key;
}

bool CheckpointLog::Find(uint64_t key, EvaluationReport* report,
                         double* value) const {
  MutexLock lock(mutex_);
  auto it = records_.find(key);
  if (it == records_.end()) return false;
  *report = it->second.report;
  if (value != nullptr) *value = it->second.value;
  return true;
}

Status CheckpointLog::Append(uint64_t key, double value,
                             const EvaluationReport& report) {
  SECRETA_RETURN_IF_ERROR(
      log_->Append(SerializeRecord(key, value, report)).status());
  MutexLock lock(mutex_);
  records_[key] = Record{value, report};
  ++appended_;
  return Status::OK();
}

size_t CheckpointLog::appended() const {
  MutexLock lock(mutex_);
  return appended_;
}

Result<std::unique_ptr<CheckpointLog>> OpenCheckpointForRun(
    const std::string& path, const EngineInputs& inputs,
    const Workload* workload) {
  if (inputs.dataset == nullptr) {
    return Status::InvalidArgument("checkpoint requires EngineInputs.dataset");
  }
  return CheckpointLog::Open(path, DatasetFingerprint(*inputs.dataset),
                             WorkloadFingerprint(workload));
}

}  // namespace secreta
