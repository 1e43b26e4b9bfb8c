#include "serve/admission.h"

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace secreta {

AdmissionController::AdmissionController(JobScheduler* /*scheduler*/,
                                         const AdmissionOptions& options)
    : options_(options) {}

Result<double> AdmissionController::RunCount(ClientSession& session,
                                             const std::string& label,
                                             CountFn fn,
                                             AdmissionTiming* timing) {
  SECRETA_TRACE_SPAN("serve.admission");
  Stopwatch timer;
  MetricsRegistry& metrics = MetricsRegistry::Global();

  Status quota = session.ChargeQuota();
  if (!quota.ok()) {
    metrics.counter(metric_names::kAdmissionQuotaRejected)->Increment();
    return quota;
  }
  metrics.counter(metric_names::kAdmissionAdmitted)->Increment();

  Result<double> count = fn();
  const double elapsed = timer.ElapsedSeconds();
  if (timing != nullptr) timing->run_seconds = elapsed;
  if (!count.ok()) return count;
  const double deadline = options_.default_deadline_seconds;
  if (deadline > 0 && elapsed > deadline) {
    metrics.counter(metric_names::kAdmissionDeadlineExceeded)->Increment();
    return Status::DeadlineExceeded(
        StrFormat("query \"%s\" answered after %.3fs, past its %.3fs "
                  "deadline",
                  label.c_str(), elapsed, deadline));
  }
  return count;
}

}  // namespace secreta
