// Admission control: the gates every COUNT passes before and after it runs.
// A COUNT's estimate takes microseconds, so it runs inline on the calling
// connection handler, in order:
//
//   1. tenant quota (token bucket) — an over-quota query is rejected with
//      ResourceExhausted plus a retry-after hint, which the protocol layer
//      surfaces as "retry_after_ms" (HTTP-429 style) so clients back off
//      instead of hammering;
//   2. the count itself;
//   3. per-query deadline — an answer that arrives later than the deadline is
//      discarded and the query fails with DeadlineExceeded. The check is
//      cooperative: the count is never interrupted, only judged late.
//
// There is no queue to apply backpressure to: each connection is synchronous,
// so in-flight COUNTs are bounded by the server's connection cap, and a
// connection beyond it is refused with ResourceExhausted + retry-after
// (serve/server.h).

#ifndef SECRETA_SERVE_ADMISSION_H_
#define SECRETA_SERVE_ADMISSION_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "serve/session.h"

namespace secreta {

class JobScheduler;

struct AdmissionOptions {
  /// Wall-clock budget per query; 0 disables the deadline.
  double default_deadline_seconds = 5.0;
};

/// Where an admitted query's wall-clock went, for tail traces. Zero on
/// rejection paths (the query never ran).
struct AdmissionTiming {
  double queue_seconds = 0;  ///< always 0 (no queue); read by perfbench/
  double run_seconds = 0;    ///< admission entry to answer
};

/// \brief Runs client queries through the quota and deadline gates on the
/// calling thread. Thread-safe: handlers on every connection call RunCount
/// concurrently.
class AdmissionController {
 public:
  /// `scheduler` is unused (pass nullptr); it remains only because
  /// perfbench/ still passes one.
  AdmissionController(JobScheduler* scheduler,
                      const AdmissionOptions& options = {});

  /// The admitted unit of work: computes one count. Runs on the caller's
  /// thread; must be safe to call concurrently with other queries (catalog
  /// lookups are const reads over published releases).
  using CountFn = std::function<Result<double>()>;

  /// Admits and executes one COUNT on behalf of `session`; `label` names the
  /// query in error messages. Rejections:
  ///  - ResourceExhausted (+retry-after): tenant quota exhausted;
  ///  - DeadlineExceeded: answered past the per-query deadline;
  ///  - any error `fn` returned (bad query, unknown dataset, ...).
  /// When `timing` is non-null it receives the run time of every query that
  /// passed the quota (including late ones).
  Result<double> RunCount(ClientSession& session, const std::string& label,
                          CountFn fn, AdmissionTiming* timing = nullptr);

 private:
  const AdmissionOptions options_;
};

}  // namespace secreta

#endif  // SECRETA_SERVE_ADMISSION_H_
