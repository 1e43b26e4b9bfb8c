// Fault-injection harness for robustness testing. Engine and service code
// declare named fault sites ("sweep.point", "job.run", ...) via
// SECRETA_FAULT_POINT; a configured FaultInjector decides per hit whether to
// poison the site with a transient Status, simulate an allocation failure,
// abort the task, or add artificial latency.
//
// Every build compiles the sites in. A disarmed site costs one acquire load
// of FaultInjector::armed_; nothing fires until a spec is configured.
//
// Spec grammar (CLI --faults=SPEC or the SECRETA_FAULTS environment
// variable): a comma-separated list of rules
//
//   <site>:<action>:<arg>
//
//   action  arg            effect at the site
//   ------  -------------  -------------------------------------------------
//   fail    p in [0,1]     Status::ResourceExhausted (retryable transient)
//   fail    @N             same, deterministically on the Nth hit (1-based)
//   oom     p | @N         Status::ResourceExhausted (allocation failure)
//   abort   p | @N         Status::Cancelled (task abort)
//   delay   seconds        sleep, then continue normally
//
// e.g. --faults=sweep.point:fail:0.05,job.run:delay:0.2
//
// Probabilistic triggers draw from a deterministic per-site RNG seeded from
// (global seed ^ hash(site)); the global seed comes from the
// SECRETA_FAULT_SEED environment variable (default 0), so a faulted run
// reproduces bit-for-bit.

#ifndef SECRETA_ROBUST_FAULT_INJECTION_H_
#define SECRETA_ROBUST_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"

namespace secreta {

/// What a triggered fault does at its site.
enum class FaultAction { kFail, kOom, kAbort, kDelay };

const char* FaultActionToString(FaultAction action);

/// One parsed rule of a fault spec.
struct FaultRule {
  std::string site;
  FaultAction action = FaultAction::kFail;
  /// Probabilistic trigger: chance of firing per hit. Ignored when nth > 0
  /// and for kDelay (which always fires).
  double probability = 0;
  /// Deterministic trigger: fire exactly on the Nth hit of the site
  /// (1-based); 0 = probabilistic.
  uint64_t nth = 0;
  /// kDelay only: how long to sleep.
  double delay_seconds = 0;
};

/// \brief Runtime fault configuration + trigger state. Thread-safe.
///
/// One process-wide instance (Global()) backs the SECRETA_FAULT_POINT sites;
/// tests may also construct private instances.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// The process-wide injector used by SECRETA_FAULT_POINT.
  static FaultInjector& Global();

  /// Parses a spec string into rules (see the grammar above).
  static Result<std::vector<FaultRule>> ParseSpec(const std::string& spec);

  /// Replaces the active configuration with `spec` and re-seeds the per-site
  /// RNGs from `seed` (callers typically pass the SECRETA_FAULT_SEED value).
  /// An empty spec disarms the injector.
  Status Configure(const std::string& spec, uint64_t seed = 0)
      SECRETA_EXCLUDES(mutex_);

  /// Disarms the injector and forgets all rules and hit counts.
  void Clear() SECRETA_EXCLUDES(mutex_);

  /// True when at least one rule is active. Lock-free: the fast path of an
  /// unconfigured site is a single acquire load.
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Evaluates every rule for `site` in configuration order. Returns the
  /// poisoned Status of the first firing fail/oom/abort rule; delays sleep
  /// and fall through. OK when nothing fires (or the injector is disarmed).
  Status Hit(std::string_view site) SECRETA_EXCLUDES(mutex_);

  /// Total hits recorded for `site` (0 for unknown sites).
  uint64_t hits(std::string_view site) const SECRETA_EXCLUDES(mutex_);

  /// Total faults injected (poisoned returns, not delays) since Configure.
  uint64_t injected() const SECRETA_EXCLUDES(mutex_);

 private:
  struct SiteState {
    FaultRule rule;
    uint64_t hits = 0;
    Rng rng{0};
  };

  std::atomic<bool> armed_{false};
  mutable Mutex mutex_;
  std::vector<SiteState> rules_ SECRETA_GUARDED_BY(mutex_);
  uint64_t injected_ SECRETA_GUARDED_BY(mutex_) = 0;
};

}  // namespace secreta

// Declares a fault site. A firing rule makes the enclosing function return
// the poisoned Status (the enclosing function must return Status or
// Result<T>).
#define SECRETA_FAULT_POINT(site)                                       \
  do {                                                                  \
    if (::secreta::FaultInjector::Global().armed()) {                   \
      ::secreta::Status _secreta_fault =                                \
          ::secreta::FaultInjector::Global().Hit(site);                 \
      if (!_secreta_fault.ok()) return _secreta_fault;                  \
    }                                                                   \
  } while (false)

#endif  // SECRETA_ROBUST_FAULT_INJECTION_H_
