// Seeded privacy-flow violations. This file is NOT part of the build: it is
// the fixture for the WILL_FAIL ctest `lint.privacy_flow_detects`, which
// runs check_privacy_flow.py against this mini-tree and passes only when
// every seeded violation below is reported — proving the linter is live.

#include "data/dataset.h"  // serve-raw-include: bypasses serve/catalog.h
#include "service/job_scheduler.h"  // serve-service-include: batch layer

#include <string>

namespace secreta {

std::string LeakCell(const Dataset& dataset) {
  // sensitive-raw: unwrapping inside src/serve/ (boundary-external module).
  auto cell = dataset.value_string(0, 0).raw();
  // declassify-audit (x3): not on the closed declassifier list, missing the
  // justification comment, and the enclosing function is not annotated as a
  // declassifier.
  return std::string(Declassify(dataset.value_string(0, 0)));
}

}  // namespace secreta
