// Compile-fail probe behind the `status_discard_rejected` ctest: Status is
// [[nodiscard]] and the build passes -Werror=unused-result, so this
// translation unit, which drops a Status on the floor, must not compile. Its
// target is EXCLUDE_FROM_ALL; only the probe test builds it.
#include "src/common/status.h"

namespace tierscape {

Status Flush();

void DropFlushResult() {
  Flush();  // rejected by the compiler: the returned Status is discarded
}

}  // namespace tierscape
