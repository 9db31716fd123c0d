// Fixture: detail.h is included only here; a reached header reaches its
// same-stem .cpp, so detail.h counts as reached.
#include "a/api.h"
#include "a/detail.h"

namespace fx {
int api() { return detail(); }
}  // namespace fx
