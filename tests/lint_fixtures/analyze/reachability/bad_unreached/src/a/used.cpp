#include "a/used.h"

namespace fx {
int used() { return 0; }
}  // namespace fx
