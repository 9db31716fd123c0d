#include "b/orphan.h"

namespace fx {
int orphan() { return 1; }
}  // namespace fx
